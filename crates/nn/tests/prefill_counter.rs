//! Counter pin: a prefill stacks its rows into skinny GEMMs.
//!
//! `chipalign_tensor::tune::matvec_calls` is process-wide, so an *upper*
//! bound on it only means something when nothing else runs in the process.
//! That is why this file holds exactly one test — keep it that way.

use std::sync::Arc;

use chipalign_model::ArchSpec;
use chipalign_nn::{KvCache, TinyLm};
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::tune::{matvec_calls, GEMM_SKINNY_M_MAX};

#[test]
fn f32_prefill_issues_at_most_one_single_row_product_per_block() {
    let mut arch = ArchSpec::tiny("prefill-counter");
    arch.vocab_size = 99;
    arch.max_seq_len = 96;
    let model = Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(7)).expect("valid"));
    let prompt: Vec<u32> = (0..64).map(|i| 4 + (i * 7) % 90).collect();
    let blocks = prompt.len().div_ceil(GEMM_SKINNY_M_MAX) as u64;

    // Token by token every projection is a matvec: 7 per layer plus the LM
    // head, per token.
    let per_token = 7 * arch.n_layers as u64 + 1;
    let mut stepped = KvCache::new(&model);
    let before = matvec_calls();
    let mut by_step = Vec::new();
    for &t in &prompt {
        by_step = stepped.decode_step(t).expect("ok");
    }
    assert_eq!(matvec_calls() - before, per_token * prompt.len() as u64);

    // Prefilled, the only `m == 1` product left is the LM head of the last
    // row (one per 32-row block would still pass; one per projection per
    // token, as before GEMM prefill, is 960).
    let mut prefilled = KvCache::new(&model);
    let before = matvec_calls();
    let by_prefill = prefilled.prefill(&prompt).expect("ok");
    let delta = matvec_calls() - before;
    assert!(
        delta <= blocks,
        "a {}-token prefill made {delta} single-row products, expected at most {blocks}",
        prompt.len()
    );
    assert_eq!(by_prefill, by_step, "and the logits are the same bits");
}
