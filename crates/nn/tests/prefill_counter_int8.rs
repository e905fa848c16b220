//! Counter pin, int8 weights: a quantized prefill stacks its rows into
//! skinny GEMMs too, and only single-row products are counted as matvecs.
//!
//! The quantized twin of `prefill_counter.rs`, in its own file because
//! `chipalign_tensor::tune::matvec_calls` is process-wide: an *upper* bound
//! on it only means something when nothing else runs in the process. Keep
//! this file at exactly one test.

use std::sync::Arc;

use chipalign_model::ArchSpec;
use chipalign_nn::{KvCache, TinyLm};
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::tune::{matvec_calls, GEMM_SKINNY_M_MAX};

#[test]
fn int8_prefill_issues_at_most_one_single_row_product_per_block() {
    let mut arch = ArchSpec::tiny("prefill-counter-int8");
    arch.vocab_size = 99;
    arch.max_seq_len = 96;
    let mut model = TinyLm::new(&arch, &mut Pcg32::seed(7)).expect("valid");
    model.quantize();
    let model = Arc::new(model);
    let prompt: Vec<u32> = (0..64).map(|i| 4 + (i * 7) % 90).collect();
    let blocks = prompt.len().div_ceil(GEMM_SKINNY_M_MAX) as u64;

    // Token by token every projection is an int8 matvec: 7 per layer plus
    // the LM head, per token.
    let per_token = 7 * arch.n_layers as u64 + 1;
    let mut stepped = KvCache::new(&model);
    let before = matvec_calls();
    let mut by_step = Vec::new();
    for &t in &prompt {
        by_step = stepped.decode_step(t).expect("ok");
    }
    assert_eq!(matvec_calls() - before, per_token * prompt.len() as u64);

    // Prefilled, the only `m == 1` product left is the LM head of the last
    // row; a stacked int8 GEMM is not a matvec and must not count as one.
    let mut prefilled = KvCache::new(&model);
    let before = matvec_calls();
    let by_prefill = prefilled.prefill(&prompt).expect("ok");
    let delta = matvec_calls() - before;
    assert!(
        delta <= blocks,
        "a {}-token int8 prefill made {delta} single-row products, expected at most {blocks}",
        prompt.len()
    );
    assert_eq!(by_prefill, by_step, "and the logits are the same bits");
}
