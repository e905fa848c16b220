//! Seeded differential property tests: paged KV storage vs the contiguous
//! oracle.
//!
//! Every f32 test drives a paged cache (or decoder) and a contiguous twin
//! through the *same* operations and asserts bitwise-equal outputs (`==`,
//! never a tolerance). The contiguous path is the reference
//! implementation; the paged path adds block tables, refcounted aliasing,
//! and copy-on-write — none of which may change a single output bit.
//!
//! The dtype axis relaxes exactly one thing: int8-KV pools are pinned
//! within [`KV8_LOGIT_TOL`] of the same contiguous-f32 oracle (with
//! margin-gated argmax agreement) instead of bitwise, since sealed blocks
//! round K/V rows to per-head-scaled i8 codes.
//!
//! Each property runs [`CASES`] seeded cases
//! ([`chipalign_tensor::rng::cases`]); a failure reports its case number.

use std::sync::Arc;

use chipalign_model::ArchSpec;
use chipalign_nn::generate::{GenerateConfig, StepDecoder};
use chipalign_nn::{KvCache, KvDtype, KvPool, KvPoolConfig, TinyLm, KV8_LOGIT_TOL};
use chipalign_tensor::ops;
use chipalign_tensor::rng::{cases, Pcg32};

const CASES: u64 = 24;
const VOCAB: usize = 32;

fn arch() -> ArchSpec {
    ArchSpec {
        name: "kvpool-prop".into(),
        vocab_size: VOCAB,
        d_model: 8,
        n_layers: 2,
        n_heads: 2,
        d_ff: 16,
        max_seq_len: 16,
    }
}

fn model(rng: &mut Pcg32) -> Arc<TinyLm> {
    Arc::new(TinyLm::new(&arch(), rng).unwrap())
}

/// Between `lo` and `hi` (inclusive) random token ids.
fn tokens(rng: &mut Pcg32, lo: usize, hi: usize) -> Vec<u32> {
    let len = rng.range(lo, hi);
    (0..len).map(|_| rng.below(VOCAB) as u32).collect()
}

/// Between 1 and 23 random cache operations `(op in 0..4, token, k in 1..=4)`.
fn random_ops(rng: &mut Pcg32) -> Vec<(usize, u32, usize)> {
    let len = rng.range(1, 23);
    (0..len)
        .map(|_| (rng.below(4), rng.below(VOCAB) as u32, rng.range(1, 4)))
        .collect()
}

fn pool_with(block_tokens: usize, dtype: KvDtype) -> Arc<KvPool> {
    KvPool::new(KvPoolConfig {
        block_tokens,
        max_blocks: 4096,
        dtype,
    })
    .expect("valid pool config")
}

/// One logit row against the oracle: bitwise for f32 pools, within
/// `KV8_LOGIT_TOL` plus margin-gated argmax agreement for int8 pools. An
/// empty chunk (no room left, or a replay of an empty history) yields an
/// empty row on both sides.
fn check_row(oracle: &[f32], got: &[f32], int8: bool, what: &str) {
    if !int8 {
        assert_eq!(oracle, got, "{what} drifted bitwise");
        return;
    }
    assert_eq!(oracle.len(), got.len(), "{what}: row lengths differ");
    if oracle.is_empty() {
        return;
    }
    let max_diff = oracle
        .iter()
        .zip(got)
        .fold(0.0f32, |acc, (a, b)| acc.max((a - b).abs()));
    assert!(
        max_diff <= KV8_LOGIT_TOL,
        "{what}: int8-KV drifted {max_diff} (> {KV8_LOGIT_TOL}) from the f32 oracle"
    );
    let am = ops::argmax(oracle).expect("non-empty");
    let runner_up = oracle
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != am)
        .fold(f32::NEG_INFINITY, |acc, (_, &v)| acc.max(v));
    if oracle[am] - runner_up > 2.0 * KV8_LOGIT_TOL {
        assert_eq!(
            ops::argmax(got).expect("non-empty"),
            am,
            "{what}: argmax flipped despite a wide margin"
        );
    }
}

#[test]
fn pooled_decoder_transcripts_match_contiguous_across_slides() {
    for mut rng in cases(1, CASES) {
        // Chunked prefill × window slide × paged storage, at every block
        // size: the pooled decoder must emit the same bytes as the
        // contiguous one. Prompts up to 24 tokens against a 16-slot
        // window plus 4..16 decode steps force slide re-prefills, which
        // replay through the paged path too.
        let model = model(&mut rng);
        let prompt = tokens(&mut rng, 2, 23);
        let (chunk, bt) = (rng.range(1, 5), rng.range(1, 5));
        let cfg = GenerateConfig {
            max_new_tokens: rng.range(4, 15),
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let mut flat = StepDecoder::new_chunked(&model, &prompt, &cfg).unwrap();
        let p = pool_with(bt, KvDtype::F32);
        let mut paged = StepDecoder::new_chunked_pooled(&model, &prompt, &cfg, &p).unwrap();
        loop {
            while flat.is_prefilling() {
                flat.prefill_pending(chunk).unwrap();
            }
            while paged.is_prefilling() {
                paged.prefill_pending(chunk).unwrap();
            }
            let x = flat.step().unwrap();
            let y = paged.step().unwrap();
            assert_eq!(x, y, "pooled transcript drifted from contiguous");
            if x.is_none() {
                break;
            }
        }
        drop(paged);
        assert_eq!(
            p.blocks_in_use(),
            0,
            "dropping the session must free its blocks"
        );
    }
}

#[test]
fn fork_then_diverge_both_branches_matches_contiguous_twins() {
    for mut rng in cases(2, CASES) {
        // The copy-on-write pin: fork a paged donor at an arbitrary point
        // (block-aligned or not), then advance donor and fork in an
        // interleaved order. Neither branch may corrupt the other — both
        // must stay bitwise equal to independent contiguous twins.
        let model = model(&mut rng);
        let prompt = tokens(&mut rng, 2, 11);
        let p = pool_with(rng.range(1, 5), KvDtype::F32);
        let donor_toks = tokens(&mut rng, 1, 3);
        let fork_toks = tokens(&mut rng, 1, 3);
        let mut donor = KvCache::new_paged(&model, &p);
        donor.prefill(&prompt).unwrap();
        let mut flat_donor = KvCache::new(&model);
        flat_donor.prefill(&prompt).unwrap();

        let fork_at = rng.range(0, prompt.len());
        let blocks_before = p.blocks_in_use();
        let mut fork = donor.fork_from(fork_at).unwrap();
        assert_eq!(
            p.blocks_in_use(),
            blocks_before,
            "fork must allocate zero blocks"
        );
        let mut flat_fork = flat_donor.fork_from(fork_at).unwrap();

        let rounds = donor_toks.len().max(fork_toks.len());
        for i in 0..rounds {
            if let Some(&t) = donor_toks.get(i) {
                assert_eq!(
                    donor.decode_step(t).unwrap(),
                    flat_donor.decode_step(t).unwrap(),
                    "donor drifted after fork divergence"
                );
            }
            if let Some(&t) = fork_toks.get(i) {
                assert_eq!(
                    fork.decode_step(t).unwrap(),
                    flat_fork.decode_step(t).unwrap(),
                    "fork drifted after divergence"
                );
            }
        }
        assert_eq!(donor.tokens(), flat_donor.tokens());
        assert_eq!(fork.tokens(), flat_fork.tokens());
    }
}

/// The interleaving sweep: chunked prefill, single-token decode, zero-copy
/// fork (cut at `aligned_fork_len`, so on int8 pools never inside a sealed
/// block, and kept live and stepped alongside its donor, exercising CoW),
/// and window-slide-style reset+replay, in arbitrary order, against
/// the contiguous-f32 oracle. The block table must track
/// `ceil(len / block_tokens)` exactly, and every block and byte must return
/// to the pool.
fn sweep_random_ops(rng: &mut Pcg32, dtype: KvDtype) {
    let int8 = dtype == KvDtype::Int8;
    let model = model(rng);
    let max_ctx = arch().max_seq_len;
    let p = pool_with(rng.range(1, 5), dtype);
    let mut paged = KvCache::new_paged(&model, &p);
    let mut flat = KvCache::new(&model);
    let mut forks: Option<(KvCache, KvCache)> = None;
    for (i, (op, tok, k)) in random_ops(rng).into_iter().enumerate() {
        let at = |what: &str| format!("op {i}: {what}");
        match op {
            0 => {
                if paged.len() < max_ctx {
                    check_row(
                        &flat.decode_step(tok).unwrap(),
                        &paged.decode_step(tok).unwrap(),
                        int8,
                        &at("decode_step"),
                    );
                }
            }
            1 => {
                let room = max_ctx - paged.len();
                let n = k.min(room);
                let chunk: Vec<u32> = (0..n).map(|i| (tok + i as u32) % 32).collect();
                let oracle = flat.prefill_chunk(&chunk).unwrap();
                let got = paged.prefill_chunk(&chunk).unwrap();
                check_row(&oracle, &got, int8, &at("prefill_chunk"));
            }
            2 => {
                let fork_at = paged.aligned_fork_len(k);
                forks = Some((
                    paged.fork_from(fork_at).unwrap(),
                    flat.fork_from(fork_at).unwrap(),
                ));
            }
            _ => {
                // Window-slide shape: reset, replay a recent suffix.
                let hist: Vec<u32> = paged.tokens().to_vec();
                let start = hist.len().saturating_sub(k);
                paged.reset();
                flat.reset();
                let oracle = flat.prefill_chunk(&hist[start..]).unwrap();
                let got = paged.prefill_chunk(&hist[start..]).unwrap();
                check_row(&oracle, &got, int8, &at("slide replay"));
            }
        }
        // Advance any live fork pair too, so donor/fork copy-on-write
        // interleaves with every other operation.
        if let Some((pf, ff)) = forks.as_mut() {
            if pf.len() < max_ctx {
                check_row(
                    &ff.decode_step(tok).unwrap(),
                    &pf.decode_step(tok).unwrap(),
                    int8,
                    &at("live fork"),
                );
            }
        }
        assert_eq!(paged.len(), flat.len(), "op {i}");
        assert_eq!(paged.tokens(), flat.tokens(), "op {i}");
        assert_eq!(paged.block_count(), p.blocks_for(paged.len()), "op {i}");
    }
    drop(paged);
    drop(forks);
    assert_eq!(p.blocks_in_use(), 0, "all blocks return to the pool");
    assert_eq!(p.bytes_in_use(), 0, "all bytes return with them");
}

#[test]
fn random_op_interleavings_stay_bitwise_identical() {
    for mut rng in cases(3, CASES) {
        sweep_random_ops(&mut rng, KvDtype::F32);
    }
}

#[test]
fn random_op_interleavings_across_dtypes_track_the_oracle() {
    // The dtype axis over the same sweep: f32 pools must agree bitwise;
    // int8 pools within KV8_LOGIT_TOL with margin-gated argmax agreement.
    for mut rng in cases(4, CASES) {
        let dtype = if rng.chance(0.5) {
            KvDtype::Int8
        } else {
            KvDtype::F32
        };
        sweep_random_ops(&mut rng, dtype);
    }
}
