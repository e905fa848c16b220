//! Seeded property tests for the transformer substrate. Each property runs
//! [`CASES`] seeded cases ([`chipalign_tensor::rng::cases`]); a failure
//! reports its case number.

use std::sync::Arc;

use chipalign_model::ArchSpec;
use chipalign_nn::generate::{generate, GenerateConfig, StepDecoder};
use chipalign_nn::{loss, score, KvCache, TinyLm};
use chipalign_tensor::ops;
use chipalign_tensor::rng::{cases, Pcg32};

const CASES: u64 = 32;
const VOCAB: usize = 32;

fn arch() -> ArchSpec {
    ArchSpec {
        name: "prop".into(),
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

fn greedy(budget: usize) -> GenerateConfig {
    GenerateConfig {
        max_new_tokens: budget,
        stop_at_eos: false,
        ..GenerateConfig::default()
    }
}

#[test]
fn forward_is_finite_and_deterministic() {
    for mut rng in cases(1, CASES) {
        let model = model(&mut rng);
        let tokens = tokens(&mut rng, 2, 15);
        let a = model.logits(&tokens).unwrap();
        let b = model.logits(&tokens).unwrap();
        assert!(a.all_finite());
        assert!(a.approx_eq(&b, 0.0));
    }
}

#[test]
fn loss_is_positive_and_finite() {
    for mut rng in cases(2, CASES) {
        let model = model(&mut rng);
        let tokens = tokens(&mut rng, 2, 15);
        let logits = model.logits(&tokens).unwrap();
        let result = loss::cross_entropy(&logits, &tokens).unwrap();
        assert!(result.loss.is_finite());
        assert!(result.loss > 0.0);
        assert!(result.dlogits.all_finite());
    }
}

#[test]
fn causality_holds_for_random_models() {
    for mut rng in cases(3, CASES) {
        let model = model(&mut rng);
        let tokens = tokens(&mut rng, 2, 15);
        let full = model.logits(&tokens).unwrap();
        let cut = tokens.len() / 2 + 1;
        let prefix = model.logits(&tokens[..cut]).unwrap();
        for t in 0..cut {
            for v in 0..VOCAB {
                let a = full.get(t, v).unwrap();
                let b = prefix.get(t, v).unwrap();
                assert!((a - b).abs() < 1e-3, "causality violated at ({t},{v})");
            }
        }
    }
}

#[test]
fn generation_respects_budget() {
    for mut rng in cases(4, CASES) {
        let model = model(&mut rng);
        let budget = rng.range(1, 23);
        let out = generate(&model, &[1, 2, 3], &greedy(budget)).unwrap();
        assert_eq!(out.len(), budget);
        assert!(out.iter().all(|&t| (t as usize) < VOCAB));
    }
}

#[test]
fn choice_scores_are_valid_logprobs() {
    for mut rng in cases(5, CASES) {
        let model = model(&mut rng);
        let choices = vec![vec![4u32, 5], vec![6u32], vec![7u32, 8, 9]];
        let (best, scores) = score::choose(&model, &[1, 2], &choices, true).unwrap();
        assert!(best < choices.len());
        for s in &scores {
            assert!(s.is_finite());
            assert!(*s <= 0.0, "length-normalised logprob must be <= 0");
        }
    }
}

#[test]
fn decode_batch_bitwise_matches_sequential_on_random_histories() {
    for mut rng in cases(6, CASES) {
        // Arbitrary ragged prefill histories, arbitrary batch width 2..8,
        // several batched rounds: logits and cache lengths must equal the
        // one-session-at-a-time path exactly (==, not a tolerance).
        let model = model(&mut rng);
        let width = rng.range(2, 7);
        let histories: Vec<Vec<u32>> = (0..width).map(|_| tokens(&mut rng, 1, 11)).collect();
        let steps = tokens(&mut rng, 1, 3);
        let mk = |h: &Vec<u32>| {
            let mut c = KvCache::new(&model);
            c.prefill(h).unwrap();
            c
        };
        let mut seq: Vec<KvCache> = histories.iter().map(mk).collect();
        let mut bat: Vec<KvCache> = histories.iter().map(mk).collect();
        for &tok in &steps {
            if seq.iter().any(|c| c.len() >= arch().max_seq_len) {
                break; // next round would overflow some window
            }
            let toks = vec![tok; seq.len()];
            let expected: Vec<Vec<f32>> = seq
                .iter_mut()
                .map(|c| c.decode_step(tok).unwrap())
                .collect();
            let mut refs: Vec<&mut KvCache> = bat.iter_mut().collect();
            let got = KvCache::decode_batch(&mut refs, &toks).unwrap();
            assert_eq!(got, expected);
        }
        for (a, b) in seq.iter().zip(&bat) {
            assert_eq!(a.len(), b.len());
        }
    }
}

#[test]
fn kv_cache_matches_full_forward_across_window_slides() {
    for mut rng in cases(7, CASES) {
        let model = model(&mut rng);
        // max_seq_len is 16, so prompts of 12..24 tokens cover "almost
        // full", "exactly full", and "longer than the window" prefills.
        let prompt = tokens(&mut rng, 12, 23);
        let extra = rng.range(8, 19);
        let max_ctx = arch().max_seq_len;
        let mut context = prompt.clone();

        // Mirror `generate()`'s windowing exactly: prefill the most recent
        // window (leaving one free slot), decode step-by-step, and when the
        // cache fills, slide and re-prefill. At every position the cached
        // logits must match a full uncached forward pass over the cache's
        // exact window — including immediately after a slide re-prefill.
        let mut win_start = context.len().saturating_sub(max_ctx - 1);
        let mut cache = KvCache::new(&model);
        let mut last = cache.prefill(&context[win_start..]).unwrap();
        let mut slides = 0usize;
        for _ in 0..extra {
            assert!(cache.len() <= max_ctx, "cache may never exceed the window");
            let full = model.logits(&context[win_start..]).unwrap();
            let t = context.len() - win_start - 1;
            for (v, &cached) in last.iter().enumerate() {
                let reference = full.get(t, v).unwrap();
                assert!(
                    (reference - cached).abs() < 2e-3,
                    "cached/full mismatch at window pos {t} vocab {v}: {reference} vs {cached}",
                );
            }
            let next = ops::argmax(&last).unwrap() as u32;
            context.push(next);
            if cache.len() >= max_ctx {
                win_start = context.len() - (max_ctx - 1);
                cache.reset();
                last = cache.prefill(&context[win_start..]).unwrap();
                slides += 1;
            } else {
                last = cache.decode_step(next).unwrap();
            }
        }
        // With >= 12 prompt tokens, a 16-slot window, and >= 8 decode steps
        // the slide path must have triggered at least once.
        assert!(slides >= 1, "window slide path was not exercised");
    }
}

#[test]
fn chunked_prefill_is_bitwise_identical_to_one_shot() {
    for mut rng in cases(8, CASES) {
        // Feeding a prompt in arbitrary chunk sizes must reproduce the
        // one-shot prefill exactly (==): same final logits, same cache
        // length, same token history — and both must agree with a full
        // uncached forward pass over the same tokens.
        let model = model(&mut rng);
        let prompt = tokens(&mut rng, 2, 14);
        let chunk = rng.range(1, 7);
        let mut one_shot = KvCache::new(&model);
        let reference = one_shot.prefill(&prompt).unwrap();

        let mut chunked = KvCache::new(&model);
        let mut last = Vec::new();
        for piece in prompt.chunks(chunk) {
            last = chunked.prefill_chunk(piece).unwrap();
        }
        assert_eq!(
            &last, &reference,
            "chunked logits must match one-shot exactly"
        );
        assert_eq!(chunked.len(), one_shot.len());
        assert_eq!(chunked.tokens(), one_shot.tokens());

        let full = model.logits(&prompt).unwrap();
        let t = prompt.len() - 1;
        for (v, &cached) in last.iter().enumerate() {
            let f = full.get(t, v).unwrap();
            assert!(
                (f - cached).abs() < 2e-3,
                "chunked/full mismatch at vocab {v}: {f} vs {cached}",
            );
        }
    }
}

#[test]
fn chunked_decode_transcripts_match_generate_across_slides() {
    for mut rng in cases(9, CASES) {
        // Driving a StepDecoder with bounded prefill chunks — including
        // the chunked replay of every deferred window slide — must emit
        // the same tokens as the plain generate() loop, byte for byte.
        let model = model(&mut rng);
        let prompt = tokens(&mut rng, 2, 23);
        let chunk = rng.range(1, 5);
        let cfg = greedy(rng.range(4, 15));
        let reference = generate(&model, &prompt, &cfg).unwrap();
        let mut dec = StepDecoder::new_chunked(&model, &prompt, &cfg).unwrap();
        let mut out = Vec::new();
        loop {
            while dec.is_prefilling() {
                dec.prefill_pending(chunk).unwrap();
            }
            match dec.step().unwrap() {
                Some(t) => out.push(t),
                None => break,
            }
        }
        assert_eq!(out, reference);
    }
}

#[test]
fn adopted_prefix_transcripts_match_cold_prefill() {
    for mut rng in cases(10, CASES) {
        // A session seeded with a forked KV prefix of any length must
        // decode the same transcript as one that prefilled from scratch.
        let model = model(&mut rng);
        let prompt = tokens(&mut rng, 2, 23);
        let cfg = greedy(rng.range(4, 15));
        let reference = generate(&model, &prompt, &cfg).unwrap();
        let mut dec = StepDecoder::new_chunked(&model, &prompt, &cfg).unwrap();
        let window = dec.pending_prefill().to_vec();
        if window.len() >= 2 {
            let mut donor = KvCache::new(&model);
            donor.prefill(&window).unwrap();
            let p = rng.range(1, window.len() - 1);
            let fork = donor.fork_from(p).unwrap();
            let adopted = dec.adopt_prefix(fork).unwrap();
            assert_eq!(adopted, p);
        }
        let mut out = Vec::new();
        while let Some(t) = dec.step().unwrap() {
            out.push(t);
        }
        assert_eq!(out, reference);
    }
}

#[test]
fn checkpoint_round_trip_is_lossless() {
    for mut rng in cases(11, CASES) {
        let model = model(&mut rng);
        let tokens = tokens(&mut rng, 2, 15);
        let ckpt = model.to_checkpoint().unwrap();
        let restored = TinyLm::from_checkpoint(&ckpt).unwrap();
        let a = model.logits(&tokens).unwrap();
        let b = restored.logits(&tokens).unwrap();
        assert!(a.approx_eq(&b, 0.0));
    }
}
