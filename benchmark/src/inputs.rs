//! Seeded input generation: architectures, sibling checkpoint pairs,
//! prompts and request lists. Nothing here is trained, and the program
//! under test sees only what these functions produce.

use std::collections::BTreeMap;

use chipalign_model::{ArchSpec, Checkpoint, ParamKind};
use chipalign_nn::GenerateConfig;
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

/// Vocabulary of `nn::CharTokenizer`: 4 specials + printable ASCII.
pub const VOCAB: usize = 99;
/// First id that decodes to a visible character (ids below are specials).
const FIRST_CHAR_ID: u32 = 4;

/// Relative size of each sibling's perturbation of the shared base: a
/// tensor `W` of RMS `r` becomes `W + SIBLING_ALPHA * r * u`, `u` uniform
/// with unit variance. Two siblings then sit at an angle of about
/// `SIBLING_ALPHA * sqrt(2)` rad on every tensor — far above the merge's
/// 3e-3 rad lerp fallback — and close enough that a sibling draft is
/// accepted at a share between 0.3 and 0.9 at this commit (`fleet_mixed`
/// prints the share it sees).
pub const SIBLING_ALPHA: f32 = 0.015;

/// The serving model: ~10.6 M parameters, 42 MB in f32 — larger than L2, so
/// decode is bandwidth-shaped like a real LLM.
pub fn bench_384() -> ArchSpec {
    ArchSpec {
        name: "bench-384".into(),
        vocab_size: VOCAB,
        d_model: 384,
        n_layers: 6,
        n_heads: 6,
        d_ff: 1024,
        max_seq_len: 512,
    }
}

/// The merge model: ~25.8 M parameters, 103 MB in f32.
pub fn bench_512x8() -> ArchSpec {
    ArchSpec {
        name: "bench-512x8".into(),
        vocab_size: VOCAB,
        d_model: 512,
        n_layers: 8,
        n_heads: 8,
        d_ff: 1408,
        max_seq_len: 512,
    }
}

/// Seconds-scale stand-in for both models under `--quick`.
pub fn quick_arch(name: &str) -> ArchSpec {
    ArchSpec {
        name: name.into(),
        vocab_size: VOCAB,
        d_model: 96,
        n_layers: 2,
        n_heads: 4,
        d_ff: 256,
        max_seq_len: 512,
    }
}

/// Uniform on `[-1, 1)` with 24 random bits. `Pcg32::normal` costs a log
/// and a cosine per sample; at 77 M samples per merge pair that would
/// dominate set-up, and the shape of the distribution is irrelevant here.
fn unit(rng: &mut Pcg32) -> f32 {
    (rng.next_u32() >> 8) as f32 * (2.0 / (1u32 << 24) as f32) - 1.0
}

fn uniform_matrix(rows: usize, cols: usize, bound: f32, rng: &mut Pcg32) -> Matrix {
    let data = (0..rows * cols).map(|_| unit(rng) * bound).collect();
    Matrix::from_vec(rows, cols, data).expect("rows * cols values")
}

/// A base checkpoint with the substrate's standard init scales (Xavier
/// projections, std-0.02 embeddings, unit norm gains), drawn uniformly.
pub fn base_checkpoint(arch: &ArchSpec, rng: &mut Pcg32) -> Checkpoint {
    let tensors: BTreeMap<String, Matrix> = arch
        .param_names()
        .into_iter()
        .map(|name| {
            let (r, c) = arch.shape_of(&name).expect("own names are valid");
            let m = match arch.kind_of(&name).expect("own names are valid") {
                ParamKind::Embedding | ParamKind::LmHead => {
                    uniform_matrix(r, c, 0.02 * 3f32.sqrt(), rng)
                }
                k if k.is_norm() => Matrix::ones(r, c),
                _ => uniform_matrix(r, c, (6.0 / (r + c) as f32).sqrt(), rng),
            };
            (name, m)
        })
        .collect();
    Checkpoint::from_parts(arch.clone(), tensors, BTreeMap::new()).expect("tensors match arch")
}

/// One sibling of `base`: every tensor perturbed independently (see
/// [`SIBLING_ALPHA`]).
pub fn sibling(base: &Checkpoint, rng: &mut Pcg32) -> Checkpoint {
    base.map_tensors(|_, w| {
        let rms = w.frobenius_norm() / (w.len() as f32).sqrt();
        // A uniform on [-1, 1) has variance 1/3.
        let bound = SIBLING_ALPHA * rms * 3f32.sqrt();
        let data = w.data().iter().map(|&x| x + unit(rng) * bound).collect();
        Matrix::from_vec(w.rows(), w.cols(), data).expect("same shape")
    })
}

/// A shared base and its two siblings.
pub struct Trio {
    pub base: Checkpoint,
    pub chip: Checkpoint,
    pub instruct: Checkpoint,
}

/// The base and its `chip` / `instruct` siblings for `arch` at `seed`.
pub fn sibling_trio(arch: &ArchSpec, seed: u64) -> Trio {
    let root = Pcg32::seed(seed);
    let base = base_checkpoint(arch, &mut root.derive(1));
    let chip = sibling(&base, &mut root.derive(2));
    let instruct = sibling(&base, &mut root.derive(3));
    Trio {
        base,
        chip,
        instruct,
    }
}

/// Greedy decoding of exactly `new_tokens` tokens: every request of the
/// benchmark, so that every run decodes the same amount.
pub fn greedy(new_tokens: usize) -> GenerateConfig {
    GenerateConfig {
        max_new_tokens: new_tokens,
        stop_at_eos: false,
        ..GenerateConfig::default()
    }
}

/// `len` visible characters, as text the wire can carry and the tokenizer
/// maps one-to-one onto `len` tokens.
pub fn text(len: usize, rng: &mut Pcg32) -> String {
    (0..len)
        .map(|_| char::from(b' ' + rng.below(VOCAB - FIRST_CHAR_ID as usize) as u8))
        .collect()
}

/// Token ids of [`text`] output (the tokenizer's mapping, without `BOS`).
pub fn tokens_of(text: &str) -> Vec<u32> {
    text.bytes()
        .map(|b| FIRST_CHAR_ID + u32::from(b - b' '))
        .collect()
}

/// A shuffled deck of `n` values cycling over `lo..=hi`: every seed sees
/// the same multiset (so the same total work), in a different order.
pub fn length_deck(n: usize, lo: usize, hi: usize, rng: &mut Pcg32) -> Vec<usize> {
    let mut deck: Vec<usize> = (0..n).map(|i| lo + i % (hi - lo + 1)).collect();
    rng.shuffle(&mut deck);
    deck
}

/// `n` scaffold choices: a share `shared_share` names one of `shared`
/// scaffolds with Zipf(1.0) popularity, the rest are `None` (a scaffold of
/// their own). The order is a smooth weighted round-robin, the same on
/// every seed: each scaffold recurs at even intervals, so whether the
/// prefix cache still holds it does not depend on the luck of a shuffle
/// (an unlucky gap evicts a scaffold for the rest of the run, which moved
/// throughput by 15 % between seeds). Seeds vary the texts, not the mix.
pub fn scaffold_sequence(n: usize, shared: usize, shared_share: f64) -> Vec<Option<usize>> {
    let harmonic: f64 = (1..=shared).map(|k| 1.0 / k as f64).sum();
    let mut weights: Vec<f64> = (1..=shared)
        .map(|k| shared_share / (k as f64 * harmonic))
        .collect();
    weights.push(1.0 - shared_share); // the last class: a unique scaffold
    let mut credit = vec![0.0; weights.len()];
    (0..n)
        .map(|_| {
            for (c, w) in credit.iter_mut().zip(&weights) {
                *c += w;
            }
            let pick = (0..credit.len())
                .max_by(|&a, &b| credit[a].total_cmp(&credit[b]))
                .expect("at least the unique class");
            credit[pick] -= 1.0;
            (pick < shared).then_some(pick)
        })
        .collect()
}
