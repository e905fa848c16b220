//! Baseline-merge bit pins across versions.
//!
//! Each case folds the merged checkpoint — every metadata entry, then every
//! tensor's name and the bit pattern (`f32::to_bits`) of each of its values
//! in canonical order — into one FNV-1a hash, compared with a constant
//! captured from an earlier version of the code. The unit tests in
//! `baselines.rs` pin what each method means (soup ≡ mean, DARE at p = 0 ≡
//! TA, …) to a tolerance; this file pins the exact bits, so a refactor of
//! the merge skeleton, the RNG stream derivation or the sparsifiers that
//! moves any value anywhere fails here.
//!
//! The baselines run no kernel-tier code (elementwise updates, sorts and
//! selections only), so the constants were captured under all three tiers
//! (`CHIPALIGN_BACKEND=scalar|blocked|simd`), agree, and are one set. The
//! failure message prints this run's table ready to paste.

use chipalign_merge::{Dare, Della, MergeError, Merger, ModelSoup, TaskArithmetic, Ties};
use chipalign_model::{ArchSpec, Checkpoint};
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

/// FNV-1a over metadata, tensor names and value bit patterns.
struct BitHash(u64);

impl BitHash {
    fn new() -> Self {
        BitHash(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn checkpoint(mut self, ckpt: &Checkpoint) -> u64 {
        for (key, value) in ckpt.metadata() {
            self.bytes(key.as_bytes());
            self.bytes(value.as_bytes());
        }
        for (name, tensor) in ckpt.iter() {
            self.bytes(name.as_bytes());
            for x in tensor.data() {
                self.bytes(&x.to_bits().to_le_bytes());
            }
        }
        self.0
    }
}

fn arch() -> ArchSpec {
    ArchSpec {
        name: "baselines-pin".into(),
        vocab_size: 61,
        d_model: 24,
        n_layers: 2,
        n_heads: 2,
        d_ff: 40,
        max_seq_len: 32,
    }
}

/// A base model and `n` specialists finetuned from it: each is the base
/// plus its own small perturbation, so task vectors overlap and conflict
/// in sign the way real ones do.
fn base_and_tasks(n: u64) -> (Checkpoint, Vec<Checkpoint>) {
    let base = Checkpoint::random(&arch(), &mut Pcg32::seed(1));
    let tasks = (0..n)
        .map(|t| {
            let mut rng = Pcg32::seed(100 + t);
            base.map_tensors(|_, w| {
                let noise = Matrix::randn(w.rows(), w.cols(), 0.05, &mut rng);
                w.add(&noise).expect("same shape")
            })
        })
        .collect();
    (base, tasks)
}

/// Every case's hash, in table order.
fn cases() -> Result<Vec<(&'static str, u64)>, MergeError> {
    let (base, tasks) = base_and_tasks(3);
    let [a, b, c] = [&tasks[0], &tasks[1], &tasks[2]];
    let hash = |ckpt: Checkpoint| BitHash::new().checkpoint(&ckpt);
    let pair = |m: &dyn Merger| m.merge_pair(a, b).map(hash);
    Ok(vec![
        ("soup of 2", pair(&ModelSoup::new())?),
        ("soup of 3", hash(ModelSoup::new().merge_many(&[a, b, c])?)),
        (
            "TA pair, scale 0.8",
            pair(&TaskArithmetic::new(base.clone(), 0.8)?)?,
        ),
        (
            "TIES pair, recommended",
            pair(&Ties::recommended(base.clone())?)?,
        ),
        (
            "DELLA pair, recommended",
            pair(&Della::recommended(base.clone(), 7)?)?,
        ),
        (
            "DARE pair, recommended",
            pair(&Dare::recommended(base.clone(), 7)?)?,
        ),
        (
            "TA of 3, scale 0.5",
            hash(TaskArithmetic::new(base.clone(), 0.5)?.merge_many(&[a, b, c])?),
        ),
        (
            "TIES of 3, density 0.5, scale 0.7",
            hash(Ties::new(base.clone(), 0.5, 0.7)?.merge_many(&[a, b, c])?),
        ),
        (
            "DELLA of 3, p 0.4, window 0.3, scale 0.9",
            hash(Della::new(base.clone(), 0.4, 0.3, 0.9, 11)?.merge_many(&[a, b, c])?),
        ),
        (
            "DARE of 3, p 0.3, scale 0.6",
            hash(Dare::new(base, 0.3, 0.6, 12)?.merge_many(&[a, b, c])?),
        ),
    ])
}

const PINNED: [u64; 10] = [
    0x6b16f5e1faa22282, // soup of 2
    0xc3f352c2ba722271, // soup of 3
    0x2a00c1b4428833f4, // TA pair, scale 0.8
    0xa98a936f0cee974c, // TIES pair, recommended
    0x1f8bf861c0fbd5ed, // DELLA pair, recommended
    0x52f1821f07198497, // DARE pair, recommended
    0x941471789a221b98, // TA of 3, scale 0.5
    0xb18014e5866d45da, // TIES of 3, density 0.5, scale 0.7
    0xd021d05f6529a225, // DELLA of 3, p 0.4, window 0.3, scale 0.9
    0xf55da2fb8a9f5a79, // DARE of 3, p 0.3, scale 0.6
];

#[test]
fn baseline_merges_match_the_pinned_bits() {
    let got = cases().expect("every case merges");
    assert_eq!(got.len(), PINNED.len());
    let mismatched: Vec<&str> = got
        .iter()
        .zip(PINNED)
        .filter(|((_, hash), want)| hash != want)
        .map(|((name, _), _)| *name)
        .collect();
    let table: String = got
        .iter()
        .map(|(name, hash)| format!("    0x{hash:016x}, // {name}\n"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "merged bits moved in {mismatched:?}; this run's table:\n{table}"
    );
}
