//! Training bit pins across versions: full-parameter `train()` and
//! `LoraModel::train`.
//!
//! Each trainer runs six Adam steps on 70-token sequences, so every
//! projection of the forward and backward is a product taller than one
//! 32-row block, on widths (`d_model` 64, `d_ff` 192) that every zoo shape
//! stays within. Each case folds the bit pattern (`f32::to_bits`) of every
//! value it reads — the trained parameters, the last step's loss, or one
//! sequence's logits — into one FNV-1a hash, compared with a constant
//! captured from an earlier version of the code. A refactor of the
//! optimizer, the gradient projection or a kernel that moves any trained
//! bit fails here.
//!
//! Projections round differently per kernel tier, so there is one constant
//! set per tier (`scalar` / `blocked` / `simd`); the blocked set stands in
//! whenever the AVX2 tier is unavailable. Softmax calls the platform `expf`
//! (through `f32::exp`), so the constants hold for the x86_64 Linux (glibc)
//! build they were captured on; another libm may need a recapture, which
//! the failure message prints ready to paste.

use chipalign_model::ArchSpec;
use chipalign_nn::train::{train, Example, TrainConfig};
use chipalign_nn::{AdamConfig, LoraConfig, LoraModel, TinyLm};
use chipalign_tensor::backend;
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

const SEQ: usize = 70;

/// FNV-1a over the bit patterns of a stream of values.
struct BitHash(u64);

impl BitHash {
    fn new() -> Self {
        BitHash(0xcbf2_9ce4_8422_2325)
    }

    fn values(mut self, values: &[f32]) -> Self {
        for x in values {
            for byte in x.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        self
    }

    fn matrices<'a>(self, ms: impl IntoIterator<Item = &'a Matrix>) -> Self {
        ms.into_iter().fold(self, |h, m| h.values(m.data()))
    }
}

fn model() -> TinyLm {
    let arch = ArchSpec {
        name: "train-pin".into(),
        vocab_size: 99,
        d_model: 64,
        n_layers: 2,
        n_heads: 4,
        d_ff: 192,
        max_seq_len: 80,
    };
    TinyLm::new(&arch, &mut Pcg32::seed(41)).expect("valid arch")
}

fn tokens(rng: &mut Pcg32, n: usize) -> Vec<u32> {
    (0..n).map(|_| 4 + rng.below(95) as u32).collect()
}

/// Two pretraining sequences and two SFT examples (30-token prompt,
/// 40-token completion), all 70 tokens long.
fn data() -> Vec<Example> {
    let mut rng = Pcg32::seed(42);
    let mut out: Vec<Example> = (0..2)
        .map(|_| Example::pretrain(tokens(&mut rng, SEQ)))
        .collect();
    for _ in 0..2 {
        out.push(Example::sft(
            tokens(&mut rng, 30),
            tokens(&mut rng, SEQ - 30),
        ));
    }
    out
}

fn config() -> TrainConfig {
    TrainConfig {
        steps: 6,
        batch_size: 2,
        adam: AdamConfig {
            lr: 3e-3,
            warmup_steps: 2,
            ..AdamConfig::default()
        },
        seed: 43,
    }
}

/// Parameters, last loss and one sequence's logits of a trained model.
fn trained_hashes(trainer: &str, model: &TinyLm, losses: &[f32]) -> Vec<(String, u64)> {
    let probe = &data()[2].tokens;
    let logits = model.logits(probe).expect("forward");
    vec![
        (
            format!("{trainer}: parameters"),
            BitHash::new().matrices(model.params().tensors()).0,
        ),
        (
            format!("{trainer}: last loss"),
            BitHash::new().values(&losses[losses.len() - 1..]).0,
        ),
        (
            format!("{trainer}: logits"),
            BitHash::new().values(logits.data()).0,
        ),
    ]
}

/// Every case's hash, in table order.
fn cases() -> Vec<(String, u64)> {
    let data = data();
    let mut full = model();
    let losses = train(&mut full, &data, &config()).expect("full training");
    let mut out = trained_hashes("full", &full, &losses);

    let mut lora =
        LoraModel::new(model(), LoraConfig::default(), &mut Pcg32::seed(44)).expect("valid rank");
    let losses = lora.train(&data, &config()).expect("LoRA training");
    let merged = lora.merged_model().expect("merge adapters");
    out.extend(trained_hashes("LoRA", &merged, &losses));
    out
}

const SCALAR: [u64; 6] = [
    0x3675c9a480398774, // full: parameters
    0x32c73e045871318a, // full: last loss
    0x93b8a95c66973a3f, // full: logits
    0x608351e3a43730df, // LoRA: parameters
    0xc1dc0976c1e912cf, // LoRA: last loss
    0x84b3c9d97487efea, // LoRA: logits
];

const BLOCKED: [u64; 6] = [
    0x306ec2a78f4b51f3, // full: parameters
    0x564c2e1180398eb7, // full: last loss
    0xc8d7894a80b58501, // full: logits
    0x0781a23327e28afc, // LoRA: parameters
    0xc1dc0976c1e912cf, // LoRA: last loss
    0x0fbf51e62733f13e, // LoRA: logits
];

const SIMD: [u64; 6] = [
    0x4eaf24bb9e85080a, // full: parameters
    0x564c2e1180398eb7, // full: last loss
    0xbe6a7a2dc7a618bb, // full: logits
    0x912a182bd53c6816, // LoRA: parameters
    0xc1dc0976c1e912cf, // LoRA: last loss
    0xa98d36e840c18f24, // LoRA: logits
];

#[test]
fn trained_bits_match_the_pins() {
    let (tier, pinned) = match backend::active_name() {
        "scalar" => ("scalar", SCALAR),
        "simd" => ("simd", SIMD),
        _ => ("blocked", BLOCKED),
    };
    let got = cases();
    assert_eq!(got.len(), pinned.len());
    let mismatched: Vec<&str> = got
        .iter()
        .zip(pinned)
        .filter(|((_, hash), want)| hash != want)
        .map(|((name, _), _)| name.as_str())
        .collect();
    let table: String = got
        .iter()
        .map(|(name, hash)| format!("    0x{hash:016x}, // {name}\n"))
        .collect();
    assert!(
        mismatched.is_empty(),
        "{tier} tier: trained bits moved in {mismatched:?}; this run's table:\n{table}"
    );
}
