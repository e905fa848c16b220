//! Logit bit pins across versions: every KV layout, both weight dtypes.
//!
//! Each scenario folds the bit pattern (`f32::to_bits`) of every logit it
//! produces into one FNV-1a hash, and the hash is compared with a constant
//! captured from an earlier version of the code. The in-tree equivalence
//! tests pin paths against *each other* (batched ≡ stepped, paged ≡
//! private); this file pins them against the *past*, so a refactor of the
//! attention or storage code that moves any bit anywhere fails here even
//! if it moves every path the same way.
//!
//! Projections round differently per kernel tier, so there is one constant
//! set per tier (`scalar` / `blocked` / `simd`); the blocked set stands in
//! whenever the AVX2 tier is unavailable. Softmax calls the platform `expf`
//! (through `f32::exp`), so the constants hold for the x86_64 Linux (glibc)
//! build they were captured on; another libm may need a recapture, which
//! the failure message prints ready to paste.

use std::sync::Arc;

use chipalign_model::ArchSpec;
use chipalign_nn::{KvCache, KvDtype, KvPool, KvPoolConfig, TinyLm};
use chipalign_tensor::backend;
use chipalign_tensor::rng::Pcg32;

const PREFILL: usize = 70;
const DECODE: usize = 80;

/// FNV-1a over the bit patterns of a stream of logit rows.
struct BitHash(u64);

impl BitHash {
    fn new() -> Self {
        BitHash(0xcbf2_9ce4_8422_2325)
    }

    fn row(&mut self, logits: &[f32]) {
        for x in logits {
            for byte in x.to_bits().to_le_bytes() {
                self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Four heads of 16 with room for a 70-token prompt and 80 decode steps.
fn model(int8_weights: bool) -> Arc<TinyLm> {
    let arch = ArchSpec {
        name: "logits-pin".into(),
        vocab_size: 99,
        d_model: 64,
        n_layers: 2,
        n_heads: 4,
        d_ff: 96,
        max_seq_len: 160,
    };
    let mut m = TinyLm::new(&arch, &mut Pcg32::seed(33)).expect("valid arch");
    if int8_weights {
        m.quantize();
    }
    Arc::new(m)
}

fn pool(block_tokens: usize, dtype: KvDtype) -> Arc<KvPool> {
    KvPool::new(KvPoolConfig {
        block_tokens,
        max_blocks: 1024,
        dtype,
    })
    .expect("valid pool config")
}

fn tokens(rng: &mut Pcg32, n: usize) -> Vec<u32> {
    (0..n).map(|_| 4 + rng.below(95) as u32).collect()
}

/// A 70-token prefill, then 80 teacher-forced decode steps.
fn prefill_then_decode(mut cache: KvCache, seed: u64) -> u64 {
    let mut rng = Pcg32::seed(seed);
    let mut h = BitHash::new();
    h.row(&cache.prefill(&tokens(&mut rng, PREFILL)).expect("prefill"));
    for t in tokens(&mut rng, DECODE) {
        h.row(&cache.decode_step(t).expect("decode"));
    }
    h.0
}

/// Three sessions on three layouts, ragged prefills, then 40 rounds of
/// `decode_batch`.
fn batch_of_three(m: &Arc<TinyLm>) -> u64 {
    let mut rng = Pcg32::seed(3);
    let mut sessions = [
        KvCache::new(m),
        KvCache::new_paged(m, &pool(5, KvDtype::F32)),
        KvCache::new_paged(m, &pool(4, KvDtype::Int8)),
    ];
    let mut h = BitHash::new();
    for (s, len) in sessions.iter_mut().zip([PREFILL, 33, 51]) {
        h.row(&s.prefill(&tokens(&mut rng, len)).expect("prefill"));
    }
    for _ in 0..40 {
        let toks = tokens(&mut rng, 3);
        let mut refs: Vec<&mut KvCache> = sessions.iter_mut().collect();
        for row in KvCache::decode_batch(&mut refs, &toks).expect("batch") {
            h.row(&row);
        }
    }
    h.0
}

/// A fork at position 40 of an int8 pool with 16-token blocks lands
/// inside sealed block 2, so the fork regrows an f32 tail from dequantized
/// rows; both the fork and the donor then decode.
fn fork_inside_sealed_block(m: &Arc<TinyLm>) -> u64 {
    let mut rng = Pcg32::seed(4);
    let mut donor = KvCache::new_paged(m, &pool(16, KvDtype::Int8));
    let mut h = BitHash::new();
    h.row(&donor.prefill(&tokens(&mut rng, PREFILL)).expect("prefill"));
    let mut fork = donor.fork_from(40).expect("fork");
    for t in tokens(&mut rng, 30) {
        h.row(&fork.decode_step(t).expect("fork decode"));
        h.row(&donor.decode_step(t).expect("donor decode"));
    }
    h.0
}

/// The five single-session layouts: the private pool, then shared pools
/// by block size and dtype.
const LAYOUTS: [(&str, Option<(usize, KvDtype)>); 5] = [
    ("private", None),
    ("f32 pool bt16", Some((16, KvDtype::F32))),
    ("f32 pool bt5", Some((5, KvDtype::F32))),
    ("int8 pool bt16", Some((16, KvDtype::Int8))),
    ("int8 pool bt4", Some((4, KvDtype::Int8))),
];

/// Every scenario's hash, in table order.
fn scenarios() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for (weights, int8) in [("f32", false), ("int8", true)] {
        let m = model(int8);
        for (name, shape) in LAYOUTS {
            let cache = match shape {
                None => KvCache::new(&m),
                Some((block_tokens, dtype)) => KvCache::new_paged(&m, &pool(block_tokens, dtype)),
            };
            // One token stream for every layout of a weight dtype.
            out.push((
                format!("{weights} weights, {name}"),
                prefill_then_decode(cache, 1),
            ));
        }
        out.push((format!("{weights} weights, batch of 3"), batch_of_three(&m)));
        out.push((
            format!("{weights} weights, fork inside sealed"),
            fork_inside_sealed_block(&m),
        ));
    }
    out
}

const SCALAR: [u64; 14] = [
    0x8770a598c5384915, // f32 weights, private
    0x8770a598c5384915, // f32 weights, f32 pool bt16
    0x8770a598c5384915, // f32 weights, f32 pool bt5
    0x8adf4dfc6b108c7a, // f32 weights, int8 pool bt16
    0x7d3e3b276003ef38, // f32 weights, int8 pool bt4
    0xa73f8abfa09b3f15, // f32 weights, batch of 3
    0xcd7063622c2c66a5, // f32 weights, fork inside sealed
    0x0abf355861bab453, // int8 weights, private
    0x0abf355861bab453, // int8 weights, f32 pool bt16
    0x0abf355861bab453, // int8 weights, f32 pool bt5
    0x1404e7bcb5af8eb9, // int8 weights, int8 pool bt16
    0x0061ca26f83560eb, // int8 weights, int8 pool bt4
    0xbed46151912c8463, // int8 weights, batch of 3
    0x8dac54637af997fb, // int8 weights, fork inside sealed
];

const BLOCKED: [u64; 14] = [
    0xb906d1d2d9ba1338, // f32 weights, private
    0xb906d1d2d9ba1338, // f32 weights, f32 pool bt16
    0xb906d1d2d9ba1338, // f32 weights, f32 pool bt5
    0x44c5e2679c384b99, // f32 weights, int8 pool bt16
    0xff66f4984c437a41, // f32 weights, int8 pool bt4
    0xabd3c01c5bd2a62e, // f32 weights, batch of 3
    0xce0671df3469e84d, // f32 weights, fork inside sealed
    0x3751d1b55ccf9bee, // int8 weights, private
    0x3751d1b55ccf9bee, // int8 weights, f32 pool bt16
    0x3751d1b55ccf9bee, // int8 weights, f32 pool bt5
    0xf63b56cd93fcf006, // int8 weights, int8 pool bt16
    0x162fd6f09654117d, // int8 weights, int8 pool bt4
    0xfbde55ab3c435064, // int8 weights, batch of 3
    0xee02107bdfb29ef5, // int8 weights, fork inside sealed
];

const SIMD: [u64; 14] = [
    0xcf503aa61c02ce9d, // f32 weights, private
    0xcf503aa61c02ce9d, // f32 weights, f32 pool bt16
    0xcf503aa61c02ce9d, // f32 weights, f32 pool bt5
    0x5d0400da5dab2c4b, // f32 weights, int8 pool bt16
    0x0877aeeef9a24e55, // f32 weights, int8 pool bt4
    0x3ff2a5a57f8b4bb3, // f32 weights, batch of 3
    0xb71573a8d8364998, // f32 weights, fork inside sealed
    0x0a8143cdac02f9be, // int8 weights, private
    0x0a8143cdac02f9be, // int8 weights, f32 pool bt16
    0x0a8143cdac02f9be, // int8 weights, f32 pool bt5
    0x57b59b3b9644bba3, // int8 weights, int8 pool bt16
    0xed3c61abc00e58dc, // int8 weights, int8 pool bt4
    0x62a3c0aa9a7cee52, // int8 weights, batch of 3
    0x3bac71f8fb523c30, // int8 weights, fork inside sealed
];

#[test]
fn logits_match_the_pinned_bits_on_every_layout() {
    let (tier, pinned) = match backend::active_name() {
        "scalar" => ("scalar", SCALAR),
        "simd" => ("simd", SIMD),
        _ => ("blocked", BLOCKED),
    };
    let got = scenarios();
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
        "{tier} tier: logits moved in {mismatched:?}; this run's table:\n{table}"
    );
}
