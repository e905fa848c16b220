//! Layer probes: fixed-shape calls into the public functions of `tensor`
//! and `nn`, timed on one thread. Bytes and FLOPs are computed from the
//! shapes, not measured. Each workload's traced run takes the probes of
//! the layers that workload leans on.

use std::sync::Arc;
use std::time::Instant;

use chipalign_nn::{KvDtype, KvPool, KvPoolConfig, SpecDecoder, StepDecoder, TinyLm};
use chipalign_tensor::{backend, Matrix, QuantizedMatrix};

use crate::inputs::greedy;
use crate::metrics::Report;
use crate::stats::median;
use crate::{time_median, Opts};

/// Seconds of calls behind each probe's median.
const BUDGET_S: f64 = 0.2;

/// A prompt of `len` visible tokens that differs per `salt`.
fn prompt(len: usize, salt: u32) -> Vec<u32> {
    (0..len as u32)
        .map(|i| 4 + (i * 7 + salt * 13) % 95)
        .collect()
}

/// `tensor`, f32: the MLP up-projection shape of the serving model as a
/// matvec (decode), and as a skinny GEMM with 8 rows (batched decode) and
/// 32 rows (a prefill chunk); then the same matvec through each backend
/// tier's `dot`, the tier-pruning evidence ROADMAP item 3 asks for.
pub fn tensor_f32(model: &TinyLm, report: &mut Report) {
    let w = &model.params().layers[0].wg;
    let (rows, cols) = w.shape();
    let bytes = (rows * cols * 4) as f64;
    let x = vec![0.01f32; cols];
    let t = time_median(BUDGET_S, || {
        std::hint::black_box(w.matvec(&x).expect("cols inputs"));
    });
    report.set("tensor.matvec_f32_us", t * 1e6);
    report.set("tensor.matvec_f32_gbps", bytes / t / 1e9);
    for (m, name) in [(8, "tensor.gemm_m8_gflops"), (32, "tensor.gemm_m32_gflops")] {
        let a = Matrix::filled(m, cols, 0.01);
        let t = time_median(BUDGET_S, || {
            std::hint::black_box(a.matmul_bt(w).expect("cols columns"));
        });
        report.set(name, (2 * m * rows * cols) as f64 / t / 1e9);
    }
    let names = [
        "tensor.dot_gbps.scalar",
        "tensor.dot_gbps.blocked",
        "tensor.dot_gbps.simd",
    ];
    for (tier, name) in backend::all().into_iter().zip(names) {
        let t = time_median(BUDGET_S, || {
            for r in 0..rows {
                std::hint::black_box(tier.dot(w.row(r), &x));
            }
        });
        report.set(name, bytes / t / 1e9);
    }
}

/// `tensor`, int8: the same shape quantized.
pub fn tensor_q8(model: &TinyLm, report: &mut Report) {
    let w = &model.params().layers[0].wg;
    let (rows, cols) = w.shape();
    let q = QuantizedMatrix::quantize(w);
    let bytes = q.weights_bytes() as f64;
    let x = vec![0.01f32; cols];
    let t = time_median(BUDGET_S, || {
        std::hint::black_box(q.matvec(&x).expect("cols inputs"));
    });
    report.set("tensor.matvec_q8_us", t * 1e6);
    report.set("tensor.matvec_q8_gbps", bytes / t / 1e9);
    let a = Matrix::filled(8, cols, 0.01);
    let t = time_median(BUDGET_S, || {
        std::hint::black_box(q.matmul_bt(&a).expect("cols columns"));
    });
    report.set(
        "tensor.gemm_q8_m8_gflops",
        (2 * 8 * rows * cols) as f64 / t / 1e9,
    );
    let names = [
        "tensor.dot_q8_gbps.scalar",
        "tensor.dot_q8_gbps.blocked",
        "tensor.dot_q8_gbps.simd",
    ];
    for (tier, name) in backend::all().into_iter().zip(names) {
        let t = time_median(BUDGET_S, || {
            for r in 0..rows {
                std::hint::black_box(tier.dot_q8(q.row(r), q.scale(r), &x));
            }
        });
        report.set(name, bytes / t / 1e9);
    }
}

/// Median microseconds of `steps` single-session decode steps after a
/// prompt of `context` tokens.
fn step_us(model: &Arc<TinyLm>, pool: &Arc<KvPool>, context: usize, steps: usize) -> f64 {
    let mut d =
        StepDecoder::new_chunked_pooled(model, &prompt(context, 1), &greedy(steps + 1), pool)
            .expect("valid prompt");
    d.prefill_pending(usize::MAX).expect("prompt fits the pool");
    let samples: Vec<f64> = (0..steps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(d.step().expect("decode step"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// `nn`, decode: one step at context 64 and at 448 (attention-heavy: the
/// same layer used differently), and one `step_batch` of 8.
pub fn nn_decode(opts: &Opts, model: &Arc<TinyLm>, pool: &Arc<KvPool>, report: &mut Report) {
    let steps = if opts.quick { 4 } else { 24 };
    report.set("nn.decode_step_us", step_us(model, pool, 64, steps));
    report.set("nn.decode_step_us.ctx448", step_us(model, pool, 448, steps));
    let mut batch: Vec<StepDecoder> = (0..8)
        .map(|i| {
            let mut d =
                StepDecoder::new_chunked_pooled(model, &prompt(24, i), &greedy(steps + 1), pool)
                    .expect("valid prompt");
            d.prefill_pending(usize::MAX).expect("prompt fits the pool");
            d
        })
        .collect();
    let samples: Vec<f64> = (0..steps)
        .map(|_| {
            let mut refs: Vec<&mut StepDecoder> = batch.iter_mut().collect();
            let t = Instant::now();
            std::hint::black_box(StepDecoder::step_batch(&mut refs).expect("decode step"));
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.set("nn.batch8_step_us", median(&samples));
}

/// `nn`, prefill: a 192-token prompt fed in the scheduler's chunks of 32,
/// and the fork of a 176-token snapshot into a fresh session.
pub fn nn_prefill(opts: &Opts, model: &Arc<TinyLm>, pool: &Arc<KvPool>, report: &mut Report) {
    let (long, snap) = if opts.quick { (48, 40) } else { (192, 176) };
    let tokens = prompt(long, 2);
    let mut d =
        StepDecoder::new_chunked_pooled(model, &tokens, &greedy(1), pool).expect("valid prompt");
    let t = Instant::now();
    while d.prefill_pending(32).expect("prompt fits the pool") > 0 {}
    report.set(
        "nn.prefill_tok_per_s",
        long as f64 / t.elapsed().as_secs_f64(),
    );

    let mut donor = StepDecoder::new_chunked_pooled(model, &tokens[..snap], &greedy(1), pool)
        .expect("valid prompt");
    donor
        .prefill_pending(usize::MAX)
        .expect("prompt fits the pool");
    // 64 forks per sample: one fork is near the clock's resolution.
    let samples: Vec<f64> = (0..16)
        .map(|_| {
            let mut fresh: Vec<StepDecoder> = (0..64)
                .map(|_| {
                    StepDecoder::new_chunked_pooled(model, &tokens, &greedy(1), pool)
                        .expect("valid prompt")
                })
                .collect();
            let t = Instant::now();
            for session in &mut fresh {
                let fork = donor.cache().fork_from(snap).expect("within the donor");
                session
                    .adopt_prefix(fork)
                    .expect("prompt starts with the snapshot");
            }
            t.elapsed().as_secs_f64() * 1e6 / 64.0
        })
        .collect();
    report.set("nn.fork_us", median(&samples));
}

/// Bytes a pool holds after one 256-token session, per token, and the
/// sessions of that size a GB of pool holds. Exact counts.
fn kv_footprint(model: &Arc<TinyLm>, dtype: KvDtype, tokens: usize) -> (f64, f64) {
    let pool = KvPool::new(KvPoolConfig {
        dtype,
        ..KvPoolConfig::default()
    })
    .expect("default pool shape is valid");
    let mut d = StepDecoder::new_chunked_pooled(model, &prompt(tokens, 3), &greedy(1), &pool)
        .expect("valid prompt");
    d.prefill_pending(usize::MAX).expect("prompt fits the pool");
    let bytes = pool.bytes_in_use() as f64;
    (bytes / tokens as f64, (1u64 << 30) as f64 / bytes)
}

/// `nn`, the variants `fleet_mixed` serves: int8 weights, int8 KV blocks,
/// speculative decoding from the sibling draft, and the KV footprint of
/// each pool dtype.
pub fn nn_variants(opts: &Opts, target: &Arc<TinyLm>, draft: &Arc<TinyLm>, report: &mut Report) {
    let steps = if opts.quick { 4 } else { 24 };
    let f32_pool = KvPool::new(KvPoolConfig::default()).expect("default pool shape is valid");
    let int8_pool = KvPool::new(KvPoolConfig {
        dtype: KvDtype::Int8,
        ..KvPoolConfig::default()
    })
    .expect("default pool shape is valid");
    let mut quantized = (**target).clone();
    quantized.quantize();
    let quantized = Arc::new(quantized);
    report.set(
        "nn.decode_step_us.int8",
        step_us(&quantized, &f32_pool, 64, steps),
    );
    report.set(
        "nn.decode_step_us.kv8",
        step_us(target, &int8_pool, 64, steps),
    );

    let new_tokens = if opts.quick { 8 } else { 32 };
    let (mut proposed, mut accepted, mut emitted, mut stepping_s) = (0u64, 0u64, 0usize, 0.0);
    for salt in 0..3 {
        let d = StepDecoder::new_chunked_pooled(
            target,
            &prompt(64, salt),
            &greedy(new_tokens),
            &f32_pool,
        )
        .expect("valid prompt");
        let mut spec = SpecDecoder::new(d, draft, 4).expect("sibling vocabularies match");
        spec.target_mut()
            .prefill_pending(usize::MAX)
            .expect("prompt fits the pool");
        let started = Instant::now();
        while spec.step().expect("speculative step").is_some() {
            emitted += 1;
        }
        stepping_s += started.elapsed().as_secs_f64();
        let stats = spec.stats();
        proposed += stats.proposed;
        accepted += stats.accepted;
    }
    report.set("nn.spec_tok_per_s", emitted as f64 / stepping_s);
    report.set(
        "nn.spec_accept_share",
        accepted as f64 / proposed.max(1) as f64,
    );

    let tokens = if opts.quick { 64 } else { 256 };
    let (per_token, per_gb) = kv_footprint(target, KvDtype::F32, tokens);
    report.set("nn.kv_bytes_per_token.f32", per_token);
    report.set("nn.sessions_per_gb.f32", per_gb);
    let (per_token, per_gb) = kv_footprint(target, KvDtype::Int8, tokens);
    report.set("nn.kv_bytes_per_token.int8", per_token);
    report.set("nn.sessions_per_gb.int8", per_gb);
}
