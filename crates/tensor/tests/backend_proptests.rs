//! Seeded backend-equivalence property tests.
//!
//! The kernel backends (scalar reference, blocked autovectorized, explicit
//! AVX2/FMA) are free to reassociate floating-point sums, so they are held
//! to each other at 1e-4 relative tolerance — the same bound the blocked
//! kernels already owe the naive references — across random shapes,
//! deliberately non-lane-multiple lengths, and the tall-skinny
//! batched-decode shapes (`2 ≤ m ≤ 32`). The int8 path gets the same
//! treatment: quantization round-trip bounds, requantize stability of the
//! codes, and int8 kernels vs the dequantized f32 oracle within the
//! analytic error bound.
//!
//! On machines without AVX2/FMA the SIMD tier falls back to the blocked
//! kernels, so these properties hold (trivially for that pair) everywhere.
//!
//! Within one tier there is no tolerance: tiles reuse loads, never reorder
//! a dot, so every tier's block entries `gemm_bt` / `gemm_bt_q8` must equal
//! that tier's unchanged per-element `dot` / `dot_q8` loop **bitwise** (the
//! two accumulation orders are written down in the docs of `backend`'s
//! `x86` module). Those pins cover every row count up to 32, `k` tails of
//! every length, slices one element off their allocation's start, and the
//! serving model's own projection shapes.
//!
//! Every property runs [`CASES`] seeded cases
//! ([`chipalign_tensor::rng::cases`]); a failure reports its case number.

use chipalign_tensor::backend::{self, KernelBackend};
use chipalign_tensor::rng::{cases, Pcg32};
use chipalign_tensor::{Matrix, QuantizedMatrix};

const CASES: u64 = 64;

fn mat(rows: usize, cols: usize, rng: &mut Pcg32) -> Matrix {
    Matrix::randn(rows, cols, 1.0, rng)
}

fn vecf(n: usize, rng: &mut Pcg32) -> Vec<f32> {
    (0..n).map(|_| rng.normal()).collect()
}

/// `|a - b| <= 1e-4 · max(|b|, 1)` — the documented cross-backend bound.
fn close_rel(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-4 * b.abs().max(1.0)
}

#[test]
fn dot_agrees_across_backends() {
    for mut rng in cases(1, CASES) {
        // n sweeps through scalar tails, exact lane multiples, and the SIMD
        // kernel's 32-wide main-loop boundary.
        let n = rng.range(1, 199);
        let a = vecf(n, &mut rng);
        let b = vecf(n, &mut rng);
        let reference = backend::SCALAR.dot(&a, &b);
        for be in backend::all() {
            assert!(
                close_rel(be.dot(&a, &b), reference),
                "{} dot drifted at n={n}",
                be.name()
            );
        }
    }
}

#[test]
fn dot_agrees_on_non_lane_multiples() {
    for mut rng in cases(2, CASES) {
        // Lengths that are never a multiple of 8: every backend must get
        // its remainder handling right.
        let n = rng.range(0, 5) * 8 + rng.range(1, 7);
        let a = vecf(n, &mut rng);
        let b = vecf(n, &mut rng);
        let reference = backend::SCALAR.dot(&a, &b);
        for be in backend::all() {
            assert!(
                close_rel(be.dot(&a, &b), reference),
                "{} dot drifted at n={n}",
                be.name()
            );
        }
    }
}

#[test]
fn gemm_row_agrees_across_backends() {
    for mut rng in cases(3, CASES) {
        let (k, n) = (rng.range(1, 69), rng.range(1, 39));
        let a_row = vecf(k, &mut rng);
        let b = vecf(k * n, &mut rng);
        let mut reference = vec![0.0f32; n];
        backend::SCALAR.gemm_row(&a_row, &b, n, &mut reference);
        for be in backend::all() {
            let mut got = vec![0.0f32; n];
            be.gemm_row(&a_row, &b, n, &mut got);
            for (g, r) in got.iter().zip(&reference) {
                assert!(
                    close_rel(*g, *r),
                    "{} gemm_row drifted at k={k} n={n}",
                    be.name()
                );
            }
        }
    }
}

#[test]
fn skinny_matmul_bt_agrees_across_backends() {
    for mut rng in cases(4, CASES) {
        // The batched-decode shape, computed end-to-end per backend by
        // driving each backend's dot through the whole-row formulation the
        // skinny kernel uses.
        let (m, k, n) = (rng.range(2, 32), rng.range(1, 119), rng.range(1, 15));
        let a = mat(m, k, &mut rng);
        let b = mat(n, k, &mut rng);
        for be in backend::all() {
            for r in 0..m {
                for c in 0..n {
                    let got = be.dot(a.row(r), b.row(c));
                    let reference = backend::SCALAR.dot(a.row(r), b.row(c));
                    assert!(
                        close_rel(got, reference),
                        "{} skinny element ({r},{c}) drifted at m={m} k={k}",
                        be.name()
                    );
                }
            }
        }
    }
}

#[test]
fn dot_q8_agrees_across_backends() {
    for mut rng in cases(5, CASES) {
        let n = rng.range(1, 199);
        let w = QuantizedMatrix::quantize(&mat(1, n, &mut rng));
        let x = vecf(n, &mut rng);
        let reference = backend::SCALAR.dot_q8(w.row(0), w.scale(0), &x);
        for be in backend::all() {
            assert!(
                close_rel(be.dot_q8(w.row(0), w.scale(0), &x), reference),
                "{} dot_q8 drifted at n={n}",
                be.name()
            );
        }
    }
}

#[test]
fn quantize_round_trip_is_within_half_step() {
    for mut rng in cases(6, CASES) {
        let (rows, cols) = (rng.range(1, 11), rng.range(1, 47));
        let m = mat(rows, cols, &mut rng);
        let q = QuantizedMatrix::quantize(&m);
        let deq = q.dequantize();
        for r in 0..rows {
            let half_step = q.scale(r) * 0.5 + 1e-12;
            for (a, b) in m.row(r).iter().zip(deq.row(r)) {
                assert!((a - b).abs() <= half_step, "row {r}");
            }
        }
    }
}

#[test]
fn requantize_is_code_stable() {
    for mut rng in cases(7, CASES) {
        // The i8 codes survive dequantize∘quantize exactly; the scales can
        // drift by an ulp (which is why checkpoint loads use from_parts).
        let (rows, cols) = (rng.range(1, 9), rng.range(1, 39));
        let q = QuantizedMatrix::quantize(&mat(rows, cols, &mut rng));
        let q2 = QuantizedMatrix::quantize(&q.dequantize());
        assert_eq!(q.data(), q2.data());
        for (a, b) in q.scales().iter().zip(q2.scales()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1e-30));
        }
    }
}

#[test]
fn quant_matvec_tracks_f32_oracle() {
    for mut rng in cases(8, CASES) {
        // Against the *dequantized* oracle the only difference is summation
        // order; against the original f32 matrix the quantization error is
        // bounded by (scale/2)·Σ|x| per row.
        let (rows, cols) = (rng.range(1, 19), rng.range(1, 63));
        let m = mat(rows, cols, &mut rng);
        let q = QuantizedMatrix::quantize(&m);
        let x = vecf(cols, &mut rng);
        let got = q.matvec(&x).unwrap();
        let oracle = q.dequantize().matvec(&x).unwrap();
        let x_abs_sum: f32 = x.iter().map(|v| v.abs()).sum();
        for (r, (g, o)) in got.iter().zip(&oracle).enumerate() {
            let order_tol = 1e-4 * o.abs().max(1.0);
            assert!((g - o).abs() <= order_tol, "row {r} vs dequantized oracle");
            let full = m.matvec(&x).unwrap()[r];
            let quant_tol = q.scale(r) * 0.5 * x_abs_sum + order_tol + 1e-5;
            assert!((g - full).abs() <= quant_tol, "row {r} vs f32 matrix");
        }
    }
}

#[test]
fn quant_matmul_bt_rows_equal_quant_matvec_bitwise() {
    for mut rng in cases(9, CASES) {
        // The quantized twin of the skinny-GEMM bit-identity invariant:
        // batching activation rows must not change any row's bits.
        let (m, k, n) = (rng.range(2, 32), rng.range(1, 79), rng.range(1, 11));
        let w = QuantizedMatrix::quantize(&mat(n, k, &mut rng));
        let a = mat(m, k, &mut rng);
        let batched = w.matmul_bt(&a).unwrap();
        for r in 0..m {
            let single = w.matvec(a.row(r)).unwrap();
            assert_eq!(batched.row(r), &single[..], "row {r}");
        }
    }
}

/// The unchanged per-element oracle of [`KernelBackend::gemm_bt`]: one
/// `be.dot` of an activation row with a weight row per output.
fn gemm_bt_by_dots(
    be: &dyn KernelBackend,
    x: &[f32],
    m: usize,
    w: &[f32],
    n: usize,
    k: usize,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * n);
    for r in 0..m {
        for c in 0..n {
            out.push(be.dot(&x[r * k..(r + 1) * k], &w[c * k..(c + 1) * k]));
        }
    }
    out
}

/// The unchanged per-element oracle of [`KernelBackend::gemm_bt_q8`]: one
/// `be.dot_q8` of a weight row with an activation row per output.
fn gemm_bt_q8_by_dots(
    be: &dyn KernelBackend,
    x: &[f32],
    m: usize,
    q: &QuantizedMatrix,
    k: usize,
) -> Vec<f32> {
    let mut out = Vec::with_capacity(m * q.rows());
    for r in 0..m {
        for c in 0..q.rows() {
            out.push(be.dot_q8(q.row(c), q.scale(c), &x[r * k..(r + 1) * k]));
        }
    }
    out
}

/// A `k` in `1..=700` that, by case index, is arbitrary, not a multiple of
/// 8 (the scalar tail), or a multiple of 8 but not of 32 (the 8-wide
/// cleanup loop).
fn awkward_k(case: usize, rng: &mut Pcg32) -> usize {
    match case % 3 {
        0 => rng.range(1, 700),
        1 => 8 * rng.range(0, 86) + rng.range(1, 7),
        _ => 32 * rng.range(0, 20) + 8 * rng.range(1, 3),
    }
}

/// `v` copied into a buffer at element offset `off`, so a slice of it can
/// start one element past wherever the allocator put the buffer.
fn at_offset<T: Copy + Default>(v: &[T], off: usize) -> Vec<T> {
    let mut buf = vec![T::default(); off];
    buf.extend_from_slice(v);
    buf
}

fn assert_bitwise(be: &dyn KernelBackend, got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{} {what} element {i}: {g} vs {w}",
            be.name()
        );
    }
}

fn check_gemm_bt(m: usize, n: usize, k: usize, off: usize, rng: &mut Pcg32) {
    let x = at_offset(&vecf(m * k, rng), off);
    let w = at_offset(&vecf(n * k, rng), off);
    let (x, w) = (&x[off..], &w[off..]);
    for be in backend::all() {
        let mut got = vec![f32::NAN; m * n];
        be.gemm_bt(x, m, w, n, k, &mut got);
        let what = format!("gemm_bt m={m} n={n} k={k} off={off}");
        assert_bitwise(be, &got, &gemm_bt_by_dots(be, x, m, w, n, k), &what);
    }
}

fn check_gemm_bt_q8(m: usize, n: usize, k: usize, off: usize, rng: &mut Pcg32) {
    let q = QuantizedMatrix::quantize(&mat(n, k, rng));
    let x = at_offset(&vecf(m * k, rng), off);
    let codes = at_offset(q.data(), off);
    let scales = at_offset(q.scales(), off);
    let (x, codes, scales) = (&x[off..], &codes[off..], &scales[off..]);
    for be in backend::all() {
        let mut got = vec![f32::NAN; m * n];
        be.gemm_bt_q8(x, m, codes, scales, n, k, &mut got);
        let what = format!("gemm_bt_q8 m={m} n={n} k={k} off={off}");
        assert_bitwise(be, &got, &gemm_bt_q8_by_dots(be, x, m, &q, k), &what);
    }
}

#[test]
fn gemm_bt_is_bitwise_the_per_element_dot_loop() {
    for (i, mut rng) in cases(10, CASES).enumerate() {
        // Tiles reuse loads, never reorder a dot: every tier's block entry
        // must equal its own per-element dots bit for bit, at every row
        // count a tile can leave over and every k tail.
        let (m, n) = (rng.range(1, 32), rng.range(1, 70));
        let k = awkward_k(i, &mut rng);
        let off = rng.range(0, 1);
        check_gemm_bt(m, n, k, off, &mut rng);
    }
}

#[test]
fn gemm_bt_q8_is_bitwise_the_per_element_dot_q8_loop() {
    for (i, mut rng) in cases(11, CASES).enumerate() {
        let (m, n) = (rng.range(1, 32), rng.range(1, 70));
        let k = awkward_k(i, &mut rng);
        let off = rng.range(0, 1);
        check_gemm_bt_q8(m, n, k, off, &mut rng);
    }
}

#[test]
fn gemm_bt_is_bitwise_the_dot_loop_at_bench_384_shapes() {
    // The serving model's projections: (n, k) of QKV/O, the MLP up and
    // gate, and the MLP down, as a matvec and as an 8-session batch.
    for (i, mut rng) in cases(12, 2).enumerate() {
        let m = [1, 8][i];
        for (n, k) in [(384, 384), (1024, 384), (384, 1024)] {
            check_gemm_bt(m, n, k, 1, &mut rng);
            check_gemm_bt_q8(m, n, k, 1, &mut rng);
        }
    }
}
