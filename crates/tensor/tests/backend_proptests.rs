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
