//! Seeded property tests for the tensor substrate.
//!
//! These check algebraic invariants that the unit tests only probe pointwise:
//! matmul associativity/distributivity, norm homogeneity, Cauchy–Schwarz,
//! and the triangle inequality — each of which the merging math silently
//! relies on. Every property runs [`CASES`] seeded cases
//! ([`chipalign_tensor::rng::cases`]); a failure reports its case number.

use chipalign_tensor::rng::{cases, Pcg32};
use chipalign_tensor::{reference, stats, Matrix};

const CASES: u64 = 64;

fn mat(rows: usize, cols: usize, rng: &mut Pcg32) -> Matrix {
    Matrix::randn(rows, cols, 1.0, rng)
}

/// A uniform draw from `[lo, hi)`.
fn uniform_in(rng: &mut Pcg32, lo: f32, hi: f32) -> f32 {
    lo + rng.uniform() * (hi - lo)
}

/// `|a - b| <= 1e-4 · max(|b|, 1)` elementwise — the documented tolerance the
/// blocked kernels are held to against the naive references.
fn close_rel(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&x, &y)| (x - y).abs() <= 1e-4 * y.abs().max(1.0))
}

#[test]
fn matmul_distributes_over_addition() {
    for mut rng in cases(1, CASES) {
        let (m, k, n) = (rng.range(1, 5), rng.range(1, 5), rng.range(1, 5));
        let a = mat(m, k, &mut rng);
        let b = mat(k, n, &mut rng);
        let c = mat(k, n, &mut rng);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-3));
    }
}

#[test]
fn matmul_associates() {
    for mut rng in cases(2, CASES) {
        let (m, k, l, n) = (
            rng.range(1, 4),
            rng.range(1, 4),
            rng.range(1, 4),
            rng.range(1, 4),
        );
        let a = mat(m, k, &mut rng);
        let b = mat(k, l, &mut rng);
        let c = mat(l, n, &mut rng);
        let lhs = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let rhs = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-2));
    }
}

#[test]
fn transpose_reverses_matmul() {
    for mut rng in cases(3, CASES) {
        let (m, k, n) = (rng.range(1, 5), rng.range(1, 5), rng.range(1, 5));
        let a = mat(m, k, &mut rng);
        let b = mat(k, n, &mut rng);
        let lhs = a.matmul(&b).unwrap().transpose();
        let rhs = b.transpose().matmul(&a.transpose()).unwrap();
        assert!(lhs.approx_eq(&rhs, 1e-3));
    }
}

#[test]
fn frobenius_norm_is_homogeneous() {
    for mut rng in cases(4, CASES) {
        let s = uniform_in(&mut rng, -4.0, 4.0);
        let a = mat(3, 4, &mut rng);
        let scaled = a.scale(s);
        let expected = a.frobenius_norm() * s.abs();
        assert!((scaled.frobenius_norm() - expected).abs() < 1e-3 * (1.0 + expected));
    }
}

#[test]
fn cauchy_schwarz() {
    for mut rng in cases(5, CASES) {
        let a = mat(4, 4, &mut rng);
        let b = mat(4, 4, &mut rng);
        let dot = a.frobenius_dot(&b).unwrap().abs();
        let bound = f64::from(a.frobenius_norm()) * f64::from(b.frobenius_norm());
        assert!(dot <= bound * (1.0 + 1e-5));
    }
}

#[test]
fn triangle_inequality() {
    for mut rng in cases(6, CASES) {
        let a = mat(5, 3, &mut rng);
        let b = mat(5, 3, &mut rng);
        let sum_norm = a.add(&b).unwrap().frobenius_norm();
        assert!(sum_norm <= a.frobenius_norm() + b.frobenius_norm() + 1e-4);
    }
}

#[test]
fn cosine_similarity_bounded() {
    for mut rng in cases(7, CASES) {
        let a = mat(3, 5, &mut rng);
        let b = mat(3, 5, &mut rng);
        let cos = stats::cosine_similarity(&a, &b).unwrap();
        assert!((-1.0..=1.0).contains(&cos));
        let theta = stats::interpolation_angle(&a, &b).unwrap();
        assert!((0.0..=std::f64::consts::PI).contains(&theta));
    }
}

#[test]
fn lerp_stays_between_endpoint_norms() {
    for mut rng in cases(8, CASES) {
        // The first two cases pin the endpoints of t ∈ [0, 1].
        let t = match rng.index() {
            0 => 0.0,
            1 => 1.0,
            _ => rng.uniform(),
        };
        let a = mat(4, 4, &mut rng);
        let b = mat(4, 4, &mut rng);
        let l = a.lerp(&b, t).unwrap();
        // Convexity: ||lerp|| <= max endpoint norm (plus fp slack).
        let bound = a.frobenius_norm().max(b.frobenius_norm());
        assert!(l.frobenius_norm() <= bound + 1e-4);
    }
}

#[test]
fn blocked_matmul_matches_reference() {
    for mut rng in cases(9, CASES) {
        // Ranges deliberately straddle GEMM_COL_TILE (16) and DOT_LANES (8)
        // multiples, and m == 1 hits the vecmat dispatch.
        let (m, k, n) = (rng.range(1, 39), rng.range(1, 69), rng.range(1, 39));
        let a = mat(m, k, &mut rng);
        let b = mat(k, n, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let slow = reference::matmul(&a, &b).unwrap();
        assert!(close_rel(fast.data(), slow.data()));
    }
}

#[test]
fn blocked_matmul_bt_matches_reference() {
    for mut rng in cases(10, CASES) {
        let (m, k, n) = (rng.range(1, 39), rng.range(1, 69), rng.range(1, 39));
        let a = mat(m, k, &mut rng);
        let b = mat(n, k, &mut rng);
        let fast = a.matmul_bt(&b).unwrap();
        let slow = reference::matmul_bt(&a, &b).unwrap();
        assert!(close_rel(fast.data(), slow.data()));
    }
}

#[test]
fn skinny_matmul_bt_matches_reference() {
    for mut rng in cases(11, CASES) {
        // The batched-decode shape: tall-skinny A, one tile call, at depths
        // up to 299.
        let (m, k, n) = (rng.range(2, 32), rng.range(1, 299), rng.range(1, 23));
        let a = mat(m, k, &mut rng);
        let b = mat(n, k, &mut rng);
        let fast = a.matmul_bt(&b).unwrap();
        let slow = reference::matmul_bt(&a, &b).unwrap();
        assert!(close_rel(fast.data(), slow.data()));
    }
}

#[test]
fn matmul_bt_rows_equal_matvec_bitwise() {
    for mut rng in cases(12, CASES) {
        // Bit-identity, not tolerance: stacking rows into one GEMM must not
        // change any row's accumulation order relative to matvec. Batched
        // decode equivalence in chipalign-nn is built on exactly this, and
        // past 32 rows (several strips) so is `TinyLm::forward` ≡ KvCache.
        let (m, k, n) = (rng.range(2, 200), rng.range(200, 299), rng.range(1, 15));
        let a = mat(m, k, &mut rng);
        let b = mat(n, k, &mut rng);
        let batched = a.matmul_bt(&b).unwrap();
        for r in 0..m {
            let single = b.matvec(a.row(r)).unwrap();
            assert_eq!(batched.row(r), &single[..], "row {r}");
        }
    }
}

#[test]
fn blocked_matmul_at_matches_reference() {
    for mut rng in cases(13, CASES) {
        let (k, m, n) = (rng.range(1, 69), rng.range(1, 39), rng.range(1, 39));
        let a = mat(k, m, &mut rng);
        let b = mat(k, n, &mut rng);
        let fast = a.matmul_at(&b).unwrap();
        let slow = reference::matmul_at(&a, &b).unwrap();
        assert!(close_rel(fast.data(), slow.data()));
    }
}

#[test]
fn single_row_matmul_matches_reference() {
    for mut rng in cases(14, CASES) {
        // The m == 1 decode shape, with k in and out of lane-remainder
        // territory.
        let (k, n) = (rng.range(1, 299), rng.range(1, 39));
        let a = mat(1, k, &mut rng);
        let b = mat(k, n, &mut rng);
        let fast = a.matmul(&b).unwrap();
        let slow = reference::matmul(&a, &b).unwrap();
        assert!(close_rel(fast.data(), slow.data()));
    }
}

#[test]
fn matvec_and_vecmat_match_reference() {
    for mut rng in cases(15, CASES) {
        let (rows, cols) = (rng.range(1, 59), rng.range(1, 59));
        let w = mat(rows, cols, &mut rng);
        let x = mat(1, cols, &mut rng);
        let fast = w.matvec(x.data()).unwrap();
        let slow = reference::matvec(&w, x.data()).unwrap();
        assert!(close_rel(&fast, &slow), "matvec");
        let y = mat(1, rows, &mut rng);
        let fast = w.vecmat(y.data()).unwrap();
        let slow = reference::vecmat(y.data(), &w).unwrap();
        assert!(close_rel(&fast, &slow), "vecmat");
    }
}

#[test]
fn blocked_transpose_matches_reference() {
    for mut rng in cases(16, CASES) {
        let (rows, cols) = (rng.range(1, 79), rng.range(1, 79));
        let a = mat(rows, cols, &mut rng);
        assert!(a.transpose() == reference::transpose(&a));
    }
}

#[test]
fn axpy_matches_scale_add() {
    for mut rng in cases(17, CASES) {
        let alpha = uniform_in(&mut rng, -3.0, 3.0);
        let a = mat(3, 3, &mut rng);
        let b = mat(3, 3, &mut rng);
        let mut fast = a.clone();
        fast.axpy(alpha, &b).unwrap();
        let slow = a.add(&b.scale(alpha)).unwrap();
        assert!(fast.approx_eq(&slow, 1e-5));
    }
}
