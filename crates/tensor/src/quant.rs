//! Per-row-scaled symmetric int8 weight matrices.
//!
//! Decode throughput on modern CPUs is bound by weight bytes streamed per
//! token, not by arithmetic. [`QuantizedMatrix`] stores each weight row as
//! `i8` codes plus one `f32` scale — `w ≈ scale · q` with
//! `scale = max|row| / 127` — so a projection matrix moves 1 byte per
//! weight instead of 4 (plus 4 bytes per row for the scale). Both products
//! run the one int8 entry of the process-wide backend,
//! [`crate::backend::KernelBackend::gemm_bt_q8`], whose every output element
//! is one whole-row [`crate::backend::KernelBackend::dot_q8`], which
//! preserves the serving stack's bitwise invariant that batching rows never
//! changes any single row's result.
//!
//! Quantization is symmetric (no zero point) and clamps to ±127, so the
//! code range is sign-symmetric and `-q` is always representable.
//! Re-quantizing a dequantized matrix reproduces the identical `i8` codes
//! (the per-code error is far below half a step); the scales themselves
//! can drift by an ulp through the round trip, which is why persisted
//! quantized checkpoints are reconstructed from stored codes + scales via
//! [`QuantizedMatrix::from_parts`] rather than re-quantized.

use std::ops::Range;

use crate::backend;
use crate::error::TensorError;
use crate::matrix::{split_gemm_bt, Matrix};
use crate::{par, tune};

/// A row-major int8 matrix with one `f32` dequantization scale per row.
///
/// Row `r` of the logical `f32` matrix is `scales[r] · data[r·cols ..
/// (r+1)·cols]`. Rows whose source was all zero (or had a non-finite
/// maximum) get `scale = 0` and all-zero codes.
#[derive(Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    data: Vec<i8>,
    scales: Vec<f32>,
}

impl std::fmt::Debug for QuantizedMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuantizedMatrix")
            .field("rows", &self.rows)
            .field("cols", &self.cols)
            .field("bytes", &self.weights_bytes())
            .finish()
    }
}

impl QuantizedMatrix {
    /// Quantizes an `f32` matrix with one symmetric scale per row:
    /// `scale = max|row| / 127`, `q = round(x / scale)` clamped to ±127.
    #[must_use]
    pub fn quantize(m: &Matrix) -> Self {
        let (rows, cols) = m.shape();
        let mut data = vec![0i8; rows * cols];
        let mut scales = vec![0.0f32; rows];
        for r in 0..rows {
            let src = m.row(r);
            let max_abs = src.iter().fold(0.0f32, |acc, &x| acc.max(x.abs()));
            let scale = max_abs / tune::QUANT_MAX;
            if !(scale.is_finite() && scale > 0.0) {
                continue; // all-zero (or degenerate) row: scale 0, codes 0
            }
            scales[r] = scale;
            for (q, &x) in data[r * cols..(r + 1) * cols].iter_mut().zip(src) {
                *q = (x / scale).round().clamp(-tune::QUANT_MAX, tune::QUANT_MAX) as i8;
            }
        }
        QuantizedMatrix {
            rows,
            cols,
            data,
            scales,
        }
    }

    /// Rebuilds a quantized matrix from stored codes and scales (the
    /// checkpoint-load path). This must be used — not re-quantization of a
    /// dequantized matrix — so a persisted quantized artifact loads back
    /// bit-identical.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if `data.len() != rows * cols` or
    /// `scales.len() != rows`.
    pub fn from_parts(
        rows: usize,
        cols: usize,
        data: Vec<i8>,
        scales: Vec<f32>,
    ) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::BadBuffer {
                rows,
                cols,
                len: data.len(),
            });
        }
        if scales.len() != rows {
            return Err(TensorError::BadBuffer {
                rows,
                cols: 1,
                len: scales.len(),
            });
        }
        Ok(QuantizedMatrix {
            rows,
            cols,
            data,
            scales,
        })
    }

    /// Expands back to an `f32` matrix (`x = scale · q` per row). Used by
    /// differential tests and anywhere a dense f32 view is required.
    #[must_use]
    pub fn dequantize(&self) -> Matrix {
        let mut out = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            let scale = self.scales[r];
            for (o, &q) in out[r * self.cols..(r + 1) * self.cols]
                .iter_mut()
                .zip(&self.data[r * self.cols..(r + 1) * self.cols])
            {
                *o = scale * f32::from(q);
            }
        }
        Matrix::from_vec(self.rows, self.cols, out).expect("buffer sized by construction")
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The int8 codes, row-major.
    #[must_use]
    pub fn data(&self) -> &[i8] {
        &self.data
    }

    /// The per-row dequantization scales.
    #[must_use]
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The int8 codes of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[i8] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// The scale of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn scale(&self, r: usize) -> f32 {
        self.scales[r]
    }

    /// Bytes this matrix streams from memory per full pass: one byte per
    /// code plus four per row scale. The f32 equivalent is `4·rows·cols`.
    #[must_use]
    pub fn weights_bytes(&self) -> u64 {
        self.data.len() as u64 + 4 * self.scales.len() as u64
    }

    /// Matrix–vector product `self · x`: the `m = 1` call of the active
    /// backend's [`backend::KernelBackend::gemm_bt_q8`], one whole-row
    /// int8×f32 dot per output element, split across the compute pool as
    /// [`Matrix::matvec`] is. The decode fast path for quantized
    /// weights — counted in [`tune::matvec_calls`] exactly like
    /// [`Matrix::matvec`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != x.len()`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>, TensorError> {
        if self.cols != x.len() {
            return Err(TensorError::ShapeMismatch {
                op: "quant_matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        tune::note_matvec();
        let mut out = vec![0.0f32; self.rows];
        self.gemm_bt_into(x, 1, &mut out);
        Ok(out)
    }

    /// GEMM `a · selfᵀ` (activations times quantized weights: batched
    /// decode and prefill blocks) through the same
    /// [`backend::KernelBackend::gemm_bt_q8`] entry as
    /// [`QuantizedMatrix::matvec`], stripped and split across the compute
    /// pool exactly as [`Matrix::matmul_bt`]. Tiles reuse loads, never
    /// reorder a dot: every output element is the whole-row
    /// [`backend::KernelBackend::dot_q8`] that `matvec` computes, so
    /// stacking activation rows is bitwise identical to calling `matvec`
    /// per row — the quantized twin of the f32 skinny kernel's invariant.
    /// Only `m == 1` counts in [`tune::matvec_calls`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `a.cols() != self.cols()`.
    pub fn matmul_bt(&self, a: &Matrix) -> Result<Matrix, TensorError> {
        if a.cols() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "quant_matmul_bt",
                lhs: a.shape(),
                rhs: self.shape(),
            });
        }
        let (m, n) = (a.rows(), self.rows);
        if m == 1 {
            return Matrix::from_vec(1, n, self.matvec(a.data())?);
        }
        let mut out = vec![0.0f32; m * n];
        self.gemm_bt_into(a.data(), m, &mut out);
        Matrix::from_vec(m, n, out)
    }

    /// `out = X · selfᵀ` for `m` activation rows packed in `x`, through the
    /// same strip-and-split routine as the f32 products.
    fn gemm_bt_into(&self, x: &[f32], m: usize, out: &mut [f32]) {
        let tile = self.gemm_bt_tile(backend::active(), x);
        split_gemm_bt(
            par::global(),
            tune::SPLIT_MIN_WEIGHTS,
            m,
            self.rows,
            self.cols,
            out,
            &tile,
        );
    }

    /// [`split_gemm_bt`]'s tile for these weights: `be`'s `gemm_bt_q8` on a
    /// range of `x`'s rows and a range of weight rows.
    pub(crate) fn gemm_bt_tile<'a>(
        &'a self,
        be: &'a dyn backend::KernelBackend,
        x: &'a [f32],
    ) -> impl Fn(Range<usize>, Range<usize>, &mut [f32]) + Sync + 'a {
        let k = self.cols;
        move |rows, cols, y| {
            be.gemm_bt_q8(
                &x[rows.start * k..rows.end * k],
                rows.len(),
                &self.data[cols.start * k..cols.end * k],
                &self.scales[cols.clone()],
                cols.len(),
                k,
                y,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Pcg32::seed(seed);
        Matrix::randn(rows, cols, 0.5, &mut rng)
    }

    #[test]
    fn round_trip_error_is_within_half_step() {
        let m = random_matrix(6, 37, 1);
        let q = QuantizedMatrix::quantize(&m);
        let deq = q.dequantize();
        for r in 0..m.rows() {
            let half_step = q.scale(r) * 0.5 + 1e-12;
            for (a, b) in m.row(r).iter().zip(deq.row(r)) {
                assert!(
                    (a - b).abs() <= half_step,
                    "row {r}: {a} vs {b} exceeds half step {half_step}"
                );
            }
        }
    }

    #[test]
    fn requantize_reproduces_codes_exactly() {
        let m = random_matrix(5, 64, 2);
        let q = QuantizedMatrix::quantize(&m);
        let q2 = QuantizedMatrix::quantize(&q.dequantize());
        assert_eq!(q.data(), q2.data(), "int8 codes must be requantize-stable");
        for (a, b) in q.scales().iter().zip(q2.scales()) {
            assert!((a - b).abs() <= 1e-6 * a.abs().max(1e-30));
        }
    }

    #[test]
    fn zero_rows_get_zero_scale() {
        let m = Matrix::zeros(3, 8);
        let q = QuantizedMatrix::quantize(&m);
        assert!(q.scales().iter().all(|&s| s == 0.0));
        assert!(q.data().iter().all(|&d| d == 0));
        assert_eq!(q.dequantize(), m);
    }

    #[test]
    fn matvec_matches_dequantized_matvec() {
        let m = random_matrix(9, 33, 3);
        let q = QuantizedMatrix::quantize(&m);
        let mut rng = Pcg32::seed(4);
        let x: Vec<f32> = (0..33).map(|_| rng.normal()).collect();
        let got = q.matvec(&x).unwrap();
        let want = q.dequantize().matvec(&x).unwrap();
        let x_norm: f32 = x.iter().map(|v| v.abs()).sum();
        for (r, (g, w)) in got.iter().zip(&want).enumerate() {
            // Same codes, same activations: only summation order differs.
            let tol = 1e-5 * q.scale(r) * 127.0 * x_norm + 1e-6;
            assert!((g - w).abs() <= tol, "row {r}: {g} vs {w}");
        }
    }

    #[test]
    fn matmul_bt_rows_are_bitwise_matvec() {
        let w = QuantizedMatrix::quantize(&random_matrix(11, 48, 5));
        let a = random_matrix(4, 48, 6);
        let out = w.matmul_bt(&a).unwrap();
        for r in 0..a.rows() {
            let single = w.matvec(a.row(r)).unwrap();
            assert_eq!(out.row(r), single.as_slice(), "row {r} drifted");
        }
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let q = QuantizedMatrix::quantize(&random_matrix(3, 7, 7));
        let rebuilt =
            QuantizedMatrix::from_parts(q.rows(), q.cols, q.data().to_vec(), q.scales().to_vec())
                .unwrap();
        assert_eq!(rebuilt, q);
        assert!(QuantizedMatrix::from_parts(2, 3, vec![0; 5], vec![0.0; 2]).is_err());
        assert!(QuantizedMatrix::from_parts(2, 3, vec![0; 6], vec![0.0; 3]).is_err());
    }

    #[test]
    fn weights_bytes_counts_codes_and_scales() {
        let q = QuantizedMatrix::quantize(&random_matrix(4, 10, 8));
        assert_eq!(q.weights_bytes(), 4 * 10 + 4 * 4);
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let q = QuantizedMatrix::quantize(&random_matrix(2, 5, 9));
        assert!(q.matvec(&[0.0; 4]).is_err());
        assert!(q.matmul_bt(&Matrix::zeros(2, 4)).is_err());
    }
}
