use std::fmt;

use crate::rng::Pcg32;
use crate::{tune, TensorError};

/// A dense, row-major `f32` matrix.
///
/// `Matrix` is the single tensor type of the workspace: 1-D parameters such
/// as RMSNorm gains are represented as `1 × q` matrices so that the merging
/// kernels (which view any weight as a point in `R^{p·q}`) treat every
/// parameter uniformly.
///
/// The buffer is always exactly `rows * cols` long and contiguous, so
/// linear-time whole-weight passes (Frobenius norms, geodesic interpolation)
/// can operate on [`Matrix::data`] directly.
///
/// # Example
///
/// ```
/// use chipalign_tensor::Matrix;
///
/// # fn main() -> Result<(), chipalign_tensor::TensorError> {
/// let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0])?;
/// let b = Matrix::identity(2);
/// let c = a.matmul(&b)?;
/// assert_eq!(c, a);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix of ones.
    #[must_use]
    pub fn ones(rows: usize, cols: usize) -> Self {
        Matrix::filled(rows, cols, 1.0)
    }

    /// Creates a `rows × cols` matrix with every element equal to `value`.
    #[must_use]
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Wraps an existing buffer as a `rows × cols` matrix.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self, TensorError> {
        if data.len() != rows * cols {
            return Err(TensorError::BadBuffer {
                rows,
                cols,
                len: data.len(),
            });
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    #[must_use]
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from equal-length rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::BadBuffer`] if the rows have differing lengths.
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self, TensorError> {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            if row.len() != ncols {
                return Err(TensorError::BadBuffer {
                    rows: nrows,
                    cols: ncols,
                    len: row.len(),
                });
            }
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: nrows,
            cols: ncols,
            data,
        })
    }

    /// Creates a matrix of i.i.d. normal samples with standard deviation
    /// `std` (mean zero).
    #[must_use]
    pub fn randn(rows: usize, cols: usize, std: f32, rng: &mut Pcg32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push(rng.normal() * std);
        }
        Matrix { rows, cols, data }
    }

    /// Creates a matrix with Xavier/Glorot-uniform initialisation, the
    /// default for the transformer projection weights in `chipalign-nn`.
    #[must_use]
    pub fn xavier(rows: usize, cols: usize, rng: &mut Pcg32) -> Self {
        let bound = (6.0 / (rows + cols) as f32).sqrt();
        let mut data = Vec::with_capacity(rows * cols);
        for _ in 0..rows * cols {
            data.push((rng.uniform() * 2.0 - 1.0) * bound);
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying row-major buffer.
    #[must_use]
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    #[must_use]
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at `(row, col)`, or `None` if out of bounds.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::OutOfBounds`] for an invalid index.
    pub fn set(&mut self, row: usize, col: usize, value: f32) -> Result<(), TensorError> {
        if row < self.rows && col < self.cols {
            self.data[row * self.cols + col] = value;
            Ok(())
        } else {
            Err(TensorError::OutOfBounds {
                index: (row, col),
                shape: (self.rows, self.cols),
            })
        }
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[f32]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Applies `f` to every element, producing a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Combines two same-shaped matrices elementwise.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(
        &self,
        other: &Matrix,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Self, TensorError> {
        self.check_same_shape(other, "zip_map")?;
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Elementwise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<(), TensorError> {
        self.check_same_shape(other, "add_assign")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Computes `self += alpha * other` in place (BLAS `axpy`).
    ///
    /// This is the inner loop of every merging method, so it stays
    /// allocation-free.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) -> Result<(), TensorError> {
        self.check_same_shape(other, "axpy")?;
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Returns `self * scalar`.
    #[must_use]
    pub fn scale(&self, scalar: f32) -> Self {
        self.map(|x| x * scalar)
    }

    /// Multiplies every element by `scalar` in place.
    pub fn scale_inplace(&mut self, scalar: f32) {
        for x in &mut self.data {
            *x *= scalar;
        }
    }

    /// Linear interpolation `(1 - t) * self + t * other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn lerp(&self, other: &Matrix, t: f32) -> Result<Self, TensorError> {
        self.zip_map(other, |a, b| (1.0 - t) * a + t * b)
    }

    /// Matrix product `self · other`.
    ///
    /// The kernel processes each output row in fixed-width column tiles
    /// ([`tune::GEMM_COL_TILE`]) whose partial sums live in a stack array the
    /// compiler keeps in vector registers, one output row at a time.
    /// Vector-shaped products (`m == 1` or `n == 1`) dispatch to the
    /// [`Matrix::vecmat`]/[`Matrix::matvec`] fast paths.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Matrix) -> Result<Self, TensorError> {
        if self.cols != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.cols);
        if m == 1 {
            return Matrix::from_vec(1, n, other.vecmat(&self.data)?);
        }
        if n == 1 {
            return Matrix::from_vec(m, 1, self.matvec(&other.data)?);
        }
        let mut out = vec![0.0f32; m * n];
        if out.is_empty() {
            return Matrix::from_vec(m, n, out);
        }
        for (r, out_row) in out.chunks_mut(n).enumerate() {
            gemm_row_tiled(&self.data[r * k..(r + 1) * k], &other.data, n, out_row);
        }
        Matrix::from_vec(m, n, out)
    }

    /// Matrix product `self · otherᵀ` without materialising the transpose.
    ///
    /// `m == 1` (the KV-cached decode shape) dispatches to
    /// [`Matrix::matvec`]. `2 ≤ m ≤ [`tune::GEMM_SKINNY_M_MAX`]` (batched
    /// decode and prefill blocks) is one call to the active backend's
    /// [`crate::backend::KernelBackend::gemm_bt`] tile, the same entry
    /// `matvec` runs with one row. Tiles reuse loads, never reorder a dot:
    /// each output element is the backend's whole-row dot, so stacking rows
    /// never changes the bits of any row's result. Taller left-hand sides
    /// (the training forward) block each output row over `k`
    /// ([`tune::GEMM_K_BLOCK`]) so a panel of it stays cache-hot while it
    /// sweeps `other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != other.cols()`.
    pub fn matmul_bt(&self, other: &Matrix) -> Result<Self, TensorError> {
        if self.cols != other.cols {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_bt",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (m, k, n) = (self.rows, self.cols, other.rows);
        if m == 1 {
            return Matrix::from_vec(1, n, other.matvec(&self.data)?);
        }
        if n == 1 {
            return Matrix::from_vec(m, 1, self.matvec(&other.data)?);
        }
        let mut out = vec![0.0f32; m * n];
        if out.is_empty() {
            return Matrix::from_vec(m, n, out);
        }
        if m <= tune::GEMM_SKINNY_M_MAX {
            crate::backend::active().gemm_bt(&self.data, m, &other.data, n, k, &mut out);
        } else {
            for (r, out_row) in out.chunks_mut(n).enumerate() {
                gemm_bt_row(&self.data[r * k..(r + 1) * k], &other.data, k, out_row);
            }
        }
        Matrix::from_vec(m, n, out)
    }

    /// Matrix product `selfᵀ · other` without materialising the transpose.
    ///
    /// Rank-1-free formulation: output row `r` reads column `r` of `self`
    /// (stride `m`) against the rows of `other`, so every output row is
    /// written exactly once, with the same column-tiled register
    /// accumulation as [`Matrix::matmul`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.rows() != other.rows()`.
    pub fn matmul_at(&self, other: &Matrix) -> Result<Self, TensorError> {
        if self.rows != other.rows {
            return Err(TensorError::ShapeMismatch {
                op: "matmul_at",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        let (k, m, n) = (self.rows, self.cols, other.cols);
        let mut out = vec![0.0f32; m * n];
        if out.is_empty() {
            return Matrix::from_vec(m, n, out);
        }
        for (r, out_row) in out.chunks_mut(n).enumerate() {
            gemm_at_row(&self.data, &other.data, r, m, k, n, out_row);
        }
        Matrix::from_vec(m, n, out)
    }

    /// Matrix–vector product `self · x` (with `x` a column vector of length
    /// `self.cols()`): the `m = 1` call of the active backend's
    /// [`crate::backend::KernelBackend::gemm_bt`], one whole-row dot per
    /// output.
    ///
    /// This is the fast path that dominates KV-cached decode: every
    /// projection of a single token is a `(out × in) · in` product, and
    /// skipping the `Matrix` wrapper avoids the `1 × n` allocation. Each
    /// call is counted in [`tune::matvec_calls`] so decode paths can prove
    /// they use it.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `self.cols() != x.len()`.
    pub fn matvec(&self, x: &[f32]) -> Result<Vec<f32>, TensorError> {
        if self.cols != x.len() {
            return Err(TensorError::ShapeMismatch {
                op: "matvec",
                lhs: self.shape(),
                rhs: (x.len(), 1),
            });
        }
        tune::note_matvec();
        let mut out = vec![0.0f32; self.rows];
        crate::backend::active().gemm_bt(x, 1, &self.data, self.rows, self.cols, &mut out);
        Ok(out)
    }

    /// Vector–matrix product `xᵀ · self` (with `x` a row vector of length
    /// `self.rows()`), using the same column-tiled register accumulation as
    /// [`Matrix::matmul`]. Counted in [`tune::matvec_calls`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if `x.len() != self.rows()`.
    pub fn vecmat(&self, x: &[f32]) -> Result<Vec<f32>, TensorError> {
        if x.len() != self.rows {
            return Err(TensorError::ShapeMismatch {
                op: "vecmat",
                lhs: (1, x.len()),
                rhs: self.shape(),
            });
        }
        tune::note_matvec();
        let mut out = vec![0.0f32; self.cols];
        gemm_row_tiled(x, &self.data, self.cols, &mut out);
        Ok(out)
    }

    /// Returns the transposed matrix.
    ///
    /// Blocked over [`tune::TRANSPOSE_BLOCK`]-sided square tiles so both the
    /// row-major reads and the column-major writes of a tile stay in L1.
    #[must_use]
    pub fn transpose(&self) -> Self {
        let (rows, cols) = (self.rows, self.cols);
        let mut out = vec![0.0f32; rows * cols];
        let block = tune::TRANSPOSE_BLOCK;
        for r0 in (0..rows).step_by(block) {
            for c0 in (0..cols).step_by(block) {
                for r in r0..rows.min(r0 + block) {
                    for c in c0..cols.min(c0 + block) {
                        out[c * rows + r] = self.data[r * cols + c];
                    }
                }
            }
        }
        Matrix {
            rows: cols,
            cols: rows,
            data: out,
        }
    }

    /// Frobenius norm `||W||_F = sqrt(Σ w_ij²)`, accumulated in `f64` by
    /// the lane-split kernel of [`crate::reduce`].
    ///
    /// This is the projection denominator in ChipAlign's unit-sphere
    /// normalisation.
    #[must_use]
    pub fn frobenius_norm(&self) -> f32 {
        crate::reduce::sum_of_squares(&self.data).sqrt() as f32
    }

    /// Frobenius inner product `⟨A, B⟩ = Σ a_ij · b_ij`, accumulated in
    /// `f64` by the lane-split kernel of [`crate::reduce`].
    ///
    /// Used to compute the geodesic angle `Θ = arccos⟨Ā, B̄⟩` between two
    /// unit-normalised weight matrices.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn frobenius_dot(&self, other: &Matrix) -> Result<f64, TensorError> {
        self.check_same_shape(other, "frobenius_dot")?;
        Ok(crate::reduce::dot(&self.data, &other.data))
    }

    /// Largest absolute element, or 0 for an empty matrix.
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Mean of all elements.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::Empty`] for an empty matrix.
    pub fn mean(&self) -> Result<f32, TensorError> {
        if self.is_empty() {
            return Err(TensorError::Empty { op: "mean" });
        }
        Ok((self.data.iter().map(|&x| f64::from(x)).sum::<f64>() / self.data.len() as f64) as f32)
    }

    /// `true` if every element is finite (no NaN/inf).
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// `true` if the two matrices have the same shape and all elements are
    /// within `tol` of one another. Intended for tests.
    #[must_use]
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    fn check_same_shape(&self, other: &Matrix, op: &'static str) -> Result<(), TensorError> {
        if self.shape() == other.shape() {
            Ok(())
        } else {
            Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            })
        }
    }
}

/// One output row of `A·B` through the process-wide kernel backend (the
/// column-tiled register accumulation lives in [`crate::backend`] as the
/// blocked tier; the SIMD tier replaces it with 16-wide FMA tiles).
fn gemm_row_tiled(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
    crate::backend::active().gemm_row(a_row, b, n, out_row);
}

/// One output row of `A·Bᵀ` for a left-hand side taller than
/// [`tune::GEMM_SKINNY_M_MAX`]: block `a_row` into
/// [`tune::GEMM_K_BLOCK`]-long panels that stay L1-resident while dotted,
/// through the process-wide backend, against every row of `B`.
///
/// For `k <= GEMM_K_BLOCK` this is a single whole-row dot per output
/// element — the same accumulation order as [`Matrix::matvec`], which keeps
/// full-sequence forward and KV-cached decode numerically identical.
fn gemm_bt_row(a_row: &[f32], b: &[f32], k: usize, out_row: &mut [f32]) {
    let be = crate::backend::active();
    let mut k0 = 0;
    while k0 < k {
        let kw = tune::GEMM_K_BLOCK.min(k - k0);
        let a_panel = &a_row[k0..k0 + kw];
        for (c, o) in out_row.iter_mut().enumerate() {
            *o += be.dot(a_panel, &b[c * k + k0..c * k + k0 + kw]);
        }
        k0 += kw;
    }
}

/// One output row of `Aᵀ·B`: output row `r` reads column `r` of `A` (stride
/// `m`) against the rows of `B`, column-tiled like [`gemm_row_tiled`]. No
/// rank-1 updates, so every output row is written exactly once.
fn gemm_at_row(a: &[f32], b: &[f32], r: usize, m: usize, k: usize, n: usize, out_row: &mut [f32]) {
    let mut j0 = 0;
    while j0 < n {
        let w = tune::GEMM_COL_TILE.min(n - j0);
        let mut acc = [0.0f32; tune::GEMM_COL_TILE];
        for kk in 0..k {
            let av = a[kk * m + r];
            let b_strip = &b[kk * n + j0..kk * n + j0 + w];
            for (ac, &bv) in acc.iter_mut().zip(b_strip) {
                *ac += av * bv;
            }
        }
        out_row[j0..j0 + w].copy_from_slice(&acc[..w]);
        j0 += w;
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{}", self.rows, self.cols)?;
        if self.len() <= 16 {
            write!(f, ", {:?})", self.data)
        } else {
            write!(
                f,
                ", frob={:.4}, head={:?}...)",
                self.frobenius_norm(),
                &self.data[..4.min(self.data.len())]
            )
        }
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:8.4}", self.data[r * self.cols + c])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Matrix {
        Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).expect("valid")
    }

    #[test]
    fn constructors_shapes() {
        assert_eq!(Matrix::zeros(2, 3).shape(), (2, 3));
        assert_eq!(Matrix::ones(1, 4).data(), &[1.0; 4]);
        assert_eq!(Matrix::filled(2, 2, 7.5).data(), &[7.5; 4]);
        let id = Matrix::identity(3);
        assert_eq!(id.get(0, 0), Some(1.0));
        assert_eq!(id.get(0, 1), Some(0.0));
    }

    #[test]
    fn from_vec_rejects_bad_len() {
        assert!(matches!(
            Matrix::from_vec(2, 2, vec![1.0; 3]),
            Err(TensorError::BadBuffer { len: 3, .. })
        ));
    }

    #[test]
    fn from_rows_rejects_ragged() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]);
        assert!(err.is_err());
        let ok = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).expect("rect");
        assert_eq!(ok.shape(), (2, 2));
    }

    #[test]
    fn from_fn_layout() {
        let m = Matrix::from_fn(2, 3, |r, c| (r * 10 + c) as f32);
        assert_eq!(m.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn get_set_bounds() {
        let mut m = small();
        assert_eq!(m.get(1, 2), Some(6.0));
        assert_eq!(m.get(2, 0), None);
        m.set(0, 0, 9.0).expect("in bounds");
        assert_eq!(m.get(0, 0), Some(9.0));
        assert!(matches!(
            m.set(0, 3, 0.0),
            Err(TensorError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn row_access() {
        let m = small();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        let rows: Vec<&[f32]> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], &[1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn row_panics_out_of_bounds() {
        let _ = small().row(5);
    }

    #[test]
    fn elementwise_ops() {
        let a = small();
        let b = a.scale(2.0);
        assert_eq!(a.add(&b).expect("same shape").data()[5], 18.0);
        assert_eq!(b.sub(&a).expect("same shape").data(), a.data());
        let mut c = a.clone();
        c.axpy(0.5, &b).expect("same shape");
        assert_eq!(c.data()[0], 2.0);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(3, 2);
        assert!(a.add(&b).is_err());
        assert!(a.frobenius_dot(&b).is_err());
        assert!(a.lerp(&b, 0.5).is_err());
    }

    #[test]
    fn matmul_known_result() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).expect("ok");
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]).expect("ok");
        let c = a.matmul(&b).expect("conformable");
        assert_eq!(c.data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = small();
        let c = a.matmul(&Matrix::identity(3)).expect("conformable");
        assert!(c.approx_eq(&a, 1e-6));
    }

    #[test]
    fn matmul_bt_matches_explicit_transpose() {
        let mut rng = Pcg32::seed(1);
        let a = Matrix::randn(5, 7, 1.0, &mut rng);
        let b = Matrix::randn(4, 7, 1.0, &mut rng);
        let fast = a.matmul_bt(&b).expect("conformable");
        let slow = a.matmul(&b.transpose()).expect("conformable");
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn matmul_at_matches_explicit_transpose() {
        let mut rng = Pcg32::seed(2);
        let a = Matrix::randn(6, 3, 1.0, &mut rng);
        let b = Matrix::randn(6, 5, 1.0, &mut rng);
        let fast = a.matmul_at(&b).expect("conformable");
        let slow = a.transpose().matmul(&b).expect("conformable");
        assert!(fast.approx_eq(&slow, 1e-4));
    }

    #[test]
    fn matmul_large_shape_agrees_with_per_element_dots() {
        let mut rng = Pcg32::seed(3);
        let a = Matrix::randn(64, 64, 0.5, &mut rng);
        let b = Matrix::randn(64, 64, 0.5, &mut rng);
        let big = a.matmul(&b).expect("conformable");
        let reference = Matrix::from_fn(64, 64, |r, c| {
            (0..64).map(|k| a.row(r)[k] * b.row(k)[c]).sum()
        });
        assert!(big.approx_eq(&reference, 1e-3));
    }

    #[test]
    fn matmul_at_large_shape_agrees_with_transpose_matmul() {
        let mut rng = Pcg32::seed(11);
        let a = Matrix::randn(40, 40, 0.5, &mut rng);
        let b = Matrix::randn(40, 40, 0.5, &mut rng);
        let fast = a.matmul_at(&b).expect("conformable");
        let slow = a.transpose().matmul(&b).expect("conformable");
        assert!(fast.approx_eq(&slow, 1e-3));
    }

    #[test]
    fn matvec_matches_column_matmul() {
        let mut rng = Pcg32::seed(12);
        let w = Matrix::randn(9, 21, 1.0, &mut rng);
        let x: Vec<f32> = (0..21).map(|i| (i as f32).sin()).collect();
        let fast = w.matvec(&x).expect("conformable");
        let col = Matrix::from_vec(21, 1, x).expect("ok");
        let slow = w.matmul(&col).expect("conformable");
        assert_eq!(fast.len(), 9);
        for (a, b) in fast.iter().zip(slow.data()) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(w.matvec(&[1.0]).is_err());
    }

    #[test]
    fn vecmat_matches_row_matmul_bt() {
        let mut rng = Pcg32::seed(13);
        let w = Matrix::randn(17, 5, 1.0, &mut rng);
        let x: Vec<f32> = (0..17).map(|i| (i as f32).cos()).collect();
        let fast = w.vecmat(&x).expect("conformable");
        // xᵀ·W == (Wᵀ·x)ᵀ, so compare against the transposed matvec.
        let slow = w.transpose().matvec(&x).expect("conformable");
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-5);
        }
        assert!(w.vecmat(&[1.0]).is_err());
    }

    #[test]
    fn single_row_matmul_uses_vector_path() {
        let mut rng = Pcg32::seed(14);
        let a = Matrix::randn(1, 33, 1.0, &mut rng);
        let b = Matrix::randn(33, 19, 1.0, &mut rng);
        let before = tune::matvec_calls();
        let c = a.matmul(&b).expect("conformable");
        let d = a.matmul_bt(&b.transpose()).expect("conformable");
        assert!(tune::matvec_calls() >= before + 2);
        assert_eq!(c.shape(), (1, 19));
        assert!(c.approx_eq(&d, 1e-5));
    }

    #[test]
    fn skinny_matmul_bt_rows_are_bitwise_matvec() {
        // k = 700 > GEMM_K_BLOCK: the panelled kernel would split the
        // reduction here, so this pins that the skinny path really is a
        // single whole-row dot per element — every output row must equal
        // the standalone matvec of that row, bit for bit.
        let mut rng = Pcg32::seed(21);
        let a = Matrix::randn(8, 700, 1.0, &mut rng);
        let b = Matrix::randn(40, 700, 1.0, &mut rng);
        assert!(a.rows() <= tune::GEMM_SKINNY_M_MAX);
        let batched = a.matmul_bt(&b).expect("conformable");
        for r in 0..a.rows() {
            let single = b.matvec(a.row(r)).expect("conformable");
            assert_eq!(batched.row(r), &single[..], "row {r} drifted");
        }
    }

    #[test]
    fn matmul_bt_agrees_across_skinny_boundary() {
        // m = 2, the last skinny width, and the first panelled width must
        // all agree with the explicit-transpose formulation.
        let mut rng = Pcg32::seed(22);
        for m in [2, tune::GEMM_SKINNY_M_MAX, tune::GEMM_SKINNY_M_MAX + 1] {
            let a = Matrix::randn(m, 300, 1.0, &mut rng);
            let b = Matrix::randn(10, 300, 1.0, &mut rng);
            let fast = a.matmul_bt(&b).expect("conformable");
            let slow = a.matmul(&b.transpose()).expect("conformable");
            assert!(fast.approx_eq(&slow, 1e-3), "m = {m} diverged");
        }
    }

    #[test]
    fn matmul_handles_zero_sized_shapes() {
        let a = Matrix::zeros(0, 4);
        let b = Matrix::zeros(4, 3);
        assert_eq!(a.matmul(&b).expect("conformable").shape(), (0, 3));
        let c = Matrix::zeros(3, 0);
        assert_eq!(b.matmul(&c).expect("conformable").shape(), (4, 0));
        let d = Matrix::zeros(2, 0);
        assert_eq!(
            d.matmul(&c.transpose()).expect("conformable").shape(),
            (2, 3)
        );
        assert_eq!(
            c.matmul_at(&Matrix::zeros(3, 2)).expect("ok").shape(),
            (0, 2)
        );
    }

    #[test]
    fn transpose_blocked_matches_naive_on_odd_shapes() {
        // 37 and 50 straddle TRANSPOSE_BLOCK boundaries on both axes.
        let mut rng = Pcg32::seed(15);
        let a = Matrix::randn(37, 50, 1.0, &mut rng);
        let t = a.transpose();
        assert_eq!(t.shape(), (50, 37));
        for r in 0..37 {
            for c in 0..50 {
                assert_eq!(t.get(c, r), a.get(r, c));
            }
        }
    }

    #[test]
    fn transpose_involution() {
        let a = small();
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().shape(), (3, 2));
        assert_eq!(a.transpose().get(2, 1), Some(6.0));
    }

    #[test]
    fn frobenius_norm_known() {
        let m = Matrix::from_vec(1, 2, vec![3.0, 4.0]).expect("ok");
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn frobenius_dot_is_symmetric() {
        let mut rng = Pcg32::seed(4);
        let a = Matrix::randn(3, 3, 1.0, &mut rng);
        let b = Matrix::randn(3, 3, 1.0, &mut rng);
        let ab = a.frobenius_dot(&b).expect("same shape");
        let ba = b.frobenius_dot(&a).expect("same shape");
        assert!((ab - ba).abs() < 1e-9);
    }

    #[test]
    fn lerp_endpoints() {
        let a = small();
        let b = a.scale(3.0);
        assert!(a.lerp(&b, 0.0).expect("same shape").approx_eq(&a, 1e-6));
        assert!(a.lerp(&b, 1.0).expect("same shape").approx_eq(&b, 1e-6));
    }

    #[test]
    fn norms_and_stats() {
        let m = Matrix::from_vec(1, 3, vec![-1.0, 2.0, -3.0]).expect("ok");
        assert_eq!(m.max_abs(), 3.0);
        assert!((m.mean().expect("non-empty") - (-2.0 / 3.0)).abs() < 1e-6);
        assert!(m.all_finite());
        let bad = Matrix::from_vec(1, 1, vec![f32::NAN]).expect("ok");
        assert!(!bad.all_finite());
    }

    #[test]
    fn mean_of_empty_errors() {
        let empty = Matrix::zeros(0, 5);
        assert!(matches!(empty.mean(), Err(TensorError::Empty { .. })));
    }

    #[test]
    fn xavier_bound_respected() {
        let mut rng = Pcg32::seed(5);
        let m = Matrix::xavier(16, 16, &mut rng);
        let bound = (6.0 / 32.0f32).sqrt();
        assert!(m.max_abs() <= bound + 1e-6);
        assert!(m.max_abs() > bound * 0.5, "should come close to the bound");
    }

    #[test]
    fn debug_is_never_empty() {
        assert!(!format!("{:?}", Matrix::zeros(0, 0)).is_empty());
        assert!(format!("{:?}", Matrix::zeros(100, 100)).contains("frob"));
    }

    #[test]
    fn display_formats_rows() {
        let s = format!("{}", Matrix::identity(2));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn matrix_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Matrix>();
    }
}
