//! Dense tensor math substrate for the ChipAlign reproduction.
//!
//! This crate provides the low-level numerical machinery that every other
//! crate in the workspace builds on:
//!
//! * [`Matrix`] — a row-major, heap-allocated `f32` matrix with the linear
//!   algebra needed by a transformer forward/backward pass and by weight-space
//!   model merging (Frobenius norms, inner products, `axpy`, matmul).
//! * [`rng`] — a tiny, fully deterministic pseudo-random number generator
//!   ([`rng::Pcg32`]) plus normal/uniform sampling helpers, so that every
//!   experiment in the reproduction is bit-reproducible across runs and
//!   platforms without pulling an RNG dependency into the numerics core.
//! * [`stats`] — scalar statistics over weight matrices (cosine similarity,
//!   the interpolation angle Θ used by geodesic merging, simple summaries).
//! * [`tune`] — every kernel block size and shape cut-off as a
//!   named, documented constant, plus the matvec fast-path call counter that
//!   lets decode paths prove which kernel they ran on.
//! * [`reference`](mod@reference) — the retained naive kernels, used as differential-test
//!   oracles for the blocked implementations (1e-4 relative tolerance).
//! * [`backend`] — the pluggable kernel tier: scalar reference, the blocked
//!   autovectorized kernels, and an explicit AVX2/FMA tier selected once per
//!   process by runtime feature detection (`CHIPALIGN_BACKEND` overrides).
//!   `matvec`/`vecmat`/GEMM rows all route through the active backend.
//! * [`QuantizedMatrix`] — per-row-scaled symmetric int8 weights with
//!   int8×f32 matvec/skinny-GEMM kernels for the decode path; f32 kernels
//!   stay as differential oracles.
//! * [`reduce`] — the one lane-split `f64` reduction kernel: Frobenius
//!   norms and inner products, and the two sweeps of the geodesic merge
//!   ([`reduce::moments`], [`reduce::axpby_into`]).
//! * [`parallelize`] — fan-out of independent items over every core on
//!   scoped threads, results placed by index so they do not depend on the
//!   worker count.
//!
//! The ChipAlign paper (DAC 2025) treats each weight matrix
//! `W ∈ R^{p×q}` as a point that can be projected onto the unit
//! `n`-sphere (`n = p·q − 1`) by dividing by its Frobenius norm. Everything
//! required for that projection and the subsequent spherical interpolation is
//! a flat pass over `p·q` numbers, which is why this crate keeps matrices as
//! contiguous `Vec<f32>` buffers and exposes slice access ([`Matrix::data`])
//! for linear-time merging kernels.
//!
//! # Example
//!
//! ```
//! use chipalign_tensor::{Matrix, rng::Pcg32};
//!
//! # fn main() -> Result<(), chipalign_tensor::TensorError> {
//! let mut rng = Pcg32::seed(42);
//! let a = Matrix::randn(4, 8, 0.02, &mut rng);
//! let b = Matrix::randn(8, 3, 0.02, &mut rng);
//! let c = a.matmul(&b)?;
//! assert_eq!((c.rows(), c.cols()), (4, 3));
//! let norm = c.frobenius_norm();
//! assert!(norm.is_finite());
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the explicit-SIMD kernels in
// `backend::x86` are the one sanctioned `unsafe` island (scoped
// `#[allow(unsafe_code)]`, every intrinsic behind runtime feature
// detection); everything else in the crate still refuses unsafe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
mod error;
mod matrix;
pub mod ops;
mod par;
mod quant;
pub mod reduce;
pub mod reference;
pub mod rng;
pub mod stats;
pub mod tune;

pub use error::TensorError;
pub use matrix::Matrix;
pub use par::parallelize;
#[doc(hidden)]
pub use par::parallelize_with;
pub use quant::QuantizedMatrix;
