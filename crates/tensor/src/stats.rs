//! Scalar statistics over weight matrices.
//!
//! Geodesic merging needs two geometric quantities per weight: the cosine
//! similarity between the Frobenius-normalised matrices and the resulting
//! interpolation angle `Θ`.
//!
//! # Example
//!
//! ```
//! use chipalign_tensor::{Matrix, stats};
//!
//! # fn main() -> Result<(), chipalign_tensor::TensorError> {
//! let a = Matrix::from_vec(1, 2, vec![1.0, 0.0])?;
//! let b = Matrix::from_vec(1, 2, vec![0.0, 1.0])?;
//! let theta = stats::interpolation_angle(&a, &b)?;
//! assert!((theta - std::f64::consts::FRAC_PI_2).abs() < 1e-6);
//! # Ok(())
//! # }
//! ```

use crate::{Matrix, TensorError};

/// Cosine similarity between two matrices viewed as flat vectors.
///
/// Returns 0 when either matrix has zero norm (the two points are not both on
/// the sphere, so no angle is defined; 0 is the conventional neutral value).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn cosine_similarity(a: &Matrix, b: &Matrix) -> Result<f64, TensorError> {
    let dot = a.frobenius_dot(b)?;
    let na = f64::from(a.frobenius_norm());
    let nb = f64::from(b.frobenius_norm());
    if na == 0.0 || nb == 0.0 {
        return Ok(0.0);
    }
    Ok((dot / (na * nb)).clamp(-1.0, 1.0))
}

/// The geodesic interpolation angle `Θ = arccos⟨Ā, B̄⟩` between the
/// unit-sphere projections of two weight matrices, in radians.
///
/// This is exactly the `Θ` of Lemma III.2 in the ChipAlign paper.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
pub fn interpolation_angle(a: &Matrix, b: &Matrix) -> Result<f64, TensorError> {
    Ok(cosine_similarity(a, b)?.acos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_parallel_is_one() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).expect("ok");
        let b = a.scale(2.5);
        let cos = cosine_similarity(&a, &b).expect("same shape");
        // Norms are computed from f32 inputs, so allow single-precision slack.
        assert!((cos - 1.0).abs() < 1e-6);
        assert!(interpolation_angle(&a, &b).expect("same shape") < 2e-3);
    }

    #[test]
    fn cosine_of_antiparallel_is_minus_one() {
        let a = Matrix::ones(2, 2);
        let b = a.scale(-1.0);
        let cos = cosine_similarity(&a, &b).expect("same shape");
        assert!((cos + 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_with_zero_matrix_is_zero() {
        let a = Matrix::ones(2, 2);
        let z = Matrix::zeros(2, 2);
        assert_eq!(cosine_similarity(&a, &z).expect("same shape"), 0.0);
    }

    #[test]
    fn angle_orthogonal() {
        let a = Matrix::from_vec(1, 2, vec![1.0, 0.0]).expect("ok");
        let b = Matrix::from_vec(1, 2, vec![0.0, 1.0]).expect("ok");
        let theta = interpolation_angle(&a, &b).expect("same shape");
        assert!((theta - std::f64::consts::FRAC_PI_2).abs() < 1e-9);
    }

    #[test]
    fn shape_mismatch_propagates() {
        let a = Matrix::zeros(1, 2);
        let b = Matrix::zeros(2, 1);
        assert!(cosine_similarity(&a, &b).is_err());
        assert!(interpolation_angle(&a, &b).is_err());
    }
}
