use std::error::Error;
use std::fmt;

/// Errors produced by tensor operations.
///
/// Every fallible public function in this crate returns `Result<_,
/// TensorError>`; the variants carry enough shape information to diagnose a
/// mis-sized operand without a debugger.
///
/// # Example
///
/// ```
/// use chipalign_tensor::{Matrix, TensorError};
///
/// let a = Matrix::zeros(2, 3);
/// let b = Matrix::zeros(4, 5);
/// match a.matmul(&b) {
///     Err(TensorError::ShapeMismatch { .. }) => {}
///     _ => panic!("2x3 times 4x5 must not type-check at runtime"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TensorError {
    /// Two operands had incompatible shapes for the requested operation.
    ShapeMismatch {
        /// Name of the operation that failed (e.g. `"matmul"`).
        op: &'static str,
        /// Shape of the left-hand operand as `(rows, cols)`.
        lhs: (usize, usize),
        /// Shape of the right-hand operand as `(rows, cols)`.
        rhs: (usize, usize),
    },
    /// A constructor was given a buffer whose length does not equal
    /// `rows * cols`.
    BadBuffer {
        /// Requested number of rows.
        rows: usize,
        /// Requested number of columns.
        cols: usize,
        /// Length of the provided buffer.
        len: usize,
    },
    /// An index was outside the matrix bounds.
    OutOfBounds {
        /// The offending `(row, col)` index.
        index: (usize, usize),
        /// The matrix shape.
        shape: (usize, usize),
    },
}

impl fmt::Display for TensorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TensorError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs is {}x{}, rhs is {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            TensorError::BadBuffer { rows, cols, len } => write!(
                f,
                "buffer of length {len} cannot back a {rows}x{cols} matrix"
            ),
            TensorError::OutOfBounds { index, shape } => write!(
                f,
                "index ({}, {}) out of bounds for {}x{} matrix",
                index.0, index.1, shape.0, shape.1
            ),
        }
    }
}

impl Error for TensorError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_shape_mismatch() {
        let err = TensorError::ShapeMismatch {
            op: "matmul",
            lhs: (2, 3),
            rhs: (4, 5),
        };
        assert_eq!(
            err.to_string(),
            "shape mismatch in matmul: lhs is 2x3, rhs is 4x5"
        );
    }

    #[test]
    fn display_bad_buffer() {
        let err = TensorError::BadBuffer {
            rows: 2,
            cols: 2,
            len: 3,
        };
        assert_eq!(
            err.to_string(),
            "buffer of length 3 cannot back a 2x2 matrix"
        );
    }

    #[test]
    fn display_out_of_bounds() {
        let err = TensorError::OutOfBounds {
            index: (5, 0),
            shape: (2, 2),
        };
        assert_eq!(err.to_string(), "index (5, 0) out of bounds for 2x2 matrix");
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TensorError>();
    }
}
