use std::error::Error;
use std::fmt;

use chipalign_tensor::TensorError;

/// Errors produced by checkpoint construction, validation, and (de)serialization.
#[derive(Debug)]
#[non_exhaustive]
pub enum ModelError {
    /// An underlying tensor operation failed.
    Tensor(TensorError),
    /// The checkpoint is missing a parameter that its architecture requires.
    MissingParam {
        /// Name of the missing parameter.
        name: String,
    },
    /// The checkpoint contains a parameter its architecture does not declare.
    UnexpectedParam {
        /// Name of the unexpected parameter.
        name: String,
    },
    /// A parameter exists but has the wrong shape for its architecture.
    ShapeViolation {
        /// Parameter name.
        name: String,
        /// Shape required by the architecture.
        expected: (usize, usize),
        /// Shape found in the checkpoint.
        found: (usize, usize),
    },
    /// Two checkpoints are not conformable for merging.
    NotConformable {
        /// Human-readable reason (first difference found).
        reason: String,
    },
    /// A serialized checkpoint could not be decoded.
    Corrupt {
        /// What went wrong during decoding.
        detail: String,
    },
    /// A tensor's stored checksum does not match its payload bytes.
    ChecksumMismatch {
        /// Name of the tensor whose checksum failed.
        tensor: String,
    },
    /// A tensor contains NaN or infinite values.
    NonFinite {
        /// Name of the first offending tensor.
        tensor: String,
    },
    /// An I/O error occurred while reading or writing a checkpoint file.
    Io(std::io::Error),
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Tensor(e) => write!(f, "tensor error: {e}"),
            ModelError::MissingParam { name } => {
                write!(f, "checkpoint is missing required parameter `{name}`")
            }
            ModelError::UnexpectedParam { name } => {
                write!(f, "checkpoint contains undeclared parameter `{name}`")
            }
            ModelError::ShapeViolation {
                name,
                expected,
                found,
            } => write!(
                f,
                "parameter `{name}` has shape {}x{} but the architecture requires {}x{}",
                found.0, found.1, expected.0, expected.1
            ),
            ModelError::NotConformable { reason } => {
                write!(f, "checkpoints are not conformable for merging: {reason}")
            }
            ModelError::Corrupt { detail } => {
                write!(f, "corrupt checkpoint data: {detail}")
            }
            ModelError::ChecksumMismatch { tensor } => {
                write!(f, "checksum mismatch for tensor `{tensor}`")
            }
            ModelError::NonFinite { tensor } => {
                write!(f, "tensor `{tensor}` contains non-finite values")
            }
            ModelError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
        }
    }
}

impl Error for ModelError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ModelError::Tensor(e) => Some(e),
            ModelError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for ModelError {
    fn from(e: TensorError) -> Self {
        ModelError::Tensor(e)
    }
}

impl From<std::io::Error> for ModelError {
    fn from(e: std::io::Error) -> Self {
        ModelError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_missing_param() {
        let err = ModelError::MissingParam {
            name: "lm_head.weight".into(),
        };
        assert!(err.to_string().contains("lm_head.weight"));
    }

    #[test]
    fn display_shape_violation() {
        let err = ModelError::ShapeViolation {
            name: "w".into(),
            expected: (2, 3),
            found: (3, 2),
        };
        let s = err.to_string();
        assert!(s.contains("3x2") && s.contains("2x3"));
    }

    #[test]
    fn tensor_error_converts_and_sources() {
        let err: ModelError = TensorError::OutOfBounds {
            index: (2, 0),
            shape: (1, 1),
        }
        .into();
        assert!(err.source().is_some());
        assert!(err.to_string().contains("tensor error"));
    }

    #[test]
    fn display_checksum_and_non_finite() {
        let err = ModelError::ChecksumMismatch {
            tensor: "lm_head.weight".into(),
        };
        assert!(err.to_string().contains("checksum"));
        assert!(err.to_string().contains("lm_head.weight"));
        let err = ModelError::NonFinite {
            tensor: "model.norm.weight".into(),
        };
        assert!(err.to_string().contains("non-finite"));
        assert!(err.to_string().contains("model.norm.weight"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelError>();
    }
}
