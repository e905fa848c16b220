use std::error::Error;
use std::fmt;

use chipalign_model::ModelError;
use chipalign_tensor::TensorError;

/// Errors produced by model merging.
#[derive(Debug)]
#[non_exhaustive]
pub enum MergeError {
    /// The input checkpoints are not conformable (different parameter sets
    /// or shapes).
    NotConformable {
        /// First difference found.
        reason: String,
    },
    /// An interpolation coefficient was outside `[0, 1]` or not finite.
    BadLambda {
        /// The offending value.
        lambda: f32,
    },
    /// A method hyperparameter was invalid (e.g. TIES density outside
    /// `(0, 1]`).
    BadHyperparameter {
        /// Which hyperparameter.
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A merger that operates on a set of models was given too few.
    NotEnoughModels {
        /// Number of models provided.
        given: usize,
        /// Minimum required.
        required: usize,
    },
    /// An underlying checkpoint operation failed.
    Model(ModelError),
    /// An underlying tensor operation failed.
    Tensor(TensorError),
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::NotConformable { reason } => {
                write!(f, "input models are not conformable: {reason}")
            }
            MergeError::BadLambda { lambda } => {
                write!(f, "interpolation coefficient {lambda} is outside [0, 1]")
            }
            MergeError::BadHyperparameter { name, value } => {
                write!(f, "invalid merge hyperparameter {name} = {value}")
            }
            MergeError::NotEnoughModels { given, required } => {
                write!(f, "merge requires at least {required} models, got {given}")
            }
            MergeError::Model(e) => write!(f, "model error during merge: {e}"),
            MergeError::Tensor(e) => write!(f, "tensor error during merge: {e}"),
        }
    }
}

impl Error for MergeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MergeError::Model(e) => Some(e),
            MergeError::Tensor(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ModelError> for MergeError {
    fn from(e: ModelError) -> Self {
        MergeError::Model(e)
    }
}

impl From<TensorError> for MergeError {
    fn from(e: TensorError) -> Self {
        MergeError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(MergeError::BadLambda { lambda: 1.5 }
            .to_string()
            .contains("1.5"));
        assert!(MergeError::NotConformable { reason: "x".into() }
            .to_string()
            .contains("not conformable"));
        assert!(MergeError::NotEnoughModels {
            given: 1,
            required: 2
        }
        .to_string()
        .contains("at least 2"));
        assert!(MergeError::BadHyperparameter {
            name: "density",
            value: 0.0
        }
        .to_string()
        .contains("density"));
    }

    #[test]
    fn conversions_preserve_source() {
        let err: MergeError = TensorError::OutOfBounds {
            index: (2, 0),
            shape: (1, 1),
        }
        .into();
        assert!(err.source().is_some());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MergeError>();
    }
}
