use std::error::Error;
use std::fmt;

use chipalign_model::ModelError;
use chipalign_tensor::TensorError;

/// Errors produced by the neural-network substrate.
#[derive(Debug)]
#[non_exhaustive]
pub enum NnError {
    /// A tensor operation failed (shape mismatch in a projection, etc.).
    Tensor(TensorError),
    /// A checkpoint conversion failed.
    Model(ModelError),
    /// The input token sequence is unusable (empty, or longer than the
    /// architecture's maximum sequence length).
    BadSequence {
        /// What was wrong with it.
        detail: String,
    },
    /// A token id is outside the vocabulary.
    BadToken {
        /// The offending id.
        id: u32,
        /// The vocabulary size.
        vocab: usize,
    },
    /// A training or generation hyperparameter is invalid.
    BadConfig {
        /// Which parameter and why.
        detail: String,
    },
    /// The KV block pool is at capacity: the allocation that would have
    /// backed the next cached position cannot be granted. Transient — a
    /// retry after other sessions release blocks can succeed, which is why
    /// the serving layer maps this to its overload (back-off) error class.
    PoolExhausted {
        /// Blocks alive when the allocation was refused.
        in_use: usize,
        /// The pool's capacity in blocks.
        capacity: usize,
    },
}

impl fmt::Display for NnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NnError::Tensor(e) => write!(f, "tensor error: {e}"),
            NnError::Model(e) => write!(f, "model error: {e}"),
            NnError::BadSequence { detail } => write!(f, "bad input sequence: {detail}"),
            NnError::BadToken { id, vocab } => {
                write!(f, "token id {id} outside vocabulary of size {vocab}")
            }
            NnError::BadConfig { detail } => write!(f, "bad configuration: {detail}"),
            NnError::PoolExhausted { in_use, capacity } => {
                write!(f, "kv pool exhausted: {in_use} of {capacity} blocks in use")
            }
        }
    }
}

impl Error for NnError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            NnError::Tensor(e) => Some(e),
            NnError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TensorError> for NnError {
    fn from(e: TensorError) -> Self {
        NnError::Tensor(e)
    }
}

impl From<ModelError> for NnError {
    fn from(e: ModelError) -> Self {
        NnError::Model(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(NnError::BadToken { id: 200, vocab: 99 }
            .to_string()
            .contains("200"));
        assert!(NnError::BadSequence {
            detail: "empty".into()
        }
        .to_string()
        .contains("empty"));
        assert!(NnError::BadConfig {
            detail: "lr".into()
        }
        .to_string()
        .contains("lr"));
        let pool = NnError::PoolExhausted {
            in_use: 64,
            capacity: 64,
        }
        .to_string();
        assert!(pool.contains("64"));
        assert!(pool.contains("exhausted"));
    }

    #[test]
    fn sources_preserved() {
        let e: NnError = TensorError::OutOfBounds {
            index: (2, 0),
            shape: (1, 1),
        }
        .into();
        assert!(e.source().is_some());
    }
}
