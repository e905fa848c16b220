use std::error::Error;
use std::fmt;

use chipalign_merge::MergeError;
use chipalign_model::ModelError;
use chipalign_nn::NnError;

/// Errors produced by the experiment pipeline.
#[derive(Debug)]
#[non_exhaustive]
pub enum PipelineError {
    /// A neural-network operation failed.
    Nn(NnError),
    /// A checkpoint operation failed.
    Model(ModelError),
    /// A merge failed.
    Merge(MergeError),
    /// Filesystem trouble with the zoo cache.
    Io(std::io::Error),
    /// An experiment was configured inconsistently.
    BadConfig {
        /// What was wrong.
        detail: String,
    },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Nn(e) => write!(f, "nn error: {e}"),
            PipelineError::Model(e) => write!(f, "model error: {e}"),
            PipelineError::Merge(e) => write!(f, "merge error: {e}"),
            PipelineError::Io(e) => write!(f, "zoo cache i/o error: {e}"),
            PipelineError::BadConfig { detail } => write!(f, "bad configuration: {detail}"),
        }
    }
}

impl Error for PipelineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PipelineError::Nn(e) => Some(e),
            PipelineError::Model(e) => Some(e),
            PipelineError::Merge(e) => Some(e),
            PipelineError::Io(e) => Some(e),
            PipelineError::BadConfig { .. } => None,
        }
    }
}

impl From<NnError> for PipelineError {
    fn from(e: NnError) -> Self {
        PipelineError::Nn(e)
    }
}

impl From<ModelError> for PipelineError {
    fn from(e: ModelError) -> Self {
        PipelineError::Model(e)
    }
}

impl From<MergeError> for PipelineError {
    fn from(e: MergeError) -> Self {
        PipelineError::Merge(e)
    }
}

impl From<std::io::Error> for PipelineError {
    fn from(e: std::io::Error) -> Self {
        PipelineError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e: PipelineError = NnError::BadConfig { detail: "x".into() }.into();
        assert!(e.to_string().contains("nn error"));
        assert!(e.source().is_some());
        let b = PipelineError::BadConfig {
            detail: "oops".into(),
        };
        assert!(b.to_string().contains("oops"));
        assert!(b.source().is_none());
    }
}
