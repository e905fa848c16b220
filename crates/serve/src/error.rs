//! The serving subsystem's error type and its mapping onto wire error codes.

use std::error::Error;
use std::fmt;

use chipalign_merge::MergeError;
use chipalign_model::ModelError;
use chipalign_nn::NnError;
use chipalign_pipeline::PipelineError;

use crate::protocol::{ErrorCode, WireError};

/// Errors produced by the serving subsystem.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A neural-network operation failed.
    Nn(NnError),
    /// A checkpoint operation failed.
    Model(ModelError),
    /// A merge failed while materializing a requested λ.
    Merge(MergeError),
    /// The model zoo failed to produce an ingredient model.
    Pipeline(PipelineError),
    /// Socket or file trouble.
    Io(std::io::Error),
    /// A wire message could not be parsed or framed.
    Protocol {
        /// What was wrong with the message.
        detail: String,
    },
    /// The requested model spec names nothing the registry can serve.
    UnknownModel {
        /// The spec string as received.
        spec: String,
    },
    /// Admission control rejected the request: the session queue is full.
    Overloaded {
        /// Sessions currently admitted (queued + running).
        active: usize,
        /// The configured admission bound.
        capacity: usize,
    },
    /// Admission control rejected the request: the paged KV pool cannot
    /// back the session's prompt window, even after evicting reusable
    /// prefix-cache snapshots. Maps to the `overloaded` wire code so
    /// clients back off and retry like any other transient overload.
    PoolSaturated {
        /// Blocks the session's prompt window needs.
        needed: usize,
        /// Blocks still free after eviction.
        free: usize,
    },
    /// The server is draining and no longer admits new sessions.
    ShuttingDown,
    /// The request's deadline expired before the session finished.
    DeadlineExceeded {
        /// How long the session had been in the system when it expired.
        waited_ms: u64,
    },
    /// The request was structurally valid JSON but semantically unusable.
    BadRequest {
        /// What was wrong with it.
        detail: String,
    },
    /// A decode slice panicked; the session was cancelled but the worker
    /// pool kept serving.
    WorkerPanic {
        /// The panic payload, when it was a string.
        detail: String,
    },
    /// The session watchdog cancelled a session for making no token
    /// progress.
    Stalled {
        /// Consecutive zero-progress scheduler slices observed.
        slices: u64,
    },
    /// An internal invariant failed; the request cannot be served but the
    /// server is still healthy.
    Internal {
        /// What went wrong.
        detail: String,
    },
    /// The server reported an error over the wire (client side).
    Remote(WireError),
}

impl ServeError {
    /// The wire-protocol error code this error maps to.
    #[must_use]
    pub(crate) fn code(&self) -> ErrorCode {
        match self {
            ServeError::Protocol { .. } | ServeError::BadRequest { .. } => ErrorCode::BadRequest,
            ServeError::UnknownModel { .. } => ErrorCode::UnknownModel,
            ServeError::Overloaded { .. } | ServeError::PoolSaturated { .. } => {
                ErrorCode::Overloaded
            }
            // Pool exhaustion mid-decode is just as transient as admission
            // overload: blocks free up when other sessions finish.
            ServeError::Nn(NnError::PoolExhausted { .. }) => ErrorCode::Overloaded,
            ServeError::ShuttingDown => ErrorCode::ShuttingDown,
            ServeError::DeadlineExceeded { .. } | ServeError::Stalled { .. } => {
                ErrorCode::DeadlineExceeded
            }
            ServeError::Remote(w) => w.code,
            ServeError::Nn(NnError::BadConfig { .. })
            | ServeError::Nn(NnError::BadSequence { .. })
            | ServeError::Nn(NnError::BadToken { .. }) => ErrorCode::BadRequest,
            _ => ErrorCode::Internal,
        }
    }

    /// Renders this error as a wire-protocol error payload.
    #[must_use]
    pub fn to_wire(&self) -> WireError {
        match self {
            ServeError::Remote(w) => w.clone(),
            other => WireError {
                code: other.code(),
                detail: other.to_string(),
            },
        }
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Nn(e) => write!(f, "nn error: {e}"),
            ServeError::Model(e) => write!(f, "model error: {e}"),
            ServeError::Merge(e) => write!(f, "merge error: {e}"),
            ServeError::Pipeline(e) => write!(f, "zoo error: {e}"),
            ServeError::Io(e) => write!(f, "i/o error: {e}"),
            ServeError::Protocol { detail } => write!(f, "protocol error: {detail}"),
            ServeError::UnknownModel { spec } => write!(f, "unknown model spec {spec:?}"),
            ServeError::Overloaded { active, capacity } => {
                write!(f, "overloaded: {active} of {capacity} sessions in flight")
            }
            ServeError::PoolSaturated { needed, free } => {
                write!(
                    f,
                    "kv pool saturated: session needs {needed} blocks, {free} free"
                )
            }
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::DeadlineExceeded { waited_ms } => {
                write!(f, "deadline exceeded after {waited_ms} ms")
            }
            ServeError::BadRequest { detail } => write!(f, "bad request: {detail}"),
            ServeError::WorkerPanic { detail } => {
                write!(f, "session cancelled: decode slice panicked: {detail}")
            }
            ServeError::Stalled { slices } => write!(
                f,
                "session stalled: no token progress for {slices} scheduler slices"
            ),
            ServeError::Internal { detail } => write!(f, "internal error: {detail}"),
            ServeError::Remote(w) => write!(f, "server error [{:?}]: {}", w.code, w.detail),
        }
    }
}

impl Error for ServeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ServeError::Nn(e) => Some(e),
            ServeError::Model(e) => Some(e),
            ServeError::Merge(e) => Some(e),
            ServeError::Pipeline(e) => Some(e),
            ServeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for ServeError {
    fn from(e: NnError) -> Self {
        ServeError::Nn(e)
    }
}

impl From<ModelError> for ServeError {
    fn from(e: ModelError) -> Self {
        ServeError::Model(e)
    }
}

impl From<MergeError> for ServeError {
    fn from(e: MergeError) -> Self {
        ServeError::Merge(e)
    }
}

impl From<PipelineError> for ServeError {
    fn from(e: PipelineError) -> Self {
        ServeError::Pipeline(e)
    }
}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_codes() {
        let e = ServeError::Overloaded {
            active: 8,
            capacity: 8,
        };
        assert!(e.to_string().contains("overloaded"));
        assert_eq!(e.code(), ErrorCode::Overloaded);
        assert_eq!(ServeError::ShuttingDown.code(), ErrorCode::ShuttingDown);
        let pool = ServeError::PoolSaturated { needed: 9, free: 2 };
        assert_eq!(
            pool.code(),
            ErrorCode::Overloaded,
            "pool saturation must trigger client back-off"
        );
        assert!(pool.to_string().contains("9 blocks"));
        let mid_decode = ServeError::Nn(NnError::PoolExhausted {
            in_use: 64,
            capacity: 64,
        });
        assert_eq!(mid_decode.code(), ErrorCode::Overloaded);
        let bad = ServeError::BadRequest {
            detail: "empty prompt".into(),
        };
        assert_eq!(bad.to_wire().code, ErrorCode::BadRequest);
        assert!(bad.to_wire().detail.contains("empty prompt"));
    }

    #[test]
    fn fault_variants_map_to_structured_codes() {
        let panic = ServeError::WorkerPanic {
            detail: "injected".into(),
        };
        assert_eq!(panic.code(), ErrorCode::Internal);
        assert!(panic.to_string().contains("panicked"));
        let stalled = ServeError::Stalled { slices: 3 };
        assert_eq!(stalled.code(), ErrorCode::DeadlineExceeded);
        assert!(stalled.to_string().contains("3 scheduler slices"));
        let internal = ServeError::Internal {
            detail: "invariant".into(),
        };
        assert_eq!(internal.code(), ErrorCode::Internal);
    }

    #[test]
    fn sources_preserved() {
        let e: ServeError = NnError::BadSequence {
            detail: "empty".into(),
        }
        .into();
        assert!(e.source().is_some());
        assert_eq!(e.code(), ErrorCode::BadRequest);
    }
}
