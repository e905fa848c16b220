//! chipalign-serve: a continuous-batching inference server for ChipAlign
//! models with hot-swappable merged checkpoints.
//!
//! The paper's deliverable is a merged model; this crate is the missing
//! last mile — actually *serving* that model, and any other point on the
//! geodesic, from one process:
//!
//! - **Model registry** ([`registry::ModelRegistry`]): resolves model
//!   specs — zoo slugs (`instruct-qwen`), on-demand geodesic merges
//!   (`merge:eda-qwen+instruct-qwen@0.6`), or checkpoint files
//!   (`file:model.calt`) — and caches each materialized model by canonical
//!   key. Rolling out a new λ is a `load` request, not a restart.
//! - **Session scheduler** ([`scheduler::Scheduler`]): continuous batching
//!   over a worker pool. Each session owns its KV cache via
//!   [`chipalign_nn::StepDecoder`]; workers decode short slices and rotate
//!   sessions round-robin, so long generations never starve short ones.
//!   Long *prompts* don't starve anyone either: prefill runs in bounded
//!   chunks interleaved with other sessions' decode slices, and repeated
//!   prompt scaffolding is served from a shared-prefix KV cache
//!   (`prefix::PrefixCache`) instead of being re-prefilled. Admission
//!   control bounds sessions in flight and rejects the rest with a
//!   structured `overloaded` error; per-request deadlines are enforced at
//!   dequeue, before every prefill chunk, and between decode steps.
//!   Sessions addressed as `spec:<target>|<draft>@<k>` decode
//!   speculatively through [`chipalign_nn::SpecDecoder`]: a cheap draft
//!   proposes `k` tokens per round, the target verifies them in one
//!   batched forward, and greedy output stays byte-identical to plain
//!   decoding — a panicking draft degrades the session to plain decode,
//!   never cancels it.
//! - **TCP front end** ([`server::Server`]): newline-delimited JSON over
//!   `std::net`, one response line per request line, graceful drain on
//!   shutdown.
//! - **Metrics** ([`metrics::Metrics`]): lock-free counters plus
//!   power-of-two latency histograms, queryable over the wire.
//!
//! Determinism is load-bearing: a scheduled session decodes through the
//! same [`chipalign_nn::StepDecoder`] that powers
//! [`chipalign_nn::generate::generate`], so greedy outputs served under
//! concurrency are byte-identical to a single-threaded `generate()` call —
//! the e2e tests assert exactly that.
//!
//! ```no_run
//! use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig};
//! use chipalign_serve::{Client, GenerateRequest, ModelRegistry, Server, ServerConfig};
//!
//! let zoo = Zoo::new(ZooConfig {
//!     quality: Quality::Smoke,
//!     seed: 2025,
//!     cache_dir: Some("artifacts/zoo".into()),
//! })?;
//! let server = Server::bind(ServerConfig::default(), ModelRegistry::new(zoo))?;
//! let mut client = Client::connect(server.local_addr())?;
//! let gen = client.generate(GenerateRequest::greedy(
//!     "merge:eda-qwen+instruct-qwen@0.6",
//!     "Q:what is CDC?;A:",
//!     48,
//! ))?;
//! println!("{}", gen.text);
//! server.shutdown();
//! # Ok::<(), chipalign_serve::ServeError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]
#![warn(clippy::unwrap_used)]

pub(crate) mod client;
pub mod error;
#[cfg(feature = "fault-inject")]
pub mod faults;
pub mod metrics;
pub(crate) mod prefix;
pub mod protocol;
pub(crate) mod registry;
pub mod scheduler;
pub mod server;

pub use client::Client;
pub use error::ServeError;
pub use metrics::{Counter, Metrics, MetricsSnapshot};
pub use protocol::{
    ErrorCode, FinishReason, GenerateRequest, Generation, LoadedModel, ReplicaHealth,
    ReplicaStatus, Request, Response, PROTOCOL_VERSION,
};
pub use registry::ModelRegistry;
pub use scheduler::{Scheduler, SchedulerConfig, SessionRequest, SpecDraft};
pub use server::{Server, ServerConfig};
