//! Fleet-tier serving for the ChipAlign reproduction: a prefix-affinity
//! router over `chipalign-serve` replicas.
//!
//! One replica serves geodesic merges from one process
//! (`chipalign-serve`); this crate scales that to a *fleet*. The
//! `chipalign-router` binary is a TCP front end speaking the identical
//! newline-JSON protocol, so clients are oblivious — but behind it,
//! sessions spread across N replicas via consistent hashing keyed on
//! `(model spec, prompt-prefix hash)`. That key is the point: merge
//! requests for the same `merge:<chip>+<instruct>@<λ>` with a shared
//! prompt scaffold land on the replica where that merge is already
//! materialized and the scaffold's KV prefix is already hot.
//!
//! Around the ring sit the fault-tolerance mechanics this crate exists
//! for:
//!
//! - **Health-checked failover** ([`router`]): a background prober keeps a
//!   three-state view of each replica (`Healthy` / `Degraded` / `Down`);
//!   per-request timeouts and dropped connections fail over to the next
//!   ring candidate under the jittered [`chipalign_serve::RetryPolicy`]
//!   backoff schedule. Deterministic decoding makes the retry
//!   transcript-safe.
//! - **Load-aware spill**: a replica answering `overloaded` is marked
//!   `Degraded` and its traffic spills to ring neighbors until it
//!   recovers — the ring makes even spilled traffic land consistently.
//! - **Drain-aware rebalancing**: the v3 `drain` verb removes a replica
//!   from the candidate set without cancelling its in-flight sessions;
//!   its ring ranges fall to the next candidates while the survivors'
//!   warm caches stay put.
//!
//! The fleet chaos suite (`tests/fleet_chaos.rs`, behind `fault-inject`)
//! kills whole replicas mid-decode and asserts every affected session is
//! either answered byte-identically after failover or fails with a
//! structured retryable error. The `fleet_mixed` workload of
//! `benchmark/run.sh` measures the router's hop cost, primary-hit share
//! and replica balance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

pub mod metrics;
pub mod ring;
pub mod router;
pub mod server;

pub use metrics::{RouterCounter, RouterMetrics, RouterMetricsSnapshot};
pub use ring::{affinity_key, HashRing};
pub use router::{Router, RouterConfig, RoutingMode};
pub use server::RouterServer;
