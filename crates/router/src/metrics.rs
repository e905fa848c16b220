//! Router-side counters: routing decisions, failovers, spills, probes.
//!
//! Same discipline as `serve::metrics`: relaxed atomics, no locks on the
//! request path. These count *routing* events; per-replica serving metrics
//! stay on the replicas and are aggregated over the wire with
//! [`chipalign_serve::MetricsSnapshot::absorb`].

use std::sync::atomic::{AtomicU64, Ordering};

use chipalign_model::json_struct;

/// Lock-free router counters.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// Generate requests the router accepted for routing.
    routed: AtomicU64,
    /// Requests answered by their first-choice (affinity) replica.
    primary_hits: AtomicU64,
    /// Attempts moved to another replica after a transport fault or
    /// retryable verdict.
    failovers: AtomicU64,
    /// Attempts moved because a replica reported `overloaded`; a subset of
    /// the work `failovers` also counts.
    spills: AtomicU64,
    /// Requests that exhausted every candidate and returned an error.
    exhausted: AtomicU64,
    /// Health probes that failed.
    probe_failures: AtomicU64,
    /// Replica state transitions into `Down`.
    marks_down: AtomicU64,
    /// Replica state transitions into `Degraded`.
    marks_degraded: AtomicU64,
}

impl RouterMetrics {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        RouterMetrics::default()
    }

    /// Records a request accepted for routing.
    pub fn on_routed(&self) {
        self.routed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request answered by its affinity home.
    pub fn on_primary_hit(&self) {
        self.primary_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an attempt moved to the next ring candidate.
    pub fn on_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an overload spill (also a failover).
    pub fn on_spill(&self) {
        self.spills.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a request that ran out of candidates.
    pub fn on_exhausted(&self) {
        self.exhausted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a failed health probe.
    pub fn on_probe_failure(&self) {
        self.probe_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a replica transitioning into `Down`.
    pub fn on_mark_down(&self) {
        self.marks_down.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a replica transitioning into `Degraded`.
    pub fn on_mark_degraded(&self) {
        self.marks_degraded.fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time view.
    #[must_use]
    pub fn snapshot(&self) -> RouterMetricsSnapshot {
        RouterMetricsSnapshot {
            routed: self.routed.load(Ordering::Relaxed),
            primary_hits: self.primary_hits.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            spills: self.spills.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
            probe_failures: self.probe_failures.load(Ordering::Relaxed),
            marks_down: self.marks_down.load(Ordering::Relaxed),
            marks_degraded: self.marks_degraded.load(Ordering::Relaxed),
        }
    }
}

json_struct! {
    /// Serializable view of [`RouterMetrics`].
    #[derive(Debug, Clone, Default)]
    pub struct RouterMetricsSnapshot {
        /// Generate requests accepted for routing.
        pub routed: u64,
        /// Requests answered by their affinity home.
        pub primary_hits: u64,
        /// Attempts moved to another replica.
        pub failovers: u64,
        /// Overload spills (subset of failovers).
        pub spills: u64,
        /// Requests that exhausted every candidate.
        pub exhausted: u64,
        /// Failed health probes.
        pub probe_failures: u64,
        /// Transitions into `Down`.
        pub marks_down: u64,
        /// Transitions into `Degraded`.
        pub marks_degraded: u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_flow_into_snapshot_independently() {
        let m = RouterMetrics::new();
        m.on_routed();
        m.on_routed();
        m.on_primary_hit();
        m.on_failover();
        m.on_spill();
        m.on_exhausted();
        m.on_probe_failure();
        m.on_mark_down();
        m.on_mark_degraded();
        let s = m.snapshot();
        assert_eq!(s.routed, 2);
        assert_eq!(s.primary_hits, 1);
        assert_eq!(s.failovers, 1);
        assert_eq!(s.spills, 1);
        assert_eq!(s.exhausted, 1);
        assert_eq!(s.probe_failures, 1);
        assert_eq!(s.marks_down, 1);
        assert_eq!(s.marks_degraded, 1);
        let json = chipalign_model::json::to_string(&s);
        let back: RouterMetricsSnapshot = chipalign_model::json::from_str(&json).expect("parse");
        assert_eq!(back.routed, 2);
    }
}
