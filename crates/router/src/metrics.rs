//! Router-side counters: routing decisions, failovers, spills, probes.
//!
//! Same discipline as `serve::metrics`: relaxed atomics, no locks on the
//! request path, and one [`chipalign_serve::counter_table!`] row per counter
//! (adding one is adding a row). These count *routing* events; per-replica
//! serving metrics stay on the replicas and are aggregated over the wire
//! with [`chipalign_serve::MetricsSnapshot::absorb`].

use std::sync::atomic::{AtomicU64, Ordering};

chipalign_serve::counter_table! {
    /// A router counter: one atomic slot in [`RouterMetrics`] and one field
    /// of [`RouterMetricsSnapshot`].
    pub enum RouterCounter;

    /// Serializable view of [`RouterMetrics`].
    #[derive(Debug, Clone, Default)]
    pub struct RouterMetricsSnapshot {}

    /// Generate requests the router accepted for routing.
    Routed => routed,
    /// Requests answered by their first-choice (affinity) replica.
    PrimaryHits => primary_hits,
    /// Attempts moved to another replica after a transport fault or
    /// retryable verdict.
    Failovers => failovers,
    /// Attempts moved because a replica reported `overloaded`; a subset of
    /// `failovers`.
    Spills => spills,
    /// Requests that exhausted every candidate and returned an error.
    Exhausted => exhausted,
    /// Health probes that failed.
    ProbeFailures => probe_failures,
    /// Replica state transitions into `Down`.
    MarksDown => marks_down,
    /// Replica state transitions into `Degraded`.
    MarksDegraded => marks_degraded,
}

/// Lock-free router counters.
#[derive(Debug, Default)]
pub struct RouterMetrics {
    /// One slot per [`RouterCounter`], in table order.
    counters: [AtomicU64; RouterCounter::ALL.len()],
}

impl RouterMetrics {
    /// Fresh, all-zero counters.
    #[must_use]
    pub fn new() -> Self {
        RouterMetrics::default()
    }

    /// Adds `n` to counter `c`.
    pub fn add(&self, c: RouterCounter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// A point-in-time view.
    #[must_use]
    pub fn snapshot(&self) -> RouterMetricsSnapshot {
        let mut snap = RouterMetricsSnapshot::default();
        for (&c, slot) in RouterCounter::ALL.iter().zip(&self.counters) {
            *snap.counter_mut(c) = slot.load(Ordering::Relaxed);
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::json::{self, FromJson, ToJson};

    /// The wire shape: every key of a snapshot, and whether a snapshot
    /// missing it is refused (`true`) or decodes it as its default.
    const WIRE: &[(&str, bool)] = &[
        ("routed", true),
        ("primary_hits", true),
        ("failovers", true),
        ("spills", true),
        ("exhausted", true),
        ("probe_failures", true),
        ("marks_down", true),
        ("marks_degraded", true),
    ];

    #[test]
    fn wire_shape_is_pinned() {
        let default = RouterMetricsSnapshot::default().to_json();
        let json::Value::Object(members) = &default else {
            panic!("a snapshot encodes as an object");
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let mut pinned: Vec<&str> = WIRE.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        pinned.sort_unstable();
        assert_eq!(keys, pinned, "the snapshot's key set moved");
        for &(key, required) in WIRE {
            let rest = members.iter().filter(|(k, _)| k != key).cloned().collect();
            match RouterMetricsSnapshot::from_json(&json::Value::Object(rest)) {
                Err(_) => assert!(required, "{key} must decode as its default when absent"),
                Ok(back) => {
                    assert!(!required, "a snapshot without {key} must be refused");
                    assert_eq!(back.to_json(), default, "{key} decodes as its default");
                }
            }
        }
    }

    #[test]
    fn every_counter_moves_alone_survives_the_wire_and_accumulates() {
        let quiet = RouterMetrics::new().snapshot();
        for (i, &c) in RouterCounter::ALL.iter().enumerate() {
            let n = 1_000 + 37 * i as u64;
            let m = RouterMetrics::new();
            m.add(c, n);
            let snap = m.snapshot();
            for &other in RouterCounter::ALL {
                let expected = if other == c { n } else { quiet.counter(other) };
                assert_eq!(snap.counter(other), expected, "{c:?} moved {other:?}");
            }
            let back: RouterMetricsSnapshot =
                json::from_str(&json::to_string(&snap)).expect("parse");
            assert_eq!(back.counter(c), n, "{c:?} over the wire");
            for k in 2..=3 {
                m.add(c, k * n);
            }
            assert_eq!(m.snapshot().counter(c), 6 * n, "{c:?} accumulates");
        }
    }
}
