//! The metrics core: lock-free counters and latency histograms.
//!
//! Every counter is a relaxed atomic — the serving hot path never takes a
//! lock to record an observation. Latencies land in a power-of-two
//! histogram (bucket `i` covers `[2^i, 2^(i+1))` microseconds), which keeps
//! recording O(1) and percentile queries a 48-element scan. Quantiles are
//! therefore upper bounds with at most 2× resolution — good enough to spot
//! regressions; the load generator computes exact percentiles client-side.
//!
//! Adding a counter is adding one row to the table below; its [`Counter`]
//! variant, slot, wire field, snapshot and fleet [`MetricsSnapshot::absorb`]
//! follow. Call sites name it: `metrics.add(Counter::WorkerPanics, 1)`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

// Re-exported so `counter_table!` expands in crates that do not name it.
#[doc(hidden)]
pub use chipalign_model::json_struct;
use chipalign_nn::KvPool;

/// Number of power-of-two buckets: covers 1 µs .. ~2^47 µs (~4 years).
const BUCKETS: usize = 48;

/// Buckets in the batch-occupancy histogram: index `n` counts slices that
/// advanced exactly `n` sessions, with everything `>= 16` folded into the
/// last slot (the scheduler's `max_batch` rarely exceeds it in practice).
const BATCH_BUCKETS: usize = 17;

/// Declares a counter table. Each row is a doc comment and `Variant =>
/// wire_field`; every field is required on the wire. The rows generate the
/// counter enum (`ALL` in row order, so a slot index is `c as usize`) and,
/// after the hand-written fields in braces, one `u64` snapshot field each,
/// reached by `counter` / `counter_mut`.
#[macro_export]
macro_rules! counter_table {
    (
        $(#[$emeta:meta])*
        $evis:vis enum $counter:ident;
        $(#[$smeta:meta])*
        $svis:vis struct $snap:ident { $($extra:tt)* }
        $( $(#[$doc:meta])* $variant:ident => $field:ident ),* $(,)?
    ) => {
        $(#[$emeta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $evis enum $counter {
            $( $(#[$doc])* $variant, )*
        }

        impl $counter {
            /// Every counter, in table order.
            pub const ALL: &'static [$counter] = &[$($counter::$variant),*];
        }

        $crate::metrics::json_struct! {
            $(#[$smeta])*
            $svis struct $snap {
                $($extra)*
                $( $(#[$doc])* pub $field: u64, )*
            }
        }

        impl $snap {
            /// The field of counter `c`.
            #[must_use]
            pub(crate) fn counter(&self, c: $counter) -> u64 {
                match c {
                    $( $counter::$variant => self.$field, )*
                }
            }

            /// The field of counter `c`, writable.
            pub(crate) fn counter_mut(&mut self, c: $counter) -> &mut u64 {
                match c {
                    $( $counter::$variant => &mut self.$field, )*
                }
            }
        }
    };
}

counter_table! {
    /// A serve counter: one atomic slot in [`Metrics`] and one field of
    /// [`MetricsSnapshot`], summed by [`MetricsSnapshot::absorb`].
    pub enum Counter;

    /// A point-in-time metrics view, as sent over the wire.
    #[derive(Debug, Clone, Default)]
    pub struct MetricsSnapshot {
        /// Milliseconds since the metrics core was created.
        pub(crate) uptime_ms: u64,
        /// Batch-occupancy histogram: entry `n` counts slices that advanced
        /// exactly `n` sessions (`>= 16` folded into the last entry).
        pub batch_occupancy: Vec<u64>,
        /// The kernel backend this server selected at startup (`scalar`,
        /// `blocked`, `simd`, or `simd(blocked-fallback)` when AVX2 is
        /// absent).
        pub simd_backend: String,
        /// KV blocks currently allocated across every registered paged pool.
        pub kv_blocks_in_use: u64,
        /// KV blocks still allocatable across every registered paged pool.
        pub kv_blocks_free: u64,
        /// Bytes resident across every registered paged pool (sealed int8
        /// blocks count at their quantized size, open tails at f32).
        pub kv_bytes_in_use: u64,
        /// The same block/byte gauges sliced per KV dtype.
        pub kv_pool_dtypes: Vec<KvPoolDtypeGauges>,
        /// Copy-on-write block duplications across every registered pool (a
        /// shared tail block privatised before a divergent write).
        pub cow_copies: u64,
        /// Completions per second of uptime.
        pub(crate) requests_per_sec: f64,
        /// New tokens per second of uptime.
        pub tokens_per_sec: f64,
        /// Median admission-to-completion latency (upper bound, ms).
        pub(crate) latency_p50_ms: f64,
        /// 95th-percentile admission-to-completion latency (upper bound, ms).
        pub latency_p95_ms: f64,
        /// Median queue wait (upper bound, ms).
        pub(crate) queue_p50_ms: f64,
        /// 95th-percentile queue wait (upper bound, ms).
        pub(crate) queue_p95_ms: f64,
        /// Median per-chunk prefill compute time (upper bound, ms).
        pub(crate) prefill_p50_ms: f64,
        /// 95th-percentile per-chunk prefill compute time (upper bound, ms).
        pub(crate) prefill_p95_ms: f64,
        /// Raw latency histogram buckets (power-of-two, µs; see
        /// [`Histogram::bucket_counts`]).
        pub(crate) latency_buckets: Vec<u64>,
        /// Raw queue-wait histogram buckets.
        pub(crate) queue_buckets: Vec<u64>,
        /// Raw prefill histogram buckets.
        pub(crate) prefill_buckets: Vec<u64>,
    }

    /// Admission attempts, accepted or not.
    Requests => requests,
    /// Sessions that finished and returned a generation.
    Completed => completed,
    /// Admission-control rejections.
    RejectedOverload => rejected_overload,
    /// Sessions turned away because the server was draining or aborted.
    RejectedShutdown => rejected_shutdown,
    /// Sessions that died on a decode error (a panic is not one).
    Failed => failed,
    /// Sessions that hit their deadline.
    DeadlineExceeded => deadline_exceeded,
    /// New tokens produced by completed sessions.
    TokensOut => tokens_out,
    /// Prompt tokens consumed by admitted sessions.
    PromptTokens => prompt_tokens,
    /// Caught panics: one per panic, however many sessions it ended.
    WorkerPanics => worker_panics,
    /// Sessions a panic ended: caught in a slice, or their worker died.
    PanickedSessions => panicked_sessions,
    /// Sessions cancelled by the stall watchdog.
    WatchdogCancels => watchdog_cancels,
    /// Checkpoint loads rejected for checksum/corruption/non-finite data.
    ChecksumFailures => checksum_failures,
    /// Generate requests flagged by clients as retries.
    RetriesAttempted => retries_attempted,
    /// Worker threads that died and re-entered their loop.
    WorkersRespawned => workers_respawned,
    /// Slices that advanced two or more sessions through one batched step.
    BatchedSlices => batched_slices,
    /// Sessions seeded from the shared-prefix cache.
    PrefixHits => prefix_hits,
    /// Prompt tokens whose prefill was skipped thanks to prefix hits.
    PrefixTokensReused => prefix_tokens_reused,
    /// Prefill chunks processed: initial prompts, window-slide replays, and
    /// tokens re-fed after a decode step that failed without panicking.
    PrefillChunks => prefill_chunks,
    /// Draft tokens proposed (acceptance = accepted / proposed, at read time).
    DraftTokensProposed => draft_tokens_proposed,
    /// Draft tokens the target model verified and accepted.
    AcceptedDraftTokens => accepted_draft_tokens,
    /// Speculative rounds degraded to plain decode by a draft panic or error.
    SpecFallbacks => spec_fallbacks,
    /// Merged models evicted from the registry's LRU cache.
    MergeEvictions => merge_evictions,
    /// Prefix-cache snapshots evicted to reclaim KV blocks at admission.
    PoolEvictions => pool_evictions,
    /// Weight bytes cached in the registry at decode dtype; a gauge, `set`.
    WeightsBytes => weights_bytes,
}

/// The latency histograms of a [`Metrics`] core.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Hist {
    /// Admission to completion.
    Latency,
    /// Admission to first decode slice.
    QueueWait,
    /// One prefill chunk's compute.
    Prefill,
}

/// A lock-free power-of-two latency histogram over microseconds.
#[derive(Debug)]
pub(crate) struct Histogram {
    counts: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

impl Histogram {
    /// Records one observation in microseconds.
    pub(crate) fn record(&self, us: u64) {
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// The raw per-bucket counts (always 48 entries). Bucket `i` covers
    /// `[2^i, 2^(i+1))` microseconds. Snapshots carry these so fleet-level
    /// aggregation can sum histograms and recompute quantiles instead of
    /// averaging per-replica percentiles (which is meaningless).
    #[must_use]
    pub(crate) fn bucket_counts(&self) -> Vec<u64> {
        load_all(&self.counts)
    }
}

/// The `p`-quantile upper bound in microseconds over raw power-of-two
/// bucket counts (as produced by [`Histogram::bucket_counts`]), or 0 when
/// the counts are empty. Used to recompute fleet-wide quantiles after
/// [`MetricsSnapshot::absorb`] has summed per-replica buckets.
#[must_use]
pub(crate) fn quantile_upper_us_from(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            // Upper edge of bucket i: 2^(i+1) - 1 µs. Replica snapshots are
            // outside input, so a bucket vector may be longer than 64
            // after `absorb_buckets`; clamp the shift instead of
            // overflowing (which panics in debug builds).
            return if i >= 63 {
                u64::MAX
            } else {
                (1u64 << (i + 1)) - 1
            };
        }
    }
    (1u64 << BUCKETS) - 1
}

/// Relaxed loads of a slot array.
fn load_all(slots: &[AtomicU64]) -> Vec<u64> {
    slots.iter().map(|c| c.load(Ordering::Relaxed)).collect()
}

/// Counters and histograms for one server instance.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// One slot per [`Counter`], in table order.
    counters: [AtomicU64; Counter::ALL.len()],
    /// How many sessions each dequeued slice advanced (index = batch size,
    /// `>= 16` folded into the last bucket).
    batch_occupancy: [AtomicU64; BATCH_BUCKETS],
    /// Paged KV pools whose gauges are summed into snapshots. Weak so the
    /// metrics core never keeps a dead model's pool alive; dead entries
    /// are pruned on registration and at snapshot time.
    kv_pools: Mutex<Vec<Weak<KvPool>>>,
    /// One histogram per [`Hist`], in declaration order.
    hists: [Histogram; 3],
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            batch_occupancy: std::array::from_fn(|_| AtomicU64::new(0)),
            kv_pools: Mutex::new(Vec::new()),
            hists: std::array::from_fn(|_| Histogram::default()),
        }
    }
}

impl Metrics {
    /// Creates a fresh metrics core anchored at "now".
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `n` to counter `c`.
    pub fn add(&self, c: Counter, n: u64) {
        self.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Stores `v` in counter `c`, a gauge such as [`Counter::WeightsBytes`].
    pub fn set(&self, c: Counter, v: u64) {
        self.counters[c as usize].store(v, Ordering::Relaxed);
    }

    /// Records one observation of `us` microseconds in histogram `h`.
    pub(crate) fn observe(&self, h: Hist, us: u64) {
        self.hists[h as usize].record(us);
    }

    /// Records a dequeued slice that advanced `n` sessions together.
    pub(crate) fn on_batch(&self, n: usize) {
        self.batch_occupancy[n.min(BATCH_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        if n >= 2 {
            self.add(Counter::BatchedSlices, 1);
        }
    }

    /// Registers a paged KV pool so its block gauges flow into snapshots.
    /// Idempotent per pool; holds only a weak reference, so a pool dies
    /// with its model and silently leaves the gauges.
    pub(crate) fn register_kv_pool(&self, pool: &Arc<KvPool>) {
        let mut pools = self.kv_pools.lock().expect("kv pool list poisoned");
        pools.retain(|w| w.strong_count() > 0);
        if !pools
            .iter()
            .any(|w| std::ptr::eq(w.as_ptr(), Arc::as_ptr(pool)))
        {
            pools.push(Arc::downgrade(pool));
        }
    }

    /// Sums the block, byte, and CoW gauges across live registered pools
    /// (pruning dead ones) into `snap`, both in total and per KV dtype.
    fn load_pool_gauges(&self, snap: &mut MetricsSnapshot) {
        let mut pools = self.kv_pools.lock().expect("kv pool list poisoned");
        pools.retain(|w| w.strong_count() > 0);
        for pool in pools.iter().filter_map(Weak::upgrade) {
            let row = KvPoolDtypeGauges {
                dtype: pool.dtype().name().to_string(),
                blocks_in_use: pool.blocks_in_use() as u64,
                blocks_free: pool.blocks_free() as u64,
                bytes_in_use: pool.bytes_in_use() as u64,
            };
            snap.kv_blocks_in_use += row.blocks_in_use;
            snap.kv_blocks_free += row.blocks_free;
            snap.kv_bytes_in_use += row.bytes_in_use;
            snap.cow_copies += pool.cow_copies();
            snap.merge_pool_row(&row);
        }
    }

    /// A consistent-enough point-in-time view (individual counters are read
    /// relaxed; rates use wall-clock uptime).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let uptime_s = uptime.as_secs_f64().max(1e-9);
        let mut snap = MetricsSnapshot {
            uptime_ms: uptime.as_millis() as u64,
            batch_occupancy: load_all(&self.batch_occupancy),
            simd_backend: chipalign_tensor::backend::active_name().to_string(),
            ..MetricsSnapshot::default()
        };
        for (&c, slot) in Counter::ALL.iter().zip(&self.counters) {
            *snap.counter_mut(c) = slot.load(Ordering::Relaxed);
        }
        self.load_pool_gauges(&mut snap);
        for (h, (buckets, p50, p95)) in self.hists.iter().zip(snap.hists_mut()) {
            *buckets = h.bucket_counts();
            *p50 = quantile_upper_us_from(buckets, 0.50) as f64 / 1e3;
            *p95 = quantile_upper_us_from(buckets, 0.95) as f64 / 1e3;
        }
        snap.requests_per_sec = snap.completed as f64 / uptime_s;
        snap.tokens_per_sec = snap.tokens_out as f64 / uptime_s;
        snap
    }
}

json_struct! {
    /// Per-KV-dtype slice of the pool gauges: the dtype label on
    /// `kv_blocks_in_use` / `kv_blocks_free`, plus the bytes those blocks pin
    /// (int8 pools hold sealed blocks at ~¼ the f32 size, so block counts
    /// alone no longer imply memory use).
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct KvPoolDtypeGauges {
        /// KV dtype label (`"f32"` / `"int8"`).
        pub dtype: String,
        /// Blocks allocated across pools of this dtype.
        pub blocks_in_use: u64,
        /// Blocks still allocatable across pools of this dtype.
        pub blocks_free: u64,
        /// Bytes resident across pools of this dtype.
        pub bytes_in_use: u64,
    }
}

/// Element-wise `a += b`, extending `a` when `b` is longer.
fn absorb_buckets(a: &mut Vec<u64>, b: &[u64]) {
    if a.len() < b.len() {
        a.resize(b.len(), 0);
    }
    for (dst, src) in a.iter_mut().zip(b) {
        *dst = dst.saturating_add(*src);
    }
}

impl MetricsSnapshot {
    /// Each [`Hist`]'s buckets and p50 / p95 fields, in declaration order.
    fn hists_mut(&mut self) -> [(&mut Vec<u64>, &mut f64, &mut f64); 3] {
        [
            (
                &mut self.latency_buckets,
                &mut self.latency_p50_ms,
                &mut self.latency_p95_ms,
            ),
            (
                &mut self.queue_buckets,
                &mut self.queue_p50_ms,
                &mut self.queue_p95_ms,
            ),
            (
                &mut self.prefill_buckets,
                &mut self.prefill_p50_ms,
                &mut self.prefill_p95_ms,
            ),
        ]
    }

    /// Sums one dtype's pool gauges into its `kv_pool_dtypes` row, which
    /// stays sorted by label.
    fn merge_pool_row(&mut self, row: &KvPoolDtypeGauges) {
        let rows = &mut self.kv_pool_dtypes;
        match rows.iter_mut().find(|g| g.dtype == row.dtype) {
            Some(g) => {
                g.blocks_in_use = g.blocks_in_use.saturating_add(row.blocks_in_use);
                g.blocks_free = g.blocks_free.saturating_add(row.blocks_free);
                g.bytes_in_use = g.bytes_in_use.saturating_add(row.bytes_in_use);
            }
            None => {
                rows.push(row.clone());
                rows.sort_by(|a, b| a.dtype.cmp(&b.dtype));
            }
        }
    }

    /// Folds another snapshot into this one, producing fleet-level totals.
    ///
    /// Counters and gauges sum (saturating). Histogram buckets sum
    /// element-wise, and the derived quantiles are recomputed from the
    /// merged buckets, never averaged. `uptime_ms` becomes the max
    /// (replicas run concurrently, so fleet uptime is the longest-lived
    /// replica, not the sum), and the throughput rates are recomputed from
    /// the summed counts over that uptime.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        for &c in Counter::ALL {
            let mine = self.counter_mut(c);
            *mine = mine.saturating_add(other.counter(c));
        }
        absorb_buckets(&mut self.batch_occupancy, &other.batch_occupancy);
        if self.simd_backend.is_empty() {
            self.simd_backend.clone_from(&other.simd_backend);
        }
        self.kv_blocks_in_use = self.kv_blocks_in_use.saturating_add(other.kv_blocks_in_use);
        self.kv_blocks_free = self.kv_blocks_free.saturating_add(other.kv_blocks_free);
        self.kv_bytes_in_use = self.kv_bytes_in_use.saturating_add(other.kv_bytes_in_use);
        for row in &other.kv_pool_dtypes {
            self.merge_pool_row(row);
        }
        self.cow_copies = self.cow_copies.saturating_add(other.cow_copies);
        // A scratch copy, so both sides walk their histograms one way.
        let mut theirs = other.clone();
        for ((buckets, p50, p95), (their_buckets, _, _)) in
            self.hists_mut().into_iter().zip(theirs.hists_mut())
        {
            absorb_buckets(buckets, their_buckets);
            *p50 = quantile_upper_us_from(buckets, 0.50) as f64 / 1e3;
            *p95 = quantile_upper_us_from(buckets, 0.95) as f64 / 1e3;
        }
        self.uptime_ms = self.uptime_ms.max(other.uptime_ms);
        let uptime_s = (self.uptime_ms as f64 / 1e3).max(1e-9);
        self.requests_per_sec = self.completed as f64 / uptime_s;
        self.tokens_per_sec = self.tokens_out as f64 / uptime_s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::json::{self, FromJson, ToJson};

    /// The wire shape: every key of a snapshot, each one required.
    const WIRE: &[&str] = &[
        "uptime_ms",
        "requests",
        "completed",
        "rejected_overload",
        "rejected_shutdown",
        "failed",
        "deadline_exceeded",
        "worker_panics",
        "panicked_sessions",
        "watchdog_cancels",
        "checksum_failures",
        "retries_attempted",
        "workers_respawned",
        "batched_slices",
        "batch_occupancy",
        "tokens_out",
        "prompt_tokens",
        "prefix_hits",
        "prefix_tokens_reused",
        "prefill_chunks",
        "draft_tokens_proposed",
        "accepted_draft_tokens",
        "spec_fallbacks",
        "merge_evictions",
        "pool_evictions",
        "weights_bytes",
        "simd_backend",
        "kv_blocks_in_use",
        "kv_blocks_free",
        "kv_bytes_in_use",
        "kv_pool_dtypes",
        "cow_copies",
        "requests_per_sec",
        "tokens_per_sec",
        "latency_p50_ms",
        "latency_p95_ms",
        "queue_p50_ms",
        "queue_p95_ms",
        "prefill_p50_ms",
        "prefill_p95_ms",
        "latency_buckets",
        "queue_buckets",
        "prefill_buckets",
    ];

    #[test]
    fn wire_shape_is_pinned() {
        let default = MetricsSnapshot::default().to_json();
        let json::Value::Object(members) = &default else {
            panic!("a snapshot encodes as an object");
        };
        let mut keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        let mut pinned = WIRE.to_vec();
        keys.sort_unstable();
        pinned.sort_unstable();
        assert_eq!(keys, pinned, "the snapshot's key set moved");
        for &key in WIRE {
            let rest = members.iter().filter(|(k, _)| k != key).cloned().collect();
            assert!(
                MetricsSnapshot::from_json(&json::Value::Object(rest)).is_err(),
                "a snapshot without {key} must be refused"
            );
        }
    }

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = Histogram::default();
        for us in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(us);
        }
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 5);
        // p50 of {10,100,1000,10000,100000}: the 3rd observation (1000 µs)
        // lands in bucket [512, 1024), upper edge 1023.
        assert_eq!(quantile_upper_us_from(&h.bucket_counts(), 0.5), 1023);
        assert!(quantile_upper_us_from(&h.bucket_counts(), 1.0) >= 100_000);
        assert!(quantile_upper_us_from(&h.bucket_counts(), 0.01) >= 10);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 0);
        assert_eq!(quantile_upper_us_from(&h.bucket_counts(), 0.95), 0);
    }

    #[test]
    fn zero_and_huge_observations_clamp_into_range() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 2);
        assert!(quantile_upper_us_from(&h.bucket_counts(), 1.0) > 0);
    }

    /// Snapshot members that follow the wall clock, not a counter alone.
    const TIMED: [&str; 3] = ["uptime_ms", "requests_per_sec", "tokens_per_sec"];

    /// A snapshot's wire members, minus the [`TIMED`] ones.
    fn untimed(snap: &MetricsSnapshot) -> Vec<(String, json::Value)> {
        let json::Value::Object(members) = snap.to_json() else {
            panic!("a snapshot encodes as an object");
        };
        members
            .into_iter()
            .filter(|(k, _)| !TIMED.contains(&k.as_str()))
            .collect()
    }

    #[test]
    fn every_counter_moves_alone_and_survives_the_wire_and_absorb() {
        let quiet = untimed(&Metrics::new().snapshot());
        for (i, &c) in Counter::ALL.iter().enumerate() {
            let n = 1_000 + 37 * i as u64;
            let m = Metrics::new();
            m.add(c, n);
            let snap = m.snapshot();
            assert_eq!(snap.counter(c), n, "{c:?}");
            let moved: Vec<_> = untimed(&snap)
                .into_iter()
                .zip(&quiet)
                .filter(|(now, before)| now != *before)
                .map(|(now, _)| now)
                .collect();
            assert_eq!(moved.len(), 1, "{c:?} moved {moved:?}");
            assert_eq!(moved[0].1, json::Value::UInt(n), "{c:?} moved {moved:?}");
            let back: MetricsSnapshot = json::from_str(&json::to_string(&snap)).expect("parse");
            assert_eq!(back.counter(c), n, "{c:?} over the wire");
            let mut fleet = MetricsSnapshot::default();
            for k in 1..=3 {
                let replica = Metrics::new();
                replica.add(c, k * n);
                fleet.absorb(&replica.snapshot());
            }
            assert_eq!(fleet.counter(c), 6 * n, "{c:?} absorbed");
        }
        // The rates follow their counters over uptime.
        let m = Metrics::new();
        m.add(Counter::Completed, 1);
        m.add(Counter::TokensOut, 32);
        let snap = m.snapshot();
        assert!(snap.requests_per_sec > 0.0 && snap.tokens_per_sec > snap.requests_per_sec);
    }

    #[test]
    fn every_histogram_moves_alone() {
        let quiet = untimed(&Metrics::new().snapshot());
        for (h, keys) in [
            (
                Hist::Latency,
                ["latency_p50_ms", "latency_p95_ms", "latency_buckets"],
            ),
            (
                Hist::QueueWait,
                ["queue_p50_ms", "queue_p95_ms", "queue_buckets"],
            ),
            (
                Hist::Prefill,
                ["prefill_p50_ms", "prefill_p95_ms", "prefill_buckets"],
            ),
        ] {
            let m = Metrics::new();
            m.observe(h, 1_000);
            let snap = untimed(&m.snapshot());
            for ((key, value), (_, before)) in snap.iter().zip(&quiet) {
                assert_eq!(
                    value != before,
                    keys.contains(&key.as_str()),
                    "{h:?} and {key}"
                );
                if key.ends_with("_ms") && value != before {
                    // 1000 µs lands in [512, 1024): upper edge 1.023 ms.
                    assert_eq!(value, &json::Value::Float(1.023), "{key}");
                }
            }
        }
    }

    #[test]
    fn batch_occupancy_buckets_and_counter() {
        let m = Metrics::new();
        m.on_batch(1);
        m.on_batch(1);
        m.on_batch(4);
        m.on_batch(16);
        m.on_batch(100); // folds into the last bucket
        let snap = m.snapshot();
        assert_eq!(snap.batch_occupancy.len(), BATCH_BUCKETS);
        assert_eq!(snap.batch_occupancy[1], 2);
        assert_eq!(snap.batch_occupancy[4], 1);
        assert_eq!(snap.batch_occupancy[16], 2);
        assert_eq!(
            snap.batched_slices, 3,
            "single-session slices must not count as batched"
        );
    }

    #[test]
    fn prefill_and_prefix_counters_flow_into_snapshot() {
        let m = Metrics::new();
        m.add(Counter::PrefixHits, 2);
        m.add(Counter::PrefixTokensReused, 24 + 8);
        for us in [1_000, 2_000, 4_000] {
            m.add(Counter::PrefillChunks, 1);
            m.observe(Hist::Prefill, us);
        }
        m.add(Counter::MergeEvictions, 1);
        let snap = m.snapshot();
        assert_eq!(snap.prefix_hits, 2);
        assert_eq!(snap.prefix_tokens_reused, 32);
        assert_eq!(snap.prefill_chunks, 3);
        assert_eq!(snap.merge_evictions, 1);
        assert!(snap.prefill_p50_ms > 0.0);
        assert!(snap.prefill_p95_ms >= snap.prefill_p50_ms);
        assert_eq!(snap.failed, 0, "prefill counters must not bleed elsewhere");
    }

    #[test]
    fn snapshot_without_fault_fields_is_refused() {
        // A snapshot without the fault, batching, prefix, pool and bucket
        // fields is not a v3 snapshot: the line is refused, not defaulted.
        let m = Metrics::new();
        let json::Value::Object(mut members) = m.snapshot().to_json() else {
            panic!("a snapshot encodes as an object");
        };
        for field in [
            "worker_panics",
            "watchdog_cancels",
            "checksum_failures",
            "retries_attempted",
            "workers_respawned",
            "batched_slices",
            "batch_occupancy",
            "prefix_hits",
            "prefix_tokens_reused",
            "prefill_chunks",
            "draft_tokens_proposed",
            "accepted_draft_tokens",
            "spec_fallbacks",
            "merge_evictions",
            "pool_evictions",
            "weights_bytes",
            "simd_backend",
            "kv_blocks_in_use",
            "kv_blocks_free",
            "kv_bytes_in_use",
            "kv_pool_dtypes",
            "cow_copies",
            "prefill_p50_ms",
            "prefill_p95_ms",
            "latency_buckets",
            "queue_buckets",
            "prefill_buckets",
        ] {
            let before = members.len();
            members.retain(|(key, _)| key != field);
            assert_eq!(members.len(), before - 1, "{field} was on the wire");
        }
        let line = json::Value::Object(members).to_string();
        assert!(matches!(
            crate::protocol::parse_line::<MetricsSnapshot>(&line),
            Err(crate::ServeError::Protocol { .. })
        ));
    }

    #[test]
    fn absorb_of_n_snapshots_equals_the_sum() {
        // Three replicas with disjoint activity; the fleet aggregate must
        // be the exact sum of every counter and histogram bucket.
        let snaps: Vec<MetricsSnapshot> = (0..3u64)
            .map(|i| {
                let m = Metrics::new();
                for _ in 0..=i {
                    m.add(Counter::Requests, 1);
                    m.add(Counter::PromptTokens, 10);
                    m.observe(Hist::QueueWait, 300 * (i + 1));
                    m.add(Counter::Completed, 1);
                    m.add(Counter::TokensOut, 8);
                    m.observe(Hist::Latency, 1_000 * (i + 1));
                }
                m.add(Counter::RejectedOverload, 1);
                m.add(Counter::PrefixHits, 1);
                m.add(Counter::PrefixTokensReused, 4);
                m.add(Counter::PrefillChunks, 1);
                m.observe(Hist::Prefill, 500);
                m.on_batch(2);
                m.snapshot()
            })
            .collect();

        let mut fleet = MetricsSnapshot::default();
        for s in &snaps {
            fleet.absorb(s);
        }

        let sum = |f: fn(&MetricsSnapshot) -> u64| snaps.iter().map(f).sum::<u64>();
        assert_eq!(fleet.requests, sum(|s| s.requests));
        assert_eq!(fleet.completed, sum(|s| s.completed));
        assert_eq!(fleet.rejected_overload, sum(|s| s.rejected_overload));
        assert_eq!(fleet.tokens_out, sum(|s| s.tokens_out));
        assert_eq!(fleet.prompt_tokens, sum(|s| s.prompt_tokens));
        assert_eq!(fleet.prefix_hits, sum(|s| s.prefix_hits));
        assert_eq!(fleet.prefix_tokens_reused, sum(|s| s.prefix_tokens_reused));
        assert_eq!(fleet.prefill_chunks, sum(|s| s.prefill_chunks));
        assert_eq!(fleet.batched_slices, sum(|s| s.batched_slices));
        assert_eq!(fleet.batch_occupancy[2], 3);

        // Histogram buckets sum element-wise: total observation count is
        // preserved exactly.
        let fleet_latency: u64 = fleet.latency_buckets.iter().sum();
        let each_latency: u64 = snaps
            .iter()
            .map(|s| s.latency_buckets.iter().sum::<u64>())
            .sum();
        assert_eq!(fleet_latency, each_latency);
        assert_eq!(fleet_latency, fleet.completed);

        // Quantiles are recomputed from merged buckets, so the fleet p95
        // must bound the slowest replica's observations (3000 µs lands in
        // [2048, 4096), upper edge 4.095 ms).
        assert_eq!(fleet.latency_p95_ms, 4.095);
        // Uptime is the max, not the sum.
        let max_uptime = snaps.iter().map(|s| s.uptime_ms).max().unwrap_or(0);
        assert_eq!(fleet.uptime_ms, max_uptime);
    }

    #[test]
    fn weights_gauge_and_backend_flow_into_snapshot_and_absorb() {
        let m = Metrics::new();
        m.set(Counter::WeightsBytes, 1_000);
        m.set(Counter::WeightsBytes, 640); // a gauge: stores, never accumulates
        let snap = m.snapshot();
        assert_eq!(snap.weights_bytes, 640);
        assert!(
            ["scalar", "blocked", "simd", "simd(blocked-fallback)"]
                .contains(&snap.simd_backend.as_str()),
            "unexpected backend {:?}",
            snap.simd_backend
        );

        // Fleet aggregation: bytes sum, the backend label survives from
        // the first replica that reported one.
        let mut fleet = MetricsSnapshot::default();
        fleet.absorb(&snap);
        fleet.absorb(&snap);
        assert_eq!(fleet.weights_bytes, 1_280);
        assert_eq!(fleet.simd_backend, snap.simd_backend);
    }

    #[test]
    fn quantiles_from_raw_buckets_match_histogram() {
        let h = Histogram::default();
        for us in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(us);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), BUCKETS);
        assert_eq!(counts.iter().sum::<u64>(), 5);
        assert_eq!(quantile_upper_us_from(&[], 0.5), 0);
    }

    #[test]
    fn quantiles_clamp_on_long_counts_vectors() {
        // A replica's snapshot is outside input and may carry more than 64
        // buckets through absorb_buckets; the shift must clamp instead of
        // overflowing.
        for len in [64usize, 65, 80, 128] {
            let mut counts = vec![0u64; len];
            counts[len - 1] = 1;
            assert_eq!(
                quantile_upper_us_from(&counts, 0.95),
                u64::MAX,
                "length {len} must saturate, not panic"
            );
        }
        // The last representable bucket (i = 62) still reports its exact
        // upper edge.
        let mut counts = vec![0u64; 63];
        counts[62] = 1;
        assert_eq!(quantile_upper_us_from(&counts, 0.95), (1u64 << 63) - 1);
        // And merging a long vector into a short one keeps quantiles sane.
        let mut a = vec![1u64; BUCKETS];
        let mut b = vec![0u64; 70];
        b[69] = 5;
        absorb_buckets(&mut a, &b);
        assert_eq!(a.len(), 70);
        assert_eq!(quantile_upper_us_from(&a, 1.0), u64::MAX);
    }

    #[test]
    fn pool_gauges_and_evictions_flow_into_snapshot() {
        use chipalign_model::ArchSpec;
        use chipalign_nn::{KvCache, KvPoolConfig, TinyLm};
        use chipalign_tensor::rng::Pcg32;

        let m = Metrics::new();
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 8,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        m.register_kv_pool(&pool);
        m.register_kv_pool(&pool); // idempotent: counted once

        let mut arch = ArchSpec::tiny("metrics");
        arch.vocab_size = 99;
        let model = Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(1)).expect("model"));
        let mut cache = KvCache::new_paged(&model, &pool);
        cache.prefill(&[5, 6, 7, 8, 9, 10]).expect("prefill");
        m.add(Counter::PoolEvictions, 1);

        let snap = m.snapshot();
        assert_eq!(snap.kv_blocks_in_use, 2, "6 tokens at block size 4");
        assert_eq!(snap.kv_blocks_free, 6);
        assert_eq!(snap.kv_bytes_in_use, pool.bytes_in_use() as u64);
        assert!(snap.kv_bytes_in_use > 0);
        assert_eq!(snap.cow_copies, 0);
        assert_eq!(snap.pool_evictions, 1);

        // A dead pool (its model unloaded) silently leaves the gauges.
        drop(cache);
        let dead = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 1000,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        m.register_kv_pool(&dead);
        drop(dead);
        let snap = m.snapshot();
        assert_eq!(snap.kv_blocks_in_use, 0);
        assert_eq!(snap.kv_blocks_free, 8, "only the live pool is summed");
        assert_eq!(snap.kv_bytes_in_use, 0);
    }

    #[test]
    fn pool_gauges_slice_per_dtype_and_absorb_merges_labels() {
        use chipalign_model::ArchSpec;
        use chipalign_nn::{KvCache, KvDtype, KvPoolConfig, TinyLm};
        use chipalign_tensor::rng::Pcg32;

        let m = Metrics::new();
        let f32_pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 8,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let int8_pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 16,
            dtype: KvDtype::Int8,
        })
        .expect("pool");
        m.register_kv_pool(&f32_pool);
        m.register_kv_pool(&int8_pool);

        let mut arch = ArchSpec::tiny("metrics");
        arch.vocab_size = 99;
        let model = Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(1)).expect("model"));
        let mut a = KvCache::new_paged(&model, &f32_pool);
        a.prefill(&[5, 6, 7, 8, 9]).expect("prefill"); // 2 blocks
        let mut b = KvCache::new_paged(&model, &int8_pool);
        b.prefill(&[5, 6, 7]).expect("prefill"); // 1 block

        let snap = m.snapshot();
        assert_eq!(snap.kv_blocks_in_use, 3);
        assert_eq!(
            snap.kv_bytes_in_use,
            (f32_pool.bytes_in_use() + int8_pool.bytes_in_use()) as u64
        );
        assert_eq!(snap.kv_pool_dtypes.len(), 2, "one row per dtype");
        let f32_row = &snap.kv_pool_dtypes[0];
        let int8_row = &snap.kv_pool_dtypes[1];
        assert_eq!(f32_row.dtype, "f32");
        assert_eq!(f32_row.blocks_in_use, 2);
        assert_eq!(f32_row.blocks_free, 6);
        assert_eq!(int8_row.dtype, "int8");
        assert_eq!(int8_row.blocks_in_use, 1);
        assert_eq!(int8_row.blocks_free, 15);
        assert_eq!(
            f32_row.bytes_in_use + int8_row.bytes_in_use,
            snap.kv_bytes_in_use
        );

        // Fleet aggregation merges rows by label and sums the gauge.
        let mut fleet = MetricsSnapshot::default();
        fleet.absorb(&snap);
        fleet.absorb(&snap);
        assert_eq!(fleet.kv_bytes_in_use, 2 * snap.kv_bytes_in_use);
        assert_eq!(fleet.kv_pool_dtypes.len(), 2);
        assert_eq!(fleet.kv_pool_dtypes[0].blocks_in_use, 4);
        assert_eq!(fleet.kv_pool_dtypes[1].blocks_in_use, 2);
        assert_eq!(
            fleet.kv_pool_dtypes[1].bytes_in_use,
            2 * int8_row.bytes_in_use
        );
    }
}
