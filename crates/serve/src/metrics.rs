//! The metrics core: lock-free counters and latency histograms.
//!
//! Every counter is a relaxed atomic — the serving hot path never takes a
//! lock to record an observation. Latencies land in a power-of-two
//! histogram (bucket `i` covers `[2^i, 2^(i+1))` microseconds), which keeps
//! recording O(1) and percentile queries a 48-element scan. Quantiles are
//! therefore upper bounds with at most 2× resolution — good enough to spot
//! regressions; the load generator computes exact percentiles client-side.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::Instant;

use chipalign_model::json_struct;
use chipalign_nn::KvPool;

/// Number of power-of-two buckets: covers 1 µs .. ~2^47 µs (~4 years).
const BUCKETS: usize = 48;

/// Buckets in the batch-occupancy histogram: index `n` counts slices that
/// advanced exactly `n` sessions, with everything `>= 16` folded into the
/// last slot (the scheduler's `max_batch` rarely exceeds it in practice).
const BATCH_BUCKETS: usize = 17;

/// A lock-free power-of-two latency histogram over microseconds.
#[derive(Debug)]
pub struct Histogram {
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
    pub fn record(&self, us: u64) {
        let bucket = (63 - us.max(1).leading_zeros() as usize).min(BUCKETS - 1);
        self.counts[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// The `p`-quantile (`0 < p <= 1`) as an upper bound in microseconds,
    /// or 0 when the histogram is empty.
    #[must_use]
    pub fn quantile_upper_us(&self, p: f64) -> u64 {
        quantile_upper_us_from(&self.bucket_counts(), p)
    }

    /// The raw per-bucket counts (always [`BUCKETS`] entries). Bucket `i`
    /// covers `[2^i, 2^(i+1))` microseconds. Snapshots carry these so
    /// fleet-level aggregation can sum histograms and recompute quantiles
    /// instead of averaging per-replica percentiles (which is meaningless).
    #[must_use]
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// The `p`-quantile upper bound in microseconds over raw power-of-two
/// bucket counts (as produced by [`Histogram::bucket_counts`]), or 0 when
/// the counts are empty. Used to recompute fleet-wide quantiles after
/// [`MetricsSnapshot::absorb`] has summed per-replica buckets.
#[must_use]
pub fn quantile_upper_us_from(counts: &[u64], p: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let target = ((p.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= target {
            // Upper edge of bucket i: 2^(i+1) - 1 µs. A newer-protocol
            // replica may ship more than 64 buckets through
            // `absorb_buckets`; clamp the shift instead of overflowing
            // (which panics in debug builds) so fleet aggregation stays
            // forward-compatible.
            return if i >= 63 {
                u64::MAX
            } else {
                (1u64 << (i + 1)) - 1
            };
        }
    }
    (1u64 << BUCKETS) - 1
}

/// Counters and histograms for one server instance.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    /// Admission attempts (accepted or not).
    requests: AtomicU64,
    /// Sessions that finished and returned a generation.
    completed: AtomicU64,
    /// Admission-control rejections.
    rejected_overload: AtomicU64,
    /// Sessions rejected because the server was draining.
    rejected_shutdown: AtomicU64,
    /// Sessions that died on a decode error.
    failed: AtomicU64,
    /// Sessions that hit their deadline.
    deadline_exceeded: AtomicU64,
    /// Decode slices that panicked (session cancelled, worker survived).
    worker_panics: AtomicU64,
    /// Sessions cancelled by the stall watchdog.
    watchdog_cancels: AtomicU64,
    /// Checkpoint loads rejected for checksum/corruption/non-finite data.
    checksum_failures: AtomicU64,
    /// Generate requests that arrived flagged as client retries.
    retries_attempted: AtomicU64,
    /// Worker threads that died and re-entered their loop.
    workers_respawned: AtomicU64,
    /// Slices that advanced two or more sessions through one batched step.
    batched_slices: AtomicU64,
    /// How many sessions each dequeued slice advanced (index = batch size,
    /// `>= 16` folded into the last bucket).
    batch_occupancy: [AtomicU64; BATCH_BUCKETS],
    /// New tokens produced by completed sessions.
    tokens_out: AtomicU64,
    /// Prompt tokens consumed by admitted sessions.
    prompt_tokens: AtomicU64,
    /// Sessions seeded from the shared-prefix cache.
    prefix_hits: AtomicU64,
    /// Prompt tokens whose prefill was skipped thanks to a prefix hit.
    prefix_tokens_reused: AtomicU64,
    /// Prefill chunks processed by the scheduler (initial prompt slices
    /// and window-slide replays alike).
    prefill_chunks: AtomicU64,
    /// Draft tokens proposed by speculative-decoding rounds.
    draft_tokens_proposed: AtomicU64,
    /// Draft tokens the target model verified and accepted.
    accepted_draft_tokens: AtomicU64,
    /// Speculative rounds abandoned for plain decode (draft panic or a
    /// draft-side decode error); the session itself continues.
    spec_fallbacks: AtomicU64,
    /// Merged models evicted from the registry's LRU cache.
    merge_evictions: AtomicU64,
    /// Prefix-cache snapshots evicted under KV-pool pressure (admission
    /// reclaiming blocks for a live session).
    pool_evictions: AtomicU64,
    /// Total weight bytes of every model in the registry cache at its
    /// decode dtype (int8 models count their quantized footprint). A
    /// gauge, not a counter: the registry recomputes it on every insert
    /// and evict.
    weights_bytes: AtomicU64,
    /// Paged KV pools whose gauges are summed into snapshots. Weak so the
    /// metrics core never keeps a dead model's pool alive; dead entries
    /// are pruned on registration and at snapshot time.
    kv_pools: Mutex<Vec<Weak<KvPool>>>,
    /// Admission-to-completion latency.
    latency: Histogram,
    /// Admission-to-first-decode-slice wait.
    queue_wait: Histogram,
    /// Per-chunk prefill compute time.
    prefill: Histogram,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            started: Instant::now(),
            requests: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            rejected_overload: AtomicU64::new(0),
            rejected_shutdown: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            deadline_exceeded: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
            watchdog_cancels: AtomicU64::new(0),
            checksum_failures: AtomicU64::new(0),
            retries_attempted: AtomicU64::new(0),
            workers_respawned: AtomicU64::new(0),
            batched_slices: AtomicU64::new(0),
            batch_occupancy: std::array::from_fn(|_| AtomicU64::new(0)),
            tokens_out: AtomicU64::new(0),
            prompt_tokens: AtomicU64::new(0),
            prefix_hits: AtomicU64::new(0),
            prefix_tokens_reused: AtomicU64::new(0),
            prefill_chunks: AtomicU64::new(0),
            draft_tokens_proposed: AtomicU64::new(0),
            accepted_draft_tokens: AtomicU64::new(0),
            spec_fallbacks: AtomicU64::new(0),
            merge_evictions: AtomicU64::new(0),
            pool_evictions: AtomicU64::new(0),
            weights_bytes: AtomicU64::new(0),
            kv_pools: Mutex::new(Vec::new()),
            latency: Histogram::default(),
            queue_wait: Histogram::default(),
            prefill: Histogram::default(),
        }
    }
}

impl Metrics {
    /// Creates a fresh metrics core anchored at "now".
    #[must_use]
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Records an admission attempt.
    pub fn on_request(&self) {
        self.requests.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an admission-control rejection.
    pub fn on_rejected_overload(&self) {
        self.rejected_overload.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rejection because the server is draining.
    pub fn on_rejected_shutdown(&self) {
        self.rejected_shutdown.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the prompt size of an admitted session.
    pub fn on_admitted(&self, prompt_tokens: usize) {
        self.prompt_tokens
            .fetch_add(prompt_tokens as u64, Ordering::Relaxed);
    }

    /// Records the queue wait of a session reaching its first decode slice.
    pub fn on_first_slice(&self, queue_us: u64) {
        self.queue_wait.record(queue_us);
    }

    /// Records a successful completion.
    pub fn on_completed(&self, tokens: usize, latency_us: u64) {
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.tokens_out.fetch_add(tokens as u64, Ordering::Relaxed);
        self.latency.record(latency_us);
    }

    /// Records a session that hit its deadline.
    pub fn on_deadline_exceeded(&self) {
        self.deadline_exceeded.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a session that failed with a decode error.
    pub fn on_failed(&self) {
        self.failed.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a decode slice cancelled by a caught panic.
    pub fn on_worker_panic(&self) {
        self.worker_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a session cancelled by the stall watchdog.
    pub fn on_watchdog_cancel(&self) {
        self.watchdog_cancels.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a checkpoint rejected at load for checksum, corruption, or
    /// non-finite weights.
    pub fn on_checksum_failure(&self) {
        self.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Records an incoming generate request that a client flagged as a
    /// retry of an earlier attempt.
    pub fn on_retry_attempted(&self) {
        self.retries_attempted.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a worker thread dying and re-entering its loop.
    pub fn on_worker_respawned(&self) {
        self.workers_respawned.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a session seeded from the shared-prefix cache with
    /// `tokens_reused` already-prefilled positions.
    pub fn on_prefix_hit(&self, tokens_reused: usize) {
        self.prefix_hits.fetch_add(1, Ordering::Relaxed);
        self.prefix_tokens_reused
            .fetch_add(tokens_reused as u64, Ordering::Relaxed);
    }

    /// Records one prefill chunk and its compute time.
    pub fn on_prefill_chunk(&self, us: u64) {
        self.prefill_chunks.fetch_add(1, Ordering::Relaxed);
        self.prefill.record(us);
    }

    /// Records the outcome of speculative-decoding rounds: `proposed` draft
    /// tokens offered to the target, of which `accepted` survived
    /// verification. The acceptance rate is derived at read time
    /// (`accepted_draft_tokens / draft_tokens_proposed`), never stored, so
    /// fleet `absorb` can sum both counters exactly.
    pub fn on_spec_round(&self, proposed: u64, accepted: u64) {
        self.draft_tokens_proposed
            .fetch_add(proposed, Ordering::Relaxed);
        self.accepted_draft_tokens
            .fetch_add(accepted, Ordering::Relaxed);
    }

    /// Records speculative rounds degraded to plain decode (a panicking or
    /// erroring draft cancels only speculation, never the session).
    pub fn on_spec_fallback(&self, n: u64) {
        self.spec_fallbacks.fetch_add(n, Ordering::Relaxed);
    }

    /// Records a merged model evicted from the registry's LRU cache.
    pub fn on_merge_eviction(&self) {
        self.merge_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a prefix-cache snapshot evicted to reclaim KV blocks for a
    /// session being admitted.
    pub fn on_pool_eviction(&self) {
        self.pool_evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Sets the resident-weights gauge (total bytes across every cached
    /// model at its decode dtype). Called by the registry with a freshly
    /// recomputed total, so this stores rather than accumulates.
    pub fn set_weights_bytes(&self, bytes: u64) {
        self.weights_bytes.store(bytes, Ordering::Relaxed);
    }

    /// Registers a paged KV pool so its block gauges flow into snapshots.
    /// Idempotent per pool; holds only a weak reference, so a pool dies
    /// with its model and silently leaves the gauges.
    pub fn register_kv_pool(&self, pool: &Arc<KvPool>) {
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
    /// (pruning dead ones), both in total and sliced per KV dtype.
    fn pool_gauges(&self) -> PoolGauges {
        let mut pools = self.kv_pools.lock().expect("kv pool list poisoned");
        pools.retain(|w| w.strong_count() > 0);
        let mut g = PoolGauges::default();
        for pool in pools.iter().filter_map(Weak::upgrade) {
            let in_use = pool.blocks_in_use() as u64;
            let free = pool.blocks_free() as u64;
            let bytes = pool.bytes_in_use() as u64;
            g.in_use += in_use;
            g.free += free;
            g.bytes += bytes;
            g.cow += pool.cow_copies();
            let dtype = pool.dtype().name();
            let row = match g.by_dtype.iter_mut().find(|r| r.dtype == dtype) {
                Some(row) => row,
                None => {
                    g.by_dtype.push(KvPoolDtypeGauges {
                        dtype: dtype.to_string(),
                        ..KvPoolDtypeGauges::default()
                    });
                    g.by_dtype.last_mut().expect("just pushed")
                }
            };
            row.blocks_in_use += in_use;
            row.blocks_free += free;
            row.bytes_in_use += bytes;
        }
        g.by_dtype.sort_by(|a, b| a.dtype.cmp(&b.dtype));
        g
    }

    /// Records a dequeued slice that advanced `n` sessions together.
    pub fn on_batch(&self, n: usize) {
        self.batch_occupancy[n.min(BATCH_BUCKETS - 1)].fetch_add(1, Ordering::Relaxed);
        if n >= 2 {
            self.batched_slices.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A consistent-enough point-in-time view (individual counters are read
    /// relaxed; rates use wall-clock uptime).
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let uptime = self.started.elapsed();
        let uptime_s = uptime.as_secs_f64().max(1e-9);
        let completed = self.completed.load(Ordering::Relaxed);
        let tokens_out = self.tokens_out.load(Ordering::Relaxed);
        let pools = self.pool_gauges();
        MetricsSnapshot {
            uptime_ms: uptime.as_millis() as u64,
            requests: self.requests.load(Ordering::Relaxed),
            completed,
            rejected_overload: self.rejected_overload.load(Ordering::Relaxed),
            rejected_shutdown: self.rejected_shutdown.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            deadline_exceeded: self.deadline_exceeded.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            watchdog_cancels: self.watchdog_cancels.load(Ordering::Relaxed),
            checksum_failures: self.checksum_failures.load(Ordering::Relaxed),
            retries_attempted: self.retries_attempted.load(Ordering::Relaxed),
            workers_respawned: self.workers_respawned.load(Ordering::Relaxed),
            batched_slices: self.batched_slices.load(Ordering::Relaxed),
            batch_occupancy: self
                .batch_occupancy
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            tokens_out,
            prompt_tokens: self.prompt_tokens.load(Ordering::Relaxed),
            prefix_hits: self.prefix_hits.load(Ordering::Relaxed),
            prefix_tokens_reused: self.prefix_tokens_reused.load(Ordering::Relaxed),
            prefill_chunks: self.prefill_chunks.load(Ordering::Relaxed),
            draft_tokens_proposed: self.draft_tokens_proposed.load(Ordering::Relaxed),
            accepted_draft_tokens: self.accepted_draft_tokens.load(Ordering::Relaxed),
            spec_fallbacks: self.spec_fallbacks.load(Ordering::Relaxed),
            merge_evictions: self.merge_evictions.load(Ordering::Relaxed),
            pool_evictions: self.pool_evictions.load(Ordering::Relaxed),
            weights_bytes: self.weights_bytes.load(Ordering::Relaxed),
            simd_backend: chipalign_tensor::backend::active_name().to_string(),
            kv_blocks_in_use: pools.in_use,
            kv_blocks_free: pools.free,
            kv_bytes_in_use: pools.bytes,
            kv_pool_dtypes: pools.by_dtype,
            cow_copies: pools.cow,
            requests_per_sec: completed as f64 / uptime_s,
            tokens_per_sec: tokens_out as f64 / uptime_s,
            latency_p50_ms: self.latency.quantile_upper_us(0.50) as f64 / 1e3,
            latency_p95_ms: self.latency.quantile_upper_us(0.95) as f64 / 1e3,
            queue_p50_ms: self.queue_wait.quantile_upper_us(0.50) as f64 / 1e3,
            queue_p95_ms: self.queue_wait.quantile_upper_us(0.95) as f64 / 1e3,
            prefill_p50_ms: self.prefill.quantile_upper_us(0.50) as f64 / 1e3,
            prefill_p95_ms: self.prefill.quantile_upper_us(0.95) as f64 / 1e3,
            latency_buckets: self.latency.bucket_counts(),
            queue_buckets: self.queue_wait.bucket_counts(),
            prefill_buckets: self.prefill.bucket_counts(),
        }
    }
}

/// Summed pool gauges, total and per dtype (snapshot-internal).
#[derive(Debug, Default)]
struct PoolGauges {
    in_use: u64,
    free: u64,
    bytes: u64,
    cow: u64,
    by_dtype: Vec<KvPoolDtypeGauges>,
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

json_struct! {
    /// A point-in-time metrics view, as sent over the wire.
    #[derive(Debug, Clone, Default)]
    pub struct MetricsSnapshot {
        /// Milliseconds since the metrics core was created.
        pub uptime_ms: u64,
        /// Admission attempts.
        pub requests: u64,
        /// Finished generations.
        pub completed: u64,
        /// Admission-control rejections.
        pub rejected_overload: u64,
        /// Draining-time rejections.
        pub rejected_shutdown: u64,
        /// Decode failures.
        pub failed: u64,
        /// Deadline expiries.
        pub deadline_exceeded: u64,
        /// Decode slices that panicked (the session was cancelled with a
        /// structured error; the worker survived).
        pub worker_panics: u64 = 0,
        /// Sessions cancelled by the stall watchdog.
        pub watchdog_cancels: u64 = 0,
        /// Checkpoint loads rejected for checksum/corruption/non-finite data.
        pub checksum_failures: u64 = 0,
        /// Generate requests flagged by clients as retries.
        pub retries_attempted: u64 = 0,
        /// Worker threads that died and were respawned.
        pub workers_respawned: u64 = 0,
        /// Slices that advanced two or more sessions through one batched step.
        pub batched_slices: u64 = 0,
        /// Batch-occupancy histogram: entry `n` counts slices that advanced
        /// exactly `n` sessions (`>= 16` folded into the last entry). Empty
        /// when the snapshot came from a server without batching.
        pub batch_occupancy: Vec<u64> = Vec::new(),
        /// Total new tokens produced.
        pub tokens_out: u64,
        /// Total prompt tokens consumed.
        pub prompt_tokens: u64,
        /// Sessions seeded from the shared-prefix cache.
        pub prefix_hits: u64 = 0,
        /// Prompt tokens whose prefill was skipped thanks to prefix hits.
        pub prefix_tokens_reused: u64 = 0,
        /// Prefill chunks processed by the scheduler.
        pub prefill_chunks: u64 = 0,
        /// Draft tokens proposed by speculative-decoding rounds. The fleet
        /// acceptance rate is `accepted_draft_tokens / draft_tokens_proposed`.
        pub draft_tokens_proposed: u64 = 0,
        /// Draft tokens the target model verified and accepted.
        pub accepted_draft_tokens: u64 = 0,
        /// Speculative rounds degraded to plain decode (draft panic or error).
        pub spec_fallbacks: u64 = 0,
        /// Merged models evicted from the registry's LRU cache.
        pub merge_evictions: u64 = 0,
        /// Prefix-cache snapshots evicted under KV-pool pressure.
        pub pool_evictions: u64 = 0,
        /// Total weight bytes resident in the registry cache at decode dtype.
        pub weights_bytes: u64 = 0,
        /// The kernel backend this server selected at startup (`scalar`,
        /// `blocked`, `simd`, or `simd(blocked-fallback)` when AVX2 is
        /// absent). Empty from pre-v3 servers.
        pub simd_backend: String = String::new(),
        /// KV blocks currently allocated across every registered paged pool.
        pub kv_blocks_in_use: u64 = 0,
        /// KV blocks still allocatable across every registered paged pool.
        pub kv_blocks_free: u64 = 0,
        /// Bytes resident across every registered paged pool (sealed int8
        /// blocks count at their quantized size, open tails at f32).
        pub kv_bytes_in_use: u64 = 0,
        /// The same block/byte gauges sliced per KV dtype. Empty from servers
        /// that predate int8 KV.
        pub kv_pool_dtypes: Vec<KvPoolDtypeGauges> = Vec::new(),
        /// Copy-on-write block duplications across every registered pool (a
        /// shared tail block privatised before a divergent write).
        pub cow_copies: u64 = 0,
        /// Completions per second of uptime.
        pub requests_per_sec: f64,
        /// New tokens per second of uptime.
        pub tokens_per_sec: f64,
        /// Median admission-to-completion latency (upper bound, ms).
        pub latency_p50_ms: f64,
        /// 95th-percentile admission-to-completion latency (upper bound, ms).
        pub latency_p95_ms: f64,
        /// Median queue wait (upper bound, ms).
        pub queue_p50_ms: f64,
        /// 95th-percentile queue wait (upper bound, ms).
        pub queue_p95_ms: f64,
        /// Median per-chunk prefill compute time (upper bound, ms).
        pub prefill_p50_ms: f64 = 0.0,
        /// 95th-percentile per-chunk prefill compute time (upper bound, ms).
        pub prefill_p95_ms: f64 = 0.0,
        /// Raw latency histogram buckets (power-of-two, µs; see
        /// [`Histogram::bucket_counts`]). Empty from pre-v3 servers.
        pub latency_buckets: Vec<u64> = Vec::new(),
        /// Raw queue-wait histogram buckets.
        pub queue_buckets: Vec<u64> = Vec::new(),
        /// Raw prefill histogram buckets.
        pub prefill_buckets: Vec<u64> = Vec::new(),
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
    /// Folds another snapshot into this one, producing fleet-level totals.
    ///
    /// Counters and gauges sum (saturating). Histogram buckets sum
    /// element-wise, and the derived quantiles are recomputed from the
    /// merged buckets — never averaged — whenever either side carries raw
    /// buckets; when both sides predate v3 (no buckets), the pessimistic
    /// max of the two upper bounds is kept. `uptime_ms` becomes the max
    /// (replicas run concurrently, so fleet uptime is the longest-lived
    /// replica, not the sum), and the throughput rates are recomputed from
    /// the summed counts over that uptime.
    pub fn absorb(&mut self, other: &MetricsSnapshot) {
        self.requests = self.requests.saturating_add(other.requests);
        self.completed = self.completed.saturating_add(other.completed);
        self.rejected_overload = self
            .rejected_overload
            .saturating_add(other.rejected_overload);
        self.rejected_shutdown = self
            .rejected_shutdown
            .saturating_add(other.rejected_shutdown);
        self.failed = self.failed.saturating_add(other.failed);
        self.deadline_exceeded = self
            .deadline_exceeded
            .saturating_add(other.deadline_exceeded);
        self.worker_panics = self.worker_panics.saturating_add(other.worker_panics);
        self.watchdog_cancels = self.watchdog_cancels.saturating_add(other.watchdog_cancels);
        self.checksum_failures = self
            .checksum_failures
            .saturating_add(other.checksum_failures);
        self.retries_attempted = self
            .retries_attempted
            .saturating_add(other.retries_attempted);
        self.workers_respawned = self
            .workers_respawned
            .saturating_add(other.workers_respawned);
        self.batched_slices = self.batched_slices.saturating_add(other.batched_slices);
        absorb_buckets(&mut self.batch_occupancy, &other.batch_occupancy);
        self.tokens_out = self.tokens_out.saturating_add(other.tokens_out);
        self.prompt_tokens = self.prompt_tokens.saturating_add(other.prompt_tokens);
        self.prefix_hits = self.prefix_hits.saturating_add(other.prefix_hits);
        self.prefix_tokens_reused = self
            .prefix_tokens_reused
            .saturating_add(other.prefix_tokens_reused);
        self.prefill_chunks = self.prefill_chunks.saturating_add(other.prefill_chunks);
        self.draft_tokens_proposed = self
            .draft_tokens_proposed
            .saturating_add(other.draft_tokens_proposed);
        self.accepted_draft_tokens = self
            .accepted_draft_tokens
            .saturating_add(other.accepted_draft_tokens);
        self.spec_fallbacks = self.spec_fallbacks.saturating_add(other.spec_fallbacks);
        self.merge_evictions = self.merge_evictions.saturating_add(other.merge_evictions);
        self.pool_evictions = self.pool_evictions.saturating_add(other.pool_evictions);
        self.weights_bytes = self.weights_bytes.saturating_add(other.weights_bytes);
        if self.simd_backend.is_empty() {
            self.simd_backend.clone_from(&other.simd_backend);
        }
        self.kv_blocks_in_use = self.kv_blocks_in_use.saturating_add(other.kv_blocks_in_use);
        self.kv_blocks_free = self.kv_blocks_free.saturating_add(other.kv_blocks_free);
        self.kv_bytes_in_use = self.kv_bytes_in_use.saturating_add(other.kv_bytes_in_use);
        for o in &other.kv_pool_dtypes {
            match self.kv_pool_dtypes.iter_mut().find(|g| g.dtype == o.dtype) {
                Some(g) => {
                    g.blocks_in_use = g.blocks_in_use.saturating_add(o.blocks_in_use);
                    g.blocks_free = g.blocks_free.saturating_add(o.blocks_free);
                    g.bytes_in_use = g.bytes_in_use.saturating_add(o.bytes_in_use);
                }
                None => self.kv_pool_dtypes.push(o.clone()),
            }
        }
        self.kv_pool_dtypes.sort_by(|a, b| a.dtype.cmp(&b.dtype));
        self.cow_copies = self.cow_copies.saturating_add(other.cow_copies);
        absorb_buckets(&mut self.latency_buckets, &other.latency_buckets);
        absorb_buckets(&mut self.queue_buckets, &other.queue_buckets);
        absorb_buckets(&mut self.prefill_buckets, &other.prefill_buckets);
        self.uptime_ms = self.uptime_ms.max(other.uptime_ms);
        let uptime_s = (self.uptime_ms as f64 / 1e3).max(1e-9);
        self.requests_per_sec = self.completed as f64 / uptime_s;
        self.tokens_per_sec = self.tokens_out as f64 / uptime_s;
        let requantile = |buckets: &[u64], fallback: f64, p: f64| {
            if buckets.iter().any(|&c| c > 0) {
                quantile_upper_us_from(buckets, p) as f64 / 1e3
            } else {
                fallback
            }
        };
        self.latency_p50_ms = requantile(
            &self.latency_buckets,
            self.latency_p50_ms.max(other.latency_p50_ms),
            0.50,
        );
        self.latency_p95_ms = requantile(
            &self.latency_buckets,
            self.latency_p95_ms.max(other.latency_p95_ms),
            0.95,
        );
        self.queue_p50_ms = requantile(
            &self.queue_buckets,
            self.queue_p50_ms.max(other.queue_p50_ms),
            0.50,
        );
        self.queue_p95_ms = requantile(
            &self.queue_buckets,
            self.queue_p95_ms.max(other.queue_p95_ms),
            0.95,
        );
        self.prefill_p50_ms = requantile(
            &self.prefill_buckets,
            self.prefill_p50_ms.max(other.prefill_p50_ms),
            0.50,
        );
        self.prefill_p95_ms = requantile(
            &self.prefill_buckets,
            self.prefill_p95_ms.max(other.prefill_p95_ms),
            0.95,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::json::{self, FromJson, ToJson};

    #[test]
    fn histogram_quantiles_bound_observations() {
        let h = Histogram::default();
        for us in [10u64, 100, 1_000, 10_000, 100_000] {
            h.record(us);
        }
        assert_eq!(h.count(), 5);
        // p50 of {10,100,1000,10000,100000}: the 3rd observation (1000 µs)
        // lands in bucket [512, 1024), upper edge 1023.
        assert_eq!(h.quantile_upper_us(0.5), 1023);
        assert!(h.quantile_upper_us(1.0) >= 100_000);
        assert!(h.quantile_upper_us(0.01) >= 10);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile_upper_us(0.95), 0);
    }

    #[test]
    fn zero_and_huge_observations_clamp_into_range() {
        let h = Histogram::default();
        h.record(0);
        h.record(u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.quantile_upper_us(1.0) > 0);
    }

    #[test]
    fn snapshot_reflects_counters() {
        let m = Metrics::new();
        m.on_request();
        m.on_request();
        m.on_admitted(12);
        m.on_first_slice(500);
        m.on_completed(32, 2_000);
        m.on_rejected_overload();
        let snap = m.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.completed, 1);
        assert_eq!(snap.rejected_overload, 1);
        assert_eq!(snap.tokens_out, 32);
        assert_eq!(snap.prompt_tokens, 12);
        assert!(snap.latency_p50_ms > 0.0);
        let json = json::to_string(&snap);
        let back: MetricsSnapshot = json::from_str(&json).expect("parse");
        assert_eq!(back.completed, 1);
    }

    #[test]
    fn fault_counters_are_independent() {
        let m = Metrics::new();
        m.on_worker_panic();
        m.on_watchdog_cancel();
        m.on_watchdog_cancel();
        m.on_checksum_failure();
        m.on_retry_attempted();
        m.on_worker_respawned();
        let snap = m.snapshot();
        assert_eq!(snap.worker_panics, 1);
        assert_eq!(snap.watchdog_cancels, 2);
        assert_eq!(snap.checksum_failures, 1);
        assert_eq!(snap.retries_attempted, 1);
        assert_eq!(snap.workers_respawned, 1);
        assert_eq!(snap.failed, 0, "fault counters must not bleed into failed");
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
        m.on_prefix_hit(24);
        m.on_prefix_hit(8);
        m.on_prefill_chunk(1_000);
        m.on_prefill_chunk(2_000);
        m.on_prefill_chunk(4_000);
        m.on_merge_eviction();
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
    fn snapshot_without_fault_fields_still_parses() {
        // A v1 server's snapshot predates the fault counters; the client
        // must still accept it (decode defaults).
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
        let back = MetricsSnapshot::from_json(&json::Value::Object(members))
            .expect("parse without fault fields");
        assert_eq!(back.worker_panics, 0);
        assert_eq!(back.batched_slices, 0);
        assert!(back.batch_occupancy.is_empty());
        assert_eq!(back.prefix_hits, 0);
        assert_eq!(back.prefill_chunks, 0);
        assert_eq!(back.draft_tokens_proposed, 0);
        assert_eq!(back.accepted_draft_tokens, 0);
        assert_eq!(back.spec_fallbacks, 0);
        assert_eq!(back.merge_evictions, 0);
        assert_eq!(back.pool_evictions, 0);
        assert_eq!(back.weights_bytes, 0);
        assert!(back.simd_backend.is_empty());
        assert_eq!(back.kv_blocks_in_use, 0);
        assert_eq!(back.kv_blocks_free, 0);
        assert_eq!(back.kv_bytes_in_use, 0);
        assert!(back.kv_pool_dtypes.is_empty());
        assert_eq!(back.cow_copies, 0);
        assert_eq!(back.prefill_p95_ms, 0.0);
        assert!(back.latency_buckets.is_empty());
        assert!(back.queue_buckets.is_empty());
        assert!(back.prefill_buckets.is_empty());
    }

    #[test]
    fn absorb_of_n_snapshots_equals_the_sum() {
        // Three replicas with disjoint activity; the fleet aggregate must
        // be the exact sum of every counter and histogram bucket.
        let snaps: Vec<MetricsSnapshot> = (0..3u64)
            .map(|i| {
                let m = Metrics::new();
                for _ in 0..=i {
                    m.on_request();
                    m.on_admitted(10);
                    m.on_first_slice(300 * (i + 1));
                    m.on_completed(8, 1_000 * (i + 1));
                }
                m.on_rejected_overload();
                m.on_prefix_hit(4);
                m.on_prefill_chunk(500);
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
    fn absorb_without_buckets_keeps_pessimistic_quantiles() {
        // Two pre-v3 snapshots (no raw buckets): absorb cannot recompute,
        // so it keeps the max of the reported upper bounds.
        let mut a = MetricsSnapshot {
            completed: 5,
            latency_p95_ms: 2.0,
            uptime_ms: 1_000,
            ..MetricsSnapshot::default()
        };
        let b = MetricsSnapshot {
            completed: 7,
            latency_p95_ms: 9.0,
            uptime_ms: 4_000,
            ..MetricsSnapshot::default()
        };
        a.absorb(&b);
        assert_eq!(a.completed, 12);
        assert_eq!(a.latency_p95_ms, 9.0);
        assert_eq!(a.uptime_ms, 4_000);
        assert!((a.requests_per_sec - 3.0).abs() < 1e-9, "12 done over 4 s");
    }

    #[test]
    fn weights_gauge_and_backend_flow_into_snapshot_and_absorb() {
        let m = Metrics::new();
        m.set_weights_bytes(1_000);
        m.set_weights_bytes(640); // a gauge: stores, never accumulates
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
        for p in [0.01, 0.5, 0.95, 1.0] {
            assert_eq!(quantile_upper_us_from(&counts, p), h.quantile_upper_us(p));
        }
        assert_eq!(quantile_upper_us_from(&[], 0.5), 0);
    }

    #[test]
    fn quantiles_clamp_on_long_counts_vectors() {
        // A newer-protocol replica could ship more than 64 buckets through
        // absorb_buckets; the shift must clamp instead of overflowing.
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
    fn spec_counters_flow_into_snapshot_and_absorb() {
        let m = Metrics::new();
        m.on_spec_round(4, 3);
        m.on_spec_round(4, 0);
        m.on_spec_fallback(1);
        let snap = m.snapshot();
        assert_eq!(snap.draft_tokens_proposed, 8);
        assert_eq!(snap.accepted_draft_tokens, 3);
        assert_eq!(snap.spec_fallbacks, 1);
        assert_eq!(snap.failed, 0, "spec counters must not bleed elsewhere");

        // Fleet aggregation sums both sides of the acceptance rate.
        let mut fleet = MetricsSnapshot::default();
        fleet.absorb(&snap);
        fleet.absorb(&snap);
        assert_eq!(fleet.draft_tokens_proposed, 16);
        assert_eq!(fleet.accepted_draft_tokens, 6);
        assert_eq!(fleet.spec_fallbacks, 2);
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
        m.on_pool_eviction();

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
