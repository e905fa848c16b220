//! The session scheduler: continuous batching over a worker pool.
//!
//! Every admitted request becomes a *session* owning its own
//! [`chipalign_nn::StepDecoder`] (and therefore its own KV cache). Workers
//! repeatedly pop a batch of sessions from a shared run queue, decode a
//! short *slice* of rounds, and push the survivors back. That round-robin
//! slicing is the continuous-batching property: a 1000-token generation
//! never blocks a 10-token one for more than a slice.
//!
//! The decode *round* (one token per member), not the slice, is the unit
//! at which the scheduler answers and admits, as in iteration-level
//! scheduling. A slice is at most `SLICE_ROUNDS` (8) rounds, and ends
//! early at the first round boundary where a session waits in the queue
//! and the batch has a free slot, so a newcomer that fits waits about one
//! round, not a whole slice, for its first prefill chunk.
//!
//! # A slice is stepped, with the time passed in
//!
//! A `Slice` is a value its caller steps one round boundary at a time,
//! passing the time in. A worker thread pops a batch and steps it with the
//! wall clock until the slice ends; the tests step the same code on their
//! own thread with a virtual clock, submitting between any two rounds. The
//! worker loop and [`Scheduler::submit`] are the only readers of the wall
//! clock (`scripts/ci.sh` checks it): admission stamp, queue wait, prefill
//! time, latency and deadlines all come from the `now` passed in.
//!
//! Every step opens with one *sweep*, the one place a deadline is compared
//! and an abort is honoured; it runs before a popped session's decoder is
//! built, so a session that expired in the queue costs no work. A session
//! is answered at the boundary after the round it commits its last token,
//! fails, passes its deadline or is aborted. Every session end, a dead
//! worker's drop guard included, is counted and sent by one function,
//! `Task::answer`, so `requests` equals the end counters plus
//! [`Scheduler::active`] by construction. The tests' seeded simulation
//! checks that, and the pools' block accounting, after every submit and
//! every round of random workloads.
//!
//! # Batched decoding
//!
//! A worker drains up to [`SchedulerConfig::max_batch`] runnable sessions
//! in one pop and advances them *together* through
//! [`StepDecoder::step_batch`], which turns the per-token projection
//! matvecs into one skinny GEMM per projection across the whole batch.
//! Because the batched kernel is bit-identical to stepping each session
//! alone (pinned by tests in `chipalign-nn` and `chipalign-tensor`),
//! batching changes throughput and nothing else: greedy transcripts are
//! byte-identical at every `max_batch`, a batch of one included.
//!
//! # Speculative sessions
//!
//! A request may carry a [`SpecDraft`] pairing: a cheap draft model plus a
//! per-round draft length. Greedy sessions then decode through a
//! [`chipalign_nn::SpecDecoder`] — the draft proposes, the target verifies
//! the proposals in one batched forward, and the longest agreeing prefix
//! is accepted — with output bytes identical to plain decoding *by
//! construction*. The scheduler treats a speculative session like any
//! other: it occupies one admission slot, rotates through the same slices,
//! and surrenders one token per `step` call (extra accepted tokens stay
//! buffered inside the decoder). In batched slices, speculative members
//! advance individually under their own panic guard while plain
//! batch-mates share the joint batched step. A panicking draft disables
//! speculation for that session only, with no transcript change.
//!
//! # Chunked prefill and shared-prefix reuse
//!
//! A session prefills at most `PREFILL_CHUNK` (32) tokens per slice and
//! rotates until its prompt window is in the cache, so a long prompt never
//! pins a worker for more than one chunk — short sessions behind it keep
//! decoding (the head-of-line fix, pinned by a test). Deferred
//! context-window slides replay through the same chunked path. Before
//! prefilling at all, the scheduler probes a `PrefixCache` with the prompt
//! window: on a longest-match hit the session adopts a forked KV cache of
//! the shared prefix and only prefills the remainder. Both mechanisms are
//! bit-transparent (equivalence tests pin this).
//!
//! Admission control is a hard bound on sessions in flight (queued +
//! running): beyond it, [`Scheduler::submit`] fails fast with
//! [`ServeError::Overloaded`]. Pooled sessions (a [`KvPool`] attached to
//! the request) that pass that bound are then admitted by *free blocks*:
//! prefix-cache snapshots whose eviction returns a block to that pool are
//! evicted LRU-first (counted in `pool_evictions`), and a session that
//! still does not fit is rejected with [`ServeError::PoolSaturated`] — the
//! same overloaded wire class, so the router spills it.
//! [`Scheduler::shutdown`] stops admissions; workers then drain every
//! queued session to completion before exiting, which is what makes server
//! shutdown graceful. A scheduler dropped without [`Scheduler::join`]
//! aborts instead: every admitted session is answered `ShuttingDown` at
//! its next round boundary.
//!
//! # Fault tolerance
//!
//! Every decode step runs under [`std::panic::catch_unwind`], so a panic
//! inside one session cancels *that* session with a structured
//! [`ServeError::WorkerPanic`] while the worker moves on. A step that
//! fails without panicking ends nobody: the decoder keeps the token it
//! chose as pending input, and the member's next prefill chunk feeds it
//! under its own guard, so an error ends only the session it belongs
//! to. The decoder owns the transcript; an answer reads it. A panic that
//! escapes the slice (the worker loop itself dying) is caught one level up
//! and the worker re-enters its loop; the sessions it was holding are
//! answered by their drop guard, never left hanging. A tick-based
//! *watchdog* cancels a session that stays alive but makes no progress for
//! `STALL_SLICES` (32) consecutive slices with [`ServeError::Stalled`]
//! (the `deadline_exceeded` wire code); counting slices, not seconds,
//! keeps it deterministic under test.

use std::collections::VecDeque;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use chipalign_nn::generate::{GenerateConfig, StepDecoder};
use chipalign_nn::{KvPool, SpecDecoder, TinyLm};

use crate::metrics::{Counter, Hist, Metrics};
use crate::prefix::{self, PrefixCache};
use crate::protocol::FinishReason;
use crate::ServeError;

/// How many times a dead worker re-enters its loop before giving up and
/// letting the thread exit (a backstop against a deterministic panic on
/// the pop path itself looping forever).
const MAX_RESPAWNS: u32 = 8;

/// Consecutive scheduler slices a session may spend making zero token
/// progress before the watchdog cancels it with a
/// `deadline_exceeded`-class error. The unit is slices, not seconds, so
/// watchdog behaviour is deterministic in tests.
const STALL_SLICES: u64 = 32;

/// Most prompt (or window-slide replay) tokens prefilled per scheduling
/// slice. A prompt longer than this rotates through the queue between
/// chunks, so long prompts cannot head-of-line-block other sessions'
/// decode slices. One chunk is one block of `KvCache::forward_rows`
/// (`tune::GEMM_SKINNY_M_MAX` rows). Chunking never changes output bytes.
const PREFILL_CHUNK: usize = 32;

/// Most decode rounds (one token per member each) in a scheduling slice
/// before its sessions rotate to the back of the queue. Smaller = fairer,
/// larger = less queue churn. A slice ends early, after at least one
/// round, when a session waits in the queue and the batch has a free
/// slot; a member is answered the round it ends, whatever this bound.
const SLICE_ROUNDS: usize = 8;

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads decoding sessions in parallel. They share the one
    /// process-wide compute pool that splits each large projection across
    /// the cores; a worker whose projection finds the pool busy with
    /// another worker's runs it inline, with the same bits.
    pub workers: usize,
    /// Hard bound on sessions in flight (queued + running); submissions
    /// beyond it are rejected with `Overloaded`.
    pub max_sessions: usize,
    /// Most sessions a worker advances together per slice. Larger values
    /// amortize weight traversal across sessions via the skinny-GEMM
    /// decode path without changing any output byte. Clamped at start-up
    /// to `[1, GEMM_SKINNY_M_MAX]`, so a batched step is one block of
    /// `KvCache::forward_rows`: one tile call and one weight sweep per
    /// projection for the whole batch. (Output bytes would not change past
    /// it either; a larger batch would only be cut into more sweeps.)
    pub max_batch: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(4)
                .min(8),
            // Sessions share one model allocation (`Arc<TinyLm>` inside
            // every KV cache), so the per-session footprint is just the
            // cache itself — in-flight capacity can sit well above the old
            // weights-per-session bound.
            max_sessions: 256,
            max_batch: 8,
        }
    }
}

/// A speculative-decoding pairing attached to a session: the cheap
/// proposer plus how many tokens it drafts per round.
#[derive(Debug, Clone)]
pub struct SpecDraft {
    /// The draft model. Its vocabulary must match the session model's
    /// (enforced when the decoder is built).
    pub model: Arc<TinyLm>,
    /// Tokens drafted per round, in `[1, chipalign_nn::SPEC_K_MAX]`.
    pub k: usize,
}

/// One admitted generation request.
#[derive(Debug, Clone)]
pub struct SessionRequest {
    /// The model to decode with.
    pub model: Arc<TinyLm>,
    /// Prompt token ids (non-empty).
    pub prompt: Vec<u32>,
    /// Decoding configuration (validated at prefill).
    pub cfg: GenerateConfig,
    /// Absolute deadline; swept at every round boundary.
    pub deadline: Option<Instant>,
    /// Free-form session label (the server passes the canonical model
    /// key); used to scope injected faults to specific sessions in chaos
    /// tests.
    pub tag: String,
    /// Shared KV pool backing this session's cache. `None` decodes on the
    /// cache's own private pool (library and test use); the server always
    /// attaches the model's pool. With a shared pool, admission also
    /// requires enough free blocks for the prompt window — evicting
    /// reusable prefix snapshots in that pool first — and rejects with
    /// [`ServeError::PoolSaturated`] otherwise.
    pub pool: Option<Arc<KvPool>>,
    /// Speculative draft pairing. `None` decodes plainly; with a draft,
    /// greedy sessions wrap their decoder in a [`SpecDecoder`] — identical
    /// output bytes, fewer target forwards when the draft agrees.
    pub draft: Option<SpecDraft>,
}

/// A finished session's payload.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The new tokens, in order.
    pub tokens: Vec<u32>,
    /// Why decoding stopped.
    pub(crate) finish: FinishReason,
    /// Microseconds between admission and the first decode slice.
    pub queue_us: u64,
    /// Microseconds between admission and completion.
    pub(crate) total_us: u64,
}

/// What a worker sends back when a session leaves the system.
pub type SessionOutcome = Result<SessionResult, ServeError>;

/// A session's live decoding state: a plain step decoder, or one wrapped
/// in a [`SpecDecoder`] when the request carried a draft pairing. Slices
/// advance `Plain` members jointly through `step_batch` and `Spec` members
/// individually — a speculative round is per-session work.
// Boxed once in `TaskState::Live`; boxing a variant too would put a second
// indirection on every decode step.
#[allow(clippy::large_enum_variant)]
enum SessionDecoder {
    Plain(StepDecoder),
    Spec(SpecDecoder),
}

impl SessionDecoder {
    fn target(&self) -> &StepDecoder {
        match self {
            SessionDecoder::Plain(d) => d,
            SessionDecoder::Spec(s) => s.target(),
        }
    }

    fn target_mut(&mut self) -> &mut StepDecoder {
        match self {
            SessionDecoder::Plain(d) => d,
            SessionDecoder::Spec(s) => s.target_mut(),
        }
    }

    /// Whether the session has handed out its last token.
    fn is_done(&self) -> bool {
        match self {
            SessionDecoder::Plain(d) => d.is_done(),
            SessionDecoder::Spec(s) => s.is_done(),
        }
    }
}

enum TaskState {
    /// Prompt not yet prefilled (the decoder is built on a worker, not on
    /// the submitting connection thread).
    Pending(SessionRequest),
    /// Mid-prefill or mid-generation; the decoder knows which. Boxed: the
    /// decoder is several times the size of a pending request, and a
    /// queued task is moved on every pop.
    Live(Box<SessionDecoder>),
    /// Answered: the decoder, and every KV block it held, is gone.
    Ended,
}

struct Task {
    state: TaskState,
    /// Session label for fault-rule matching (see [`SessionRequest::tag`]).
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    tag: String,
    /// Absolute deadline ([`SessionRequest::deadline`]), compared by the
    /// round-boundary sweep only.
    deadline: Option<Instant>,
    /// Taken by [`Task::answer`]: a session is answered at most once.
    reply: Option<Sender<SessionOutcome>>,
    admitted: Instant,
    /// Admission to the slice that built the decoder.
    queue_us: u64,
    /// Consecutive scheduled slices with zero token progress.
    stalled_slices: u64,
    /// Shared in-flight counter, held so the drop guard can release the
    /// admission slot even when the task dies with its worker.
    active: Arc<AtomicUsize>,
    /// Held so the drop guard can count the session it answers.
    metrics: Arc<Metrics>,
}

impl Task {
    fn decoder_mut(&mut self) -> Option<&mut SessionDecoder> {
        match &mut self.state {
            TaskState::Live(d) => Some(d),
            _ => None,
        }
    }

    /// Drains a speculative session's counters into the metrics core each
    /// time it leaves a slice, requeued or answered, so snapshot readers
    /// see acceptance counts grow while a session is still streaming.
    fn flush_spec_stats(&mut self) {
        let Some(SessionDecoder::Spec(s)) = self.decoder_mut() else {
            return;
        };
        let stats = s.take_stats();
        let m = &self.metrics;
        m.add(Counter::DraftTokensProposed, stats.proposed);
        m.add(Counter::AcceptedDraftTokens, stats.accepted);
        m.add(Counter::SpecFallbacks, stats.fallbacks);
    }

    /// Tokens committed and positions cached: the watchdog counts a slice
    /// that changes either as progress.
    fn progress(&self) -> (usize, usize) {
        match &self.state {
            TaskState::Live(d) => (d.target().emitted(), d.target().cache().len()),
            _ => (0, 0),
        }
    }

    /// The payload of a session whose decoder reported completion, as of
    /// the round boundary `now` that answers it.
    fn result(&mut self, now: Instant) -> SessionResult {
        let target = self.decoder_mut().map(|d| d.target());
        let eos = target.is_some_and(StepDecoder::stopped_at_eos);
        SessionResult {
            tokens: target.map_or_else(Vec::new, |t| t.generated().to_vec()),
            finish: if eos {
                FinishReason::Eos
            } else {
                FinishReason::Length
            },
            queue_us: self.queue_us,
            total_us: micros(self.admitted, now),
        }
    }

    /// Every session end, the drop guard's included: drops the decoder
    /// (its KV blocks go back to the pool), counts the end under the one
    /// counter its outcome names and releases the admission slot, then
    /// sends the outcome, so a caller holding its reply already sees both.
    /// A second call does nothing.
    fn answer(&mut self, outcome: SessionOutcome) {
        let Some(reply) = self.reply.take() else {
            return;
        };
        self.flush_spec_stats();
        self.state = TaskState::Ended;
        let counter = match &outcome {
            Ok(result) => {
                self.metrics
                    .add(Counter::TokensOut, result.tokens.len() as u64);
                self.metrics.observe(Hist::Latency, result.total_us);
                Counter::Completed
            }
            Err(ServeError::DeadlineExceeded { .. }) => Counter::DeadlineExceeded,
            Err(ServeError::Stalled { .. }) => Counter::WatchdogCancels,
            Err(ServeError::WorkerPanic { .. }) => Counter::PanickedSessions,
            // Aborted: the session was turned away, not broken.
            Err(ServeError::ShuttingDown) => Counter::RejectedShutdown,
            Err(_) => Counter::Failed,
        };
        self.metrics.add(counter, 1);
        self.active.fetch_sub(1, Ordering::SeqCst);
        // The receiver may have given up (client gone); that's not an error.
        let _ = reply.send(outcome);
    }
}

impl Drop for Task {
    /// Last-resort cleanup: a task dropped unanswered — its worker thread
    /// died mid-slice — still answers its client with a structured error
    /// instead of a hung channel, and releases its admission slot.
    fn drop(&mut self) {
        if self.reply.is_some() {
            self.answer(Err(ServeError::WorkerPanic {
                detail: "session lost: worker died mid-slice".to_string(),
            }));
        }
    }
}

struct Inner {
    cfg: SchedulerConfig,
    queue: Mutex<VecDeque<Task>>,
    available: Condvar,
    /// Sessions in flight: queued + currently on a worker.
    active: Arc<AtomicUsize>,
    draining: AtomicBool,
    /// Hard-stop flag ([`Scheduler::abort`]): workers exit without
    /// draining the queue, and the next sweep of every running slice
    /// answers its members `ShuttingDown`.
    aborting: AtomicBool,
    metrics: Arc<Metrics>,
    /// Shared-prefix KV cache, probed at first dequeue and fed with every
    /// freshly prefilled prompt window.
    prefix: PrefixCache,
}

/// The scheduler: a run queue plus its worker pool.
pub struct Scheduler {
    inner: Arc<Inner>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Scheduler({} workers, {} active)",
            self.inner.cfg.workers,
            self.inner.active.load(Ordering::Relaxed)
        )
    }
}

/// Locks the run queue, recovering from poisoning. Decoding happens
/// outside this lock, so a session panic can only interrupt plain queue
/// operations that never leave the deque in a torn state — recovering the
/// guard is sound and keeps one poisoned session from wedging the pool.
fn lock_queue(inner: &Inner) -> MutexGuard<'_, VecDeque<Task>> {
    inner.queue.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Inner {
    fn new(cfg: SchedulerConfig, metrics: Arc<Metrics>) -> Inner {
        Inner {
            cfg: SchedulerConfig {
                workers: cfg.workers.max(1),
                max_sessions: cfg.max_sessions.max(1),
                max_batch: cfg
                    .max_batch
                    .clamp(1, chipalign_tensor::tune::GEMM_SKINNY_M_MAX),
            },
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            active: Arc::new(AtomicUsize::new(0)),
            draining: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            metrics,
            prefix: PrefixCache::new(prefix::MAX_ENTRIES, prefix::MAX_TOTAL_BYTES),
        }
    }

    /// [`Scheduler::submit`] at time `now`, the session's admission stamp.
    fn submit(
        &self,
        req: SessionRequest,
        now: Instant,
    ) -> Result<Receiver<SessionOutcome>, ServeError> {
        self.metrics.add(Counter::Requests, 1);
        if self.draining.load(Ordering::SeqCst) {
            self.metrics.add(Counter::RejectedShutdown, 1);
            return Err(ServeError::ShuttingDown);
        }
        // Reserve a slot atomically so concurrent submissions cannot
        // overshoot the bound. The slot comes first: a request the bound
        // refuses must not cost the prefix cache a snapshot.
        let capacity = self.cfg.max_sessions;
        if self
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < capacity).then_some(n + 1)
            })
            .is_err()
        {
            self.metrics.add(Counter::RejectedOverload, 1);
            return Err(ServeError::Overloaded {
                active: self.active.load(Ordering::SeqCst),
                capacity,
            });
        }
        // Block-granular admission for pooled sessions: the prompt window
        // must be coverable by free blocks. Cached prefix snapshots in that
        // pool are reclaimable — evict them LRU-first until the session fits
        // or none left would free a block. (Blocks are allocated lazily during prefill, so
        // this check is a capacity gate, not a reservation; mid-decode
        // growth past the pool still fails the session with a structured
        // `PoolExhausted`, which also maps to the overloaded wire code.)
        if let Some(pool) = &req.pool {
            let window = req.prompt.len().min(req.model.arch().max_seq_len);
            let needed = pool.blocks_for(window);
            while pool.blocks_free() < needed && self.prefix.evict_one_in(pool) {
                self.metrics.add(Counter::PoolEvictions, 1);
            }
            let free = pool.blocks_free();
            if free < needed {
                self.active.fetch_sub(1, Ordering::SeqCst);
                self.metrics.add(Counter::RejectedOverload, 1);
                return Err(ServeError::PoolSaturated { needed, free });
            }
        }
        self.metrics
            .add(Counter::PromptTokens, req.prompt.len() as u64);
        let (tx, rx) = std::sync::mpsc::channel();
        let task = Task {
            tag: req.tag.clone(),
            deadline: req.deadline,
            state: TaskState::Pending(req),
            reply: Some(tx),
            admitted: now,
            queue_us: 0,
            stalled_slices: 0,
            active: Arc::clone(&self.active),
            metrics: Arc::clone(&self.metrics),
        };
        lock_queue(self).push_back(task);
        self.available.notify_one();
        Ok(rx)
    }

    /// Waits for work, then takes up to `max_batch` sessions off the head
    /// of the queue: everything taken advances together as one slice.
    /// `None` tells a worker to exit: at once after an abort, and once the
    /// queue is empty in a drain.
    fn pop(&self) -> Option<Vec<Task>> {
        let mut queue = lock_queue(self);
        loop {
            if self.aborting.load(Ordering::SeqCst) {
                return None;
            }
            if !queue.is_empty() {
                let take = self.cfg.max_batch.min(queue.len());
                return Some(queue.drain(..take).collect());
            }
            if self.draining.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .available
                .wait(queue)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Answers every queued session `ShuttingDown`.
    fn turn_away_queued(&self) {
        let queued: Vec<Task> = lock_queue(self).drain(..).collect();
        for mut task in queued {
            task.answer(Err(ServeError::ShuttingDown));
        }
    }
}

impl Scheduler {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(cfg: SchedulerConfig, metrics: Arc<Metrics>) -> Self {
        #[cfg(feature = "fault-inject")]
        quiet_worker_panics();
        let inner = Arc::new(Inner::new(cfg, metrics));
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("chipalign-serve-worker-{i}"))
                    .spawn(move || worker_main(&inner))
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler {
            inner,
            workers: Mutex::new(workers),
        }
    }

    /// Sessions in flight (queued + running).
    #[must_use]
    pub fn active(&self) -> usize {
        self.inner.active.load(Ordering::SeqCst)
    }

    /// Admits a session, returning the channel its outcome will arrive on.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::ShuttingDown`] once draining has begun and
    /// [`ServeError::Overloaded`] when the in-flight bound is reached; both
    /// fail fast without queueing.
    pub fn submit(&self, req: SessionRequest) -> Result<Receiver<SessionOutcome>, ServeError> {
        self.inner.submit(req, Instant::now())
    }

    /// Stops admitting new sessions. Already-admitted sessions keep
    /// decoding until they finish.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
    }

    /// Hard stop, the opposite of the graceful drain: stops admissions
    /// *and* answers every admitted session with a structured, retryable
    /// [`ServeError::ShuttingDown`] — queued sessions here, sessions on a
    /// worker at their slice's next round boundary. This models a replica
    /// being killed (the fleet chaos suite takes replicas down mid-decode
    /// with it); no session is left with silence or a truncated transcript.
    pub(crate) fn abort(&self) {
        self.inner.aborting.store(true, Ordering::SeqCst);
        self.shutdown();
        self.inner.turn_away_queued();
    }

    /// Initiates shutdown and blocks until every worker has drained the
    /// queue and exited. After an `Scheduler::abort`, workers exit
    /// without draining; any session they requeued on the way out is
    /// answered here with `ShuttingDown` so no admitted session is ever
    /// left unanswered.
    pub fn join(&self) {
        self.shutdown();
        let handles: Vec<JoinHandle<()>> = self
            .workers
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
        // Graceful drains leave the queue empty; only the abort path has
        // leftovers.
        self.inner.turn_away_queued();
    }
}

impl Drop for Scheduler {
    /// Aborts, then joins: a scheduler dropped without [`Scheduler::join`]
    /// (a test that panics mid-session, say) answers every admitted
    /// session `ShuttingDown` within a round, not after its full budget.
    fn drop(&mut self) {
        self.abort();
        self.join();
    }
}

/// Worker thread entry point: re-enters the pop/decode loop if it dies
/// from a panic that escaped the per-slice guard, so one bad pop doesn't
/// permanently shrink the pool.
fn worker_main(inner: &Inner) {
    let mut respawns = 0u32;
    loop {
        match std::panic::catch_unwind(AssertUnwindSafe(|| worker_loop(inner))) {
            Ok(()) => return, // clean drain
            Err(_) => {
                inner.metrics.add(Counter::WorkersRespawned, 1);
                respawns += 1;
                if respawns > MAX_RESPAWNS {
                    return;
                }
            }
        }
    }
}

/// The worker's whole job: pop a batch, then step its slice with the wall
/// clock until the slice ends.
fn worker_loop(inner: &Inner) {
    while let Some(batch) = inner.pop() {
        // Panic *outside* the slice guard: kills this worker_loop call
        // outright. The drop guard of every task in the batch reports its
        // session; the respawn path in worker_main restores pool capacity.
        #[cfg(feature = "fault-inject")]
        if batch
            .iter()
            .any(|t| crate::faults::should_fire(crate::faults::Site::WorkerDeath, &t.tag))
        {
            panic!("injected worker death");
        }
        let mut slice = Slice::new(inner, batch);
        while slice.step(inner, Instant::now()) {}
    }
}

/// One member of a slice: the task plus what this slice has seen of it.
struct Member {
    task: Task,
    /// [`Task::progress`] at slice start, for the zero-progress watchdog.
    before: (usize, usize),
    /// Injected stall: sit out this slice, then take a watchdog tick.
    stalled: bool,
    end: MemberEnd,
}

/// Where a slice member stands.
enum MemberEnd {
    /// Still decoding: stays in the slice, and requeues at its end.
    Live,
    /// Committed its last token; answered at the next round boundary.
    Done,
    /// Cancelled with a structured error; answered at the next boundary.
    Failed(ServeError),
}

impl Member {
    /// The member's decoder if it decodes this round: still live, not
    /// stalled, and its prompt window in the cache.
    fn runnable(&mut self) -> Option<&mut SessionDecoder> {
        if self.stalled || !matches!(self.end, MemberEnd::Live) {
            return None;
        }
        self.task
            .decoder_mut()
            .filter(|d| !d.target().is_prefilling())
    }

    /// Records the outcome of a decode step the member took part in. A
    /// panic ends it. Any other error leaves its chosen token pending, for
    /// the next slice's prefill step to feed under its own guard. Either
    /// way it is done once it has handed out its last token.
    fn settle(&mut self, step: &Result<(), ServeError>) {
        if let Err(ServeError::WorkerPanic { detail }) = step {
            let detail = detail.clone();
            self.end = MemberEnd::Failed(ServeError::WorkerPanic { detail });
        } else if self.task.decoder_mut().is_some_and(|d| d.is_done()) {
            self.end = MemberEnd::Done;
        }
    }
}

/// A batch popped off the run queue, advanced by its caller one step at a
/// time (see the module docs): step 0 resolves decoders, step 1 runs at
/// most one prefill chunk per member, and every later step is one decode
/// round. No lock is held while decoding, so a panic cannot poison the
/// queue. Faults are *per member*: each resolution, prefill chunk and
/// speculative step runs under its own panic guard. Of the joint batched
/// step's failures, only a panic is batch-wide: it cannot be attributed
/// to one of several steppers, so it cancels them all. Any other error
/// ends nobody (see [`Member::settle`]).
struct Slice {
    members: Vec<Member>,
    /// Steps taken so far.
    steps: usize,
    /// When the prefill step began and how many chunks it ran, until the
    /// next boundary times them.
    prefill_timing: Option<(Instant, u64)>,
}

impl Slice {
    fn new(inner: &Inner, batch: Vec<Task>) -> Slice {
        inner.metrics.on_batch(batch.len());
        let members = batch
            .into_iter()
            .map(|task| Member {
                before: task.progress(),
                task,
                stalled: false,
                end: MemberEnd::Live,
            })
            .collect();
        Slice {
            members,
            steps: 0,
            prefill_timing: None,
        }
    }

    /// Runs one round boundary at time `now` — the sweep, then an answer
    /// for every member that ended since the previous boundary — and then
    /// the slice's next step of work. Returns false once the slice has
    /// ended: its survivors are back in the queue and nothing is left in
    /// it.
    fn step(&mut self, inner: &Inner, now: Instant) -> bool {
        if let Some((start, chunks)) = self.prefill_timing.take() {
            let per_chunk = micros(start, now) / chunks;
            for _ in 0..chunks {
                inner.metrics.observe(Hist::Prefill, per_chunk);
            }
        }
        self.sweep(inner, now);
        for mut m in self
            .members
            .extract_if(.., |m| !matches!(m.end, MemberEnd::Live))
        {
            let outcome = match m.end {
                MemberEnd::Failed(e) => Err(e),
                _ => Ok(m.task.result(now)),
            };
            m.task.answer(outcome);
        }
        match self.steps {
            0 => self.resolve(inner, now),
            1 => self.prefill(inner, now),
            _ => {
                if self.is_over(inner) {
                    self.end(inner);
                    return false;
                }
                self.decode_round(inner);
            }
        }
        self.steps += 1;
        true
    }

    /// The round-boundary sweep, and the one place a deadline is
    /// compared: after an abort every live member ends `ShuttingDown`,
    /// otherwise a member whose deadline has passed ends
    /// `DeadlineExceeded`.
    fn sweep(&mut self, inner: &Inner, now: Instant) {
        let aborting = inner.aborting.load(Ordering::SeqCst);
        for m in &mut self.members {
            if !matches!(m.end, MemberEnd::Live) {
                continue;
            }
            if aborting {
                m.end = MemberEnd::Failed(ServeError::ShuttingDown);
            } else if m.task.deadline.is_some_and(|d| now >= d) {
                m.end = MemberEnd::Failed(ServeError::DeadlineExceeded {
                    waited_ms: micros(m.task.admitted, now) / 1_000,
                });
            }
        }
    }

    /// Step 0: builds every newly popped member's decoder, each under its
    /// own guard.
    fn resolve(&mut self, inner: &Inner, now: Instant) {
        for m in &mut self.members {
            let resolved = guarded(inner, || {
                resolve(inner, &mut m.task, now)?;
                #[cfg(feature = "fault-inject")]
                {
                    use crate::faults::{should_fire, Site};
                    if should_fire(Site::WorkerPanic, &m.task.tag) {
                        panic!("injected worker panic");
                    }
                    m.stalled = should_fire(Site::SessionStall, &m.task.tag);
                }
                Ok(())
            });
            if let Err(e) = resolved {
                m.end = MemberEnd::Failed(e);
            }
        }
    }

    /// Step 1: members mid-prefill advance by one bounded chunk each,
    /// under their own guard. A member still prefilling afterwards sits
    /// out the decode rounds; its batch-mates decode while its prompt
    /// loads across slices.
    fn prefill(&mut self, inner: &Inner, now: Instant) {
        let mut chunks = 0;
        for m in &mut self.members {
            if m.stalled {
                continue;
            }
            let Some(decoder) = m.task.decoder_mut().filter(|d| d.target().is_prefilling()) else {
                continue;
            };
            match guarded(inner, || run_prefill_chunk(inner, decoder.target_mut())) {
                Err(e) => m.end = MemberEnd::Failed(e),
                Ok(()) => chunks += 1,
            }
        }
        if chunks > 0 {
            self.prefill_timing = Some((now, chunks));
        }
    }

    /// Whether the slice ends at this boundary: after `SLICE_ROUNDS`
    /// rounds, when no member can decode, or — after at least one round —
    /// when a session waits in the queue and the batch has a free slot, so
    /// the survivors requeue behind it and its first prefill chunk runs in
    /// the very next slice.
    fn is_over(&mut self, inner: &Inner) -> bool {
        let rounds = self.steps - 2;
        rounds == SLICE_ROUNDS
            || !self.members.iter_mut().any(|m| m.runnable().is_some())
            || (rounds > 0
                && self.members.len() < inner.cfg.max_batch
                && !lock_queue(inner).is_empty())
    }

    /// One decode round. Live, non-stalled, fully prefilled *plain*
    /// members advance together through one batched step; *speculative*
    /// members advance one token each under their own guard (a
    /// speculative round is per-session work, so its panics are
    /// attributable). A member whose step defers a window slide, or fails
    /// without panicking, turns `is_prefilling` on and drops out of later
    /// rounds; its pending input is chunked on subsequent slices like any
    /// other prefill.
    fn decode_round(&mut self, inner: &Inner) {
        for m in &mut self.members {
            let Some(SessionDecoder::Spec(spec)) = m.runnable() else {
                continue;
            };
            let step = guarded(inner, || spec.step().map(drop).map_err(ServeError::from));
            m.settle(&step);
        }
        let mut stepped: Vec<usize> = Vec::new();
        let mut steppers: Vec<&mut StepDecoder> = Vec::new();
        for (i, m) in self.members.iter_mut().enumerate() {
            if let Some(SessionDecoder::Plain(d)) = m.runnable() {
                stepped.push(i);
                steppers.push(d);
            }
        }
        if steppers.is_empty() {
            return;
        }
        let round = guarded(inner, || {
            StepDecoder::step_batch(&mut steppers)
                .map(drop)
                .map_err(ServeError::from)
        });
        drop(steppers);
        for i in stepped {
            self.members[i].settle(&round);
        }
    }

    /// Ends the slice: the watchdog ticks every member whose decoder
    /// neither committed a token nor cached a position (injected stalls
    /// always; a speculative member that only handed out buffered tokens
    /// too, at most `SPEC_K_MAX` < `STALL_SLICES` slices in a row), and the
    /// survivors requeue in their batch order.
    fn end(&mut self, inner: &Inner) {
        for mut m in self.members.drain(..) {
            if m.task.progress() != m.before {
                m.task.stalled_slices = 0;
            } else {
                m.task.stalled_slices += 1;
                if m.task.stalled_slices >= STALL_SLICES {
                    let slices = m.task.stalled_slices;
                    m.task.answer(Err(ServeError::Stalled { slices }));
                    continue;
                }
            }
            m.task.flush_spec_stats();
            lock_queue(inner).push_back(m.task);
            inner.available.notify_one();
        }
    }
}

/// Builds a pending session's decoder at its first slice: records the
/// queue wait, builds an un-prefilled chunked decoder, and probes the
/// shared-prefix cache — on a hit the session adopts a forked KV cache and
/// skips that much prefill. A live session passes through.
fn resolve(inner: &Inner, task: &mut Task, now: Instant) -> Result<(), ServeError> {
    let TaskState::Pending(req) = &task.state else {
        return Ok(());
    };
    task.queue_us = micros(task.admitted, now);
    inner.metrics.observe(Hist::QueueWait, task.queue_us);
    let mut decoder = match &req.pool {
        Some(pool) => StepDecoder::new_chunked_pooled(&req.model, &req.prompt, &req.cfg, pool)?,
        None => StepDecoder::new_chunked(&req.model, &req.prompt, &req.cfg)?,
    };
    // Probe the dtype bucket the session will decode at: a `#kv8` session
    // must never adopt an f32 snapshot (or the reverse) even though both
    // resolve to one model allocation.
    let dtype = decoder.cache().pool().dtype();
    if let Some((fork, _)) = inner
        .prefix
        .lookup(&req.model, dtype, decoder.pending_prefill())
    {
        // Adoption re-validates tokens and model identity; a mismatch
        // simply falls back to a cold prefill.
        if let Ok(adopted) = decoder.adopt_prefix(fork) {
            inner.metrics.add(Counter::PrefixHits, 1);
            inner
                .metrics
                .add(Counter::PrefixTokensReused, adopted as u64);
        }
    }
    let decoder = match &req.draft {
        Some(draft) => {
            #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
            let mut spec = SpecDecoder::new(decoder, &draft.model, draft.k)?;
            #[cfg(feature = "fault-inject")]
            {
                let tag = task.tag.clone();
                spec.set_draft_probe(Box::new(move || {
                    if crate::faults::should_fire(crate::faults::Site::SpecDraft, &tag) {
                        panic!("injected draft panic");
                    }
                }));
            }
            SessionDecoder::Spec(spec)
        }
        None => SessionDecoder::Plain(decoder),
    };
    task.state = TaskState::Live(Box::new(decoder));
    Ok(())
}

/// Advances a mid-prefill decoder by one bounded chunk. On the chunk that
/// completes a session's *initial* prefill (nothing emitted yet), the
/// freshly filled prompt window is donated to the shared-prefix cache for
/// future sessions.
fn run_prefill_chunk(inner: &Inner, decoder: &mut StepDecoder) -> Result<(), ServeError> {
    decoder.prefill_pending(PREFILL_CHUNK)?;
    inner.metrics.add(Counter::PrefillChunks, 1);
    if !decoder.is_prefilling() && decoder.emitted() == 0 {
        inner.prefix.insert(decoder.cache());
    }
    Ok(())
}

/// Runs one per-session (or per-batch) step under a panic guard: a panic
/// is counted in `worker_panics` and comes back as a structured
/// [`ServeError::WorkerPanic`] carrying its message.
fn guarded<T>(
    inner: &Inner,
    step: impl FnOnce() -> Result<T, ServeError>,
) -> Result<T, ServeError> {
    std::panic::catch_unwind(AssertUnwindSafe(step)).unwrap_or_else(|payload| {
        inner.metrics.add(Counter::WorkerPanics, 1);
        Err(ServeError::WorkerPanic {
            detail: panic_detail(payload.as_ref()),
        })
    })
}

/// Renders a caught panic payload for the structured error (panics carry
/// `&str` or `String` in practice; anything else gets a placeholder).
fn panic_detail(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Installs (once) a panic hook that suppresses the default stderr
/// backtrace for panics on scheduler worker threads — chaos tests inject
/// panics on purpose, and the structured error is the real signal.
#[cfg(feature = "fault-inject")]
fn quiet_worker_panics() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("chipalign-serve-worker-"));
            if !on_worker {
                previous(info);
            }
        }));
    });
}

/// Microseconds from `from` to `to`, zero if `to` is earlier.
fn micros(from: Instant, to: Instant) -> u64 {
    u64::try_from(to.saturating_duration_since(from).as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;
    use std::sync::mpsc::TryRecvError;
    use std::time::Duration;

    fn model() -> Arc<TinyLm> {
        let mut arch = ArchSpec::tiny("sched");
        arch.vocab_size = 99;
        Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(11)).expect("model"))
    }

    /// A model whose window holds a 100-token prompt plus its transcript,
    /// so a prompt spans several prefill chunks without a slide.
    fn roomy_model() -> Arc<TinyLm> {
        let mut arch = ArchSpec::tiny("roomy");
        arch.vocab_size = 99;
        arch.max_seq_len = 128;
        Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(12)).expect("model"))
    }

    fn greedy(max_new_tokens: usize) -> GenerateConfig {
        GenerateConfig {
            max_new_tokens,
            stop_at_eos: false,
            ..GenerateConfig::default()
        }
    }

    fn request(model: &Arc<TinyLm>, budget: usize, deadline: Option<Instant>) -> SessionRequest {
        SessionRequest {
            model: Arc::clone(model),
            prompt: vec![5, 6, 7],
            cfg: greedy(budget),
            deadline,
            tag: "test".to_string(),
            pool: None,
            draft: None,
        }
    }

    fn reference(model: &Arc<TinyLm>, prompt: &[u32], budget: usize) -> Vec<u32> {
        chipalign_nn::generate::generate(model, prompt, &greedy(budget)).expect("reference")
    }

    /// Batches of one: each slice advances a single session, the way the
    /// pre-batching tests were written.
    fn config(workers: usize, max_sessions: usize) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            max_sessions,
            max_batch: 1,
        }
    }

    fn batched(workers: usize, max_batch: usize) -> SchedulerConfig {
        SchedulerConfig {
            max_batch,
            ..config(workers, 16)
        }
    }

    /// A scheduler with no worker threads: the test steps its slices on
    /// its own thread with a [`Clock`].
    fn stepped(cfg: SchedulerConfig) -> Scheduler {
        Scheduler {
            inner: Arc::new(Inner::new(cfg, Arc::new(Metrics::new()))),
            workers: Mutex::new(Vec::new()),
        }
    }

    /// A virtual clock driving a stepped scheduler: the time every submit
    /// and every step is stamped with, plus the slice being stepped.
    struct Clock {
        now: Instant,
        slice: Option<Slice>,
    }

    impl Clock {
        fn new() -> Clock {
            Clock {
                now: Instant::now(),
                slice: None,
            }
        }

        fn submit(
            &self,
            s: &Scheduler,
            req: SessionRequest,
        ) -> Result<Receiver<SessionOutcome>, ServeError> {
            s.inner.submit(req, self.now)
        }

        /// One step of the running slice, popping a batch first when none
        /// runs, exactly as a worker would. False when there is nothing to
        /// step: no slice and an empty queue (or an abort).
        fn step(&mut self, s: &Scheduler) -> bool {
            let inner = &s.inner;
            if self.slice.is_none() && !lock_queue(inner).is_empty() {
                self.slice = inner.pop().map(|batch| Slice::new(inner, batch));
            }
            let Some(slice) = &mut self.slice else {
                return false;
            };
            if !slice.step(inner, self.now) {
                self.slice = None;
            }
            true
        }

        /// Steps until every admitted session is answered.
        fn run(&mut self, s: &Scheduler) {
            while self.step(s) {}
        }

        /// Steps until `rx` holds an outcome, and returns it.
        fn until_answered(
            &mut self,
            s: &Scheduler,
            rx: &Receiver<SessionOutcome>,
        ) -> SessionOutcome {
            loop {
                if let Ok(outcome) = rx.try_recv() {
                    return outcome;
                }
                assert!(self.step(s), "nothing left to step before the answer");
            }
        }

        fn members(&self) -> usize {
            self.slice.as_ref().map_or(0, |slice| slice.members.len())
        }
    }

    #[test]
    fn sessions_complete_and_match_generate() {
        let m = model();
        let scheduler = Scheduler::start(config(2, 8), Arc::new(Metrics::new()));
        let rx = scheduler.submit(request(&m, 24, None)).expect("admit");
        let result = rx.recv().expect("outcome").expect("ok");
        assert_eq!(result.tokens.len(), 24);
        assert_eq!(result.finish, FinishReason::Length);
        assert_eq!(result.tokens, reference(&m, &[5, 6, 7], 24));
        scheduler.join();
    }

    #[test]
    fn many_interleaved_sessions_each_match_generate() {
        let m = model();
        let scheduler = Scheduler::start(config(2, 16), Arc::new(Metrics::new()));
        // Mixed lengths force interleaving across slices.
        let budgets = [3usize, 17, 9, 40, 1, 25];
        let receivers: Vec<_> = budgets
            .iter()
            .map(|&b| scheduler.submit(request(&m, b, None)).expect("admit"))
            .collect();
        for (rx, &budget) in receivers.into_iter().zip(&budgets) {
            let result = rx.recv().expect("outcome").expect("ok");
            assert_eq!(
                result.tokens,
                reference(&m, &[5, 6, 7], budget),
                "budget {budget}"
            );
        }
        assert_eq!(scheduler.active(), 0);
        scheduler.join();
    }

    #[test]
    fn batched_sessions_complete_and_match_generate() {
        let m = model();
        // Six sessions queued before the first pop, four to a batch: the
        // first slice is a real batch, and rotation keeps forming more.
        let scheduler = stepped(batched(1, 4));
        let mut clock = Clock::new();
        let budgets = [3usize, 17, 9, 40, 1, 25];
        let receivers: Vec<_> = budgets
            .iter()
            .map(|&b| {
                clock
                    .submit(&scheduler, request(&m, b, None))
                    .expect("admit")
            })
            .collect();
        clock.run(&scheduler);
        for (rx, &budget) in receivers.into_iter().zip(&budgets) {
            let result = rx.try_recv().expect("outcome").expect("ok");
            assert_eq!(
                result.tokens,
                reference(&m, &[5, 6, 7], budget),
                "budget {budget}"
            );
        }
        let snap = scheduler.inner.metrics.snapshot();
        assert!(snap.batched_slices > 0);
        assert_eq!(
            snap.batch_occupancy.iter().sum::<u64>(),
            snap.batch_occupancy[1] + snap.batched_slices,
            "every dequeued slice is either single-session or batched"
        );
        assert_eq!(scheduler.active(), 0);
    }

    #[test]
    fn max_batch_is_clamped_to_the_skinny_gemm_tile() {
        let scheduler = stepped(SchedulerConfig {
            max_batch: 10_000,
            ..SchedulerConfig::default()
        });
        assert_eq!(
            scheduler.inner.cfg.max_batch,
            chipalign_tensor::tune::GEMM_SKINNY_M_MAX
        );
    }

    #[test]
    fn admission_bound_rejects_fast() {
        let m = model();
        let scheduler = stepped(config(1, 2));
        let mut clock = Clock::new();
        // Two endless sessions occupy both slots until their deadline.
        let deadline = Some(clock.now + Duration::from_millis(10));
        let rx1 = clock
            .submit(&scheduler, request(&m, 1_000_000, deadline))
            .expect("one");
        let rx2 = clock
            .submit(&scheduler, request(&m, 1_000_000, deadline))
            .expect("two");
        for _ in 0..3 {
            assert!(clock.step(&scheduler));
        }
        let third = clock.submit(&scheduler, request(&m, 4, None));
        assert!(
            matches!(third, Err(ServeError::Overloaded { capacity: 2, .. })),
            "third submission must be rejected, got {third:?}"
        );
        // Past the deadline, the next boundary of each slice frees its slot.
        clock.now += Duration::from_millis(10);
        clock.run(&scheduler);
        for rx in [rx1, rx2] {
            assert!(matches!(
                rx.try_recv().expect("answered"),
                Err(ServeError::DeadlineExceeded { waited_ms: 10 })
            ));
        }
        assert_eq!(scheduler.active(), 0);
        assert_eq!(scheduler.inner.metrics.snapshot().rejected_overload, 1);
    }

    #[test]
    fn deadline_is_reported_as_such() {
        let m = model();
        let scheduler = stepped(config(1, 4));
        let mut clock = Clock::new();
        let deadline = Some(clock.now + Duration::from_millis(50));
        let rx = clock
            .submit(&scheduler, request(&m, 10_000_000, deadline))
            .expect("admit");
        // Resolve, prefill and three rounds, all before the deadline.
        for _ in 0..5 {
            assert!(clock.step(&scheduler));
        }
        assert_eq!(rx.try_recv().err(), Some(TryRecvError::Empty));
        // The first boundary at or past the deadline answers the session.
        clock.now += Duration::from_millis(50);
        assert!(clock.step(&scheduler));
        let outcome = rx.try_recv().expect("answered at that boundary");
        assert!(
            matches!(outcome, Err(ServeError::DeadlineExceeded { waited_ms: 50 })),
            "got {outcome:?}"
        );
        assert_eq!(scheduler.inner.metrics.snapshot().deadline_exceeded, 1);
        assert_eq!(scheduler.active(), 0);
    }

    #[test]
    fn expired_deadline_is_rejected_at_dequeue_before_any_prefill() {
        let m = model();
        let scheduler = stepped(config(1, 4));
        let mut clock = Clock::new();
        // The deadline passes while the session waits in the queue: the
        // sweep that opens its first slice must answer it without paying
        // for a single prefill chunk (the PR 5 queued-deadline leak had it
        // prefilling the whole prompt first).
        let rx = clock
            .submit(
                &scheduler,
                request(&m, 24, Some(clock.now + Duration::from_millis(10))),
            )
            .expect("admit");
        clock.now += Duration::from_millis(10);
        assert!(clock.step(&scheduler));
        let outcome = rx.try_recv().expect("answered at the first boundary");
        assert!(
            matches!(outcome, Err(ServeError::DeadlineExceeded { waited_ms: 10 })),
            "got {outcome:?}"
        );
        let snap = scheduler.inner.metrics.snapshot();
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(
            snap.prefill_chunks, 0,
            "no prefill work may be spent on a dead-on-arrival session"
        );
    }

    #[test]
    fn chunked_prefill_lets_short_sessions_overtake_a_long_prompt() {
        let m = roomy_model();
        // Batches of one and a prompt of several chunks: without chunking,
        // the long prompt's prefill would hold the only slice until it
        // finished and the short session (submitted second) would wait
        // behind it.
        let scheduler = stepped(config(1, 4));
        let mut clock = Clock::new();
        let long_prompt: Vec<u32> = (0..100u32).map(|i| 3 + (i * 7) % 90).collect();
        let chunks = long_prompt.len().div_ceil(PREFILL_CHUNK);
        assert!(chunks >= 2, "the long prompt must span several chunks");
        let long_rx = clock
            .submit(
                &scheduler,
                SessionRequest {
                    prompt: long_prompt.clone(),
                    ..request(&m, 8, None)
                },
            )
            .expect("admit long");
        let short_rx = clock
            .submit(&scheduler, request(&m, 4, None))
            .expect("admit short");
        let short = clock
            .until_answered(&scheduler, &short_rx)
            .expect("short ok");
        assert_eq!(long_rx.try_recv().err(), Some(TryRecvError::Empty));
        assert_eq!(
            scheduler.inner.metrics.snapshot().prefill_chunks,
            2,
            "the short session ran after one chunk of the long prompt, not all {chunks}"
        );
        assert_eq!(short.tokens, reference(&m, &[5, 6, 7], 4));
        clock.run(&scheduler);
        let long = long_rx.try_recv().expect("outcome").expect("ok");
        assert_eq!(long.tokens, reference(&m, &long_prompt, 8));
        assert_eq!(
            scheduler.inner.metrics.snapshot().prefill_chunks,
            chunks as u64 + 1
        );
    }

    #[test]
    fn repeated_prompt_hits_the_prefix_cache_with_identical_transcript() {
        let m = model();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 4), Arc::clone(&metrics));
        let first = scheduler
            .submit(request(&m, 12, None))
            .expect("admit")
            .recv()
            .expect("outcome")
            .expect("ok");
        let second = scheduler
            .submit(request(&m, 12, None))
            .expect("admit")
            .recv()
            .expect("outcome")
            .expect("ok");
        let reference = reference(&m, &[5, 6, 7], 12);
        assert_eq!(first.tokens, reference, "cold session matches generate()");
        assert_eq!(
            second.tokens, reference,
            "prefix-hit session is bit-identical"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.prefix_hits, 1, "second session must reuse the prefix");
        assert_eq!(
            snap.prefix_tokens_reused, 2,
            "a 3-token prompt donates its longest proper prefix (2 tokens)"
        );
        scheduler.join();
    }

    #[test]
    fn pooled_and_contiguous_sessions_mix_with_identical_transcripts() {
        use chipalign_nn::KvPoolConfig;
        let m = model();
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 256,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        // Batched slices whose members mix paged and contiguous KV storage.
        let scheduler = stepped(batched(1, 4));
        let mut clock = Clock::new();
        let budgets = [3usize, 17, 9, 40, 1, 25];
        let receivers: Vec<_> = budgets
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let pool = (i % 2 == 0).then(|| Arc::clone(&pool));
                clock
                    .submit(
                        &scheduler,
                        SessionRequest {
                            pool,
                            ..request(&m, b, None)
                        },
                    )
                    .expect("admit")
            })
            .collect();
        clock.run(&scheduler);
        for (rx, &budget) in receivers.into_iter().zip(&budgets) {
            let result = rx.try_recv().expect("outcome").expect("ok");
            assert_eq!(
                result.tokens,
                reference(&m, &[5, 6, 7], budget),
                "budget {budget} must be bit-identical"
            );
        }
        assert!(scheduler.inner.metrics.snapshot().batched_slices > 0);
        assert_eq!(scheduler.active(), 0);
    }

    #[test]
    fn pool_saturation_evicts_prefix_snapshots_then_rejects_as_overloaded() {
        use chipalign_nn::KvPoolConfig;
        let m = model();
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: 4,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 8), Arc::clone(&metrics));
        let pooled = |prompt: Vec<u32>| SessionRequest {
            prompt,
            ..SessionRequest {
                pool: Some(Arc::clone(&pool)),
                ..request(&m, 1, None)
            }
        };

        // Session 1 completes and donates its prefilled 3-token prompt
        // window, whose blocks stay aliased by the prefix cache after the
        // session dies (the decoder is dropped before the outcome is sent,
        // so the count below is deterministic).
        let first = scheduler.submit(pooled(vec![5, 6, 7])).expect("admit");
        first.recv().expect("outcome").expect("ok");
        assert_eq!(
            pool.blocks_in_use(),
            3,
            "only the donated prefix snapshot holds blocks"
        );

        // Session 2 needs all 4 blocks: admission must reclaim them by
        // evicting the cached snapshot rather than rejecting.
        let second = scheduler
            .submit(pooled(vec![9, 10, 11, 12]))
            .expect("admitted after eviction");
        let result = second.recv().expect("outcome").expect("ok");
        assert_eq!(result.tokens, reference(&m, &[9, 10, 11, 12], 1));
        assert_eq!(metrics.snapshot().pool_evictions, 1);

        // A prompt window no amount of eviction can cover is rejected with
        // the overloaded wire class, so clients back off and retry.
        let big: Vec<u32> = (0..9u32).map(|i| 5 + i).collect();
        let third = scheduler.submit(pooled(big));
        match third {
            Err(e @ ServeError::PoolSaturated { needed: 9, .. }) => {
                assert_eq!(e.code(), crate::protocol::ErrorCode::Overloaded);
            }
            other => panic!("expected pool saturation, got {other:?}"),
        }
        assert!(metrics.snapshot().rejected_overload >= 1);
        assert_eq!(scheduler.active(), 0);
        scheduler.join();
    }

    #[test]
    fn pool_pressure_evicts_only_snapshots_in_the_pressed_pool() {
        use chipalign_nn::{KvCache, KvPoolConfig};
        let small_pool = || {
            KvPool::new(KvPoolConfig {
                block_tokens: 1,
                max_blocks: 4,
                ..KvPoolConfig::default()
            })
            .expect("pool")
        };
        let (model_a, pool_a) = (model(), small_pool());
        let mut arch = ArchSpec::tiny("sched-b");
        arch.vocab_size = 99;
        let model_b = Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(12)).expect("model"));
        let pool_b = small_pool();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 8), Arc::clone(&metrics));
        let on = |m: &Arc<TinyLm>, pool: &Arc<KvPool>| SessionRequest {
            pool: Some(Arc::clone(pool)),
            ..request(m, 1, None)
        };

        // B's session ends and leaves its 3-token prompt cached in B's pool.
        let b = scheduler.submit(on(&model_b, &pool_b)).expect("admit");
        b.recv().expect("outcome").expect("ok");
        assert_eq!(pool_b.blocks_in_use(), 3);
        assert_eq!(scheduler.inner.prefix.entries(), 1);

        // A's pool is full: a live session's cache holds every block.
        let mut live = KvCache::new_paged(&model_a, &pool_a);
        live.prefill(&[5, 6, 7, 8]).expect("fills A's pool");
        assert_eq!(pool_a.blocks_free(), 0);

        // Dropping B's snapshot would free nothing in A's pool, so
        // admission must reject without touching it.
        match scheduler.submit(on(&model_a, &pool_a)) {
            Err(ServeError::PoolSaturated { needed: 3, free: 0 }) => {}
            other => panic!("expected pool saturation, got {other:?}"),
        }
        assert_eq!(pool_b.blocks_in_use(), 3, "B's snapshot survives");
        assert_eq!(scheduler.inner.prefix.entries(), 1);
        assert_eq!(metrics.snapshot().pool_evictions, 0);
        drop(live);
        scheduler.join();
    }

    #[test]
    fn pool_pressure_keeps_snapshots_that_would_free_no_block() {
        use chipalign_nn::{KvCache, KvPoolConfig};
        let m = model();
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: 4,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let scheduler = stepped(config(1, 8));

        // A live session holds three of the pool's four blocks, and the
        // prefix cache holds a snapshot aliasing all three.
        let mut live = KvCache::new_paged(&m, &pool);
        live.prefill(&[5, 6, 7]).expect("fits the pool");
        scheduler.inner.prefix.insert(&live);
        assert_eq!(scheduler.inner.prefix.entries(), 1);
        assert_eq!(pool.blocks_free(), 1);

        // Dropping the snapshot would free nothing, so admission must
        // reject without touching it.
        let pooled = SessionRequest {
            pool: Some(Arc::clone(&pool)),
            ..request(&m, 1, None)
        };
        match scheduler.submit(pooled) {
            Err(ServeError::PoolSaturated { needed: 3, free: 1 }) => {}
            other => panic!("expected pool saturation, got {other:?}"),
        }
        assert_eq!(scheduler.inner.prefix.entries(), 1, "the snapshot survives");
        assert_eq!(scheduler.inner.metrics.snapshot().pool_evictions, 0);
        drop(live);
    }

    #[test]
    fn a_full_scheduler_refuses_before_evicting_pool_snapshots() {
        use chipalign_nn::{KvCache, KvPoolConfig};
        let m = model();
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: 4,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let scheduler = stepped(config(1, 1));
        let clock = Clock::new();

        // A snapshot alone holds three of the pool's four blocks.
        let mut cache = KvCache::new_paged(&m, &pool);
        cache.prefill(&[5, 6, 7]).expect("fits the pool");
        scheduler.inner.prefix.insert(&cache);
        drop(cache);
        assert_eq!(pool.blocks_free(), 1);

        // An unpooled session holds the only slot.
        let held = clock
            .submit(&scheduler, request(&m, 10_000_000, None))
            .expect("admit");

        // The pooled request would fit after evicting the snapshot, but the
        // session bound refuses it first: the snapshot must survive.
        let pooled = SessionRequest {
            pool: Some(Arc::clone(&pool)),
            ..request(&m, 1, None)
        };
        match clock.submit(&scheduler, pooled) {
            Err(ServeError::Overloaded { capacity: 1, .. }) => {}
            other => panic!("expected the session bound, got {other:?}"),
        }
        let snap = scheduler.inner.metrics.snapshot();
        assert_eq!(snap.pool_evictions, 0);
        assert_eq!(snap.rejected_overload, 1, "one rejection, counted once");
        assert_eq!(pool.blocks_in_use(), 3, "the snapshot survives");
        scheduler.abort();
        assert!(matches!(held.try_recv(), Ok(Err(ServeError::ShuttingDown))));
        assert_eq!(scheduler.active(), 0);
    }

    #[test]
    fn lone_session_outgrowing_its_pool_keeps_its_own_error() {
        use chipalign_nn::{KvPoolConfig, NnError};
        let m = model();
        // Room for the 3-token prompt and one decoded position: the
        // second decode step needs a fifth block.
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: 4,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let scheduler = Scheduler::start(config(1, 8), Arc::new(Metrics::new()));
        let rx = scheduler
            .submit(SessionRequest {
                pool: Some(Arc::clone(&pool)),
                ..request(&m, 8, None)
            })
            .expect("admit");
        // The session owns its step's error: the structured pool error
        // (overloaded wire class, so clients back off).
        match rx.recv().expect("outcome") {
            Err(e @ ServeError::Nn(NnError::PoolExhausted { .. })) => {
                assert_eq!(e.code(), crate::protocol::ErrorCode::Overloaded);
            }
            other => panic!("expected mid-decode pool exhaustion, got {other:?}"),
        }
        scheduler.join();
    }

    #[test]
    fn a_joint_step_that_runs_the_pool_dry_ends_only_the_member_left_short() {
        use chipalign_nn::{KvPoolConfig, NnError};
        let m = model();
        // One-token blocks. Each session feeds its 3-token prompt and 7 of
        // its 8 tokens (the last is never fed): 10 blocks, 20 for both.
        // The pool is one short, so a joint decode step runs it dry.
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: 19,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let scheduler = stepped(batched(1, 2));
        let mut clock = Clock::new();
        let prompts = [vec![5, 6, 7], vec![9, 10, 11]];
        let receivers: Vec<_> = prompts
            .iter()
            .map(|prompt| {
                let req = SessionRequest {
                    prompt: prompt.clone(),
                    pool: Some(Arc::clone(&pool)),
                    ..request(&m, 8, None)
                };
                clock.submit(&scheduler, req).expect("admit")
            })
            .collect();
        clock.run(&scheduler);
        let mut short = 0;
        for (rx, prompt) in receivers.into_iter().zip(&prompts) {
            match rx.try_recv().expect("answered") {
                Ok(result) => assert_eq!(result.tokens, reference(&m, prompt, 8)),
                Err(e @ ServeError::Nn(NnError::PoolExhausted { .. })) => {
                    assert_eq!(e.code(), crate::protocol::ErrorCode::Overloaded);
                    short += 1;
                }
                Err(e) => panic!("prompt {prompt:?} failed: {e}"),
            }
        }
        assert_eq!(short, 1, "exactly one member is left short");
        let snap = scheduler.inner.metrics.snapshot();
        assert_eq!((snap.completed, snap.failed), (1, 1));
        assert_eq!(scheduler.active(), 0);
    }

    #[test]
    fn shutdown_drains_in_flight_sessions_and_rejects_new_ones() {
        let m = model();
        let scheduler = Scheduler::start(config(2, 8), Arc::new(Metrics::new()));
        let receivers: Vec<_> = (0..4)
            .map(|_| scheduler.submit(request(&m, 30, None)).expect("admit"))
            .collect();
        scheduler.shutdown();
        assert!(matches!(
            scheduler.submit(request(&m, 4, None)),
            Err(ServeError::ShuttingDown)
        ));
        // join() returns only after the queue is drained — so every
        // receiver must already hold a completed generation.
        scheduler.join();
        for rx in receivers {
            let result = rx
                .try_recv()
                .expect("drained before join returned")
                .expect("ok");
            assert_eq!(result.tokens.len(), 30);
        }
    }

    #[test]
    fn drain_initiated_mid_chunked_prefill_still_answers_every_session() {
        // Pins the "graceful drains always answer every admitted session"
        // contract (server.rs) in its hardest corner: the drain begins
        // while prompts are still mid-chunked-prefill, i.e. before the
        // affected sessions have produced a single token. One worker and
        // two prompts of several chunks each keep the first long prompt
        // mid-prefill when shutdown() runs, with every other session
        // queued behind it. The long prompts differ, so neither can seed
        // the other from the prefix cache.
        let m = roomy_model();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 16), Arc::clone(&metrics));
        let long_a: Vec<u32> = (0..100u32).map(|i| 3 + (i * 7) % 90).collect();
        let long_b: Vec<u32> = (0..90u32).map(|i| 4 + (i * 11) % 90).collect();
        let sessions: Vec<(Vec<u32>, usize)> = vec![
            (long_a, 12),
            (vec![5, 6, 7], 4),
            (long_b, 7),
            (vec![8, 9], 9),
        ];
        let receivers: Vec<_> = sessions
            .iter()
            .map(|(prompt, budget)| {
                scheduler
                    .submit(SessionRequest {
                        prompt: prompt.clone(),
                        ..request(&m, *budget, None)
                    })
                    .expect("admit")
            })
            .collect();
        // Initiate the drain immediately: the long prompts need 3-4 chunks
        // each, interleaved with the short sessions' slices.
        scheduler.shutdown();
        assert!(matches!(
            scheduler.submit(request(&m, 4, None)),
            Err(ServeError::ShuttingDown)
        ));
        scheduler.join();
        for (rx, (prompt, budget)) in receivers.into_iter().zip(&sessions) {
            let result = rx
                .try_recv()
                .expect("answered before join returned")
                .expect("drained sessions complete normally");
            assert_eq!(
                result.tokens,
                reference(&m, prompt, *budget),
                "a drained session's transcript must match an undrained run"
            );
        }
        assert_eq!(scheduler.active(), 0);
        let snap = metrics.snapshot();
        assert_eq!(
            snap.completed,
            sessions.len() as u64,
            "every admitted session completed despite the mid-prefill drain"
        );
        let chunks: usize = sessions
            .iter()
            .map(|(prompt, _)| prompt.len().div_ceil(PREFILL_CHUNK))
            .sum();
        assert!(
            snap.prefill_chunks >= chunks as u64 && chunks >= 2 + 2 * 3,
            "each long prompt prefilled across at least 3 chunks: {} of {chunks}",
            snap.prefill_chunks
        );
    }

    #[test]
    fn a_session_arriving_mid_slice_joins_at_the_next_round() {
        // A decodes in a slice of its own. B arrives between two of A's
        // rounds; a scheduler that admits only at slice ends would make B
        // wait out A's whole slice. Instead A's slice ends at the very next
        // boundary, A requeues behind B, and the next batch holds both.
        let m = model();
        let scheduler = stepped(batched(1, 8));
        let mut clock = Clock::new();
        let a = clock
            .submit(&scheduler, request(&m, 24, None))
            .expect("admit A");
        // Resolve, prefill, then two decode rounds.
        for _ in 0..4 {
            assert!(clock.step(&scheduler));
        }
        let b = clock
            .submit(&scheduler, request(&m, 1, None))
            .expect("admit B");
        assert!(clock.step(&scheduler));
        assert!(clock.slice.is_none(), "A's slice ends at the next boundary");
        let requeued = lock_queue(&scheduler.inner);
        assert_eq!(requeued.len(), 2);
        assert_eq!(requeued[1].progress().0, 2, "A requeued behind B");
        drop(requeued);
        assert!(clock.step(&scheduler));
        assert_eq!(clock.members(), 2, "B and A share the next batch");
        let b = clock.until_answered(&scheduler, &b).expect("B ok");
        assert_eq!(b.tokens, reference(&m, &[5, 6, 7], 1));
        assert_eq!(a.try_recv().err(), Some(TryRecvError::Empty));
        clock.run(&scheduler);
        let a = a.try_recv().expect("outcome").expect("A ok");
        assert_eq!(
            a.tokens,
            reference(&m, &[5, 6, 7], 24),
            "A's transcript is unchanged"
        );
        assert_eq!(scheduler.active(), 0);
    }

    #[test]
    fn a_short_session_submitted_mid_decode_is_answered_first() {
        // C joins A's batch at a round boundary and leaves it the round it
        // commits its one token: C is answered at the next boundary, while
        // A keeps decoding in that same slice.
        let m = model();
        let scheduler = stepped(batched(1, 8));
        let mut clock = Clock::new();
        let a = clock
            .submit(&scheduler, request(&m, 24, None))
            .expect("admit A");
        for _ in 0..3 {
            assert!(clock.step(&scheduler));
        }
        let c = clock
            .submit(&scheduler, request(&m, 1, None))
            .expect("admit C");
        // A's slice ends; the next holds C and A; C resolves, prefills and
        // decodes its token; the boundary after that round answers it.
        assert!(clock.step(&scheduler));
        for _ in 0..4 {
            assert_eq!(c.try_recv().err(), Some(TryRecvError::Empty));
            assert!(clock.step(&scheduler));
        }
        let c = c.try_recv().expect("C answered").expect("C ok");
        assert_eq!(c.tokens, reference(&m, &[5, 6, 7], 1));
        assert_eq!(clock.members(), 1, "A stays in the slice C left");
        assert_eq!(a.try_recv().err(), Some(TryRecvError::Empty));
        clock.run(&scheduler);
        let a = a.try_recv().expect("outcome").expect("A ok");
        assert_eq!(
            a.tokens,
            reference(&m, &[5, 6, 7], 24),
            "A's transcript is unchanged"
        );
        assert_eq!(scheduler.active(), 0);
    }

    #[test]
    fn abort_answers_every_admitted_session_with_a_structured_error() {
        // The hard-stop path: queued sessions must get ShuttingDown (a
        // retryable verdict the router fails over on), never silence.
        let m = model();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 16), Arc::clone(&metrics));
        let receivers: Vec<_> = (0..6)
            .map(|_| {
                scheduler
                    .submit(request(&m, 10_000_000, None))
                    .expect("admit")
            })
            .collect();
        scheduler.abort();
        assert!(matches!(
            scheduler.submit(request(&m, 4, None)),
            Err(ServeError::ShuttingDown)
        ));
        scheduler.join();
        for rx in receivers {
            let outcome = rx.try_recv().expect("answered before join returned");
            assert!(
                matches!(outcome, Err(ServeError::ShuttingDown)),
                "aborted sessions get the retryable shutdown verdict, got {outcome:?}"
            );
        }
        assert_eq!(scheduler.active(), 0, "abort must release every slot");
    }

    #[test]
    fn an_abort_is_answered_at_the_next_round_boundary() {
        let m = model();
        let scheduler = stepped(batched(1, 8));
        let mut clock = Clock::new();
        let rx = clock
            .submit(&scheduler, request(&m, 10_000_000, None))
            .expect("admit");
        for _ in 0..4 {
            assert!(clock.step(&scheduler));
        }
        scheduler.abort();
        assert_eq!(rx.try_recv().err(), Some(TryRecvError::Empty));
        assert!(clock.step(&scheduler));
        assert!(matches!(rx.try_recv(), Ok(Err(ServeError::ShuttingDown))));
        assert!(!clock.step(&scheduler) && !clock.step(&scheduler));
        assert_eq!(scheduler.active(), 0);
    }

    #[test]
    fn dropping_a_scheduler_aborts_instead_of_draining() {
        // Dropped without `join`, a scheduler must not decode a session to
        // its full budget before returning.
        let m = model();
        let scheduler = Scheduler::start(config(1, 4), Arc::new(Metrics::new()));
        let rx = scheduler
            .submit(request(&m, 1_000_000, None))
            .expect("admit");
        let (dropped_tx, dropped) = std::sync::mpsc::channel();
        let dropper = std::thread::spawn(move || {
            drop(scheduler);
            let _ = dropped_tx.send(());
        });
        let outcome = rx
            .recv_timeout(Duration::from_secs(5))
            .expect("answered within 5 s");
        assert!(
            matches!(outcome, Err(ServeError::ShuttingDown)),
            "got {outcome:?}"
        );
        dropped
            .recv_timeout(Duration::from_secs(5))
            .expect("drop returns within 5 s");
        dropper.join().expect("dropping thread");
    }

    fn drafted(
        model: &Arc<TinyLm>,
        draft: &Arc<TinyLm>,
        k: usize,
        budget: usize,
    ) -> SessionRequest {
        SessionRequest {
            draft: Some(SpecDraft {
                model: Arc::clone(draft),
                k,
            }),
            ..request(model, budget, None)
        }
    }

    #[test]
    fn speculative_sessions_match_generate_and_count_acceptance() {
        let m = model();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(2, 8), Arc::clone(&metrics));
        // A draft that *is* the target agrees on every proposal, so
        // acceptance must be total — and the transcript byte-identical.
        let rx = scheduler.submit(drafted(&m, &m, 4, 24)).expect("admit");
        let result = rx.recv().expect("outcome").expect("ok");
        assert_eq!(
            result.tokens,
            reference(&m, &[5, 6, 7], 24),
            "speculative == plain bytes"
        );
        let snap = metrics.snapshot();
        assert!(snap.draft_tokens_proposed > 0, "speculation must have run");
        assert_eq!(
            snap.accepted_draft_tokens, snap.draft_tokens_proposed,
            "an identical draft is always accepted"
        );
        assert_eq!(snap.spec_fallbacks, 0);
        scheduler.join();
    }

    #[test]
    fn batched_slices_mix_speculative_and_plain_members() {
        let m = model();
        // Batches whose members mix speculative and plain decoders; each
        // must match generate().
        let scheduler = stepped(batched(1, 4));
        let mut clock = Clock::new();
        let budgets = [3usize, 17, 9, 40, 1, 25];
        let receivers: Vec<_> = budgets
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let req = if i % 2 == 0 {
                    drafted(&m, &m, 3, b)
                } else {
                    request(&m, b, None)
                };
                clock.submit(&scheduler, req).expect("admit")
            })
            .collect();
        clock.run(&scheduler);
        for (rx, &budget) in receivers.into_iter().zip(&budgets) {
            let result = rx.try_recv().expect("outcome").expect("ok");
            assert_eq!(
                result.tokens,
                reference(&m, &[5, 6, 7], budget),
                "budget {budget}"
            );
        }
        let snap = scheduler.inner.metrics.snapshot();
        // Budget 40 slides the context window; after a slide the draft
        // resyncs on a shorter window and may legitimately disagree, so
        // acceptance is positive but not necessarily total.
        assert!(snap.batched_slices > 0);
        assert!(snap.draft_tokens_proposed > 0);
        assert!(snap.accepted_draft_tokens > 0);
        assert!(snap.accepted_draft_tokens <= snap.draft_tokens_proposed);
        assert_eq!(scheduler.active(), 0);
    }

    /// The seeded simulation: random workloads stepped through the
    /// scheduler on a virtual clock, with every invariant checked after
    /// every submit and every step.
    mod sim {
        use super::*;
        use chipalign_nn::{KvCache, KvDtype, KvPoolConfig, NnError};
        use chipalign_tensor::rng::cases;
        use std::collections::HashMap;

        /// Seeded workloads per run of the test.
        const SEEDS: u64 = 1000;

        /// One planned session.
        struct Plan {
            model: usize,
            pool: usize,
            prompt: Vec<u32>,
            budget: usize,
            deadline_ms: Option<u64>,
            draft: Option<usize>,
        }

        /// One admitted session and what it has been answered.
        struct Admitted {
            plan: usize,
            rx: Receiver<SessionOutcome>,
            answered: bool,
        }

        struct World {
            models: Vec<Arc<TinyLm>>,
            /// Pool `i` serves model `i / 2` at dtype f32 (even `i`) or
            /// int8 (odd `i`), like the server's `spec` and `spec#kv8`.
            pools: Vec<Arc<KvPool>>,
            plans: Vec<Plan>,
            references: HashMap<usize, Vec<u32>>,
        }

        impl World {
            /// A workload for a scheduler admitting `max_sessions` at once.
            fn new(rng: &mut Pcg32, max_sessions: usize) -> World {
                let models: Vec<Arc<TinyLm>> = (0..2)
                    .map(|i| {
                        let mut arch = ArchSpec::tiny(&format!("sim-{i}"));
                        arch.vocab_size = 99;
                        Arc::new(TinyLm::new(&arch, &mut rng.derive(i)).expect("model"))
                    })
                    .collect();
                let scaffolds: Vec<Vec<u32>> = (0..rng.range(1, 3))
                    .map(|_| {
                        (0..rng.range(2, 10))
                            .map(|_| rng.range(4, 90) as u32)
                            .collect()
                    })
                    .collect();
                let plans: Vec<Plan> = (0..rng.range(8, 20))
                    .map(|_| {
                        let pool = rng.range(0, 3);
                        let mut prompt = rng.choose(&scaffolds).clone();
                        prompt.extend((0..rng.range(0, 4)).map(|_| rng.range(4, 90) as u32));
                        Plan {
                            model: pool / 2,
                            pool,
                            prompt,
                            budget: rng.range(1, 14),
                            deadline_ms: rng.chance(0.25).then(|| rng.range(0, 40) as u64),
                            draft: (pool.is_multiple_of(2) && rng.chance(0.2))
                                .then(|| rng.range(1, 3)),
                        }
                    })
                    .collect();
                let block_tokens = *rng.choose(&[2usize, 4]);
                let pools = (0..4)
                    .map(|i| {
                        // Demand: the blocks the pool's `max_sessions`
                        // largest sessions hold at their last token. The
                        // pool is 1–5 blocks short of it.
                        let mut needs: Vec<usize> = plans
                            .iter()
                            .filter(|p| p.pool == i)
                            .map(|p| (p.prompt.len() + p.budget).div_ceil(block_tokens))
                            .collect();
                        needs.sort_unstable_by(|a, b| b.cmp(a));
                        let demand: usize = needs.iter().take(max_sessions).sum();
                        KvPool::new(KvPoolConfig {
                            block_tokens,
                            max_blocks: demand.saturating_sub(rng.range(1, 5)).max(1),
                            dtype: if i.is_multiple_of(2) {
                                KvDtype::F32
                            } else {
                                KvDtype::Int8
                            },
                        })
                        .expect("pool")
                    })
                    .collect();
                World {
                    models,
                    pools,
                    plans,
                    references: HashMap::new(),
                }
            }

            fn request(&self, i: usize, now: Instant) -> SessionRequest {
                let plan = &self.plans[i];
                let model = &self.models[plan.model];
                SessionRequest {
                    model: Arc::clone(model),
                    prompt: plan.prompt.clone(),
                    cfg: greedy(plan.budget),
                    deadline: plan.deadline_ms.map(|ms| now + Duration::from_millis(ms)),
                    tag: format!("sim-{i}"),
                    pool: Some(Arc::clone(&self.pools[plan.pool])),
                    draft: plan.draft.map(|k| SpecDraft {
                        model: Arc::clone(model),
                        k,
                    }),
                }
            }

            /// The transcript a session of plan `i` must produce: `generate()`
            /// on f32, a sequential decode on a private pool of the same
            /// shape on int8 (int8 KV is lossy, and block seals are
            /// positional, so chunking and prefix reuse change no bit).
            fn reference(&mut self, i: usize) -> &[u32] {
                let plan = &self.plans[i];
                let model = &self.models[plan.model];
                let pool = &self.pools[plan.pool];
                self.references.entry(i).or_insert_with(|| {
                    if pool.dtype() == KvDtype::F32 {
                        return reference(model, &plan.prompt, plan.budget);
                    }
                    let private = KvPool::new(KvPoolConfig {
                        block_tokens: pool.block_tokens(),
                        max_blocks: 4096,
                        dtype: KvDtype::Int8,
                    })
                    .expect("pool");
                    let mut session = StepDecoder::new_chunked_pooled(
                        model,
                        &plan.prompt,
                        &greedy(plan.budget),
                        &private,
                    )
                    .expect("session");
                    session.prefill_pending(usize::MAX).expect("prefill");
                    std::iter::from_fn(|| session.step().expect("step")).collect()
                })
            }
        }

        /// (a) Every pool's blocks and bytes in use are exactly those of
        /// the live sessions' caches and the prefix snapshots, shared
        /// blocks counted once.
        fn assert_blocks_accounted(s: &Scheduler, clock: &Clock, pools: &[Arc<KvPool>]) {
            let queue = lock_queue(&s.inner);
            let members = clock.slice.iter().flat_map(|slice| &slice.members);
            let tasks: Vec<&Task> = queue.iter().chain(members.map(|m| &m.task)).collect();
            for (i, pool) in pools.iter().enumerate() {
                let mut held: HashMap<u64, usize> = HashMap::new();
                let mut hold = |cache: &KvCache| {
                    if Arc::ptr_eq(cache.pool(), pool) {
                        held.extend(cache.block_ids());
                    }
                };
                for task in &tasks {
                    if let TaskState::Live(d) = &task.state {
                        hold(d.target().cache());
                    }
                }
                s.inner.prefix.for_each_snapshot(&mut hold);
                assert_eq!(held.len(), pool.blocks_in_use(), "(a) pool {i} blocks");
                assert_eq!(
                    held.values().sum::<usize>(),
                    pool.bytes_in_use(),
                    "(a) pool {i} bytes"
                );
            }
        }

        /// (b) Every admission attempt has ended under exactly one counter
        /// or is still in flight.
        fn assert_conserved(s: &Scheduler) {
            let snap = s.inner.metrics.snapshot();
            let ended = snap.completed
                + snap.failed
                + snap.deadline_exceeded
                + snap.watchdog_cancels
                + snap.rejected_overload
                + snap.rejected_shutdown
                + snap.panicked_sessions;
            assert_eq!(snap.requests, ended + s.active() as u64, "(b) {snap:?}");
        }

        /// (c) and (e): collects new outcomes; a second outcome, or a
        /// channel closed unanswered, fails, and every completed
        /// transcript must be its reference.
        fn collect(world: &mut World, admitted: &mut [Admitted]) {
            for a in admitted.iter_mut() {
                match a.rx.try_recv() {
                    Ok(outcome) => {
                        assert!(!a.answered, "(c) session {} answered twice", a.plan);
                        a.answered = true;
                        match outcome {
                            Ok(result) => assert_eq!(
                                result.tokens,
                                world.reference(a.plan),
                                "(e) session {}",
                                a.plan
                            ),
                            Err(
                                ServeError::DeadlineExceeded { .. }
                                | ServeError::ShuttingDown
                                | ServeError::Nn(NnError::PoolExhausted { .. }),
                            ) => {}
                            Err(e) => panic!("session {} failed: {e}", a.plan),
                        }
                    }
                    Err(TryRecvError::Empty) => {}
                    Err(TryRecvError::Disconnected) => {
                        assert!(a.answered, "(c) session {} closed unanswered", a.plan);
                    }
                }
            }
        }

        fn check(s: &Scheduler, clock: &Clock, world: &mut World, admitted: &mut [Admitted]) {
            assert_blocks_accounted(s, clock, &world.pools);
            assert_conserved(s);
            collect(world, admitted);
        }

        /// Submits plan `i`, checking (d): every `pool_evictions`
        /// increment raised the pressed pool's `blocks_free`, and only a
        /// request the session bound admitted evicts.
        fn submit(
            s: &Scheduler,
            clock: &Clock,
            world: &World,
            i: usize,
        ) -> Option<Receiver<SessionOutcome>> {
            let pool = &world.pools[world.plans[i].pool];
            let (free, evictions) = (
                pool.blocks_free(),
                s.inner.metrics.snapshot().pool_evictions,
            );
            let outcome = clock.submit(s, world.request(i, clock.now));
            let evicted = s.inner.metrics.snapshot().pool_evictions - evictions;
            assert!(
                pool.blocks_free() >= free + evicted as usize,
                "(d) {evicted} evictions raised blocks_free {free} -> {}",
                pool.blocks_free()
            );
            if matches!(
                outcome,
                Err(ServeError::Overloaded { .. } | ServeError::ShuttingDown)
            ) {
                assert_eq!(evicted, 0, "(d) a refused request evicted");
            }
            outcome.ok()
        }

        #[test]
        fn seeded_workloads_keep_every_invariant_after_every_submit_and_round() {
            let mut max_in_flight_over_batch = 0;
            // Pool evictions, deadlines, aborted sessions, prefix hits and
            // admission rejections across all workloads.
            let mut covered = [0u64; 5];
            for mut rng in cases(44, SEEDS) {
                let max_batch = *rng.choose(&[1usize, 2, 4]);
                let max_sessions = max_batch + rng.range(1, 4);
                let mut world = World::new(&mut rng, max_sessions);
                let scheduler = stepped(SchedulerConfig {
                    workers: 1,
                    max_sessions,
                    max_batch,
                });
                let abort_at = rng.chance(0.25).then(|| rng.range(0, 60));
                let mut clock = Clock::new();
                let mut admitted: Vec<Admitted> = Vec::new();
                let (mut next, mut steps) = (0, 0);
                loop {
                    let idle = clock.slice.is_none() && lock_queue(&scheduler.inner).is_empty();
                    if next < world.plans.len() && (idle || rng.chance(0.5)) {
                        if let Some(rx) = submit(&scheduler, &clock, &world, next) {
                            admitted.push(Admitted {
                                plan: next,
                                rx,
                                answered: false,
                            });
                        }
                        next += 1;
                    } else if clock.step(&scheduler) {
                        clock.now += Duration::from_millis(rng.range(0, 2) as u64);
                        steps += 1;
                    } else {
                        break;
                    }
                    if abort_at == Some(steps) {
                        scheduler.abort();
                    }
                    check(&scheduler, &clock, &mut world, &mut admitted);
                    max_in_flight_over_batch =
                        max_in_flight_over_batch.max(scheduler.active().saturating_sub(max_batch));
                }
                assert!(
                    admitted.iter().all(|a| a.answered),
                    "(c) every session answered"
                );
                assert_eq!(scheduler.active(), 0);
                let snap = scheduler.inner.metrics.snapshot();
                let seen = [
                    snap.pool_evictions,
                    snap.deadline_exceeded,
                    snap.rejected_shutdown,
                    snap.prefix_hits,
                    snap.rejected_overload,
                ];
                for (total, n) in covered.iter_mut().zip(seen) {
                    *total += n;
                }
                drop(scheduler);
                collect(&mut world, &mut admitted);
                for pool in &world.pools {
                    assert_eq!(
                        pool.blocks_in_use(),
                        0,
                        "every block back once the cache is gone"
                    );
                }
            }
            assert!(
                max_in_flight_over_batch > 0,
                "some workload kept more in flight than max_batch"
            );
            assert!(
                covered.iter().all(|&n| n > 0),
                "every path ran: {covered:?}"
            );
        }
    }

    #[cfg(feature = "fault-inject")]
    mod injected {
        use super::*;
        use crate::faults::{self, Site, Trigger};

        fn tagged(model: &Arc<TinyLm>, budget: usize, tag: &str) -> SessionRequest {
            SessionRequest {
                tag: tag.to_string(),
                ..request(model, budget, None)
            }
        }

        #[test]
        fn slice_panic_cancels_only_the_poisoned_session() {
            let _scope = faults::scope(21);
            faults::arm(Site::WorkerPanic, Some("poison"), Trigger::Once(1));
            let m = model();
            let metrics = Arc::new(Metrics::new());
            let scheduler = Scheduler::start(config(2, 8), Arc::clone(&metrics));
            let poisoned = scheduler.submit(tagged(&m, 24, "poison")).expect("admit");
            let healthy = scheduler.submit(tagged(&m, 24, "healthy")).expect("admit");
            let bad = poisoned.recv().expect("outcome");
            assert!(
                matches!(bad, Err(ServeError::WorkerPanic { .. })),
                "got {bad:?}"
            );
            let good = healthy.recv().expect("outcome").expect("ok");
            assert_eq!(
                good.tokens,
                reference(&m, &[5, 6, 7], 24),
                "healthy session unaffected"
            );
            assert_eq!(metrics.snapshot().worker_panics, 1);
            assert_eq!(scheduler.active(), 0);
            scheduler.join();
        }

        #[test]
        fn watchdog_cancels_a_stalled_session_after_the_slice_budget() {
            let _scope = faults::scope(22);
            faults::arm(Site::SessionStall, Some("stuck"), Trigger::Always);
            let m = model();
            let metrics = Arc::new(Metrics::new());
            let scheduler = Scheduler::start(config(1, 4), Arc::clone(&metrics));
            let rx = scheduler.submit(tagged(&m, 24, "stuck")).expect("admit");
            let outcome = rx.recv().expect("outcome");
            assert!(
                matches!(
                    outcome,
                    Err(ServeError::Stalled {
                        slices: STALL_SLICES
                    })
                ),
                "got {outcome:?}"
            );
            assert_eq!(metrics.snapshot().watchdog_cancels, 1);
            scheduler.join();
        }

        #[test]
        fn dead_worker_respawns_and_keeps_serving() {
            let _scope = faults::scope(23);
            faults::arm(Site::WorkerDeath, Some("victim"), Trigger::Once(1));
            let m = model();
            let metrics = Arc::new(Metrics::new());
            let scheduler = Scheduler::start(config(1, 4), Arc::clone(&metrics));
            let doomed = scheduler.submit(tagged(&m, 24, "victim")).expect("admit");
            let outcome = doomed.recv().expect("drop guard must report");
            assert!(
                matches!(outcome, Err(ServeError::WorkerPanic { ref detail }) if detail.contains("worker died")),
                "got {outcome:?}"
            );
            // The single worker died holding the session — the respawned
            // loop must still serve the next one.
            let next = scheduler.submit(tagged(&m, 8, "after")).expect("admit");
            let result = next.recv().expect("outcome").expect("ok");
            assert_eq!(result.tokens.len(), 8);
            let snap = metrics.snapshot();
            assert_eq!(snap.workers_respawned, 1);
            assert_eq!(snap.panicked_sessions, 1);
            assert_eq!(scheduler.active(), 0);
            scheduler.join();
        }
    }
}
