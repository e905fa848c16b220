//! The session scheduler: continuous batching over a worker pool.
//!
//! Every admitted request becomes a *session* owning its own
//! [`chipalign_nn::StepDecoder`] (and therefore its own KV cache). Workers
//! repeatedly pop a session from a shared run queue, decode a short *slice*
//! of tokens, and push the session back if it isn't finished. That
//! round-robin slicing is the continuous-batching property: a 1000-token
//! generation never blocks a 10-token one for more than a slice, new
//! sessions join the rotation the moment a worker frees up, and with `W`
//! workers up to `W` sessions decode truly in parallel.
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
//! byte-identical at every `max_batch`. A batch of one is just a batch:
//! every slice, `max_batch == 1` included, runs through the one slice
//! function, `run_batch_slice`.
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
//! buffered inside the decoder), so fairness and watchdog accounting are
//! unchanged. In batched slices, speculative members advance individually
//! under their own panic guard while plain batch-mates share the joint
//! batched step. A panicking draft disables speculation for that session
//! only — it degrades to plain decoding mid-stream with no transcript
//! change. A client that wants plain decoding sends a plain model spec.
//!
//! # Chunked prefill and shared-prefix reuse
//!
//! Prompts are *not* prefilled monolithically: a session prefills at most
//! [`SchedulerConfig::prefill_chunk`] tokens per slice and rotates until
//! its prompt window is in the cache, so a long prompt never pins a worker
//! for more than one chunk — short sessions behind it keep decoding (the
//! head-of-line fix, pinned by a test). Deferred context-window slides replay through the same
//! chunked path. Before prefilling at all, the scheduler probes a
//! [`PrefixCache`] with the prompt window: on a longest-match hit the
//! session adopts a forked KV cache of the shared prefix and only
//! prefills the remainder. Both mechanisms are bit-transparent: chunked,
//! prefix-seeded transcripts are byte-identical to cold monolithic
//! prefill (equivalence tests pin this).
//!
//! Admission control is a hard bound on sessions in flight (queued +
//! running): beyond it, [`Scheduler::submit`] fails fast with
//! [`ServeError::Overloaded`] instead of buffering without limit. Pooled
//! sessions (a [`KvPool`] attached to the request) are additionally
//! admitted by *free blocks*: if the pool cannot cover the prompt window,
//! reusable prefix-cache snapshots are evicted LRU-first (counted in
//! `pool_evictions`), and a session that still does not fit is rejected
//! with [`ServeError::PoolSaturated`] — the same overloaded wire class,
//! so clients back off. Each
//! session may carry a deadline, checked between decode steps, so a stuck
//! or oversized request cannot pin a worker forever. [`Scheduler::shutdown`]
//! stops admissions; workers then drain every queued session to completion
//! before exiting, which is what makes server shutdown graceful.
//!
//! # Fault tolerance
//!
//! Every decode slice runs under [`std::panic::catch_unwind`], so a panic
//! inside one session — a poisoned checkpoint, a decoder bug — cancels
//! *that* session with a structured [`ServeError::WorkerPanic`] while the
//! worker moves on to the next one. A panic that escapes the slice guard
//! (the worker loop itself dying) is caught one level up and the worker
//! re-enters its loop, so the pool's capacity survives; the session it was
//! holding is reported to its client as a structured internal error by the
//! session's drop guard, never as a silent hang.
//!
//! A tick-based *watchdog* covers the remaining failure mode: a session
//! that stays alive but stops producing tokens. Progress is measured in
//! scheduler slices, not wall-clock time, so the check is deterministic
//! under test; after [`SchedulerConfig::stall_slices`] consecutive
//! zero-progress slices the session is cancelled with
//! [`ServeError::Stalled`], which maps to the `deadline_exceeded` wire
//! code.

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
use crate::prefix::{PrefixCache, PrefixCacheConfig};
use crate::protocol::FinishReason;
use crate::ServeError;

/// How many times a dead worker re-enters its loop before giving up and
/// letting the thread exit (a backstop against a deterministic panic on
/// the pop path itself looping forever).
const MAX_RESPAWNS: u32 = 8;

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Worker threads decoding sessions in parallel.
    pub workers: usize,
    /// Hard bound on sessions in flight (queued + running); submissions
    /// beyond it are rejected with `Overloaded`.
    pub max_sessions: usize,
    /// Tokens decoded per scheduling slice before a session rotates to the
    /// back of the queue. Smaller = fairer, larger = less queue churn.
    pub slice_tokens: usize,
    /// Consecutive scheduler slices a session may spend making zero token
    /// progress before the watchdog cancels it with a
    /// `deadline_exceeded`-class error. `0` disables the watchdog. The
    /// unit is slices, not seconds, so watchdog behaviour is deterministic
    /// in tests.
    pub stall_slices: u64,
    /// Most sessions a worker advances together per slice. Larger values
    /// amortize weight traversal across sessions via the skinny-GEMM
    /// decode path without changing any output byte. Clamped at start-up
    /// to `[1, GEMM_SKINNY_M_MAX]` — beyond the skinny tile the batched
    /// step would leave the kernel that guarantees bit-identity.
    pub max_batch: usize,
    /// Most prompt (or window-slide replay) tokens prefilled per
    /// scheduling slice. A prompt longer than this rotates through the
    /// queue between chunks, so long prompts cannot head-of-line-block
    /// other sessions' decode slices. Clamped to at least 1. Chunking
    /// never changes output bytes.
    pub prefill_chunk: usize,
    /// Bounds for the shared-prefix KV cache consulted at first dequeue;
    /// `max_entries: 0` disables prefix reuse.
    pub prefix_cache: PrefixCacheConfig,
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
            slice_tokens: 8,
            stall_slices: 32,
            max_batch: 8,
            prefill_chunk: 32,
            prefix_cache: PrefixCacheConfig::default(),
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
    /// Absolute deadline; checked between decode steps.
    pub deadline: Option<Instant>,
    /// Free-form session label (the server passes the canonical model
    /// key); used to scope injected faults to specific sessions in chaos
    /// tests.
    pub tag: String,
    /// Shared KV pool backing this session's cache. `None` decodes on the
    /// cache's own private pool (library and test use); the server always
    /// attaches the model's pool. With a shared pool, admission also
    /// requires enough free blocks for the prompt window — evicting
    /// reusable prefix snapshots first — and rejects with
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
    pub finish: FinishReason,
    /// Microseconds between admission and the first decode slice.
    pub queue_us: u64,
    /// Microseconds between admission and completion.
    pub total_us: u64,
}

/// What a worker sends back when a session leaves the system.
pub type SessionOutcome = Result<SessionResult, ServeError>;

/// A session's live decoding state: a plain step decoder, or one wrapped
/// in a [`SpecDecoder`] when the request carried a draft pairing. The
/// accessors delegate the `StepDecoder` surface the scheduler needs
/// (prefill, prefix adoption, completion queries) to the target decoder;
/// stepping dispatches on the variant. Batched slices advance `Plain`
/// members jointly through `step_batch` and `Spec` members individually —
/// a speculative round is inherently per-session work.
// One per session, moved only between the queue and a worker; boxing either
// variant would put an indirection on every decode step.
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

    fn is_prefilling(&self) -> bool {
        self.target().is_prefilling()
    }
}

enum TaskState {
    /// Prompt not yet prefilled (prefill happens on a worker, not on the
    /// submitting connection thread).
    Pending(SessionRequest),
    /// Mid-prefill or mid-generation; the decoder knows which. While part
    /// of the prompt window (or a deferred window-slide replay) is outside
    /// the KV cache, the session advances one bounded chunk per slice and
    /// rotates, so other sessions' decode slices interleave with a long
    /// prompt's prefill. Boxed: the decoder is several times the size of
    /// a pending request, and a queued task is moved on every pop.
    Live(Box<SessionDecoder>),
    /// Placeholder left behind while a slice borrows the real state. Only
    /// observable after a panic interrupted a slice; decoding a tombstone
    /// is reported as a structured internal error, never a second panic.
    Tombstone,
}

struct Task {
    state: TaskState,
    /// Session label for fault-rule matching (see [`SessionRequest::tag`]).
    #[cfg_attr(not(feature = "fault-inject"), allow(dead_code))]
    tag: String,
    /// Absolute deadline ([`SessionRequest::deadline`]); checked before
    /// every prefill chunk and decode round.
    deadline: Option<Instant>,
    produced: Vec<u32>,
    reply: Sender<SessionOutcome>,
    admitted: Instant,
    queue_us: Option<u64>,
    /// Consecutive scheduled slices with zero token progress.
    stalled_slices: u64,
    /// Shared in-flight counter, held so the drop guard can release the
    /// admission slot even when the task dies with its worker.
    active: Arc<AtomicUsize>,
    /// Held so the drop guard can count the session it answers.
    metrics: Arc<Metrics>,
    /// Set by `finish`; suppresses the drop guard on the normal path.
    finished: bool,
}

impl Drop for Task {
    /// Last-resort cleanup: if a task is dropped without being finished —
    /// its worker thread died mid-slice — the client still gets a
    /// structured error instead of a hung channel, and the admission slot
    /// is released so capacity doesn't leak.
    fn drop(&mut self) {
        if self.finished {
            return;
        }
        // Count and slot first, reply second: see `finish`.
        self.metrics.add(Counter::PanickedSessions, 1);
        self.active.fetch_sub(1, Ordering::SeqCst);
        let _ = self.reply.send(Err(ServeError::Internal {
            detail: "session lost: worker died mid-slice".to_string(),
        }));
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
    /// draining the queue; leftover sessions are answered with
    /// `ShuttingDown` instead of decoding to completion.
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

impl Scheduler {
    /// Starts the worker pool.
    #[must_use]
    pub fn start(cfg: SchedulerConfig, metrics: Arc<Metrics>) -> Self {
        #[cfg(feature = "fault-inject")]
        quiet_worker_panics();
        let cfg = SchedulerConfig {
            workers: cfg.workers.max(1),
            max_sessions: cfg.max_sessions.max(1),
            slice_tokens: cfg.slice_tokens.max(1),
            stall_slices: cfg.stall_slices,
            max_batch: cfg
                .max_batch
                .clamp(1, chipalign_tensor::tune::GEMM_SKINNY_M_MAX),
            prefill_chunk: cfg.prefill_chunk.max(1),
            prefix_cache: cfg.prefix_cache,
        };
        let inner = Arc::new(Inner {
            cfg: cfg.clone(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            active: Arc::new(AtomicUsize::new(0)),
            draining: AtomicBool::new(false),
            aborting: AtomicBool::new(false),
            metrics,
            prefix: PrefixCache::new(cfg.prefix_cache),
        });
        let workers = (0..cfg.workers)
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
        let inner = &self.inner;
        inner.metrics.add(Counter::Requests, 1);
        if inner.draining.load(Ordering::SeqCst) {
            inner.metrics.add(Counter::RejectedShutdown, 1);
            return Err(ServeError::ShuttingDown);
        }
        // Block-granular admission for pooled sessions: the prompt window
        // must be coverable by free blocks. Cached prefix snapshots are
        // reclaimable — evict them LRU-first until the session fits or the
        // cache is empty. (Blocks are allocated lazily during prefill, so
        // this check is a capacity gate, not a reservation; mid-decode
        // growth past the pool still fails the session with a structured
        // `PoolExhausted`, which also maps to the overloaded wire code.)
        if let Some(pool) = &req.pool {
            let window = req.prompt.len().min(req.model.arch().max_seq_len);
            let needed = pool.blocks_for(window);
            while pool.blocks_free() < needed {
                if !inner.prefix.evict_one() {
                    break;
                }
                inner.metrics.add(Counter::PoolEvictions, 1);
            }
            let free = pool.blocks_free();
            if free < needed {
                inner.metrics.add(Counter::RejectedOverload, 1);
                return Err(ServeError::PoolSaturated { needed, free });
            }
        }
        // Reserve a slot atomically so concurrent submissions cannot
        // overshoot the bound.
        let capacity = inner.cfg.max_sessions;
        if inner
            .active
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < capacity).then_some(n + 1)
            })
            .is_err()
        {
            inner.metrics.add(Counter::RejectedOverload, 1);
            return Err(ServeError::Overloaded {
                active: inner.active.load(Ordering::SeqCst),
                capacity,
            });
        }
        inner
            .metrics
            .add(Counter::PromptTokens, req.prompt.len() as u64);
        let (tx, rx) = std::sync::mpsc::channel();
        let tag = req.tag.clone();
        let deadline = req.deadline;
        let task = Task {
            state: TaskState::Pending(req),
            tag,
            deadline,
            produced: Vec::new(),
            reply: tx,
            admitted: Instant::now(),
            queue_us: None,
            stalled_slices: 0,
            active: Arc::clone(&inner.active),
            metrics: Arc::clone(&inner.metrics),
            finished: false,
        };
        lock_queue(inner).push_back(task);
        inner.available.notify_one();
        Ok(rx)
    }

    /// Stops admitting new sessions. Already-admitted sessions keep
    /// decoding until they finish.
    pub fn shutdown(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
    }

    /// Hard stop, the opposite of the graceful drain: stops admissions
    /// *and* abandons queued sessions, answering each with a structured
    /// [`ServeError::ShuttingDown`] instead of decoding it to completion.
    /// Sessions already on a worker finish their current slice and are
    /// then answered the same way. This models a replica being killed —
    /// the fleet chaos suite uses it to take whole replicas down
    /// mid-decode — and every admitted session still gets exactly one
    /// structured (retryable) reply, never silence or a truncated
    /// transcript.
    pub fn abort(&self) {
        self.inner.aborting.store(true, Ordering::SeqCst);
        self.inner.draining.store(true, Ordering::SeqCst);
        let abandoned: Vec<Task> = lock_queue(&self.inner).drain(..).collect();
        for task in abandoned {
            fail_finish(&self.inner, task, ServeError::ShuttingDown);
        }
        self.inner.available.notify_all();
    }

    /// Initiates shutdown and blocks until every worker has drained the
    /// queue and exited. After an [`Scheduler::abort`], workers exit
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
        let leftovers: Vec<Task> = lock_queue(&self.inner).drain(..).collect();
        for task in leftovers {
            fail_finish(&self.inner, task, ServeError::ShuttingDown);
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
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

fn worker_loop(inner: &Inner) {
    loop {
        let batch = {
            let mut queue = lock_queue(inner);
            loop {
                // Abort beats a non-empty queue: the worker leaves
                // immediately and `join` answers whatever remains.
                if inner.aborting.load(Ordering::SeqCst) {
                    return;
                }
                if !queue.is_empty() {
                    // Drain up to `max_batch` runnable sessions in one pop:
                    // everything taken here advances together this slice.
                    let take = inner.cfg.max_batch.min(queue.len());
                    break queue.drain(..take).collect::<Vec<Task>>();
                }
                if inner.draining.load(Ordering::SeqCst) {
                    return;
                }
                queue = inner
                    .available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        #[cfg(feature = "fault-inject")]
        {
            // Panic *outside* the slice guard: kills this worker_loop call
            // outright. The drop guard of every task in the batch reports
            // its session; the respawn path in worker_main restores pool
            // capacity.
            if batch
                .iter()
                .any(|t| crate::faults::should_fire(crate::faults::Site::WorkerDeath, &t.tag))
            {
                panic!("injected worker death");
            }
        }
        inner.metrics.on_batch(batch.len());
        run_batch_slice(inner, batch);
    }
}

/// Routes a structured failure: counts the session under the counter its
/// error names, then delivers it. A panic is counted here per session it
/// ended, and once more, as one `worker_panics`, where it is caught.
fn fail_finish(inner: &Inner, task: Task, e: ServeError) {
    let counter = match &e {
        ServeError::DeadlineExceeded { .. } => Counter::DeadlineExceeded,
        ServeError::Stalled { .. } => Counter::WatchdogCancels,
        ServeError::WorkerPanic { .. } => Counter::PanickedSessions,
        // Abort-path abandonment: the session was turned away, not broken.
        ServeError::ShuttingDown => Counter::RejectedShutdown,
        _ => Counter::Failed,
    };
    inner.metrics.add(counter, 1);
    finish(inner, task, Err(e));
}

/// One member of a batched slice: the task plus its live decoder state.
struct BatchMember {
    task: Task,
    decoder: SessionDecoder,
    /// `produced.len()` at slice start, for the zero-progress watchdog.
    before: usize,
    /// Whether this slice advanced the member's prefill — progress the
    /// watchdog must credit even though no token was produced.
    prefilled: bool,
    /// Injected stall: sit out every round this slice, then take a
    /// watchdog tick.
    stalled: bool,
    end: MemberEnd,
}

/// Where a batch member stands as the slice settles.
enum MemberEnd {
    /// Still decoding: requeue for the next slice.
    Live,
    /// Finished; payload for the client.
    Done(SessionResult),
    /// Cancelled with a structured error.
    Failed(ServeError),
}

/// Advances a batch of sessions — one or more — together for one slice:
/// at most one bounded prefill chunk per member, then (for members whose
/// prompt window is cached) up to `slice_tokens` decode rounds. No locks
/// are held while decoding, so a panic here cannot poison the queue.
///
/// Fault semantics are *per member*: decoder resolution and each member's
/// prefill chunk run under per-session panic guards, so a poisoned session
/// is cancelled alone while its batch-mates proceed; deadlines are checked
/// before each prefill chunk and swept between decode rounds; members that
/// end the slice with zero progress (neither a token nor a prefill chunk)
/// take a watchdog tick. Members still mid-prefill after their chunk sit
/// out the decode rounds — their prompts load across slices while
/// batch-mates keep decoding. The one batch-wide hazard is a failure
/// inside the joint batched step: with more than one member stepping it
/// cannot be attributed to a single session and may leave batch-mates
/// mid-token, so every session that was stepping is cancelled with a
/// structured error. A lone stepper gets its own error.
fn run_batch_slice(inner: &Inner, batch: Vec<Task>) {
    // Phase 1: resolve every member's decoder under its own guard.
    let mut members: Vec<BatchMember> = Vec::with_capacity(batch.len());
    for mut task in batch {
        let resolved = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let decoder = take_decoder(inner, &mut task)?;
            #[cfg(feature = "fault-inject")]
            if crate::faults::should_fire(crate::faults::Site::WorkerPanic, &task.tag) {
                panic!("injected worker panic");
            }
            Ok(decoder)
        }));
        match resolved {
            Err(payload) => {
                inner.metrics.add(Counter::WorkerPanics, 1);
                let detail = panic_detail(payload.as_ref());
                fail_finish(inner, task, ServeError::WorkerPanic { detail });
            }
            Ok(Err(e)) => fail_finish(inner, task, e),
            Ok(Ok(decoder)) => {
                #[cfg(feature = "fault-inject")]
                let stalled =
                    crate::faults::should_fire(crate::faults::Site::SessionStall, &task.tag);
                #[cfg(not(feature = "fault-inject"))]
                let stalled = false;
                let before = task.produced.len();
                members.push(BatchMember {
                    task,
                    decoder,
                    before,
                    prefilled: false,
                    stalled,
                    end: MemberEnd::Live,
                });
            }
        }
    }

    // Phase 1.5: members mid-prefill advance by one bounded chunk each,
    // under their own guard and behind their own deadline check. A member
    // still prefilling afterwards sits out the decode rounds below; its
    // batch-mates decode while its prompt loads across slices.
    for m in &mut members {
        if !matches!(m.end, MemberEnd::Live) || m.stalled || !m.decoder.is_prefilling() {
            continue;
        }
        if past(m.task.deadline) {
            m.end = MemberEnd::Failed(deadline_error(m.task.admitted));
            continue;
        }
        let advanced = std::panic::catch_unwind(AssertUnwindSafe(|| {
            run_prefill_chunk(inner, m.decoder.target_mut())
        }));
        match advanced {
            Err(payload) => {
                inner.metrics.add(Counter::WorkerPanics, 1);
                let detail = panic_detail(payload.as_ref());
                m.end = MemberEnd::Failed(ServeError::WorkerPanic { detail });
            }
            Ok(Err(e)) => m.end = MemberEnd::Failed(e),
            Ok(Ok(())) => m.prefilled = true,
        }
    }

    // Phase 2: decode rounds. All live, non-stalled, fully prefilled
    // *plain* members advance together through one batched step per
    // round; *speculative* members advance one token each under their own
    // guard (a speculative round is per-session work, so its panics and
    // errors are attributable — no batch-wide hazard). A member whose
    // step defers a window slide turns `is_prefilling` on and drops out
    // of later rounds — its replay is chunked on subsequent slices like
    // any other prefill.
    for _ in 0..inner.cfg.slice_tokens {
        // Deadline sweep between decode rounds.
        for m in &mut members {
            if matches!(m.end, MemberEnd::Live) && past(m.task.deadline) {
                m.end = MemberEnd::Failed(deadline_error(m.task.admitted));
            }
        }
        let mut spec_ran = false;
        for m in &mut members {
            if !matches!(m.end, MemberEnd::Live) || m.stalled || m.decoder.is_prefilling() {
                continue;
            }
            let SessionDecoder::Spec(spec) = &mut m.decoder else {
                continue;
            };
            spec_ran = true;
            let step = std::panic::catch_unwind(AssertUnwindSafe(|| spec.step()));
            match step {
                Err(payload) => {
                    inner.metrics.add(Counter::WorkerPanics, 1);
                    let detail = panic_detail(payload.as_ref());
                    m.end = MemberEnd::Failed(ServeError::WorkerPanic { detail });
                }
                Ok(Err(e)) => m.end = MemberEnd::Failed(e.into()),
                Ok(Ok(Some(t))) => m.task.produced.push(t),
                Ok(Ok(None)) => m.end = MemberEnd::Done(session_result(&mut m.task, &m.decoder)),
            }
        }
        let mut stepped: Vec<usize> = Vec::new();
        let mut steppers: Vec<&mut StepDecoder> = Vec::new();
        for (i, m) in members.iter_mut().enumerate() {
            if matches!(m.end, MemberEnd::Live) && !m.stalled && !m.decoder.is_prefilling() {
                if let SessionDecoder::Plain(d) = &mut m.decoder {
                    stepped.push(i);
                    steppers.push(d);
                }
            }
        }
        if steppers.is_empty() {
            if !spec_ran {
                break;
            }
            continue;
        }
        let round =
            std::panic::catch_unwind(AssertUnwindSafe(|| StepDecoder::step_batch(&mut steppers)));
        drop(steppers);
        match round {
            Err(payload) => {
                inner.metrics.add(Counter::WorkerPanics, 1);
                let detail = panic_detail(payload.as_ref());
                for &i in &stepped {
                    members[i].end = MemberEnd::Failed(ServeError::WorkerPanic {
                        detail: detail.clone(),
                    });
                }
                break;
            }
            Ok(Err(e)) if stepped.len() == 1 => {
                members[stepped[0]].end = MemberEnd::Failed(e.into());
                break;
            }
            Ok(Err(e)) => {
                // A structured error from a joint step of several members
                // is unattributable: a member may hold a committed but
                // unadvanced token. Cancel everyone who was stepping.
                let detail = format!("batched decode step failed: {e}");
                for &i in &stepped {
                    members[i].end = MemberEnd::Failed(ServeError::Internal {
                        detail: detail.clone(),
                    });
                }
                break;
            }
            Ok(Ok(tokens)) => {
                for (&i, token) in stepped.iter().zip(tokens) {
                    let m = &mut members[i];
                    match token {
                        Some(t) => m.task.produced.push(t),
                        None => m.end = MemberEnd::Done(session_result(&mut m.task, &m.decoder)),
                    }
                }
            }
        }
    }

    // Watchdog accounting for members still live with zero progress this
    // slice (injected stalls always; a cooperative decoder possibly).
    // Prefill chunks count as progress: a long prompt loading across many
    // slices is working, not stalled.
    for m in &mut members {
        if !matches!(m.end, MemberEnd::Live) {
            continue;
        }
        if m.task.produced.len() == m.before && !m.prefilled {
            if let Err(e) = watchdog_tick(inner, &mut m.task) {
                m.end = MemberEnd::Failed(e);
            }
        } else {
            m.task.stalled_slices = 0;
        }
    }

    // Speculation accounting: drain every member's per-slice counters
    // (including failed members — their fallbacks already happened).
    for m in &mut members {
        flush_spec_stats(inner, &mut m.decoder);
    }

    // Settle: requeue survivors in their original order, deliver the rest.
    for m in members {
        let BatchMember {
            mut task,
            decoder,
            end,
            ..
        } = m;
        match end {
            MemberEnd::Live => {
                task.state = TaskState::Live(Box::new(decoder));
                lock_queue(inner).push_back(task);
                inner.available.notify_one();
            }
            MemberEnd::Done(result) => {
                inner.metrics.add(Counter::Completed, 1);
                inner
                    .metrics
                    .add(Counter::TokensOut, result.tokens.len() as u64);
                inner.metrics.observe(Hist::Latency, result.total_us);
                finish(inner, task, Ok(result));
            }
            MemberEnd::Failed(e) => fail_finish(inner, task, e),
        }
    }
}

/// Takes a task's decoder for one slice. For `Pending` it records the
/// queue wait, checks the deadline *before doing any prefill work* (a
/// session that expired in the queue costs nothing), builds an
/// un-prefilled chunked decoder, and probes the shared-prefix cache —
/// on a hit the session adopts a forked KV cache and skips that much
/// prefill. `Live` passes through; `Tombstone` is a structured error.
fn take_decoder(inner: &Inner, task: &mut Task) -> Result<SessionDecoder, ServeError> {
    match std::mem::replace(&mut task.state, TaskState::Tombstone) {
        TaskState::Pending(req) => {
            let queue_us = elapsed_us(task.admitted);
            task.queue_us = Some(queue_us);
            inner.metrics.observe(Hist::QueueWait, queue_us);
            if past(task.deadline) {
                return Err(deadline_error(task.admitted));
            }
            let mut decoder = match &req.pool {
                Some(pool) => {
                    StepDecoder::new_chunked_pooled(&req.model, &req.prompt, &req.cfg, pool)?
                }
                None => StepDecoder::new_chunked(&req.model, &req.prompt, &req.cfg)?,
            };
            // Probe the dtype bucket the session will decode at: a
            // `#kv8` session must never adopt an f32 snapshot (or the
            // reverse) even though both resolve to one model allocation.
            let dtype = decoder.cache().pool().dtype();
            if let Some((fork, _)) =
                inner
                    .prefix
                    .lookup(&req.model, dtype, decoder.pending_prefill())
            {
                // Adoption re-validates tokens and model identity; a
                // mismatch simply falls back to a cold prefill.
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
            Ok(decoder)
        }
        TaskState::Live(decoder) => Ok(*decoder),
        TaskState::Tombstone => Err(ServeError::Internal {
            detail: "scheduler invariant violated: task rescheduled in tombstone state".to_string(),
        }),
    }
}

/// Advances a mid-prefill decoder by one bounded chunk, recording chunk
/// count and compute time. On the chunk that completes a session's
/// *initial* prefill (nothing emitted yet), the freshly filled prompt
/// window is donated to the shared-prefix cache for future sessions.
fn run_prefill_chunk(inner: &Inner, decoder: &mut StepDecoder) -> Result<(), ServeError> {
    let t0 = Instant::now();
    decoder.prefill_pending(inner.cfg.prefill_chunk)?;
    inner.metrics.add(Counter::PrefillChunks, 1);
    inner.metrics.observe(Hist::Prefill, elapsed_us(t0));
    if !decoder.is_prefilling() && decoder.emitted() == 0 {
        inner.prefix.insert(decoder.cache());
    }
    Ok(())
}

/// Drains a speculative session's per-slice counters into the metrics
/// core. A no-op for plain sessions. Called once per slice (and once more
/// at completion), so snapshot readers see acceptance counts grow while a
/// session is still streaming.
fn flush_spec_stats(inner: &Inner, decoder: &mut SessionDecoder) {
    if let SessionDecoder::Spec(s) = decoder {
        let stats = s.take_stats();
        if stats.proposed > 0 || stats.accepted > 0 {
            inner
                .metrics
                .add(Counter::DraftTokensProposed, stats.proposed);
            inner
                .metrics
                .add(Counter::AcceptedDraftTokens, stats.accepted);
        }
        if stats.fallbacks > 0 {
            inner.metrics.add(Counter::SpecFallbacks, stats.fallbacks);
        }
    }
}

/// Builds the payload for a session whose decoder just reported completion.
fn session_result(task: &mut Task, decoder: &SessionDecoder) -> SessionResult {
    let finish = if decoder.target().stopped_at_eos() {
        FinishReason::Eos
    } else {
        FinishReason::Length
    };
    SessionResult {
        tokens: std::mem::take(&mut task.produced),
        finish,
        queue_us: task.queue_us.unwrap_or(0),
        total_us: elapsed_us(task.admitted),
    }
}

/// Accounts one zero-progress slice against the session's stall budget.
fn watchdog_tick(inner: &Inner, task: &mut Task) -> Result<(), ServeError> {
    task.stalled_slices += 1;
    let limit = inner.cfg.stall_slices;
    if limit > 0 && task.stalled_slices >= limit {
        return Err(ServeError::Stalled {
            slices: task.stalled_slices,
        });
    }
    Ok(())
}

/// Releases the admission slot and sends the outcome, exactly once and in
/// that order: a caller that has received its reply must already see the
/// slot free (`active()` drops before `recv()` returns).
fn finish(inner: &Inner, mut task: Task, outcome: SessionOutcome) {
    task.finished = true;
    inner.active.fetch_sub(1, Ordering::SeqCst);
    // The receiver may have given up (client gone); that's not an error.
    let _ = task.reply.send(outcome);
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

fn past(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

fn deadline_error(admitted: Instant) -> ServeError {
    ServeError::DeadlineExceeded {
        waited_ms: elapsed_us(admitted) / 1_000,
    }
}

fn elapsed_us(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_micros()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;
    use std::time::Duration;

    fn model() -> Arc<TinyLm> {
        let mut arch = ArchSpec::tiny("sched");
        arch.vocab_size = 99;
        Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(11)).expect("model"))
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

    /// Batches of one: each slice advances a single session, the way the
    /// pre-batching tests were written.
    fn config(workers: usize, max_sessions: usize, slice_tokens: usize) -> SchedulerConfig {
        SchedulerConfig {
            workers,
            max_sessions,
            slice_tokens,
            stall_slices: 32,
            max_batch: 1,
            prefill_chunk: 32,
            prefix_cache: PrefixCacheConfig::default(),
        }
    }

    fn batched(workers: usize, slice_tokens: usize, max_batch: usize) -> SchedulerConfig {
        SchedulerConfig {
            max_batch,
            ..config(workers, 16, slice_tokens)
        }
    }

    #[test]
    fn sessions_complete_and_match_generate() {
        let m = model();
        let scheduler = Scheduler::start(config(2, 8, 4), Arc::new(Metrics::new()));
        let rx = scheduler.submit(request(&m, 24, None)).expect("admit");
        let result = rx.recv().expect("outcome").expect("ok");
        assert_eq!(result.tokens.len(), 24);
        assert_eq!(result.finish, FinishReason::Length);
        let reference = chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(24)).expect("ok");
        assert_eq!(result.tokens, reference, "scheduled == single-threaded");
        scheduler.join();
    }

    #[test]
    fn many_interleaved_sessions_each_match_generate() {
        let m = model();
        let scheduler = Scheduler::start(config(2, 16, 2), Arc::new(Metrics::new()));
        // Mixed lengths force interleaving across slices.
        let budgets = [3usize, 17, 9, 40, 1, 25];
        let receivers: Vec<_> = budgets
            .iter()
            .map(|&b| scheduler.submit(request(&m, b, None)).expect("admit"))
            .collect();
        for (rx, &budget) in receivers.into_iter().zip(&budgets) {
            let result = rx.recv().expect("outcome").expect("ok");
            let reference =
                chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(budget)).expect("ok");
            assert_eq!(result.tokens, reference, "budget {budget}");
        }
        assert_eq!(scheduler.active(), 0);
        scheduler.join();
    }

    #[test]
    fn batched_sessions_complete_and_match_generate() {
        let m = model();
        let metrics = Arc::new(Metrics::new());
        // One worker + narrow slices force real batches: after the first
        // requeue the queue always holds several runnable sessions.
        let scheduler = Scheduler::start(batched(1, 2, 4), Arc::clone(&metrics));
        let budgets = [3usize, 17, 9, 40, 1, 25];
        let receivers: Vec<_> = budgets
            .iter()
            .map(|&b| scheduler.submit(request(&m, b, None)).expect("admit"))
            .collect();
        for (rx, &budget) in receivers.into_iter().zip(&budgets) {
            let result = rx.recv().expect("outcome").expect("ok");
            let reference =
                chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(budget)).expect("ok");
            assert_eq!(result.tokens, reference, "budget {budget}");
        }
        let snap = metrics.snapshot();
        assert!(
            snap.batched_slices > 0,
            "six queued sessions on one worker must have shared a slice"
        );
        assert_eq!(
            snap.batch_occupancy.iter().sum::<u64>(),
            snap.batch_occupancy[1] + snap.batched_slices,
            "every dequeued slice is either single-session or batched"
        );
        assert_eq!(scheduler.active(), 0);
        scheduler.join();
    }

    #[test]
    fn max_batch_is_clamped_to_the_skinny_gemm_tile() {
        let scheduler = Scheduler::start(
            SchedulerConfig {
                max_batch: 10_000,
                ..SchedulerConfig::default()
            },
            Arc::new(Metrics::new()),
        );
        assert_eq!(
            scheduler.inner.cfg.max_batch,
            chipalign_tensor::tune::GEMM_SKINNY_M_MAX
        );
        scheduler.join();
    }

    #[test]
    fn admission_bound_rejects_fast() {
        let m = model();
        let scheduler = Scheduler::start(config(1, 2, 1), Arc::new(Metrics::new()));
        // Two slow sessions occupy both slots; deadlines keep the test
        // finite even on a loaded machine.
        let deadline = Some(Instant::now() + Duration::from_millis(400));
        let rx1 = scheduler
            .submit(request(&m, 1_000_000, deadline))
            .expect("one");
        let rx2 = scheduler
            .submit(request(&m, 1_000_000, deadline))
            .expect("two");
        let third = scheduler.submit(request(&m, 4, None));
        assert!(
            matches!(third, Err(ServeError::Overloaded { capacity: 2, .. })),
            "third submission must be rejected, got {third:?}"
        );
        // Both occupants eventually leave (deadline or completion).
        assert!(rx1.recv().is_ok());
        assert!(rx2.recv().is_ok());
        assert_eq!(scheduler.active(), 0);
        scheduler.join();
    }

    #[test]
    fn deadline_is_reported_as_such() {
        let m = model();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 4, 1), Arc::clone(&metrics));
        let deadline = Some(Instant::now() + Duration::from_millis(50));
        let rx = scheduler
            .submit(request(&m, 10_000_000, deadline))
            .expect("admit");
        let outcome = rx.recv().expect("outcome");
        assert!(
            matches!(outcome, Err(ServeError::DeadlineExceeded { .. })),
            "got {outcome:?}"
        );
        assert_eq!(metrics.snapshot().deadline_exceeded, 1);
        scheduler.join();
    }

    #[test]
    fn expired_deadline_is_rejected_at_dequeue_before_any_prefill() {
        let m = model();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 4, 4), Arc::clone(&metrics));
        // Already-expired deadline: the session must be failed when it is
        // dequeued, without paying for a single prefill chunk (the PR 5
        // queued-deadline leak had it prefilling the whole prompt first).
        let rx = scheduler
            .submit(request(&m, 24, Some(Instant::now())))
            .expect("admit");
        let outcome = rx.recv().expect("outcome");
        assert!(
            matches!(outcome, Err(ServeError::DeadlineExceeded { .. })),
            "got {outcome:?}"
        );
        let snap = metrics.snapshot();
        assert_eq!(snap.deadline_exceeded, 1);
        assert_eq!(
            snap.prefill_chunks, 0,
            "no prefill work may be spent on a dead-on-arrival session"
        );
        scheduler.join();
    }

    #[test]
    fn chunked_prefill_lets_short_sessions_overtake_a_long_prompt() {
        let m = model();
        let metrics = Arc::new(Metrics::new());
        // One worker, tiny prefill chunks: without chunking, the long
        // prompt's prefill would hold the only worker until it finished
        // and the short session (submitted second) would wait behind it.
        let mut cfg = config(1, 4, 4);
        cfg.prefill_chunk = 2;
        let scheduler = Scheduler::start(cfg, Arc::clone(&metrics));
        let long_prompt: Vec<u32> = (0..40u32).map(|i| 3 + (i * 7) % 90).collect();
        // A large budget keeps the long session busy (decode plus deferred
        // window slides, each replayed in 2-token chunks) long after the
        // short one completes, so the ordering assertion below has a
        // margin of thousands of scheduler slices, not a photo finish.
        let long_rx = scheduler
            .submit(SessionRequest {
                model: Arc::clone(&m),
                prompt: long_prompt.clone(),
                cfg: greedy(1000),
                deadline: None,
                tag: "long".to_string(),
                pool: None,
                draft: None,
            })
            .expect("admit long");
        let short_rx = scheduler.submit(request(&m, 4, None)).expect("admit short");
        let short = short_rx.recv().expect("outcome").expect("ok");
        assert!(
            matches!(
                long_rx.try_recv(),
                Err(std::sync::mpsc::TryRecvError::Empty)
            ),
            "short session must complete while the long prompt is still in flight"
        );
        let short_ref = chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(4)).expect("ok");
        assert_eq!(short.tokens, short_ref, "short transcript unchanged");
        let long = long_rx.recv().expect("outcome").expect("ok");
        let long_ref =
            chipalign_nn::generate::generate(&m, &long_prompt, &greedy(1000)).expect("ok");
        assert_eq!(long.tokens, long_ref, "chunked prefill is bit-identical");
        assert!(
            metrics.snapshot().prefill_chunks >= 2,
            "the long prompt must have prefilled across multiple chunks"
        );
        scheduler.join();
    }

    #[test]
    fn repeated_prompt_hits_the_prefix_cache_with_identical_transcript() {
        let m = model();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 4, 4), Arc::clone(&metrics));
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
        let reference = chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(12)).expect("ok");
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
        use chipalign_nn::{KvPool, KvPoolConfig};
        let m = model();
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 256,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let metrics = Arc::new(Metrics::new());
        // One worker + narrow slices force batched slices whose members
        // mix paged and contiguous KV storage freely.
        let scheduler = Scheduler::start(batched(1, 2, 4), Arc::clone(&metrics));
        let budgets = [3usize, 17, 9, 40, 1, 25];
        let receivers: Vec<_> = budgets
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let pool = (i % 2 == 0).then(|| Arc::clone(&pool));
                scheduler
                    .submit(SessionRequest {
                        pool,
                        ..request(&m, b, None)
                    })
                    .expect("admit")
            })
            .collect();
        for (rx, &budget) in receivers.into_iter().zip(&budgets) {
            let result = rx.recv().expect("outcome").expect("ok");
            let reference =
                chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(budget)).expect("ok");
            assert_eq!(
                result.tokens, reference,
                "budget {budget} must be bit-identical"
            );
        }
        assert_eq!(scheduler.active(), 0);
        scheduler.join();
    }

    #[test]
    fn pool_saturation_evicts_prefix_snapshots_then_rejects_as_overloaded() {
        use chipalign_nn::{KvPool, KvPoolConfig};
        let m = model();
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: 4,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 8, 4), Arc::clone(&metrics));
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
        let reference =
            chipalign_nn::generate::generate(&m, &[9, 10, 11, 12], &greedy(1)).expect("ok");
        assert_eq!(result.tokens, reference);
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
    fn lone_session_outgrowing_its_pool_keeps_its_own_error() {
        use chipalign_nn::{KvPool, KvPoolConfig, NnError};
        let m = model();
        // Room for the 3-token prompt and one decoded position: the
        // second decode step needs a fifth block.
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: 4,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let scheduler = Scheduler::start(config(1, 8, 4), Arc::new(Metrics::new()));
        let rx = scheduler
            .submit(SessionRequest {
                pool: Some(Arc::clone(&pool)),
                ..request(&m, 8, None)
            })
            .expect("admit");
        // A batch of one owns its step's error: the structured pool error
        // (overloaded wire class, so clients back off), not the
        // unattributable-joint-step `Internal`.
        match rx.recv().expect("outcome") {
            Err(e @ ServeError::Nn(NnError::PoolExhausted { .. })) => {
                assert_eq!(e.code(), crate::protocol::ErrorCode::Overloaded);
            }
            other => panic!("expected mid-decode pool exhaustion, got {other:?}"),
        }
        scheduler.join();
    }

    #[test]
    fn shutdown_drains_in_flight_sessions_and_rejects_new_ones() {
        let m = model();
        let scheduler = Scheduler::start(config(2, 8, 2), Arc::new(Metrics::new()));
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
        // affected sessions have produced a single token. One worker and a
        // 2-token prefill chunk guarantee that when shutdown() runs, at
        // most one chunk of the first long prompt has been processed and
        // every other session is queued in the Pending/Prefilling states.
        let m = model();
        let metrics = Arc::new(Metrics::new());
        let mut cfg = config(1, 16, 2);
        cfg.prefill_chunk = 2;
        let scheduler = Scheduler::start(cfg, Arc::clone(&metrics));
        let long_prompt: Vec<u32> = (0..30u32).map(|i| 3 + (i * 7) % 90).collect();
        let sessions: Vec<(Vec<u32>, usize)> = vec![
            (long_prompt.clone(), 12),
            (vec![5, 6, 7], 4),
            (long_prompt.clone(), 7),
            (vec![8, 9], 9),
        ];
        let receivers: Vec<_> = sessions
            .iter()
            .map(|(prompt, budget)| {
                scheduler
                    .submit(SessionRequest {
                        model: Arc::clone(&m),
                        prompt: prompt.clone(),
                        cfg: greedy(*budget),
                        deadline: None,
                        tag: "drain-mid-prefill".to_string(),
                        pool: None,
                        draft: None,
                    })
                    .expect("admit")
            })
            .collect();
        // Initiate the drain immediately: the 30-token prompts need 15
        // chunks each, so they are necessarily mid-prefill (or still
        // queued) at this point.
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
            let reference =
                chipalign_nn::generate::generate(&m, prompt, &greedy(*budget)).expect("reference");
            assert_eq!(
                result.tokens, reference,
                "a drained session's transcript must match an undrained run"
            );
        }
        assert_eq!(scheduler.active(), 0);
        assert_eq!(
            metrics.snapshot().completed,
            sessions.len() as u64,
            "every admitted session completed despite the mid-prefill drain"
        );
    }

    #[test]
    fn abort_answers_every_admitted_session_with_a_structured_error() {
        // The hard-stop path: queued sessions must get ShuttingDown (a
        // retryable verdict the router fails over on), never silence.
        let m = model();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(config(1, 16, 2), Arc::clone(&metrics));
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
        let scheduler = Scheduler::start(config(2, 8, 4), Arc::clone(&metrics));
        // A draft that *is* the target agrees on every proposal, so
        // acceptance must be total — and the transcript byte-identical.
        let rx = scheduler.submit(drafted(&m, &m, 4, 24)).expect("admit");
        let result = rx.recv().expect("outcome").expect("ok");
        let reference = chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(24)).expect("ok");
        assert_eq!(result.tokens, reference, "speculative == plain bytes");
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
        let metrics = Arc::new(Metrics::new());
        // One worker + narrow slices force batches whose members mix
        // speculative and plain decoders; each must match generate().
        let scheduler = Scheduler::start(batched(1, 2, 4), Arc::clone(&metrics));
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
                scheduler.submit(req).expect("admit")
            })
            .collect();
        for (rx, &budget) in receivers.into_iter().zip(&budgets) {
            let result = rx.recv().expect("outcome").expect("ok");
            let reference =
                chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(budget)).expect("ok");
            assert_eq!(result.tokens, reference, "budget {budget}");
        }
        let snap = metrics.snapshot();
        // Budget 40 slides the context window; after a slide the draft
        // resyncs on a shorter window and may legitimately disagree, so
        // acceptance is positive but not necessarily total.
        assert!(snap.draft_tokens_proposed > 0);
        assert!(snap.accepted_draft_tokens > 0);
        assert!(snap.accepted_draft_tokens <= snap.draft_tokens_proposed);
        assert_eq!(scheduler.active(), 0);
        scheduler.join();
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
            let scheduler = Scheduler::start(config(2, 8, 4), Arc::clone(&metrics));
            let poisoned = scheduler.submit(tagged(&m, 24, "poison")).expect("admit");
            let healthy = scheduler.submit(tagged(&m, 24, "healthy")).expect("admit");
            let bad = poisoned.recv().expect("outcome");
            assert!(
                matches!(bad, Err(ServeError::WorkerPanic { .. })),
                "got {bad:?}"
            );
            let good = healthy.recv().expect("outcome").expect("ok");
            let reference =
                chipalign_nn::generate::generate(&m, &[5, 6, 7], &greedy(24)).expect("ok");
            assert_eq!(good.tokens, reference, "healthy session unaffected");
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
            let mut cfg = config(1, 4, 4);
            cfg.stall_slices = 3;
            let scheduler = Scheduler::start(cfg, Arc::clone(&metrics));
            let rx = scheduler.submit(tagged(&m, 24, "stuck")).expect("admit");
            let outcome = rx.recv().expect("outcome");
            assert!(
                matches!(outcome, Err(ServeError::Stalled { slices: 3 })),
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
            let scheduler = Scheduler::start(config(1, 4, 4), Arc::clone(&metrics));
            let doomed = scheduler.submit(tagged(&m, 24, "victim")).expect("admit");
            let outcome = doomed.recv().expect("drop guard must report");
            assert!(
                matches!(outcome, Err(ServeError::Internal { .. })),
                "got {outcome:?}"
            );
            // The single worker died holding the session — the respawned
            // loop must still serve the next one.
            let next = scheduler.submit(tagged(&m, 8, "after")).expect("admit");
            let result = next.recv().expect("outcome").expect("ok");
            assert_eq!(result.tokens.len(), 8);
            assert_eq!(metrics.snapshot().workers_respawned, 1);
            assert_eq!(scheduler.active(), 0);
            scheduler.join();
        }
    }
}
