//! The compute pool: persistent worker threads shared by every split
//! projection ([`crate::Matrix::matvec`], [`crate::Matrix::matmul_bt`],
//! both [`crate::QuantizedMatrix`] products) and by [`parallelize`].
//!
//! The process-wide pool has `available_parallelism() − 1` workers; the
//! thread that submits a job is the last one. A job is `parts` calls of one
//! `Fn(usize)`, each index claimed exactly once from one atomic counter by
//! the workers and the caller alike, so a worker that is slow to wake costs
//! only the parts the caller ends up doing itself. After a job a worker
//! spins for [`SPIN`] on the job counter, then parks on a `Condvar`; the
//! caller notifies only when a worker is parked.
//!
//! A job submitted while the pool is running another one — by a second
//! scheduler worker, or from inside a part — runs inline on its caller:
//! every part still runs exactly once, so the result is the same, and no
//! caller ever waits for the pool.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long an idle worker polls for the next job before it parks.
///
/// A spin hand-off costs ~0.1 µs and a `Condvar` wake 11–13 µs on a 2-vCPU
/// Xeon, against the 30–100 µs a split `bench-384` projection takes, so a
/// forward's back-to-back projections reach a spinning worker. Attention
/// and the sampler leave longer gaps, and there the worker parks instead of
/// taking a core from the thread doing that work. The spin is CPU time of
/// the process, counted in its CPU-time metrics.
const SPIN: Duration = Duration::from_micros(20);

/// The work of one job: called once per part index.
type Work<'a> = dyn Fn(usize) + Sync + 'a;

/// One open job.
#[derive(Clone, Copy)]
struct Job {
    work: &'static Work<'static>,
    parts: usize,
}

/// The state workers check in against, behind [`Shared::slot`].
struct Slot {
    /// Bumped once per published job (and once at shutdown).
    epoch: u64,
    /// The open job; `None` once its caller takes no more check-ins.
    job: Option<Job>,
    /// Workers waiting on [`Shared::wake`].
    parked: usize,
    shutdown: bool,
}

struct Shared {
    slot: Mutex<Slot>,
    wake: Condvar,
    /// `slot.epoch`, readable without the lock, for the spin.
    epoch: AtomicU64,
    /// Next part index of the open job.
    next: AtomicUsize,
    /// Workers between check-in and check-out of the open job.
    active: AtomicUsize,
    /// The open job's first panic payload.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set while a caller's job is open.
    busy: AtomicBool,
}

/// A fixed set of persistent worker threads that run split jobs with the
/// calling thread. Dropping it stops and joins the workers.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool of `workers` threads besides the caller (zero: every job
    /// runs inline). A thread the OS refuses to start is left out.
    pub(crate) fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
                parked: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            epoch: AtomicU64::new(0),
            next: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            panic: Mutex::new(None),
            busy: AtomicBool::new(false),
        });
        let workers = (0..workers)
            .filter_map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("chipalign-compute-{i}"))
                    .spawn(move || shared.serve())
                    .ok()
            })
            .collect();
        Pool { shared, workers }
    }

    /// Threads a job can run on: the workers plus the caller.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Runs `work(p)` for every `p` in `0..parts`, each exactly once, on
    /// the workers and the calling thread, and returns when all are done.
    /// With no workers, one part, or the pool busy with another job, every
    /// part runs here, in index order.
    ///
    /// # Panics
    ///
    /// If a part panics, the first payload is re-raised here once every
    /// worker has left the job; the workers survive it.
    pub(crate) fn run(&self, parts: usize, work: &Work<'_>) {
        let s = &*self.shared;
        if parts <= 1 || self.workers.is_empty() || s.busy.swap(true, Ordering::Acquire) {
            (0..parts).for_each(work);
            return;
        }
        // Reset before the job is visible: workers reach `next` only
        // after taking the slot lock below.
        s.next.store(0, Ordering::Relaxed);
        let parked = {
            let mut slot = lock(&s.slot);
            slot.epoch += 1;
            slot.job = Some(Job {
                work: erase(work),
                parts,
            });
            s.epoch.store(slot.epoch, Ordering::Release);
            slot.parked
        };
        // Notified after the unlock, so a woken worker does not block on
        // the lock this thread still holds (that stall measured ~20 µs). A
        // worker counted in `parked` is already waiting; one that was not
        // takes the lock after this job was published and will not park.
        if parked > 0 {
            s.wake.notify_all();
        }
        s.claim(work, parts);
        // Close the job to check-ins, then wait for every worker that
        // checked in to check out: only then may `work` go out of scope.
        lock(&s.slot).job = None;
        let mut spins = 0u32;
        // Acquire pairs with each worker's check-out `Release`, so their
        // parts' writes are visible once the count reads zero.
        while s.active.load(Ordering::Acquire) != 0 {
            spins += 1;
            if spins < 1 << 10 {
                std::hint::spin_loop();
            } else {
                thread::yield_now();
            }
        }
        let payload = lock(&s.panic).take();
        s.busy.store(false, Ordering::Release);
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.shared.slot.lock() {
            slot.shutdown = true;
            slot.epoch += 1;
            self.shared.epoch.store(slot.epoch, Ordering::Release);
            self.shared.wake.notify_all();
        }
        for worker in self.workers.drain(..) {
            // A part's panic is caught inside the worker, so a join error
            // cannot carry one; nothing is left to report.
            let _ = worker.join();
        }
    }
}

impl Shared {
    /// A worker's life: wait for a job, check in, claim parts, check out.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            let start = Instant::now();
            while self.epoch.load(Ordering::Acquire) == seen && start.elapsed() < SPIN {
                std::hint::spin_loop();
            }
            let job = {
                let mut slot = lock(&self.slot);
                while slot.epoch == seen {
                    slot.parked += 1;
                    slot = self.wake.wait(slot).expect("pool lock poisoned");
                    slot.parked -= 1;
                }
                if slot.shutdown {
                    return;
                }
                seen = slot.epoch;
                // Checking in under the lock that closes the job: a worker
                // either checks in before the caller closes it, and is
                // waited for, or finds it closed.
                match slot.job {
                    Some(job) => {
                        self.active.fetch_add(1, Ordering::Relaxed);
                        job
                    }
                    None => continue,
                }
            };
            self.claim(job.work, job.parts);
            self.active.fetch_sub(1, Ordering::Release);
        }
    }

    /// Claims and runs parts until none are left; a panicking part is
    /// recorded and the claiming goes on.
    fn claim(&self, work: &Work<'_>, parts: usize) {
        loop {
            // Relaxed: an index carries no data; the job was published
            // through the slot lock.
            let p = self.next.fetch_add(1, Ordering::Relaxed);
            if p >= parts {
                return;
            }
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| work(p))) {
                lock(&self.panic).get_or_insert(payload);
            }
        }
    }
}

/// Locks one of the pool's mutexes. No code panics while holding one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("pool lock poisoned")
}

/// Lets the workers hold a borrowed job.
#[allow(unsafe_code)]
fn erase<'a>(work: &'a Work<'a>) -> &'static Work<'static> {
    // SAFETY: only `Pool::run` calls this, and it does not return (or
    // unwind: every part's panic is caught) before it has closed the job
    // under the slot lock and seen every worker that checked in check out.
    // A worker uses the reference only between check-in and check-out, so
    // no use outlives `'a`. The transmute changes nothing but the lifetime.
    unsafe { std::mem::transmute::<&'a Work<'a>, &'static Work<'static>>(work) }
}

/// The process-wide pool, started on first use.
pub(crate) fn global() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| Pool::new(thread::available_parallelism().map_or(1, NonZeroUsize::get) - 1))
}

/// Threads the process-wide compute pool runs a split projection on: its
/// `available_parallelism() − 1` workers plus the calling thread (`1`
/// under `taskset -c 0`). Starts the pool if nothing has yet.
#[must_use]
pub fn compute_threads() -> usize {
    global().threads()
}

/// Runs `work(k, item)` for every item on the process-wide compute pool
/// (every core) and returns the results in item order.
///
/// Threads claim whole items from one shared counter, so every item is
/// computed by one thread from start to finish, and each result is placed
/// at its item's index. A `work` whose result depends only on `(k, item)`
/// therefore returns the same output, bit for bit, for any number of
/// threads. With one core available, one item, or the pool busy, everything
/// runs on the calling thread.
///
/// Allocate what the results will hold *before* the call, on the calling
/// thread, and hand it in with the items: memory a worker allocates comes
/// from that worker's own malloc arena, where freed space is not reused by
/// the other threads, so worker-allocated outputs raise the peak resident
/// size of a process that repeats the fan-out.
///
/// # Panics
///
/// If `work` panics, the first panic is re-raised on the calling thread
/// once every thread has left the job.
///
/// # Example
///
/// ```
/// let squares = chipalign_tensor::parallelize(vec![1u64, 2, 3], |k, x| (k, x * x));
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9)]);
/// ```
pub fn parallelize<I: Send, T: Send>(items: Vec<I>, work: impl Fn(usize, I) -> T + Sync) -> Vec<T> {
    fan_out(global(), items, work)
}

/// [`parallelize`] on exactly `workers` threads (at most one per item): a
/// local pool of `workers − 1`, started and stopped by this call.
///
/// Not a tuning knob: it exists so tests can show that a result does not
/// depend on the worker count. Everything else calls [`parallelize`].
#[doc(hidden)]
pub fn parallelize_with<I: Send, T: Send>(
    workers: usize,
    items: Vec<I>,
    work: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    let pool = Pool::new(workers.clamp(1, items.len().max(1)) - 1);
    fan_out(&pool, items, work)
}

fn fan_out<I: Send, T: Send>(
    pool: &Pool,
    items: Vec<I>,
    work: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    let items: Vec<Mutex<Option<I>>> = items.into_iter().map(|i| Mutex::new(Some(i))).collect();
    let results: Vec<Mutex<Option<T>>> = std::iter::repeat_with(|| Mutex::new(None))
        .take(n)
        .collect();
    // Each guard lives for one `take` or one store, which cannot panic, so
    // no lock is ever poisoned (a panic in `work` happens with both free).
    pool.run(n, &|k| {
        let item = lock(&items[k])
            .take()
            .expect("every index is claimed exactly once");
        let result = work(k, item);
        *lock(&results[k]) = Some(result);
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result lock poisoned")
                .expect("every index is claimed exactly once")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn results_are_in_item_order_for_any_worker_count() {
        let items: Vec<u64> = (0..37).collect();
        let sequential: Vec<(usize, u64)> = items.iter().map(|&x| (x as usize, x * x)).collect();
        for workers in [1, 2, 5, 64] {
            assert_eq!(
                parallelize_with(workers, items.clone(), |k, x| (k, x * x)),
                sequential,
                "{workers} workers"
            );
        }
        assert_eq!(parallelize(items, |k, x| (k, x * x)), sequential);
    }

    #[test]
    fn results_are_placed_by_index_when_workers_interleave() {
        // Item k may finish only once item k+1 has been claimed and item
        // k-1 has finished, so with two or more workers every item is
        // claimed by a different worker than its predecessor and the
        // workers' claims interleave.
        let n = 12;
        for workers in [2, 5] {
            let state = Mutex::new((vec![false; n], vec![false; n]));
            let changed = Condvar::new();
            let out = parallelize_with(workers, (0..n).collect(), |k, x: usize| {
                let mut s = state.lock().expect("test lock");
                s.0[k] = true;
                changed.notify_all();
                while !((k + 1 == n || s.0[k + 1]) && (k == 0 || s.1[k - 1])) {
                    s = changed.wait(s).expect("test lock");
                }
                s.1[k] = true;
                changed.notify_all();
                (k, thread::current().id(), x * 10)
            });
            for (k, (index, _, value)) in out.iter().enumerate() {
                assert_eq!((*index, *value), (k, k * 10), "{workers} workers");
            }
            assert!(
                out.windows(2).all(|w| w[0].1 != w[1].1),
                "neighbouring items ran on different workers"
            );
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let calls = AtomicUsize::new(0);
        let out = parallelize_with(5, vec![(); 100], |k, ()| {
            calls.fetch_add(1, Ordering::Relaxed);
            k
        });
        assert_eq!(calls.load(Ordering::Relaxed), 100);
        assert_eq!(out, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_spawns_nothing() {
        assert!(parallelize_with(5, Vec::<u8>::new(), |_, x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 3 is bad")]
    fn a_worker_panic_reaches_the_caller() {
        let _ = parallelize_with(2, (0..8).collect(), |_, x: u32| {
            assert!(x != 3, "item 3 is bad");
            x
        });
    }

    /// Runs one part per thread of `pool`, each held until every thread
    /// has claimed one, so every worker provably takes part; `on_part`
    /// then runs in each. Returns the threads that ran a part. Fails
    /// instead of hanging if a worker never arrives.
    fn run_on_every_thread(pool: &Pool, on_part: impl Fn(usize) + Sync) -> HashSet<ThreadId> {
        let parts = pool.threads();
        let arrived = AtomicUsize::new(0);
        let ran = Mutex::new(HashSet::new());
        pool.run(parts, &|p| {
            ran.lock()
                .expect("test lock")
                .insert(thread::current().id());
            arrived.fetch_add(1, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(20);
            while arrived.load(Ordering::SeqCst) < parts {
                assert!(Instant::now() < deadline, "a worker never claimed a part");
                thread::yield_now();
            }
            on_part(p);
        });
        ran.into_inner().expect("test lock")
    }

    #[test]
    fn a_panic_on_a_worker_or_the_caller_reaches_the_caller_and_the_pool_survives() {
        let pool = Pool::new(2);
        let caller = thread::current().id();
        for on_caller in [false, true] {
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                run_on_every_thread(&pool, |_| {
                    if (thread::current().id() == caller) == on_caller {
                        panic!("part failed");
                    }
                })
            }));
            let payload = result.expect_err("the part's panic reaches the caller");
            assert_eq!(payload.downcast_ref::<&str>(), Some(&"part failed"));
            // The next job runs on every thread again, workers included.
            assert_eq!(run_on_every_thread(&pool, |_| ()).len(), 3);
        }
    }

    #[test]
    fn a_job_submitted_from_inside_a_job_runs_inline() {
        let pool = Pool::new(2);
        let inner_ran = AtomicUsize::new(0);
        run_on_every_thread(&pool, |_| {
            let outer = thread::current().id();
            pool.run(4, &|_| {
                assert_eq!(thread::current().id(), outer, "nested job left its caller");
                inner_ran.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(inner_ran.load(Ordering::SeqCst), 3 * 4);
    }

    #[test]
    fn concurrent_submitters_all_get_their_results() {
        let pool = Arc::new(Pool::new(2));
        let submitters: Vec<_> = (0..4u64)
            .map(|t| {
                let pool = Arc::clone(&pool);
                thread::spawn(move || {
                    for round in 0..200u64 {
                        let parts = 1 + (round % 7) as usize;
                        let slots: Vec<AtomicU64> = (0..parts).map(|_| AtomicU64::new(0)).collect();
                        pool.run(parts, &|p| {
                            slots[p].fetch_add(t * 1000 + round + p as u64, Ordering::Relaxed);
                        });
                        for (p, slot) in slots.iter().enumerate() {
                            assert_eq!(slot.load(Ordering::Relaxed), t * 1000 + round + p as u64);
                        }
                    }
                })
            })
            .collect();
        for submitter in submitters {
            submitter.join().expect("submitter finished");
        }
    }

    #[test]
    fn a_worker_parked_past_the_spin_window_wakes_for_the_next_job() {
        let pool = Pool::new(1);
        assert_eq!(run_on_every_thread(&pool, |_| ()).len(), 2);
        // Wait until the worker has given up spinning and parked.
        let deadline = Instant::now() + Duration::from_secs(20);
        while lock(&pool.shared.slot).parked == 0 {
            assert!(Instant::now() < deadline, "the worker never parked");
            thread::sleep(SPIN);
        }
        assert_eq!(run_on_every_thread(&pool, |_| ()).len(), 2);
    }
}
