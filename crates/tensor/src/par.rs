//! Fan-out of independent work items over every core, on scoped threads.

use std::num::NonZeroUsize;
use std::panic;
use std::sync::Mutex;
use std::thread;

/// Runs `work(k, item)` for every item on all available cores
/// ([`std::thread::available_parallelism`]) and returns the results in item
/// order.
///
/// Workers claim whole items from one shared queue, so every item is
/// computed by one thread from start to finish, and each result is placed
/// at its item's index. A `work` whose result depends only on `(k, item)`
/// therefore returns the same output, bit for bit, for any number of
/// workers. With one core available (or one item) everything runs on the
/// calling thread.
///
/// Allocate what the results will hold *before* the call, on the calling
/// thread, and hand it in with the items: memory a worker allocates comes
/// from that worker's own malloc arena, where freed space is not reused by
/// the other threads, so worker-allocated outputs raise the peak resident
/// size of a process that repeats the fan-out.
///
/// # Panics
///
/// If `work` panics, the first worker panic is re-raised on the calling
/// thread once every worker has stopped.
///
/// # Example
///
/// ```
/// let squares = chipalign_tensor::parallelize(vec![1u64, 2, 3], |k, x| (k, x * x));
/// assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9)]);
/// ```
pub fn parallelize<I: Send, T: Send>(items: Vec<I>, work: impl Fn(usize, I) -> T + Sync) -> Vec<T> {
    let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
    parallelize_with(workers, items, work)
}

/// [`parallelize`] on exactly `workers` threads (at most one per item).
///
/// Not a tuning knob: it exists so tests can show that a result does not
/// depend on the worker count. Everything else calls [`parallelize`].
#[doc(hidden)]
pub fn parallelize_with<I: Send, T: Send>(
    workers: usize,
    items: Vec<I>,
    work: impl Fn(usize, I) -> T + Sync,
) -> Vec<T> {
    let n = items.len();
    let workers = workers.clamp(1, n.max(1));
    if workers == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(k, item)| work(k, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    // The guard lives for one `next()`, which cannot panic, so the lock is
    // never poisoned (a panic in `work` happens with the lock released).
    let claim = || queue.lock().expect("queue lock poisoned").next();
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    while let Some((k, item)) = claim() {
                        done.push((k, work(k, item)));
                    }
                    done
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => {
                    for (k, result) in done {
                        slots[k] = Some(result);
                    }
                }
                Err(payload) => panic::resume_unwind(payload),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index is claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

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
        use std::sync::Condvar;
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
}
