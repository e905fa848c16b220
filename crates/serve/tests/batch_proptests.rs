//! Seeded property tests for the batched scheduler: random admission/completion
//! interleavings, random session mixes, every `max_batch` in `{1, 2, 4}`
//! with more sessions than `max_batch` (so sessions rotate between
//! slices), and sessions joining and leaving a running slice at round
//! boundaries must be invisible in the per-session transcripts — each one
//! byte-identical to a single-threaded `generate()` — while the metrics
//! stay internally consistent.
//!
//! These drive the [`Scheduler`] directly (no TCP) so each case is cheap
//! enough to run dozens of random schedules: [`CASES`] seeded cases per
//! property ([`chipalign_tensor::rng::cases`]); a failure reports its case
//! number.

use std::sync::Arc;

use chipalign_model::ArchSpec;
use chipalign_nn::generate::{generate, GenerateConfig};
use chipalign_nn::{KvDtype, KvPool, KvPoolConfig, StepDecoder, TinyLm};
use chipalign_serve::{Metrics, Scheduler, SchedulerConfig, SessionRequest, SpecDraft};
use chipalign_tensor::rng::{cases, Pcg32};

const CASES: u64 = 24;

fn model(rng: &mut Pcg32) -> Arc<TinyLm> {
    let mut arch = ArchSpec::tiny("batch-prop");
    arch.vocab_size = 99;
    Arc::new(TinyLm::new(&arch, rng).expect("model"))
}

fn greedy(max_new_tokens: usize) -> GenerateConfig {
    GenerateConfig {
        max_new_tokens,
        stop_at_eos: false,
        ..GenerateConfig::default()
    }
}

/// One session in a random schedule: its budget, prompt, whether the
/// submitting thread first waits for an *earlier* session to complete —
/// which is what interleaves admissions with completions — and whether it
/// decodes on the shared paged KV pool instead of a private one.
#[derive(Debug, Clone)]
struct Job {
    budget: usize,
    prompt: Vec<u32>,
    wait_first: bool,
    pooled: bool,
}

/// Between `lo` and `hi` (inclusive) random jobs: budgets 1..=23, prompts
/// of 1..=5 ordinary tokens.
fn random_jobs(rng: &mut Pcg32, lo: usize, hi: usize) -> Vec<Job> {
    let n = rng.range(lo, hi);
    (0..n)
        .map(|_| Job {
            budget: rng.range(1, 23),
            prompt: (0..rng.range(1, 5))
                .map(|_| rng.range(4, 89) as u32)
                .collect(),
            wait_first: rng.chance(0.5),
            pooled: rng.chance(0.5),
        })
        .collect()
}

#[test]
fn random_interleavings_are_invisible_at_every_max_batch() {
    for mut rng in cases(1, CASES) {
        let m = model(&mut rng);
        let max_batch = *rng.choose(&[1usize, 2, 4]);
        let jobs = random_jobs(&mut rng, max_batch + 1, 9);
        let workers = rng.range(1, 2);
        // Generous pool: these cases probe bit-identity of paged storage
        // under random interleavings, not admission pressure.
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 4096,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers,
                max_sessions: jobs.len(),
                max_batch,
            },
            Arc::clone(&metrics),
        );

        // Random interleaving: before some admissions, block on the oldest
        // outstanding session, so completions are threaded through the
        // admission sequence instead of all landing at the end.
        let mut pending = std::collections::VecDeque::new();
        let mut results = Vec::with_capacity(jobs.len());
        for job in &jobs {
            if job.wait_first {
                if let Some((rx, j)) = pending.pop_front() {
                    results.push((outcome_tokens(&rx), j));
                }
            }
            let rx = scheduler
                .submit(SessionRequest {
                    model: Arc::clone(&m),
                    prompt: job.prompt.clone(),
                    cfg: greedy(job.budget),
                    deadline: None,
                    tag: "prop".to_string(),
                    pool: job.pooled.then(|| Arc::clone(&pool)),
                    draft: None,
                })
                .expect("within max_sessions by construction");
            pending.push_back((rx, job.clone()));
        }
        while let Some((rx, j)) = pending.pop_front() {
            results.push((outcome_tokens(&rx), j));
        }

        for (tokens, job) in &results {
            let reference = generate(&m, &job.prompt, &greedy(job.budget)).expect("reference");
            assert_eq!(
                tokens, &reference,
                "transcript changed under max_batch={max_batch} workers={workers}"
            );
        }

        assert_eq!(scheduler.active(), 0);
        scheduler.join();
        let snap = metrics.snapshot();
        assert_eq!(snap.completed, jobs.len() as u64);
        assert_eq!(snap.failed, 0);
        assert_eq!(snap.worker_panics, 0);
        assert_eq!(snap.watchdog_cancels, 0);
        let expected_tokens: u64 = jobs.iter().map(|j| j.budget as u64).sum();
        assert_eq!(snap.tokens_out, expected_tokens);
        // Occupancy bookkeeping: every dequeued slice lands in exactly one
        // bucket, batched_slices counts exactly the multi-session ones, and
        // no slice can exceed the configured batch width.
        let occupied: u64 = snap.batch_occupancy.iter().sum();
        assert_eq!(occupied, snap.batch_occupancy[1] + snap.batched_slices);
        for (n, &count) in snap.batch_occupancy.iter().enumerate() {
            if n > max_batch {
                assert_eq!(count, 0, "slice wider than max_batch={max_batch}");
            }
        }
        if max_batch == 1 {
            assert_eq!(snap.batched_slices, 0);
        }
    }
}

#[test]
fn mixed_dtype_sessions_coexist_without_cross_talk() {
    for mut rng in cases(2, CASES) {
        // f32-paged and int8-paged sessions share one scheduler, and the
        // int8 ones share one pool; each transcript must match a fresh
        // single-threaded decode *at the same dtype*, bitwise. f32 decode
        // is bit-identical at every block size, so `generate()` is its
        // reference; each int8 session replays through a private int8
        // pool (block seals are positional, so chunked scheduler prefill
        // and sliced decode quantize identically to the sequential run).
        // `Job::pooled` picks the dtype here: true → int8, false → f32.
        let m = model(&mut rng);
        let jobs = random_jobs(&mut rng, 5, 7);
        let workers = rng.range(1, 2);
        let f32_pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 4096,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let int8_pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 4096,
            dtype: KvDtype::Int8,
        })
        .expect("pool");
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers,
                max_sessions: jobs.len(),
                max_batch: 4,
            },
            Arc::clone(&metrics),
        );

        let mut pending = std::collections::VecDeque::new();
        let mut results = Vec::with_capacity(jobs.len());
        for job in &jobs {
            if job.wait_first {
                if let Some((rx, j)) = pending.pop_front() {
                    results.push((outcome_tokens(&rx), j));
                }
            }
            let pool = if job.pooled { &int8_pool } else { &f32_pool };
            let rx = scheduler
                .submit(SessionRequest {
                    model: Arc::clone(&m),
                    prompt: job.prompt.clone(),
                    cfg: greedy(job.budget),
                    deadline: None,
                    tag: "prop".to_string(),
                    pool: Some(Arc::clone(pool)),
                    draft: None,
                })
                .expect("within max_sessions by construction");
            pending.push_back((rx, job.clone()));
        }
        while let Some((rx, j)) = pending.pop_front() {
            results.push((outcome_tokens(&rx), j));
        }

        for (tokens, job) in &results {
            let cfg = greedy(job.budget);
            let reference = if job.pooled {
                let rp = KvPool::new(KvPoolConfig {
                    block_tokens: 4,
                    max_blocks: 4096,
                    dtype: KvDtype::Int8,
                })
                .expect("pool");
                let mut session =
                    StepDecoder::new_chunked_pooled(&m, &job.prompt, &cfg, &rp).expect("session");
                session.prefill_pending(usize::MAX).expect("prefill");
                let mut toks = Vec::with_capacity(job.budget);
                while let Some(next) = session.step().expect("step") {
                    toks.push(next);
                }
                toks
            } else {
                generate(&m, &job.prompt, &cfg).expect("reference")
            };
            assert_eq!(
                tokens,
                &reference,
                "{} transcript changed under shared mixed-dtype scheduling",
                if job.pooled { "int8" } else { "f32" }
            );
        }

        assert_eq!(scheduler.active(), 0);
        scheduler.join();
        let snap = metrics.snapshot();
        assert_eq!(snap.completed, jobs.len() as u64);
        assert_eq!(snap.failed, 0);
        // The scheduler's prefix cache keeps donated prompt snapshots (and
        // their blocks) alive by design; once it is gone too, both pools
        // must be drained: every block (and byte) went back.
        drop(scheduler);
        assert_eq!(f32_pool.blocks_in_use(), 0);
        assert_eq!(int8_pool.blocks_in_use(), 0);
        assert_eq!(f32_pool.bytes_in_use(), 0);
        assert_eq!(int8_pool.bytes_in_use(), 0);
    }
}

#[test]
fn sessions_leaving_and_joining_mid_slice_are_answered_once_and_unchanged() {
    // One worker, so every admission lands in a running slice: sessions
    // submitted while others decode must join at a round boundary, and
    // members must leave the round they end. Plain and speculative
    // members, private and pooled KV, random batch width, and more
    // sessions than one batch holds.
    for mut rng in cases(3, CASES) {
        let m = model(&mut rng);
        let max_batch = *rng.choose(&[1usize, 2, 4, 8]);
        let n = rng.range(max_batch + 1, 9.max(max_batch + 2));
        let jobs: Vec<(Job, Option<usize>)> = random_jobs(&mut rng, n, n)
            .into_iter()
            .map(|mut job| {
                job.budget = rng.range(1, 24);
                let k = rng.chance(0.3).then(|| rng.range(1, 4));
                (job, k)
            })
            .collect();
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks: 4096,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let blocks_before = pool.blocks_in_use();
        let metrics = Arc::new(Metrics::new());
        let scheduler = Scheduler::start(
            SchedulerConfig {
                workers: 1,
                max_sessions: jobs.len(),
                max_batch,
            },
            Arc::clone(&metrics),
        );

        // Staggered admissions: each session is submitted at once, after a
        // short pause (the worker is then mid-slice), or after the oldest
        // outstanding session is answered. The first `max_batch + 1` go in
        // at once, so more sessions are admitted than one batch holds.
        let mut pending = std::collections::VecDeque::new();
        let mut answered = Vec::with_capacity(jobs.len());
        for (i, (job, k)) in jobs.iter().enumerate() {
            let stagger = rng.range(0, 2);
            match if i <= max_batch { 0 } else { stagger } {
                0 => {}
                1 => {
                    std::thread::sleep(std::time::Duration::from_micros(rng.range(20, 400) as u64))
                }
                _ => {
                    if let Some((rx, j)) = pending.pop_front() {
                        answered.push((outcome_tokens(&rx), rx, j));
                    }
                }
            }
            let rx = scheduler
                .submit(SessionRequest {
                    model: Arc::clone(&m),
                    prompt: job.prompt.clone(),
                    cfg: greedy(job.budget),
                    deadline: None,
                    tag: "prop".to_string(),
                    pool: job.pooled.then(|| Arc::clone(&pool)),
                    draft: k.map(|k| SpecDraft {
                        model: Arc::clone(&m),
                        k,
                    }),
                })
                .expect("within max_sessions by construction");
            pending.push_back((rx, job.clone()));
        }
        while let Some((rx, j)) = pending.pop_front() {
            answered.push((outcome_tokens(&rx), rx, j));
        }

        let shape = format!("max_batch={max_batch}");
        for (tokens, _, job) in &answered {
            let reference = generate(&m, &job.prompt, &greedy(job.budget)).expect("reference");
            assert_eq!(tokens, &reference, "transcript changed under {shape}");
        }
        assert_eq!(scheduler.active(), 0, "{shape}");
        scheduler.join();
        for (_, rx, _) in &answered {
            assert_eq!(
                rx.try_recv().err(),
                Some(std::sync::mpsc::TryRecvError::Disconnected),
                "a session is answered exactly once ({shape})"
            );
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.completed, jobs.len() as u64, "{shape}");
        assert_eq!(snap.failed, 0);
        let expected_tokens: u64 = jobs.iter().map(|(j, _)| j.budget as u64).sum();
        assert_eq!(snap.tokens_out, expected_tokens);
        // The prefix cache holds donated prompt blocks until it goes.
        drop(scheduler);
        assert_eq!(pool.blocks_in_use(), blocks_before, "{shape}");
    }
}

fn outcome_tokens(
    rx: &std::sync::mpsc::Receiver<chipalign_serve::scheduler::SessionOutcome>,
) -> Vec<u32> {
    rx.recv()
        .expect("scheduler always reports")
        .expect("no faults armed")
        .tokens
}
