//! `decode_steady` and `prefill_shared`: one in-process `Scheduler` on the
//! f32 `bench-384` model, driven closed-loop by one generator thread.

use std::sync::mpsc::{Receiver, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use chipalign_model::format;
use chipalign_nn::generate::generate;
use chipalign_nn::{KvPool, StepDecoder, TinyLm};
use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig};
use chipalign_serve::scheduler::SessionOutcome;
use chipalign_serve::{
    Metrics, MetricsSnapshot, ModelRegistry, Scheduler, SchedulerConfig, SessionRequest,
};
use chipalign_tensor::rng::Pcg32;

use crate::inputs::{self, greedy};
use crate::metrics::Report;
use crate::probes;
use crate::stats::{self, median, percentile};
use crate::trace::Tracer;
use crate::{repeat_setup, Opts};

/// Sessions checked against single-threaded `nn::generate::generate` after
/// an untraced pass. Every session is too many: the oracle decodes one
/// unbatched token at a time and would cost several times the pass itself.
/// A traced run checks every session against its `nn` replay instead.
const ORACLE_SAMPLES: usize = 6;

/// One session to submit.
pub struct Req {
    pub prompt: Vec<u32>,
    pub new_tokens: usize,
    /// Index of the shared scaffold the prompt starts with, if any.
    pub scaffold: Option<usize>,
    /// A 1-token request: its latency is queue + prefill + first token.
    pub probe: bool,
}

/// The generated inputs of one run.
pub struct Plan {
    pub requests: Vec<Req>,
    /// Sessions kept in flight by the generator.
    pub inflight: usize,
    /// Shared scaffolds, submitted once during warm-up so that the prefix
    /// cache holds them: the cache matches whole cached prompts only.
    pub scaffolds: Vec<Vec<u32>>,
}

/// The default scheduler, but with one worker. On this 2-vCPU sandbox two
/// busy cores deliver run-to-run throughput 26 % apart for identical work
/// at full utilisation, one busy core about 3 %; and a worker pops up to
/// `max_batch` queued sessions at once, so with several workers and few
/// sessions in flight, which worker holds how many is a race that decides
/// the run. One worker measures tokens per second **per core**, steadily.
pub fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig {
        workers: 1,
        ..SchedulerConfig::default()
    }
}

/// 8 in flight (one full batch), unique 16–32-token prompts, 64 greedy
/// tokens each.
pub fn plan_decode_steady(opts: &Opts) -> Plan {
    let mut rng = Pcg32::seed(opts.seed).derive(10);
    let n = opts.count(160, 16);
    let lengths = inputs::length_deck(n, 16, 32, &mut rng);
    let requests = lengths
        .into_iter()
        .map(|len| Req {
            prompt: inputs::tokens_of(&inputs::text(len, &mut rng)),
            new_tokens: if opts.quick { 8 } else { 64 },
            scaffold: None,
            probe: false,
        })
        .collect();
    Plan {
        requests,
        inflight: 8,
        scaffolds: Vec::new(),
    }
}

/// 4 in flight; a 160–192-token scaffold plus a 16–32-token question; 75 %
/// of the requests draw the scaffold Zipf(1.0) from 4 shared ones, 25 %
/// carry their own; half generate 16 tokens, half are 1-token TTFT probes.
pub fn plan_prefill_shared(opts: &Opts) -> Plan {
    let mut rng = Pcg32::seed(opts.seed).derive(11);
    let n = opts.count(112, 16);
    let (lo, hi) = if opts.quick { (40, 48) } else { (160, 192) };
    let scaffold_lengths = inputs::length_deck(4, lo, hi, &mut rng);
    let scaffolds: Vec<Vec<u32>> = scaffold_lengths
        .iter()
        .map(|&len| inputs::tokens_of(&inputs::text(len, &mut rng)))
        .collect();
    let deck = inputs::scaffold_sequence(n, scaffolds.len(), 0.75);
    let own_lengths = inputs::length_deck(n, lo, hi, &mut rng);
    let questions = inputs::length_deck(n, 16, 32, &mut rng);
    // Probes alternate within each class so both classes have them.
    let mut probe_next = [false, true];
    let requests = (0..n)
        .map(|i| {
            let mut prompt = match deck[i] {
                Some(k) => scaffolds[k].clone(),
                None => inputs::tokens_of(&inputs::text(own_lengths[i], &mut rng)),
            };
            prompt.extend(inputs::tokens_of(&inputs::text(questions[i], &mut rng)));
            let class = usize::from(deck[i].is_some());
            let probe = probe_next[class];
            probe_next[class] = !probe;
            Req {
                prompt,
                new_tokens: if probe { 1 } else { 16 },
                scaffold: deck[i],
                probe,
            }
        })
        .collect();
    Plan {
        requests,
        inflight: 4,
        scaffolds,
    }
}

/// The running system under test.
pub struct Stack {
    pub model: Arc<TinyLm>,
    pub pool: Arc<KvPool>,
    pub metrics: Arc<Metrics>,
    sched: Scheduler,
    _registry: ModelRegistry,
}

/// Generates and writes the model, loads and registers it, starts the
/// scheduler, and runs the fixed warm-up.
fn setup(opts: &Opts, plan: &Plan) -> Stack {
    let arch = if opts.quick {
        inputs::quick_arch("quick-serve")
    } else {
        inputs::bench_384()
    };
    let trio = inputs::sibling_trio(&arch, opts.seed);
    let path = opts.work_dir().join("model.calt");
    format::save(&trio.chip, &path).expect("write the model checkpoint");
    drop(trio);

    let zoo = Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed: 1,
        cache_dir: None,
    })
    .expect("a zoo without a cache directory touches no disk");
    let registry = ModelRegistry::new(zoo);
    let metrics = Arc::new(Metrics::new());
    registry.attach_metrics(Arc::clone(&metrics));
    let ckpt = format::load(&path).expect("read back the model checkpoint");
    let model = registry.register(
        "bench",
        TinyLm::from_checkpoint(&ckpt).expect("generated checkpoint matches its arch"),
    );
    let pool = registry.kv_pool(&model);
    let sched = Scheduler::start(scheduler_config(), Arc::clone(&metrics));
    let stack = Stack {
        model,
        pool,
        metrics,
        sched,
        _registry: registry,
    };

    // Fixed warm-up: a few short sessions fault in the weights and wake
    // every worker; each shared scaffold is served once so the prefix
    // cache holds it.
    let mut warm: Vec<Req> = (0..4)
        .map(|i| Req {
            prompt: vec![4 + i; 16],
            new_tokens: 8,
            scaffold: None,
            probe: false,
        })
        .collect();
    warm.extend(plan.scaffolds.iter().map(|s| Req {
        prompt: s.clone(),
        new_tokens: 1,
        scaffold: None,
        probe: true,
    }));
    let pass = drive(&stack, &warm, plan.inflight, &Tracer::new(false));
    assert!(
        pass.done.iter().all(|d| d.ok),
        "warm-up sessions must complete"
    );
    stack
}

impl Stack {
    fn submit(&self, req: &Req, tag: usize) -> Result<Receiver<SessionOutcome>, String> {
        self.sched
            .submit(SessionRequest {
                model: Arc::clone(&self.model),
                prompt: req.prompt.clone(),
                cfg: greedy(req.new_tokens),
                deadline: None,
                tag: format!("bench/{tag}"),
                pool: Some(Arc::clone(&self.pool)),
                draft: None,
            })
            .map_err(|e| e.to_string())
    }

    /// Drains the scheduler and joins its workers.
    fn stop(self) {
        self.sched.join();
    }
}

/// One finished session.
pub struct Done {
    pub tokens: Vec<u32>,
    pub latency_ms: f64,
    pub queue_ms: f64,
    /// Completed with the requested number of tokens.
    pub ok: bool,
}

/// One pass over a request list.
pub struct Pass {
    /// In request order.
    pub done: Vec<Done>,
    pub wall_s: f64,
    pub cpu_s: f64,
    pub kv_bytes_peak: usize,
    pub before: MetricsSnapshot,
    pub after: MetricsSnapshot,
    pub cow_copies: u64,
}

struct InFlight {
    index: usize,
    submitted: Instant,
    span: u64,
    rx: Receiver<SessionOutcome>,
}

/// Closed loop: keeps `inflight` sessions in the scheduler from one thread,
/// submitting the next request as soon as one completes.
pub fn drive(stack: &Stack, reqs: &[Req], inflight: usize, tracer: &Tracer) -> Pass {
    let before = stack.metrics.snapshot();
    let cow_before = stack.pool.cow_copies();
    let cpu_before = stats::cpu_seconds();
    let started = Instant::now();
    let mut done: Vec<Option<Done>> = (0..reqs.len()).map(|_| None).collect();
    let mut slots: Vec<Option<InFlight>> = (0..inflight).map(|_| None).collect();
    let (mut next, mut finished, mut kv_peak) = (0, 0, 0);
    let failed = |latency_ms: f64| Done {
        tokens: Vec::new(),
        latency_ms,
        queue_ms: 0.0,
        ok: false,
    };
    while finished < reqs.len() {
        let mut progressed = false;
        for slot in &mut slots {
            if slot.is_none() && next < reqs.len() {
                let index = next;
                next += 1;
                progressed = true;
                let span = tracer.open(0, index as u64 + 1, "req");
                let submitted = Instant::now();
                let rx = tracer.span(span, index as u64 + 1, "serve.submit", || {
                    stack.submit(&reqs[index], index)
                });
                match rx {
                    Ok(rx) => {
                        *slot = Some(InFlight {
                            index,
                            submitted,
                            span,
                            rx,
                        });
                    }
                    Err(_) => {
                        tracer.close(span);
                        done[index] = Some(failed(0.0));
                        finished += 1;
                    }
                }
            }
            let Some(flight) = slot else { continue };
            let outcome = match flight.rx.try_recv() {
                Err(TryRecvError::Empty) => continue,
                Ok(outcome) => outcome.ok(),
                Err(TryRecvError::Disconnected) => None,
            };
            let now = Instant::now();
            let latency_ms = stats::ms(now - flight.submitted);
            tracer.close(flight.span);
            let req = &reqs[flight.index];
            done[flight.index] = Some(match outcome {
                Some(result) => {
                    let queued = Duration::from_micros(result.queue_us);
                    let id = flight.index as u64 + 1;
                    let queue_end = flight.submitted + queued;
                    tracer.record(flight.span, id, "serve.queue", flight.submitted, queue_end);
                    tracer.record(flight.span, id, "serve.session", queue_end, now);
                    Done {
                        ok: result.tokens.len() == req.new_tokens,
                        tokens: result.tokens,
                        latency_ms,
                        queue_ms: stats::ms(queued),
                    }
                }
                None => failed(latency_ms),
            });
            *slot = None;
            finished += 1;
            progressed = true;
        }
        kv_peak = kv_peak.max(stack.pool.bytes_in_use());
        if !progressed {
            // Polling finer than this costs a tenth of a core; sessions
            // last hundreds of milliseconds.
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    Pass {
        done: done
            .into_iter()
            .map(|d| d.expect("every request finished"))
            .collect(),
        wall_s: started.elapsed().as_secs_f64(),
        cpu_s: stats::cpu_seconds() - cpu_before,
        kv_bytes_peak: kv_peak,
        before,
        after: stack.metrics.snapshot(),
        cow_copies: stack.pool.cow_copies() - cow_before,
    }
}

/// Compares a seeded sample of transcripts with single-threaded
/// `generate` on the same model and prompt, on all cores. Returns how many
/// differ.
fn oracle_mismatches(stack: &Stack, reqs: &[Req], pass: &Pass, seed: u64) -> usize {
    let mut rng = Pcg32::seed(seed).derive(12);
    let mut picks: Vec<usize> = (0..reqs.len()).collect();
    rng.shuffle(&mut picks);
    picks.truncate(ORACLE_SAMPLES);
    stats::in_parallel(
        stats::nproc(),
        picks.len(),
        || (),
        |(), k| {
            let i = picks[k];
            let want = generate(&stack.model, &reqs[i].prompt, &greedy(reqs[i].new_tokens));
            want.map_or(true, |want| want != pass.done[i].tokens)
        },
    )
    .into_iter()
    .filter(|&differs| differs)
    .count()
}

/// What the `nn` replay did, for the `tensor` replay to mirror.
pub struct ReplayShape {
    /// Tokens fed through prefill (one matvec pass over the weights each).
    pub prefill_tokens: usize,
    /// `batch_steps[m]`: decode steps that advanced `m` sessions together.
    pub batch_steps: Vec<usize>,
}

/// The same sessions, driven by the harness through `StepDecoder` on one
/// thread: `inflight` sessions in lockstep through `step_batch`, shared
/// scaffolds adopted from a snapshot as the prefix cache would. Returns
/// the CPU seconds it took (the unit of `serve.cpu_s`, which it is compared
/// with), every transcript, and the shape of the work.
fn nn_replay(stack: &Stack, plan: &Plan) -> (f64, Vec<Vec<u32>>, ReplayShape) {
    let snapshots: Vec<StepDecoder> = plan
        .scaffolds
        .iter()
        .map(|s| {
            let mut d = StepDecoder::new_chunked_pooled(&stack.model, s, &greedy(1), &stack.pool)
                .expect("scaffold is a valid prompt");
            d.prefill_pending(usize::MAX)
                .expect("scaffold fits the pool");
            d
        })
        .collect();
    let mut shape = ReplayShape {
        prefill_tokens: 0,
        batch_steps: vec![0; plan.inflight + 1],
    };
    let mut transcripts: Vec<Vec<u32>> = vec![Vec::new(); plan.requests.len()];
    let mut live: Vec<(usize, StepDecoder)> = Vec::new();
    let mut next = 0;
    let started = stats::cpu_seconds();
    while next < plan.requests.len() || !live.is_empty() {
        while live.len() < plan.inflight && next < plan.requests.len() {
            let req = &plan.requests[next];
            let mut d = StepDecoder::new_chunked_pooled(
                &stack.model,
                &req.prompt,
                &greedy(req.new_tokens),
                &stack.pool,
            )
            .expect("request is a valid prompt");
            if let Some(k) = req.scaffold {
                let donor = snapshots[k].cache();
                let fork = donor.fork_from(donor.len()).expect("within the donor");
                d.adopt_prefix(fork)
                    .expect("prompt starts with its scaffold");
            }
            shape.prefill_tokens += d.prefill_remaining();
            d.prefill_pending(usize::MAX).expect("prompt fits the pool");
            live.push((next, d));
            next += 1;
        }
        let mut refs: Vec<&mut StepDecoder> = live.iter_mut().map(|(_, d)| d).collect();
        let out = StepDecoder::step_batch(&mut refs).expect("decode step");
        let advanced = live.iter().filter(|(_, d)| !d.is_done()).count();
        shape.batch_steps[advanced] += 1;
        for ((index, _), tok) in live.iter().zip(out) {
            transcripts[*index].extend(tok);
        }
        live.retain(|(_, d)| !d.is_done());
    }
    (stats::cpu_seconds() - started, transcripts, shape)
}

/// The projection calls of the replay alone: one `matvec` pass over the
/// weights per prefill token and per single-session step, one `matmul_bt`
/// pass with `m` rows per step of `m` sessions. One thread, CPU seconds.
fn tensor_replay(model: &TinyLm, shape: &ReplayShape) -> f64 {
    let params = model.params();
    let d = model.arch().d_model;
    let d_ff = model.arch().d_ff;
    let x = vec![0.01f32; d];
    let x_ff = vec![0.01f32; d_ff];
    let matvec_pass = || {
        for l in &params.layers {
            for w in [&l.wq, &l.wk, &l.wv, &l.wo, &l.wg, &l.wu] {
                std::hint::black_box(w.matvec(&x).expect("d_model inputs"));
            }
            std::hint::black_box(l.wd.matvec(&x_ff).expect("d_ff inputs"));
        }
        std::hint::black_box(params.lm_head.matvec(&x).expect("d_model inputs"));
    };
    let started = stats::cpu_seconds();
    for _ in 0..shape.prefill_tokens + shape.batch_steps.get(1).copied().unwrap_or(0) {
        matvec_pass();
    }
    for (m, &steps) in shape.batch_steps.iter().enumerate().skip(2) {
        let rows = chipalign_tensor::Matrix::filled(m, d, 0.01);
        let rows_ff = chipalign_tensor::Matrix::filled(m, d_ff, 0.01);
        for _ in 0..steps {
            for l in &params.layers {
                for w in [&l.wq, &l.wk, &l.wv, &l.wo, &l.wg, &l.wu] {
                    std::hint::black_box(rows.matmul_bt(w).expect("d_model columns"));
                }
                std::hint::black_box(rows_ff.matmul_bt(&l.wd).expect("d_ff columns"));
            }
            std::hint::black_box(rows.matmul_bt(&params.lm_head).expect("d_model columns"));
        }
    }
    stats::cpu_seconds() - started
}

fn counter(pass: &Pass, f: impl Fn(&MetricsSnapshot) -> u64) -> f64 {
    (f(&pass.after) - f(&pass.before)) as f64
}

pub fn run(opts: &Opts, tracer: &Tracer, report: &mut Report) {
    let decode = opts.workload == "decode_steady";
    let plan = if decode {
        plan_decode_steady(opts)
    } else {
        plan_prefill_shared(opts)
    };

    let (stack, setup_s) = repeat_setup(opts, || setup(opts, &plan), Stack::stop);

    let pass = drive(&stack, &plan.requests, plan.inflight, tracer);
    for d in &pass.done {
        report.op(d.ok);
    }
    let wrong = oracle_mismatches(&stack, &plan.requests, &pass, opts.seed);
    report.failed += wrong as u64;

    let reqs = &plan.requests;
    let new_tokens: usize = pass.done.iter().map(|d| d.tokens.len()).sum();
    let prompt_tokens: usize = reqs.iter().map(|r| r.prompt.len()).sum();
    let latency_of = |keep: &dyn Fn(&Req) -> bool| -> Vec<f64> {
        reqs.iter()
            .zip(&pass.done)
            .filter(|(r, _)| keep(r))
            .map(|(_, d)| d.latency_ms)
            .collect()
    };
    let sessions = latency_of(&|r| !r.probe);
    let probes = latency_of(&|r| r.probe);
    report.note(format!(
        "{}: {} sessions sent, {} succeeded, {} failed; {} of {} sampled transcripts differ from generate(); {} in flight, {:.2} s wall",
        opts.workload,
        reqs.len(),
        pass.done.iter().filter(|d| d.ok).count(),
        pass.done.iter().filter(|d| !d.ok).count(),
        wrong,
        ORACLE_SAMPLES.min(reqs.len()),
        plan.inflight,
        pass.wall_s
    ));
    report.note(format!(
        "decode_tok_per_s = {:.1}; prompt_tok_per_s = {:.1}; req_per_s = {:.2}; session_latency_ms p50 {:.1} p90 {:.1} (n = {}); ttft_ms p50 {:.1} p90 {:.1} (n = {})",
        new_tokens as f64 / pass.wall_s,
        prompt_tokens as f64 / pass.wall_s,
        reqs.len() as f64 / pass.wall_s,
        median(&sessions),
        percentile(&sessions, 0.9),
        sessions.len(),
        median(&probes),
        percentile(&probes, 0.9),
        probes.len()
    ));

    if !tracer.enabled() {
        report.set("setup_s", setup_s);
        // decode_steady: new tokens per second, latency of whole sessions.
        // prefill_shared: prompt tokens per second, latency of the 1-token
        // probes, which is time to first token.
        let (work, ops) = if decode {
            (new_tokens, &sessions)
        } else {
            (prompt_tokens, &probes)
        };
        report.set("work_per_s", work as f64 / pass.wall_s);
        report.set("op_latency_p50_ms", median(ops));
        report.set("op_latency_p90_ms", percentile(ops, 0.9));
        report.set("peak_rss_mb", stats::peak_rss_mb());
        Stack::stop(stack);
        return;
    }

    // serve: what the scheduler reports about the pass.
    let queue: Vec<f64> = pass.done.iter().map(|d| d.queue_ms).collect();
    report.set("serve.queue_ms_p50", median(&queue));
    report.set("serve.queue_ms_p90", percentile(&queue, 0.9));
    let slices: Vec<u64> = pass
        .after
        .batch_occupancy
        .iter()
        .zip(&pass.before.batch_occupancy)
        .map(|(a, b)| a - b)
        .collect();
    let slice_count: u64 = slices.iter().sum();
    let occupied: u64 = slices.iter().enumerate().map(|(n, c)| n as u64 * c).sum();
    report.set(
        "serve.batch_occupancy_mean",
        occupied as f64 / slice_count.max(1) as f64,
    );
    report.set(
        "serve.batched_slice_share",
        counter(&pass, |s| s.batched_slices) / slice_count.max(1) as f64,
    );
    report.set("serve.cpu_s", pass.cpu_s);
    report.set(
        "serve.cpu_util",
        pass.cpu_s / (pass.wall_s * stats::nproc() as f64),
    );
    report.set(
        "serve.prefix_hit_share",
        counter(&pass, |s| s.prefix_hits) / reqs.len() as f64,
    );
    report.set(
        "serve.prefix_tokens_reused_share",
        counter(&pass, |s| s.prefix_tokens_reused) / prompt_tokens as f64,
    );
    report.set("serve.cow_copies", pass.cow_copies as f64);
    report.set("serve.pool_evictions", counter(&pass, |s| s.pool_evictions));
    report.set("serve.kv_bytes_peak", pass.kv_bytes_peak as f64);
    report.set(
        "serve.rejected",
        counter(&pass, |s| s.rejected_overload + s.rejected_shutdown),
    );
    report.set("serve.session_latency_p50_ms", median(&sessions));
    if !decode {
        report.set(
            "serve.ttft_p50_ms.shared",
            median(&latency_of(&|r| r.probe && r.scaffold.is_some())),
        );
        report.set(
            "serve.ttft_p50_ms.unique",
            median(&latency_of(&|r| r.probe && r.scaffold.is_none())),
        );
    }

    report.set(
        "trace_overhead_share",
        tracer.overhead_seconds() / pass.wall_s,
    );

    // nn: the same sessions on one thread; tensor: their projections alone.
    let (nn_s, transcripts, shape) = nn_replay(&stack, &plan);
    let differ = transcripts
        .iter()
        .zip(&pass.done)
        .filter(|(t, d)| **t != d.tokens)
        .count();
    report.failed += differ as u64;
    let tensor_s = tensor_replay(&stack.model, &shape);
    report.set("nn.replay_s", nn_s);
    report.set("nn.self_share", 1.0 - tensor_s / nn_s);
    report.set("tensor.replay_s", tensor_s);
    report.set("serve.overhead_share", 1.0 - nn_s / pass.cpu_s);
    report.note(format!(
        "{} of {} transcripts differ from the nn replay; replay fed {} prefill tokens and stepped batches {:?}",
        differ,
        reqs.len(),
        shape.prefill_tokens,
        shape.batch_steps
    ));
    report.note(format!(
        "waterfall {}: serve.cpu_s {:.3} -> nn.replay_s {:.3} (residual {:.3}: scheduling, contention, smaller batches) -> tensor.replay_s {:.3} (residual {:.3}: attention, norms, sampling, KV writes)",
        opts.workload,
        pass.cpu_s,
        nn_s,
        pass.cpu_s - nn_s,
        tensor_s,
        nn_s - tensor_s
    ));

    probes::tensor_f32(&stack.model, report);
    if decode {
        probes::nn_decode(opts, &stack.model, &stack.pool, report);
    } else {
        probes::nn_prefill(opts, &stack.model, &stack.pool, report);
    }
    Stack::stop(stack);
}
