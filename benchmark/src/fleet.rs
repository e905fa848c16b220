//! `fleet_mixed`: two `Server`s behind one `RouterServer`, all in this
//! process, driven over loopback TCP with raw JSON lines — the same layers
//! as the scheduler workloads, used differently: int8 kernels beside f32,
//! sealed int8 KV blocks beside f32 blocks, `verify_chunk` beside single
//! steps, registry-built merges beside models loaded from files.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use chipalign_merge::{GeodesicMerge, Merger};
use chipalign_model::{format, Checkpoint};
use chipalign_nn::generate::generate;
use chipalign_nn::{CharTokenizer, TinyLm, BOS};
use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig};
use chipalign_router::{RouterConfig, RouterServer};
use chipalign_serve::{
    Metrics, MetricsSnapshot, ModelRegistry, Scheduler, SchedulerConfig, Server, ServerConfig,
    SessionRequest, SpecDraft,
};
use chipalign_tensor::rng::Pcg32;

use crate::inputs::{self, greedy};
use crate::metrics::Report;
use crate::probes;
use crate::stats::{self, median, percentile};
use crate::trace::Tracer;
use crate::wire::{self, Connection};
use crate::{repeat_setup, Opts};

const NEW_TOKENS: usize = 32;
const REPLICAS: usize = 2;
/// Client connections, each a closed loop. One: two busy cores on this
/// 2-vCPU sandbox vary 26 % from run to run on identical work (see
/// `sched::scheduler_config`), and at concurrency 1 nothing hides the
/// per-request cost of a variant, the wire or the router.
const CONNECTIONS: usize = 1;
/// λ of the merge specs the workload cycles through.
const LAMBDAS: [f32; 4] = [0.2, 0.4, 0.6, 0.8];
/// The zoo files the merge specs resolve to: the cache directory is
/// pre-seeded with the sibling pair under these names, so nothing trains.
const ZOO_CHIP: &str = "eda-qwen-smoke-s1.calt";
const ZOO_INSTRUCT: &str = "instruct-qwen-smoke-s1.calt";
/// Requests whose transcript is checked against `generate` after a pass.
const ORACLE_SAMPLES: usize = 6;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Variant {
    F32,
    Int8,
    Kv8,
    Int8Kv8,
    Spec,
    Merge,
}

const VARIANTS: [Variant; 6] = [
    Variant::F32,
    Variant::Int8,
    Variant::Kv8,
    Variant::Int8Kv8,
    Variant::Spec,
    Variant::Merge,
];

impl Variant {
    fn metric(self) -> &'static str {
        match self {
            Variant::F32 => "serve.tok_per_s.f32",
            Variant::Int8 => "serve.tok_per_s.int8",
            Variant::Kv8 => "serve.tok_per_s.kv8",
            Variant::Int8Kv8 => "serve.tok_per_s.int8kv8",
            Variant::Spec => "serve.tok_per_s.spec",
            Variant::Merge => "serve.tok_per_s.merge",
        }
    }

    /// Whether the transcript must equal f32 `generate` byte for byte.
    fn exact(self) -> bool {
        matches!(self, Variant::F32 | Variant::Spec | Variant::Merge)
    }
}

struct Req {
    variant: Variant,
    /// λ index for [`Variant::Merge`].
    lambda: usize,
    spec: String,
    prompt: String,
}

/// Where the generated checkpoints live.
struct Files {
    target: PathBuf,
    draft: PathBuf,
    zoo_dir: PathBuf,
}

impl Files {
    fn new(dir: &Path) -> Self {
        Files {
            target: dir.join("target.calt"),
            draft: dir.join("draft.calt"),
            zoo_dir: dir.join("zoo"),
        }
    }

    fn spec(&self, variant: Variant, lambda: usize) -> String {
        let target = format!("file:{}", self.target.display());
        match variant {
            Variant::F32 => target,
            Variant::Int8 => format!("{target}#int8"),
            Variant::Kv8 => format!("{target}#kv8"),
            Variant::Int8Kv8 => format!("{target}#int8#kv8"),
            Variant::Spec => format!("spec:{target}|file:{}@4", self.draft.display()),
            Variant::Merge => format!("merge:eda-qwen+instruct-qwen@{}", LAMBDAS[lambda]),
        }
    }
}

/// `n` requests cycling over the six variants (and, within the merge
/// variant, over the four λ); 64–96-token prompts: one of two shared
/// 48-token scaffolds plus a 16–48-token question. `pass` salts the
/// questions so that no two passes of one run send the same prompt.
fn plan(opts: &Opts, files: &Files, scaffolds: &[String], pass: u64) -> Vec<Req> {
    let mut rng = Pcg32::seed(opts.seed).derive(20 + pass);
    let n = opts.count(54, 12);
    let questions = inputs::length_deck(n, 16, 48, &mut rng);
    (0..n)
        .map(|i| {
            let variant = VARIANTS[i % VARIANTS.len()];
            let round = i / VARIANTS.len();
            let lambda = round % LAMBDAS.len();
            let scaffold = &scaffolds[round % scaffolds.len()];
            Req {
                variant,
                lambda,
                spec: files.spec(variant, lambda),
                prompt: format!("{scaffold}{}", inputs::text(questions[i], &mut rng)),
            }
        })
        .collect()
}

/// One 1-token request per spec (every λ of the merge spec included) and
/// shared scaffold. Whoever serves it afterwards holds the model and, in
/// its prefix cache, the scaffold.
fn priming(files: &Files, scaffolds: &[String]) -> Vec<Req> {
    let specs = VARIANTS.into_iter().flat_map(|variant| {
        let lambdas = if variant == Variant::Merge {
            LAMBDAS.len()
        } else {
            1
        };
        (0..lambdas).map(move |lambda| (variant, lambda))
    });
    specs
        .flat_map(|(variant, lambda)| {
            scaffolds.iter().map(move |s| Req {
                variant,
                lambda,
                spec: files.spec(variant, lambda),
                prompt: s.clone(),
            })
        })
        .collect()
}

struct Fleet {
    servers: Vec<Server>,
    front: RouterServer,
}

impl Fleet {
    fn stop(self) {
        self.front.shutdown();
        for s in &self.servers {
            s.shutdown();
        }
    }

    /// Serving counters summed over the replicas.
    fn snapshot(&self) -> MetricsSnapshot {
        let mut total = MetricsSnapshot::default();
        for s in &self.servers {
            total.absorb(&s.metrics().snapshot());
        }
        total
    }
}

/// Generates and writes the sibling pair (as target/draft files and as the
/// zoo's cached `eda-qwen`/`instruct-qwen`), starts both replicas and the
/// router, and serves each shared scaffold once per spec through the
/// router, which loads (or merges) every model on the replica its requests
/// will land on and fills that replica's prefix cache.
fn setup(opts: &Opts, files: &Files, scaffolds: &[String]) -> Fleet {
    let arch = if opts.quick {
        inputs::quick_arch("quick-fleet")
    } else {
        inputs::bench_384()
    };
    let trio = inputs::sibling_trio(&arch, opts.seed);
    let _ = std::fs::remove_dir_all(&files.zoo_dir);
    std::fs::create_dir_all(&files.zoo_dir).expect("create the zoo cache directory");
    format::save(&trio.chip, &files.target).expect("write the target checkpoint");
    format::save(&trio.instruct, &files.draft).expect("write the draft checkpoint");
    std::fs::hard_link(&files.target, files.zoo_dir.join(ZOO_CHIP)).expect("seed the zoo cache");
    std::fs::hard_link(&files.draft, files.zoo_dir.join(ZOO_INSTRUCT)).expect("seed the zoo cache");
    drop(trio);

    let servers: Vec<Server> = (0..REPLICAS)
        .map(|i| {
            let zoo = Zoo::new(ZooConfig {
                quality: Quality::Smoke,
                seed: 1,
                cache_dir: Some(files.zoo_dir.clone()),
            })
            .expect("zoo cache directory exists");
            Server::bind(
                ServerConfig {
                    instance_tag: Some(format!("r{i}")),
                    ..ServerConfig::default()
                },
                ModelRegistry::new(zoo),
            )
            .expect("bind a replica on loopback")
        })
        .collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let front = RouterServer::bind(RouterConfig::default(), addrs).expect("bind the router");
    let fleet = Fleet { servers, front };

    let warm = priming(files, scaffolds);
    let pass = drive(
        fleet.front.local_addr(),
        &warm,
        1,
        "router.generate",
        &Tracer::new(false),
    );
    assert!(
        pass.iter().all(|d| d.error.is_none()),
        "warm-up requests must complete"
    );
    fleet
}

/// One reply, as the client saw it.
struct Done {
    text: String,
    tokens: usize,
    latency_ms: f64,
    queue_ms: f64,
    error: Option<String>,
}

impl Done {
    fn failed(latency_ms: f64, error: String) -> Self {
        Done {
            text: String::new(),
            tokens: 0,
            latency_ms,
            queue_ms: 0.0,
            error: Some(error),
        }
    }
}

/// Closed loop over TCP: [`CONNECTIONS`] connections to `addr`, each sending
/// its next request when the previous reply arrives. `span` names the layer
/// the connection talks to (the router, or one replica's wire).
fn drive(
    addr: SocketAddr,
    reqs: &[Req],
    new_tokens: usize,
    span: &'static str,
    tracer: &Tracer,
) -> Vec<Done> {
    let connect = || Connection::open(addr).map_err(|e| e.to_string());
    stats::in_parallel(CONNECTIONS, reqs.len(), connect, |conn, i| {
        let req = &reqs[i];
        let id = i as u64 + 1;
        let line = wire::generate_line(&req.spec, &req.prompt, new_tokens);
        let root = tracer.open(0, id, "req");
        let started = Instant::now();
        let reply = tracer.span(root, id, span, || match conn {
            Ok(c) => c.exchange(&line).map_err(|e| e.to_string()),
            Err(e) => Err(e.clone()),
        });
        let ended = Instant::now();
        tracer.close(root);
        let latency_ms = stats::ms(ended - started);
        match reply.and_then(|line| wire::parse_generation(&line)) {
            Ok(g) => {
                let queued = std::time::Duration::from_micros((g.queue_ms * 1e3) as u64);
                tracer.record(root, id, "serve.queue", started, started + queued);
                Done {
                    text: g.text,
                    tokens: g.tokens,
                    latency_ms,
                    queue_ms: g.queue_ms,
                    error: None,
                }
            }
            Err(e) => Done::failed(latency_ms, e),
        }
    })
}

/// The same request list in-process: specs resolved through replica 0's
/// registry and submitted to a scheduler of the harness's own, as
/// `serve::server` does for a request off the wire — minus the wire.
fn drive_direct(
    registry: &ModelRegistry,
    warm: &[Req],
    reqs: &[Req],
    tracer: &Tracer,
) -> Vec<Done> {
    let sched = Scheduler::start(SchedulerConfig::default(), Arc::new(Metrics::new()));
    // This scheduler's prefix cache starts empty; the replicas' were primed.
    submit_all(registry, &sched, warm, 1, &Tracer::new(false));
    let done = submit_all(registry, &sched, reqs, NEW_TOKENS, tracer);
    sched.join();
    done
}

fn submit_all(
    registry: &ModelRegistry,
    sched: &Scheduler,
    reqs: &[Req],
    new_tokens: usize,
    tracer: &Tracer,
) -> Vec<Done> {
    let tokenizer = CharTokenizer::new();
    stats::in_parallel(
        CONNECTIONS,
        reqs.len(),
        || (),
        |(), i| {
            let req = &reqs[i];
            let id = i as u64 + 1;
            let root = tracer.open(0, id, "req");
            let started = Instant::now();
            let submitted = tracer.span(root, id, "serve.submit", || {
                let (key, model, draft) = match registry.resolve_spec_str(&req.spec)? {
                    Some(r) => {
                        let draft = SpecDraft {
                            model: r.draft,
                            k: r.k,
                        };
                        (r.target_key, r.target, Some(draft))
                    }
                    None => {
                        let (key, model) = registry.resolve_str(&req.spec)?;
                        (key, model, None)
                    }
                };
                let mut prompt = vec![BOS];
                prompt.extend(tokenizer.encode(&req.prompt));
                let pool = registry.kv_pool_for(&key, &model);
                sched.submit(SessionRequest {
                    model,
                    prompt,
                    cfg: greedy(new_tokens),
                    deadline: None,
                    tag: key,
                    pool: Some(pool),
                    draft,
                })
            });
            let outcome = submitted
                .map_err(|e| e.to_string())
                .and_then(|rx| rx.recv().map_err(|e| e.to_string()))
                .and_then(|o| o.map_err(|e| e.to_string()));
            tracer.close(root);
            let latency_ms = stats::ms(started.elapsed());
            match outcome {
                Ok(r) => Done {
                    text: tokenizer.decode(&r.tokens),
                    tokens: r.tokens.len(),
                    latency_ms,
                    queue_ms: r.queue_us as f64 / 1e3,
                    error: None,
                },
                Err(e) => Done::failed(latency_ms, e),
            }
        },
    )
}

/// The f32 models the exact variants must reproduce: the target itself,
/// and the harness's own geodesic merge of the pair at each λ.
struct Oracle {
    chip: Checkpoint,
    instruct: Checkpoint,
    target: TinyLm,
    tokenizer: CharTokenizer,
}

impl Oracle {
    fn load(files: &Files) -> Self {
        let chip = format::load(&files.target).expect("target checkpoint written by set-up");
        let instruct = format::load(&files.draft).expect("draft checkpoint written by set-up");
        let target = TinyLm::from_checkpoint(&chip).expect("generated checkpoint matches its arch");
        Oracle {
            chip,
            instruct,
            target,
            tokenizer: CharTokenizer::new(),
        }
    }

    /// What f32 `generate` says for `req`, as the text the wire carries.
    fn text(&self, req: &Req) -> String {
        let mut prompt = vec![BOS];
        prompt.extend(self.tokenizer.encode(&req.prompt));
        let cfg = greedy(NEW_TOKENS);
        let tokens = if req.variant == Variant::Merge {
            let merged = GeodesicMerge::new(LAMBDAS[req.lambda])
                .expect("valid lambda")
                .merge_pair(&self.chip, &self.instruct)
                .expect("siblings are conformable");
            let model = TinyLm::from_checkpoint(&merged).expect("merge keeps the arch");
            generate(&model, &prompt, &cfg)
        } else {
            generate(&self.target, &prompt, &cfg)
        };
        self.tokenizer.decode(&tokens.expect("oracle generation"))
    }

    /// Oracle texts for `picks`, computed on all cores.
    fn texts(&self, reqs: &[Req], picks: &[usize]) -> Vec<String> {
        stats::in_parallel(
            stats::nproc(),
            picks.len(),
            || (),
            |(), k| self.text(&reqs[picks[k]]),
        )
    }
}

/// Share of `want`'s characters `got` reproduces before first diverging.
fn match_share(got: &str, want: &str) -> f64 {
    let same = got
        .chars()
        .zip(want.chars())
        .take_while(|(a, b)| a == b)
        .count();
    same as f64 / want.chars().count().max(1) as f64
}

fn p50(done: &[Done]) -> f64 {
    median(&done.iter().map(|d| d.latency_ms).collect::<Vec<_>>())
}

pub fn run(opts: &Opts, tracer: &Tracer, report: &mut Report) {
    let files = Files::new(&opts.work_dir());
    let mut rng = Pcg32::seed(opts.seed).derive(19);
    // The router hashes the first 16 characters of a prompt: a fixed header
    // per scaffold keeps each family on the same replica whatever the seed.
    let scaffolds: Vec<String> = ["scaffold-A ", "scaffold-B "]
        .iter()
        .map(|header| format!("{header:<16}{}", inputs::text(32, &mut rng)))
        .collect();
    let reqs = plan(opts, &files, &scaffolds, 0);

    let (fleet, setup_s) = repeat_setup(opts, || setup(opts, &files, &scaffolds), Fleet::stop);

    // The workload: every request through the router.
    let before = fleet.snapshot();
    let cpu_before = stats::cpu_seconds();
    let started = Instant::now();
    let routed = drive(
        fleet.front.local_addr(),
        &reqs,
        NEW_TOKENS,
        "router.generate",
        tracer,
    );
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = stats::cpu_seconds() - cpu_before;
    let after = fleet.snapshot();

    for d in &routed {
        report.op(d.error.is_none() && d.tokens == NEW_TOKENS);
    }
    if let Some(e) = routed.iter().find_map(|d| d.error.as_ref()) {
        report.note(format!("first failed request: {e}"));
    }
    // Nothing may have trained: the zoo cache holds the two seeded files.
    let zoo_files = std::fs::read_dir(&files.zoo_dir).map_or(0, Iterator::count);
    report.op(zoo_files == 2);

    let oracle = Oracle::load(&files);
    let mut exact: Vec<usize> = (0..reqs.len())
        .filter(|&i| reqs[i].variant.exact())
        .collect();
    rng.shuffle(&mut exact);
    exact.truncate(ORACLE_SAMPLES);
    let want = oracle.texts(&reqs, &exact);
    let wrong = exact
        .iter()
        .zip(&want)
        .filter(|(&i, w)| routed[i].text != **w)
        .count();
    report.failed += wrong as u64;

    let latencies: Vec<f64> = routed.iter().map(|d| d.latency_ms).collect();
    let new_tokens: usize = routed.iter().map(|d| d.tokens).sum();
    report.note(format!(
        "fleet_mixed: {} requests sent, {} succeeded, {} failed; {wrong} of {} sampled f32/spec/merge transcripts differ from generate(); {CONNECTIONS} connections, {wall_s:.2} s wall",
        reqs.len(),
        routed.iter().filter(|d| d.error.is_none()).count(),
        routed.iter().filter(|d| d.error.is_some()).count(),
        exact.len()
    ));
    report.note(format!(
        "decode_tok_per_s = {:.1}; req_per_s = {:.2}; session_latency_ms p50 {:.1} p90 {:.1} (n = {})",
        new_tokens as f64 / wall_s,
        reqs.len() as f64 / wall_s,
        median(&latencies),
        percentile(&latencies, 0.9),
        latencies.len()
    ));

    if !tracer.enabled() {
        report.set("setup_s", setup_s);
        report.set("work_per_s", new_tokens as f64 / wall_s);
        report.set("op_latency_p50_ms", median(&latencies));
        report.set("op_latency_p90_ms", percentile(&latencies, 0.9));
        report.set("peak_rss_mb", stats::peak_rss_mb());
        Fleet::stop(fleet);
        return;
    }

    // serve: the per-variant split and what the replicas counted.
    for variant in VARIANTS {
        let (tokens, seconds) = reqs
            .iter()
            .zip(&routed)
            .filter(|(r, _)| r.variant == variant)
            .fold((0usize, 0.0), |(t, s), (_, d)| {
                (t + d.tokens, s + d.latency_ms / 1e3)
            });
        report.set(variant.metric(), tokens as f64 / seconds);
    }
    let queue: Vec<f64> = routed.iter().map(|d| d.queue_ms).collect();
    report.set("serve.queue_ms_p50", median(&queue));
    report.set("serve.queue_ms_p90", percentile(&queue, 0.9));
    report.set("serve.cpu_s", cpu_s);
    report.set("trace_overhead_share", tracer.overhead_seconds() / wall_s);
    report.set("serve.cpu_util", cpu_s / (wall_s * stats::nproc() as f64));
    let proposed = after.draft_tokens_proposed - before.draft_tokens_proposed;
    let accepted = after.accepted_draft_tokens - before.accepted_draft_tokens;
    report.set(
        "serve.spec_accept_share",
        accepted as f64 / proposed.max(1) as f64,
    );
    report.set(
        "serve.spec_fallbacks",
        (after.spec_fallbacks - before.spec_fallbacks) as f64,
    );
    report.set(
        "serve.prefix_hit_share",
        (after.prefix_hits - before.prefix_hits) as f64 / reqs.len() as f64,
    );
    report.set(
        "serve.cow_copies",
        (after.cow_copies - before.cow_copies) as f64,
    );
    report.set(
        "serve.pool_evictions",
        (after.pool_evictions - before.pool_evictions) as f64,
    );
    report.set(
        "serve.rejected",
        (after.rejected_overload + after.rejected_shutdown
            - before.rejected_overload
            - before.rejected_shutdown) as f64,
    );
    report.set("serve.kv_bytes_peak", after.kv_bytes_in_use as f64);

    // First-divergence match of the lossy variants against the f32 oracle.
    for (variant, name) in [
        (Variant::Int8, "serve.token_match_share.int8"),
        (Variant::Kv8, "serve.token_match_share.kv8"),
    ] {
        let picks: Vec<usize> = (0..reqs.len())
            .filter(|&i| reqs[i].variant == variant)
            .collect();
        let want = oracle.texts(&reqs, &picks);
        let shares: Vec<f64> = picks
            .iter()
            .zip(&want)
            .map(|(&i, w)| match_share(&routed[i].text, w))
            .collect();
        report.set(
            name,
            shares.iter().sum::<f64>() / shares.len().max(1) as f64,
        );
    }
    drop(oracle);

    // router: what the hop cost and where requests landed.
    let routing = fleet.front.router().metrics().snapshot();
    report.set(
        "router.primary_hit_share",
        routing.primary_hits as f64 / routing.routed.max(1) as f64,
    );
    report.set("router.failovers", routing.failovers as f64);
    report.set("router.spills", routing.spills as f64);
    report.set("router.exhausted", routing.exhausted as f64);
    let per_replica: Vec<f64> = fleet
        .servers
        .iter()
        .map(|s| s.metrics().snapshot().tokens_out as f64)
        .collect();
    let total: f64 = per_replica.iter().sum();
    let busiest = per_replica.iter().fold(0.0f64, |m, &t| m.max(t));
    report.set(
        "router.replica_token_skew",
        busiest * REPLICAS as f64 / total.max(1.0) - 1.0,
    );

    // A merge hot-swap, timed from outside: `load` of a λ nothing has used.
    let fresh = "merge:eda-qwen+instruct-qwen@0.5";
    let mut admin = Connection::open(fleet.servers[0].local_addr()).expect("connect to replica 0");
    let t = Instant::now();
    let reply = admin.exchange(&wire::load_line(fresh));
    report.set("serve.registry_merge_load_ms", stats::ms(t.elapsed()));
    report.op(reply.is_ok_and(|r| r.contains("\"loaded\"")));
    drop(admin);

    // The waterfall: the same list (fresh questions) over TCP to one
    // replica without the router, then in-process without the wire.
    // Replica 0 was primed only for the families the router homes on it.
    let warm = priming(&files, &scaffolds);
    drive(
        fleet.servers[0].local_addr(),
        &warm,
        1,
        "serve.wire",
        &Tracer::new(false),
    );
    let loopback_reqs = plan(opts, &files, &scaffolds, 1);
    let loopback = drive(
        fleet.servers[0].local_addr(),
        &loopback_reqs,
        NEW_TOKENS,
        "serve.wire",
        tracer,
    );
    let direct_reqs = plan(opts, &files, &scaffolds, 2);
    let direct = drive_direct(fleet.servers[0].registry(), &warm, &direct_reqs, tracer);
    for d in loopback.iter().chain(&direct) {
        report.op(d.error.is_none() && d.tokens == NEW_TOKENS);
    }
    // Request i of every pass has the same variant, scaffold and length,
    // so the hops are medians of per-request differences, not differences
    // of medians over the variant mix.
    let paired = |a: &[Done], b: &[Done]| {
        median(
            &a.iter()
                .zip(b)
                .map(|(x, y)| x.latency_ms - y.latency_ms)
                .collect::<Vec<_>>(),
        )
    };
    let (routed_p50, loopback_p50, direct_p50) = (p50(&routed), p50(&loopback), p50(&direct));
    let (hop, wire_cost) = (paired(&routed, &loopback), paired(&loopback, &direct));
    report.set("serve.loopback_latency_p50_ms", loopback_p50);
    report.set("serve.direct_latency_p50_ms", direct_p50);
    report.set("router.hop_ms_p50", hop);
    report.note(format!(
        "waterfall fleet_mixed (p50 ms): direct {direct_p50:.1} -> loopback {loopback_p50:.1} (wire residual {wire_cost:.1}) -> routed {routed_p50:.1} (router residual {hop:.1}); residuals are medians of per-request differences"
    ));

    let target = fleet.servers[0]
        .registry()
        .resolve_str(&files.spec(Variant::F32, 0))
        .expect("the target is loaded")
        .1;
    let draft = fleet.servers[0]
        .registry()
        .resolve_str(&format!("file:{}", files.draft.display()))
        .expect("the draft is loaded")
        .1;
    Fleet::stop(fleet);
    probes::tensor_q8(&target, report);
    probes::nn_variants(opts, &target, &draft, report);
}
