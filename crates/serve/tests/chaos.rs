//! Chaos tests: the server under deterministic injected faults.
//!
//! Requires `--features fault-inject`. Every test arms the global fault
//! plan through an exclusive [`chipalign_serve::faults::scope`] (which
//! also serializes the tests), drives real traffic over TCP, and asserts
//! the three fault-tolerance invariants:
//!
//! 1. the *affected* sessions fail with the right structured error code
//!    and exactly the right metric counter moves, while every request
//!    stays accounted for by exactly one per-session counter;
//! 2. *healthy* sessions are untouched — byte-identical to a
//!    single-threaded `generate()` of the same model;
//! 3. the server still drains cleanly afterward.

#![cfg(feature = "fault-inject")]

use std::time::{Duration, Instant};

use chipalign_merge::{GeodesicMerge, Merger};
use chipalign_model::{format, ArchSpec};
use chipalign_nn::generate::generate;
use chipalign_nn::{CharTokenizer, TinyLm, BOS};
use chipalign_pipeline::zoo::{Backbone, Quality, Zoo, ZooConfig, ZooModel};
use chipalign_serve::faults::{self, Site, Trigger};
use chipalign_serve::{
    Client, ErrorCode, GenerateRequest, MetricsSnapshot, ModelRegistry, SchedulerConfig,
    ServeError, Server, ServerConfig,
};
use chipalign_tensor::rng::Pcg32;

fn smoke_zoo(seed: u64) -> Zoo {
    Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed,
        cache_dir: None,
    })
    .expect("zoo")
}

fn server_config(workers: usize, stall_slices: u64) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // max_batch 1: every slice is a batch of one session; batched
        // fault isolation across batch-mates has its own test below.
        scheduler: SchedulerConfig {
            workers,
            max_sessions: 16,
            slice_tokens: 4,
            stall_slices,
            max_batch: 1,
            ..SchedulerConfig::default()
        },
        max_new_tokens_cap: 10_000_000,
        default_deadline_ms: None,
        instance_tag: None,
    }
}

fn random_model(seed: u64) -> TinyLm {
    let mut arch = ArchSpec::tiny("chaos");
    arch.vocab_size = 99;
    TinyLm::new(&arch, &mut Pcg32::seed(seed)).expect("model")
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chipalign-chaos-{name}"));
    // Start fresh so persisted files from a previous run can't mask bugs.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

/// Asserts a generation of `model` over `addr` is byte-identical to a
/// single-threaded `generate()` with the same checkpoint and config.
fn assert_healthy(addr: std::net::SocketAddr, model_name: &str, reference: &TinyLm, prompt: &str) {
    let mut client = Client::connect(addr).expect("connect");
    let mut req = GenerateRequest::greedy(model_name, prompt, 24);
    req.stop_at_eos = false;
    let served = client.generate(req.clone()).expect("healthy generate");
    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode(prompt));
    let expected = generate(reference, &ids, &req.decode_config(10_000_000)).expect("reference");
    assert_eq!(
        served.text,
        tok.decode(&expected),
        "healthy session must be byte-identical to generate()"
    );
}

/// Asserts the fault counters in `snap` are exactly `expected` =
/// (worker_panics, watchdog_cancels, checksum_failures, workers_respawned)
/// — each fault class moves its own counter and nothing else.
fn assert_fault_counters(snap: &MetricsSnapshot, expected: (u64, u64, u64, u64)) {
    assert_eq!(snap.worker_panics, expected.0, "worker_panics in {snap:?}");
    assert_eq!(
        snap.watchdog_cancels, expected.1,
        "watchdog_cancels in {snap:?}"
    );
    assert_eq!(
        snap.checksum_failures, expected.2,
        "checksum_failures in {snap:?}"
    );
    assert_eq!(
        snap.workers_respawned, expected.3,
        "workers_respawned in {snap:?}"
    );
}

/// Asserts every request is accounted for once every session is answered:
/// each one ended under exactly one per-session counter.
fn assert_conserved(snap: &MetricsSnapshot) {
    let ended = snap.completed
        + snap.failed
        + snap.deadline_exceeded
        + snap.watchdog_cancels
        + snap.rejected_overload
        + snap.rejected_shutdown
        + snap.panicked_sessions;
    assert_eq!(snap.requests, ended, "requests vs session ends in {snap:?}");
}

/// Shuts the server down and asserts the port actually closed.
fn assert_clean_drain(server: Server) {
    let addr = server.local_addr();
    server.shutdown();
    assert!(
        Client::connect(addr).is_err(),
        "server must stop accepting after shutdown"
    );
}

fn remote_code(result: Result<chipalign_serve::Generation, ServeError>) -> (ErrorCode, String) {
    match result {
        Err(ServeError::Remote(w)) => (w.code, w.detail),
        other => panic!("expected a wire error, got {other:?}"),
    }
}

#[test]
fn worker_panic_cancels_only_the_poisoned_session() {
    let _scope = faults::scope(101);
    faults::arm(Site::WorkerPanic, Some("poison"), Trigger::Once(1));

    let registry = ModelRegistry::new(smoke_zoo(31));
    let healthy_model = random_model(1);
    registry.register("healthy", healthy_model.clone());
    registry.register("poison", random_model(2));
    let server = Server::bind(server_config(2, 32), registry).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let (code, detail) =
        remote_code(client.generate(GenerateRequest::greedy("poison", "boom", 24)));
    assert_eq!(code, ErrorCode::Internal);
    assert!(detail.contains("panic"), "detail names the panic: {detail}");

    assert_healthy(addr, "healthy", &healthy_model, "still fine");
    let snap = client.metrics().expect("metrics");
    assert_fault_counters(&snap, (1, 0, 0, 0));
    assert_conserved(&snap);
    assert_eq!(snap.failed, 0, "a panic is not a decode failure");
    assert_eq!(snap.completed, 1);
    assert_clean_drain(server);
}

/// Batched fault isolation: a panic injected into one session of a full
/// batch cancels only that session. Its batch-mates — advanced through the
/// very same `step_batch` calls — finish byte-identical to a
/// single-threaded `generate()`, and exactly one panic is counted.
#[test]
fn batched_panic_cancels_only_the_poisoned_batch_mate() {
    let _scope = faults::scope(110);
    // Fire on the poisoned session's *third* slice: by then all four
    // concurrent sessions are admitted and the single worker is draining
    // them together, so the panic lands mid-batch.
    faults::arm(Site::WorkerPanic, Some("poison"), Trigger::Once(3));

    let registry = ModelRegistry::new(smoke_zoo(39));
    // One underlying model under both names: batches mix poisoned and
    // healthy sessions, and one reference transcript covers them all.
    let shared = random_model(13);
    registry.register("healthy", shared.clone());
    registry.register("poison", shared.clone());
    let cfg = ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            max_sessions: 16,
            slice_tokens: 4,
            stall_slices: 32,
            max_batch: 4,
            ..SchedulerConfig::default()
        },
        ..server_config(1, 32)
    };
    let server = Server::bind(cfg, registry).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics();

    // Budget 200 (dozens of slices, several window slides) plus a start
    // barrier: all four requests are in flight together, so the single
    // worker has no choice but to form real batches.
    let budget = 200;
    let barrier = std::sync::Arc::new(std::sync::Barrier::new(4));
    let handles: Vec<_> = ["healthy", "healthy", "healthy", "poison"]
        .into_iter()
        .map(|name| {
            let barrier = std::sync::Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut req = GenerateRequest::greedy(name, "same prompt", budget);
                req.stop_at_eos = false;
                barrier.wait();
                (name, client.generate(req))
            })
        })
        .collect();
    let mut poisoned = None;
    let mut healthy_texts = Vec::new();
    for h in handles {
        let (name, outcome) = h.join().expect("client thread");
        if name == "poison" {
            poisoned = Some(remote_code(outcome));
        } else {
            healthy_texts.push(outcome.expect("healthy generate").text);
        }
    }

    let (code, detail) = poisoned.expect("poisoned outcome");
    assert_eq!(code, ErrorCode::Internal);
    assert!(detail.contains("panic"), "detail names the panic: {detail}");

    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode("same prompt"));
    let mut reference_req = GenerateRequest::greedy("healthy", "same prompt", budget);
    reference_req.stop_at_eos = false;
    let expected = generate(&shared, &ids, &reference_req.decode_config(10_000_000)).expect("ref");
    for (i, text) in healthy_texts.iter().enumerate() {
        assert_eq!(
            text,
            &tok.decode(&expected),
            "batch-mate {i} must be byte-identical to generate()"
        );
    }

    let snap = metrics.snapshot();
    assert_fault_counters(&snap, (1, 0, 0, 0));
    assert_conserved(&snap);
    assert_eq!(snap.completed, 3, "three healthy batch-mates finished");
    assert_eq!(snap.failed, 0, "a panic is not a decode failure");
    assert!(
        snap.batched_slices >= 1,
        "four concurrent sessions on one worker must have batched: {snap:?}"
    );
    assert_clean_drain(server);
}

/// Draft-panic isolation: a panic injected into the speculative draft
/// phase kills *speculation*, not the session. The session degrades to
/// plain decoding, finishes byte-identical to a single-threaded
/// `generate()` on the target, counts a speculative fallback — and no
/// worker panicked, because the draft's panic never escaped its boundary.
#[test]
fn draft_panic_degrades_the_session_to_plain_decode() {
    const SPEC: &str = "spec:tgt|drafty@4";
    let _scope = faults::scope(111);
    // The session tag carries the canonical spec key, so the fault plan
    // can target exactly the speculative session.
    faults::arm(Site::SpecDraft, Some(SPEC), Trigger::Once(1));

    let registry = ModelRegistry::new(smoke_zoo(40));
    let target = random_model(14);
    registry.register("tgt", target.clone());
    registry.register("drafty", random_model(15));
    let server = Server::bind(server_config(2, 32), registry).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let mut req = GenerateRequest::greedy(SPEC, "draft dies", 24);
    req.stop_at_eos = false;
    let served = client
        .generate(req.clone())
        .expect("the session must survive the draft panic");

    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode("draft dies"));
    let expected = generate(&target, &ids, &req.decode_config(10_000_000)).expect("reference");
    assert_eq!(
        served.text,
        tok.decode(&expected),
        "degraded decode must be byte-identical to generate() on the target"
    );
    assert_eq!(served.tokens, 24);
    assert!(faults::hits(Site::SpecDraft) >= 1, "the fault must fire");

    let snap = client.metrics().expect("metrics");
    assert!(
        snap.spec_fallbacks >= 1,
        "the caught draft panic counts a speculative fallback: {snap:?}"
    );
    assert_eq!(
        snap.accepted_draft_tokens, 0,
        "the draft died on its first phase; nothing was accepted"
    );
    assert_fault_counters(&snap, (0, 0, 0, 0));
    assert_conserved(&snap);
    assert_eq!(snap.completed, 1, "the session completed normally");
    assert_eq!(snap.failed, 0, "a draft panic is not a session failure");
    assert_clean_drain(server);
}

#[test]
fn watchdog_cancels_a_stalled_session() {
    let _scope = faults::scope(102);
    faults::arm(Site::SessionStall, Some("stuck"), Trigger::Always);

    let registry = ModelRegistry::new(smoke_zoo(32));
    let healthy_model = random_model(3);
    registry.register("healthy", healthy_model.clone());
    registry.register("stuck", random_model(4));
    let server = Server::bind(server_config(2, 3), registry).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let (code, detail) =
        remote_code(client.generate(GenerateRequest::greedy("stuck", "going nowhere", 24)));
    assert_eq!(code, ErrorCode::DeadlineExceeded);
    assert!(detail.contains("stalled"), "detail explains: {detail}");
    assert!(detail.contains("3 scheduler slices"), "got {detail}");

    assert_healthy(addr, "healthy", &healthy_model, "not stuck");
    let snap = client.metrics().expect("metrics");
    assert_fault_counters(&snap, (0, 1, 0, 0));
    assert_conserved(&snap);
    assert_eq!(snap.deadline_exceeded, 0, "watchdog has its own counter");
    assert_clean_drain(server);
}

#[test]
fn corrupt_checkpoint_file_is_a_structured_error_not_a_crash() {
    let _scope = faults::scope(103);
    let dir = temp_dir("corrupt");

    // A valid checkpoint, then a bit flip; and a truncated sibling.
    let ckpt = random_model(5).to_checkpoint().expect("ckpt");
    let bytes = format::encode(&ckpt).to_vec();
    let flipped_path = dir.join("flipped.calt");
    let mut flipped = bytes.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0xFF;
    std::fs::write(&flipped_path, &flipped).expect("write");
    let truncated_path = dir.join("truncated.calt");
    std::fs::write(&truncated_path, &bytes[..bytes.len() / 3]).expect("write");

    let registry = ModelRegistry::new(smoke_zoo(33));
    let healthy_model = random_model(6);
    registry.register("healthy", healthy_model.clone());
    let server = Server::bind(server_config(2, 32), registry).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    for path in [&flipped_path, &truncated_path] {
        let spec = format!("file:{}", path.display());
        let (code, detail) = remote_code(client.generate(GenerateRequest::greedy(&spec, "hi", 8)));
        assert_eq!(code, ErrorCode::Internal, "damaged file for {spec}");
        assert!(detail.contains("corrupt"), "got {detail}");
    }
    let (loaded, _zoo) = client.models().expect("models");
    assert_eq!(
        loaded,
        vec!["healthy".to_string()],
        "nothing damaged cached"
    );

    assert_healthy(addr, "healthy", &healthy_model, "undamaged");
    let snap = client.metrics().expect("metrics");
    assert_fault_counters(&snap, (0, 0, 2, 0));
    assert_conserved(&snap);
    assert_clean_drain(server);
}

#[test]
fn torn_persist_write_is_detected_and_rebuilt() {
    const SPEC: &str = "merge:eda-qwen+instruct-qwen@0.6";
    const KEY: &str = "merge:eda-qwen+instruct-qwen@0.6000";
    let _scope = faults::scope(104);
    faults::arm(Site::TornWrite, Some(KEY), Trigger::Once(1));

    let dir = temp_dir("torn");
    let registry = ModelRegistry::new(smoke_zoo(2025)).with_persist_dir(&dir);
    let persist_path = registry.persist_path(KEY).expect("persist path");
    let server = Server::bind(server_config(2, 32), registry).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // First load: trains the ingredients, merges, and persists — but the
    // injected torn write leaves half a file at the final path.
    assert_eq!(client.load(SPEC).expect("load"), KEY);
    let torn_len = std::fs::metadata(&persist_path).expect("persisted").len();

    // Evict and resolve again: the torn file must be detected (counted,
    // deleted), and the merge rebuilt from its ingredients and persisted
    // properly this time.
    assert!(client.unload(SPEC).expect("unload"));
    assert_eq!(client.load(SPEC).expect("reload"), KEY);
    let snap = client.metrics().expect("metrics");
    assert_fault_counters(&snap, (0, 0, 1, 0));
    assert_conserved(&snap);
    let full_len = std::fs::metadata(&persist_path).expect("persisted").len();
    assert!(
        full_len > torn_len,
        "second persist must be complete ({full_len} vs {torn_len} bytes)"
    );

    // Third resolve round-trips through the (now valid) persisted file.
    assert!(client.unload(SPEC).expect("unload"));
    assert_eq!(client.load(SPEC).expect("load from disk"), KEY);
    let snap = client.metrics().expect("metrics");
    assert_eq!(snap.checksum_failures, 1, "clean file loads without noise");

    // And the served model is byte-identical to an out-of-band merge.
    let zoo = smoke_zoo(2025);
    let chip = zoo.model(ZooModel::Eda(Backbone::QwenTiny)).expect("chip");
    let instruct = zoo
        .model(ZooModel::Instruct(Backbone::QwenTiny))
        .expect("instruct");
    let merged = GeodesicMerge::new(0.6)
        .expect("lambda")
        .merge_pair(
            &chip.to_checkpoint().expect("ckpt"),
            &instruct.to_checkpoint().expect("ckpt"),
        )
        .expect("merge");
    let reference = TinyLm::from_checkpoint(&merged).expect("model");
    assert_healthy(addr, SPEC, &reference, "post-recovery");
    assert_clean_drain(server);
}

#[test]
fn poisoned_merge_is_reported_not_cached() {
    const SPEC: &str = "merge:eda-llama+instruct-llama@0.5";
    const KEY: &str = "merge:eda-llama+instruct-llama@0.5000";
    let _scope = faults::scope(105);
    faults::arm(Site::MergePoison, Some(KEY), Trigger::Once(1));

    let registry = ModelRegistry::new(smoke_zoo(34));
    let server = Server::bind(server_config(2, 32), registry).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let err = match client.load(SPEC) {
        Err(ServeError::Remote(w)) => w,
        other => panic!("expected a wire error, got {other:?}"),
    };
    assert_eq!(err.code, ErrorCode::Internal);
    assert!(err.detail.contains("non-finite"), "got {}", err.detail);
    let (loaded, _zoo) = client.models().expect("models");
    assert!(
        !loaded.contains(&KEY.to_string()),
        "poisoned merge must not be cached: {loaded:?}"
    );
    assert_eq!(client.metrics().expect("metrics").checksum_failures, 1);

    // The second attempt merges clean (Once(1) already fired) and serves.
    assert_eq!(client.load(SPEC).expect("clean rebuild"), KEY);
    assert_clean_drain(server);
}

#[test]
fn abandoned_sessions_are_absorbed() {
    let _scope = faults::scope(106);
    faults::arm(Site::ClientDisconnect, Some("dropper"), Trigger::Once(1));

    let registry = ModelRegistry::new(smoke_zoo(35));
    let healthy_model = random_model(7);
    registry.register("healthy", healthy_model.clone());
    registry.register("dropper", random_model(8));
    let server = Server::bind(server_config(2, 32), registry).expect("bind");
    let addr = server.local_addr();

    // Injected abandonment: the session is admitted, then its receiver is
    // dropped server-side as if the TCP peer vanished.
    let mut client = Client::connect(addr).expect("connect");
    let (code, detail) =
        remote_code(client.generate(GenerateRequest::greedy("dropper", "bye", 16)));
    assert_eq!(code, ErrorCode::Internal);
    assert!(detail.contains("disconnect"), "got {detail}");

    // A real mid-request hangup: write a generate line, slam the socket.
    {
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).expect("connect");
        let line = chipalign_model::json::to_string(&chipalign_serve::Request::Generate(
            GenerateRequest::greedy("healthy", "never read", 16),
        ));
        raw.write_all(line.as_bytes()).expect("write");
        raw.write_all(b"\n").expect("write");
        // Dropped here, before the response arrives.
    }

    // Both orphaned sessions still run to completion in the background —
    // the scheduler never hangs on a vanished client.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = client.metrics().expect("metrics");
        if snap.completed >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "abandoned sessions never completed: {snap:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    assert_healthy(addr, "healthy", &healthy_model, "still served");
    let snap = client.metrics().expect("metrics");
    assert_fault_counters(&snap, (0, 0, 0, 0));
    assert_conserved(&snap);
    assert_eq!(snap.completed, 3, "two orphans + one healthy");
    assert_clean_drain(server);
}

#[test]
fn dead_worker_respawns_and_the_pool_keeps_serving() {
    let _scope = faults::scope(107);
    faults::arm(Site::WorkerDeath, Some("victim"), Trigger::Once(1));

    let registry = ModelRegistry::new(smoke_zoo(36));
    let healthy_model = random_model(9);
    registry.register("healthy", healthy_model.clone());
    registry.register("victim", random_model(10));
    // One worker: if respawn failed, the healthy request below would hang.
    let server = Server::bind(server_config(1, 32), registry).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let (code, detail) =
        remote_code(client.generate(GenerateRequest::greedy("victim", "doomed", 16)));
    assert_eq!(code, ErrorCode::Internal);
    assert!(detail.contains("worker died"), "got {detail}");

    assert_healthy(addr, "healthy", &healthy_model, "served by respawn");
    let snap = client.metrics().expect("metrics");
    assert_fault_counters(&snap, (0, 0, 0, 1));
    assert_conserved(&snap);
    assert_clean_drain(server);
}

#[test]
fn registry_resolve_failure_is_structured_and_scoped() {
    let _scope = faults::scope(108);
    faults::arm(Site::RegistryResolve, Some("eda-qwen"), Trigger::Always);

    let registry = ModelRegistry::new(smoke_zoo(37));
    let healthy_model = random_model(11);
    registry.register("healthy", healthy_model.clone());
    let server = Server::bind(server_config(2, 32), registry).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    let (code, detail) = remote_code(client.generate(GenerateRequest::greedy("eda-qwen", "q", 8)));
    assert_eq!(code, ErrorCode::Internal);
    assert!(
        detail.contains("injected registry load failure"),
        "{detail}"
    );
    let err = client.load("eda-qwen");
    assert!(
        matches!(err, Err(ServeError::Remote(ref w)) if w.code == ErrorCode::Internal),
        "load path fails the same way: {err:?}"
    );

    assert_healthy(addr, "healthy", &healthy_model, "unaffected");
    let snap = client.metrics().expect("metrics");
    assert_fault_counters(&snap, (0, 0, 0, 0));
    assert_conserved(&snap);
    assert_clean_drain(server);
}

#[test]
fn retrier_rides_out_overload_against_a_live_server() {
    let _scope = faults::scope(109);

    let registry = ModelRegistry::new(smoke_zoo(38));
    let model = random_model(12);
    registry.register("canary", model.clone());
    // Capacity 1: the occupant forces `overloaded` on the probe, which the
    // retrier must absorb once the slot frees up.
    let cfg = ServerConfig {
        scheduler: SchedulerConfig {
            workers: 1,
            max_sessions: 1,
            slice_tokens: 4,
            stall_slices: 32,
            max_batch: 1,
            ..SchedulerConfig::default()
        },
        ..server_config(1, 32)
    };
    let server = Server::bind(cfg, registry).expect("bind");
    let addr = server.local_addr();
    let metrics = server.metrics();

    let occupant = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let mut req = GenerateRequest::greedy("canary", "hold", 1_500);
        req.stop_at_eos = false;
        client.generate(req)
    });
    // Wait for admission so the probe reliably collides with it.
    let started = Instant::now();
    while metrics.snapshot().prompt_tokens == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let mut retrier = chipalign_serve::Retrier::new(
        chipalign_serve::RetryPolicy {
            max_attempts: 200,
            base_delay_ms: 20,
            max_delay_ms: 250,
            jitter: 0.5,
        },
        9,
    );
    let mut req = GenerateRequest::greedy("canary", "after you", 24);
    req.stop_at_eos = false;
    let served = retrier.generate(addr, &req).expect("retry succeeds");
    occupant.join().expect("join").expect("occupant finishes");

    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode("after you"));
    let expected = generate(&model, &ids, &req.decode_config(10_000_000)).expect("ref");
    assert_eq!(served.text, tok.decode(&expected));
    let snap = metrics.snapshot();
    assert!(
        snap.retries_attempted >= 1,
        "server counted retry traffic: {snap:?}"
    );
    assert!(snap.rejected_overload >= 1);
    assert_conserved(&snap);
    assert_clean_drain(server);
}
