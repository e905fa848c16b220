//! End-to-end tests over a real TCP socket: a server on an ephemeral port,
//! smoke-quality zoo checkpoints, a λ=0.6 geodesic merge materialized over
//! the wire, and concurrent greedy sessions whose outputs must be
//! byte-identical to single-threaded `generate()`.

use std::time::{Duration, Instant};

use chipalign_merge::{GeodesicMerge, Merger};
use chipalign_model::ArchSpec;
use chipalign_nn::generate::generate;
use chipalign_nn::{CharTokenizer, TinyLm, BOS};
use chipalign_pipeline::zoo::{Backbone, Quality, Zoo, ZooConfig, ZooModel};
use chipalign_serve::{
    Client, ErrorCode, FinishReason, GenerateRequest, ModelRegistry, Request, Response,
    SchedulerConfig, ServeError, Server, ServerConfig,
};
use chipalign_tensor::rng::Pcg32;

#[path = "support/wire.rs"]
mod wire;

fn smoke_zoo(seed: u64) -> Zoo {
    Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed,
        cache_dir: None,
    })
    .expect("zoo")
}

fn server_config(workers: usize, max_sessions: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        // max_batch 4: the end-to-end suite runs with real cross-session
        // batching on — transcripts are pinned byte-identical regardless.
        scheduler: SchedulerConfig {
            workers,
            max_sessions,
            max_batch: 4,
        },
        max_new_tokens_cap: 10_000_000,
        instance_tag: None,
    }
}

fn random_model(seed: u64) -> TinyLm {
    let mut arch = ArchSpec::tiny("e2e");
    arch.vocab_size = 99;
    TinyLm::new(&arch, &mut Pcg32::seed(seed)).expect("model")
}

/// The acceptance test: ≥8 concurrent greedy requests against a λ=0.6
/// merge of two zoo checkpoints, every output byte-identical to a
/// single-threaded `generate()` of the same model.
#[test]
fn concurrent_merge_sessions_match_single_threaded_generate() {
    const SPEC: &str = "merge:eda-qwen+instruct-qwen@0.6";
    let server =
        Server::bind(server_config(4, 16), ModelRegistry::new(smoke_zoo(2025))).expect("bind");
    let addr = server.local_addr();

    // Warm the registry so per-request latencies measure decoding, not
    // training: this one call trains both zoo ingredients and materializes
    // the merge.
    let mut admin = Client::connect(addr).expect("connect");
    let key = admin.load(SPEC).expect("load merge");
    assert_eq!(key, "merge:eda-qwen+instruct-qwen@0.6000");
    let (loaded, zoo_slugs, _) = admin.models().expect("models");
    assert!(loaded.contains(&key));
    assert!(zoo_slugs.contains(&"eda-qwen".to_string()));

    let prompts: Vec<String> = (0..8)
        .map(|i| format!("Q:what does flop {i} clock?;A:"))
        .collect();
    let handles: Vec<_> = prompts
        .iter()
        .map(|prompt| {
            let prompt = prompt.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client
                    .generate(GenerateRequest::greedy(SPEC, &prompt, 48))
                    .expect("generate")
            })
        })
        .collect();
    let served: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect();

    // Reference: materialize the same merge out-of-band and decode
    // single-threaded with the exact configuration the server used.
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
    let reference_model = TinyLm::from_checkpoint(&merged).expect("model");
    let tok = CharTokenizer::new();
    for (prompt, gen) in prompts.iter().zip(&served) {
        let mut ids = vec![BOS];
        ids.extend(tok.encode(prompt));
        let cfg = GenerateRequest::greedy(SPEC, prompt, 48).decode_config(10_000_000);
        let expected = generate(&reference_model, &ids, &cfg).expect("reference");
        assert_eq!(
            gen.text,
            tok.decode(&expected),
            "served output must be byte-identical for {prompt:?}"
        );
        assert_eq!(gen.tokens, expected.len());
        assert_eq!(gen.model, key);
        assert_eq!(gen.prompt_tokens, ids.len());
        assert!(matches!(
            gen.finish,
            FinishReason::Eos | FinishReason::Length
        ));
    }

    let snap = admin.metrics().expect("metrics");
    assert!(snap.completed >= 8, "8 sessions completed, got {snap:?}");
    assert!(snap.tokens_out > 0);
    server.shutdown();
}

/// Backpressure: with capacity 1 held by a slow session, the next request
/// gets a structured `overloaded` error immediately instead of hanging,
/// and the server stays responsive.
#[test]
fn overload_is_a_structured_error_not_a_hang() {
    let registry = ModelRegistry::new(smoke_zoo(3));
    registry.register("canary", random_model(41));
    let server = Server::bind(server_config(1, 1), registry).expect("bind");
    let addr = server.local_addr();

    // Occupy the single session slot with a request that can only end by
    // deadline (huge budget, no EOS stop).
    let occupant = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect");
        let mut req = GenerateRequest::greedy("canary", "hold the slot", 5_000_000);
        req.stop_at_eos = false;
        req.deadline_ms = Some(2_000);
        client.generate(req)
    });

    // Wait until the occupant is admitted (its prompt tokens show up in
    // the metrics), then probe.
    let mut probe = Client::connect(addr).expect("connect");
    let admitted = Instant::now();
    loop {
        let snap = probe.metrics().expect("metrics");
        if snap.prompt_tokens > 0 {
            break;
        }
        assert!(
            admitted.elapsed() < Duration::from_secs(10),
            "occupant was never admitted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let rejected = probe.generate(GenerateRequest::greedy("canary", "me too", 4));
    match rejected {
        Err(ServeError::Remote(w)) => {
            assert_eq!(w.code, ErrorCode::Overloaded, "got {w:?}");
            assert!(w.detail.contains("1"), "detail names the capacity: {w:?}");
        }
        other => panic!("expected overloaded, got {other:?}"),
    }

    // The connection is still usable and the occupant ends by deadline.
    assert_eq!(
        probe.ping().expect("ping"),
        chipalign_serve::PROTOCOL_VERSION
    );
    match occupant.join().expect("join") {
        Err(ServeError::Remote(w)) => assert_eq!(w.code, ErrorCode::DeadlineExceeded),
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }
    let snap = probe.metrics().expect("metrics");
    assert_eq!(snap.rejected_overload, 1);
    assert_eq!(snap.deadline_exceeded, 1);
    server.shutdown();
}

/// Graceful shutdown: sessions admitted before `shutdown()` complete and
/// their clients receive full generations; the port stops accepting.
#[test]
fn shutdown_drains_admitted_sessions() {
    let registry = ModelRegistry::new(smoke_zoo(5));
    let model = random_model(17);
    registry.register("canary", model.clone());
    let server = Server::bind(server_config(2, 8), registry).expect("bind");
    let addr = server.local_addr();

    let handles: Vec<_> = (0..3)
        .map(|i| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut req = GenerateRequest::greedy("canary", &format!("drain {i}"), 64);
                req.stop_at_eos = false;
                client.generate(req)
            })
        })
        .collect();

    // Wait for all three to be admitted before pulling the plug.
    // `prompt_tokens` is recorded *after* the admission decision, so
    // observing all 3×(BOS + "drain N") guarantees every session holds a
    // slot and will be drained rather than rejected.
    let admitted_tokens = 3 * (1 + "drain 0".len()) as u64;
    let mut probe = Client::connect(addr).expect("connect");
    let started = Instant::now();
    loop {
        let snap = probe.metrics().expect("metrics");
        if snap.prompt_tokens >= admitted_tokens {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "sessions were never admitted"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(probe);
    server.shutdown();

    let tok = CharTokenizer::new();
    for (i, h) in handles.into_iter().enumerate() {
        let gen = h.join().expect("join").expect("drained generation");
        assert_eq!(gen.tokens, 64, "session {i} ran to completion");
        // Determinism holds through the drain path too.
        let mut ids = vec![BOS];
        ids.extend(tok.encode(&format!("drain {i}")));
        let mut req = GenerateRequest::greedy("canary", "x", 64);
        req.stop_at_eos = false;
        let expected = generate(&model, &ids, &req.decode_config(10_000_000)).expect("ref");
        assert_eq!(gen.text, tok.decode(&expected));
    }

    // The listener is gone: new connections fail fast.
    assert!(
        Client::connect(addr).is_err(),
        "server must stop accepting after shutdown"
    );
}

/// Unknown specs and invalid decode configs come back as structured
/// `bad_request`/`unknown_model` errors over the wire.
#[test]
fn invalid_requests_are_structured_wire_errors() {
    let server = Server::bind(server_config(1, 4), ModelRegistry::new(smoke_zoo(9))).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let unknown = client.generate(GenerateRequest::greedy("no-such-model", "hi", 4));
    assert!(
        matches!(unknown, Err(ServeError::Remote(ref w)) if w.code == ErrorCode::UnknownModel),
        "got {unknown:?}"
    );

    let mut bad = GenerateRequest::greedy("instruct-qwen", "hi", 4);
    bad.top_p = 0.0;
    let bad = client.generate(bad);
    assert!(
        matches!(bad, Err(ServeError::Remote(ref w)) if w.code == ErrorCode::BadRequest),
        "got {bad:?}"
    );

    let empty = client.generate(GenerateRequest::greedy("instruct-qwen", "", 4));
    assert!(
        matches!(empty, Err(ServeError::Remote(ref w)) if w.code == ErrorCode::BadRequest),
        "got {empty:?}"
    );

    // Raw malformed JSON gets a bad_request too, and the connection
    // survives it.
    let resp = client.request(&Request::Ping).expect("ping");
    assert!(matches!(resp, Response::Pong { .. }));
    server.shutdown();
}

/// `Arc`-cloned registry handles observe hot-swap: registering a new model
/// under an existing name changes what subsequent requests decode with.
#[test]
fn hot_swap_replaces_a_served_model_without_restart() {
    let registry = ModelRegistry::new(smoke_zoo(13));
    let first = random_model(1);
    let second = random_model(2);
    registry.register("canary", first.clone());
    let server = Server::bind(server_config(1, 4), registry).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut req = GenerateRequest::greedy("canary", "swap me", 24);
    req.stop_at_eos = false;
    let before = client.generate(req.clone()).expect("before");

    // Swap in a different checkpoint under the same name, no restart.
    server.registry().register("canary", second.clone());
    let after = client.generate(req.clone()).expect("after");

    // Each response must match its own model's single-threaded decode —
    // proof the swap took effect exactly between the two requests.
    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode("swap me"));
    let cfg = req.decode_config(10_000_000);
    let ref_first = generate(&first, &ids, &cfg).expect("ref");
    let ref_second = generate(&second, &ids, &cfg).expect("ref");
    assert_eq!(before.text, tok.decode(&ref_first));
    assert_eq!(after.text, tok.decode(&ref_second));

    // Unload evicts; the next request is an unknown-model error.
    assert!(client.unload("canary").expect("unload"));
    let gone = client.generate(GenerateRequest::greedy("canary", "still there?", 4));
    assert!(
        matches!(gone, Err(ServeError::Remote(ref w)) if w.code == ErrorCode::UnknownModel),
        "got {gone:?}"
    );
    server.shutdown();
}

/// `#kv8` picks a KV pool, not weights: unloading `m#kv8` evicts the
/// weights `m#kv8` decodes with.
#[test]
fn unloading_a_kv8_spec_evicts_its_weights() {
    let registry = ModelRegistry::new(smoke_zoo(17));
    registry.register("m", random_model(6));
    let server = Server::bind(server_config(1, 4), registry).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.load("m#kv8").expect("load"), "m#kv8");
    assert!(client.unload("m#kv8").expect("unload"), "evicted: true");
    let (loaded, _, _) = client.models().expect("models");
    assert!(
        !loaded.contains(&"m".to_string()),
        "still loaded: {loaded:?}"
    );
    server.shutdown();
}

/// A request whose bytes straddle the idle-read timeout is parsed whole,
/// wherever the cut falls — inside a multi-byte character included.
#[test]
fn a_request_line_split_across_a_pause_is_answered_whole() {
    let registry = ModelRegistry::new(smoke_zoo(21));
    registry.register("canary", random_model(5));
    let server = Server::bind(server_config(1, 4), registry).expect("bind");
    wire::assert_split_lines_are_answered_whole(server.local_addr(), "canary");
    server.shutdown();
}

/// A newline-free stream is refused at `MAX_LINE_BYTES` with one structured
/// error and a closed connection; the server buffers none of the rest and
/// keeps serving everyone else.
#[test]
fn an_over_long_line_gets_one_bad_request_and_a_closed_connection() {
    let server =
        Server::bind(server_config(1, 4), ModelRegistry::new(smoke_zoo(22))).expect("bind");
    wire::assert_an_over_long_line_is_refused_once(server.local_addr());
    server.shutdown();
}

/// No timer sits on the request path: 20 pings, each on a fresh connection
/// (accept + handler spawn + read + reply), take milliseconds — not 20
/// accept-poll ticks.
#[test]
fn fresh_connections_pay_no_accept_poll() {
    let server =
        Server::bind(server_config(1, 4), ModelRegistry::new(smoke_zoo(23))).expect("bind");
    let addr = server.local_addr();
    let took = wire::best_of_three(|| {
        for _ in 0..20 {
            let mut client = Client::connect(addr).expect("connect");
            assert_eq!(
                client.ping().expect("ping"),
                chipalign_serve::PROTOCOL_VERSION
            );
        }
    });
    assert!(
        took < Duration::from_millis(500),
        "20 fresh-connection pings took {took:?}"
    );
    server.shutdown();
}

/// Blocking accept must not cost shutdown its promptness, whether or not
/// `kill()` came first.
#[test]
fn shutdown_is_prompt_idempotent_and_closes_the_port() {
    for kill_first in [false, true] {
        let server =
            Server::bind(server_config(1, 4), ModelRegistry::new(smoke_zoo(24))).expect("bind");
        let addr = server.local_addr();
        let idle = Client::connect(addr).expect("connect");
        wire::assert_shutdown_is_prompt(addr, idle, || {
            if kill_first {
                server.kill();
            }
            server.shutdown();
        });
    }
}
