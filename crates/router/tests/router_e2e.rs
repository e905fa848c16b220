//! End-to-end router tests over real TCP sockets: in-process
//! `chipalign-serve` replicas on ephemeral ports behind a
//! [`RouterServer`], driven by the stock [`Client`].
//!
//! Every replica is built over an identically-seeded smoke zoo, so all of
//! them materialize byte-identical models — which is exactly the fleet
//! deployment assumption that makes cross-replica failover
//! transcript-safe, and lets these tests use a direct-to-replica
//! generation as the byte-identity reference for router-served output.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use chipalign_model::ArchSpec;
use chipalign_nn::TinyLm;
use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig};
use chipalign_router::{affinity_key, HashRing, Router, RouterConfig, RouterServer};
use chipalign_serve::protocol::ReplicaHealth;
use chipalign_serve::{
    Client, GenerateRequest, ModelRegistry, SchedulerConfig, Server, ServerConfig,
};
use chipalign_tensor::rng::Pcg32;

/// The framing and promptness checks `chipalign-serve` runs against a
/// `Server`: one wire, so one set of assertions.
#[path = "../../serve/tests/support/wire.rs"]
mod wire;

const MERGE_SPEC: &str = "merge:eda-qwen+instruct-qwen@0.6";
const ZOO_SEED: u64 = 2025;

fn replica(index: usize, workers: usize, max_sessions: usize) -> Server {
    let zoo = Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed: ZOO_SEED,
        cache_dir: None,
    })
    .expect("zoo");
    Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers,
                max_sessions,
                max_batch: 4,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: Some(format!("r{index}")),
        },
        ModelRegistry::new(zoo),
    )
    .expect("bind replica")
}

fn fleet(n: usize, workers: usize, max_sessions: usize) -> (Vec<Server>, Vec<String>) {
    let servers: Vec<Server> = (0..n).map(|i| replica(i, workers, max_sessions)).collect();
    let addrs = servers.iter().map(|s| s.local_addr().to_string()).collect();
    (servers, addrs)
}

fn router_over(addrs: Vec<String>, probe_interval: Duration) -> RouterServer {
    RouterServer::bind(
        RouterConfig {
            probe_interval,
            ..RouterConfig::default()
        },
        addrs,
    )
    .expect("bind router")
}

/// Polls a replica's metrics until `requests` reaches `n` (the session has
/// been admitted), so tests can sequence around in-flight work without
/// sleeping blind.
fn wait_for_admission(addr: &str, n: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut client = Client::connect(addr).expect("connect");
    loop {
        if client.metrics().expect("metrics").requests >= n {
            return;
        }
        assert!(Instant::now() < deadline, "session never admitted");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// The headline property: prompts sharing a 16-char scaffold land on the
/// same (predictable) replica, router-served text is byte-identical to a
/// direct replica generation, and the router's `metrics`/`models`/`fleet`
/// verbs aggregate the fleet.
#[test]
fn affinity_routing_pins_scaffolds_and_aggregates_the_fleet() {
    let (servers, addrs) = fleet(2, 2, 16);
    let front = router_over(addrs.clone(), Duration::from_millis(200));
    let mut admin = Client::connect(front.local_addr()).expect("connect router");

    // Broadcast load: the merge materializes on every replica.
    let key = admin.load(MERGE_SPEC).expect("fleet load");
    assert_eq!(key, "merge:eda-qwen+instruct-qwen@0.6000");
    let (loaded, zoo_slugs, _) = admin.models().expect("fleet models");
    assert!(loaded.contains(&key), "union of loaded models: {loaded:?}");
    assert!(zoo_slugs.contains(&"eda-qwen".to_string()));

    // Two scaffold families; within a family the first 16 chars (the
    // affinity prefix) agree, and the varying member index falls after
    // them — so a family shares one affinity key.
    let prompts: Vec<String> = (0..4)
        .map(|i| format!("Q:describe timing path {i};A:"))
        .chain((0..4).map(|i| format!("Q:explain the CDC rule {i};A:")))
        .collect();

    // Recompute each prompt's expected home exactly as the router does.
    let cfg = RouterConfig::default();
    let ring = HashRing::build(&addrs, cfg.vnodes);
    let homes: Vec<usize> = prompts
        .iter()
        .map(|p| ring.candidates(affinity_key(MERGE_SPEC, p))[0])
        .collect();
    for family in [&homes[..4], &homes[4..]] {
        assert!(
            family.windows(2).all(|w| w[0] == w[1]),
            "a scaffold family shares one affinity home: {homes:?}"
        );
    }

    for (prompt, &home) in prompts.iter().zip(&homes) {
        let req = GenerateRequest::greedy(MERGE_SPEC, prompt, 32);
        let via_router = admin.generate(req.clone()).expect("routed generate");
        // Reference: the *other* replica, direct. Identical zoo seeds make
        // every replica's transcript byte-identical, so this also proves
        // the failover-safety assumption the router relies on.
        let other = &addrs[1 - home];
        let direct = Client::connect(other.as_str())
            .expect("connect replica")
            .generate(req)
            .expect("direct generate");
        assert_eq!(
            via_router.text, direct.text,
            "byte-identical for {prompt:?}"
        );
        assert_eq!(via_router.tokens, direct.tokens);
    }

    // Per-replica completions must match the computed homes: affinity
    // routed every request, nothing strayed. (The direct reference calls
    // above add one extra completion per prompt on the non-home replica.)
    for (idx, addr) in addrs.iter().enumerate() {
        let expected_home = homes.iter().filter(|&&h| h == idx).count() as u64;
        let expected_direct = homes.iter().filter(|&&h| h != idx).count() as u64;
        let snap = Client::connect(addr.as_str())
            .expect("connect replica")
            .metrics()
            .expect("metrics");
        assert_eq!(
            snap.completed,
            expected_home + expected_direct,
            "replica {idx} served its homed prompts plus direct references"
        );
    }

    // The router's metrics verb aggregates the whole fleet via absorb().
    let fleet_snap = admin.metrics().expect("fleet metrics");
    assert_eq!(fleet_snap.completed, 2 * prompts.len() as u64);
    assert!(fleet_snap.tokens_per_sec > 0.0);

    // And its own routing counters say every request hit its first choice.
    let routing = front.router().metrics().snapshot();
    assert_eq!(routing.routed, prompts.len() as u64);
    assert_eq!(routing.primary_hits, prompts.len() as u64);
    assert_eq!(routing.failovers, 0);

    let statuses = admin.fleet().expect("fleet status");
    assert_eq!(statuses.len(), 2);
    assert!(statuses.iter().all(|s| s.state == ReplicaHealth::Healthy));

    front.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// A saturated home replica answers `overloaded`; the router marks it
/// Degraded and spills the request to its ring neighbor, which serves it.
#[test]
fn overloaded_home_spills_to_ring_neighbor_and_degrades() {
    // max_sessions 1: one in-flight session saturates a replica.
    let (servers, addrs) = fleet(2, 1, 1);
    // A long probe interval so only the initial probe pass runs: the
    // Degraded mark must survive until we assert on it.
    let front = router_over(addrs.clone(), Duration::from_secs(120));
    let mut admin = Client::connect(front.local_addr()).expect("connect router");
    admin.load("eda-qwen").expect("fleet load");

    let prompt = "Q:spill me somewhere;A:";
    let cfg = RouterConfig::default();
    let ring = HashRing::build(&addrs, cfg.vnodes);
    let home = ring.candidates(affinity_key("eda-qwen", prompt))[0];

    // Occupy the home replica with a long-running direct session (an
    // `<eos>` must not free the replica early).
    let occupy_addr = addrs[home].clone();
    let occupant = std::thread::spawn(move || {
        Client::connect(occupy_addr.as_str())
            .expect("connect home")
            .generate(GenerateRequest {
                stop_at_eos: false,
                ..GenerateRequest::greedy("eda-qwen", "Q:occupy;A:", 600)
            })
            .expect("occupying generate")
    });
    wait_for_admission(&addrs[home], 1);

    // Routed to its saturated home, the request must spill and succeed.
    let spilled = admin
        .generate(GenerateRequest::greedy("eda-qwen", prompt, 24))
        .expect("spilled generate");
    assert!(!spilled.text.is_empty());

    let routing = front.router().metrics().snapshot();
    assert_eq!(routing.spills, 1, "exactly one overload spill");
    assert_eq!(routing.failovers, 1);
    assert_eq!(routing.primary_hits, 0);
    assert_eq!(routing.marks_degraded, 1);

    let statuses = admin.fleet().expect("fleet status");
    assert_eq!(statuses[home].state, ReplicaHealth::Degraded);
    assert_eq!(statuses[1 - home].state, ReplicaHealth::Healthy);

    // The neighbor actually served it.
    let neighbor = Client::connect(addrs[1 - home].as_str())
        .expect("connect neighbor")
        .metrics()
        .expect("metrics");
    assert_eq!(neighbor.completed, 1);

    let occupied = occupant.join().expect("occupant thread");
    assert_eq!(occupied.tokens, 600, "the occupying session was never cut");

    front.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// Draining removes a replica from the candidate set — its keyspace falls
/// to ring neighbors — without cancelling its in-flight sessions.
#[test]
fn drain_rebalances_new_traffic_and_preserves_inflight_sessions() {
    let (servers, addrs) = fleet(2, 2, 8);
    let front = router_over(addrs.clone(), Duration::from_millis(200));
    let router_addr = front.local_addr();
    let mut admin = Client::connect(router_addr).expect("connect router");
    admin.load("eda-qwen").expect("fleet load");

    let prompt = "Q:who owns this keyspace?;A:";
    let cfg = RouterConfig::default();
    let ring = HashRing::build(&addrs, cfg.vnodes);
    let home = ring.candidates(affinity_key("eda-qwen", prompt))[0];

    // A long session routed through the router, homed on `home` (an
    // `<eos>` must not end it before the drain).
    let inflight_prompt = prompt.to_string();
    let inflight = std::thread::spawn(move || {
        Client::connect(router_addr)
            .expect("connect router")
            .generate(GenerateRequest {
                stop_at_eos: false,
                ..GenerateRequest::greedy("eda-qwen", &inflight_prompt, 400)
            })
            .expect("in-flight generate")
    });
    wait_for_admission(&addrs[home], 1);

    // Drain the home. Unknown replicas are reported, not invented.
    assert!(admin.drain(&addrs[home]).expect("drain"));
    assert!(!admin.drain("127.0.0.1:1").expect("drain unknown"));
    let statuses = admin.fleet().expect("fleet status");
    assert_eq!(statuses[home].state, ReplicaHealth::Draining);

    // New traffic for the drained keyspace lands on the survivor...
    let rerouted = admin
        .generate(GenerateRequest::greedy("eda-qwen", prompt, 24))
        .expect("rerouted generate");
    assert!(!rerouted.text.is_empty());
    let survivor = Client::connect(addrs[1 - home].as_str())
        .expect("connect survivor")
        .metrics()
        .expect("metrics");
    assert_eq!(
        survivor.completed, 1,
        "survivor serves the drained keyspace"
    );

    // ...and the drained replica's in-flight session still completes.
    let finished = inflight.join().expect("inflight thread");
    assert_eq!(
        finished.tokens, 400,
        "draining never cancels in-flight work"
    );

    // Draining is sticky: probes have run meanwhile, the state must hold.
    let statuses = admin.fleet().expect("fleet status");
    assert_eq!(statuses[home].state, ReplicaHealth::Draining);

    front.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// Two replicas serving one tiny random model as `tiny` (nothing trains),
/// behind a router.
fn tiny_fleet() -> (Vec<Server>, RouterServer) {
    let (servers, addrs) = fleet(2, 1, 4);
    let mut arch = ArchSpec::tiny("router-e2e");
    arch.vocab_size = 99;
    let model = TinyLm::new(&arch, &mut Pcg32::seed(7)).expect("model");
    for s in &servers {
        s.registry().register("tiny", model.clone());
    }
    let front = router_over(addrs, Duration::from_millis(200));
    (servers, front)
}

/// The router frames request lines with the replica's reader: a line split
/// across a pause (even inside a multi-byte character) is answered whole,
/// and a newline-free stream gets one `bad_request` and a closed
/// connection at `MAX_LINE_BYTES`.
#[test]
fn the_router_frames_split_and_over_long_lines_like_a_replica() {
    let (servers, front) = tiny_fleet();
    wire::assert_split_lines_are_answered_whole(front.local_addr(), "tiny");
    wire::assert_an_over_long_line_is_refused_once(front.local_addr());
    front.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// No timer sits on a routed request's path: 20 one-token generations,
/// each a fresh router → replica connection, take milliseconds — not 20
/// accept-poll ticks plus a delayed ACK per hop.
#[test]
fn routed_requests_pay_no_accept_poll_or_nagle_stall() {
    let (servers, front) = tiny_fleet();
    let mut client = Client::connect(front.local_addr()).expect("connect router");
    let took = wire::best_of_three(|| {
        for i in 0..20 {
            let prompt = format!("Q:question {i};A:");
            let gen = client
                .generate(GenerateRequest::greedy("tiny", &prompt, 1))
                .expect("routed generate");
            assert_eq!(gen.tokens, 1);
        }
    });
    assert!(
        took < Duration::from_secs(1),
        "20 routed one-token generations took {took:?}"
    );
    assert_eq!(front.router().metrics().snapshot().failovers, 0);

    front.shutdown();
    for s in servers {
        s.shutdown();
    }
}

/// Blocking accept and a prober that waits on its stop signal must not
/// cost shutdown its promptness: the 120 s probe interval is not waited
/// out.
#[test]
fn router_shutdown_is_prompt_idempotent_and_closes_the_port() {
    let (servers, addrs) = fleet(2, 1, 4);
    let front = router_over(addrs, Duration::from_secs(120));
    let addr = front.local_addr();
    let idle = Client::connect(addr).expect("connect");
    wire::assert_shutdown_is_prompt(addr, idle, || front.shutdown());
    for s in servers {
        s.shutdown();
    }
}

/// A replica that accepts and never replies: `request_timeout` bounds the
/// router's wait, the attempt fails over to the live replica with its
/// transcript unchanged, and the silent replica's health drops as
/// `record_failure` says (one failure: `Degraded`).
#[test]
fn a_silent_replica_times_out_and_the_request_fails_over() {
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let silent_addr = silent.local_addr().expect("addr").to_string();
    let (done, wait) = std::sync::mpsc::channel::<()>();
    let stub = std::thread::spawn(move || {
        // Take the one routed attempt and hold it open, silent, until the
        // test is done.
        let (conn, _) = silent.accept().expect("accept");
        let _ = wait.recv();
        drop(conn);
    });
    let live = replica(1, 1, 4);
    let mut arch = ArchSpec::tiny("router-e2e");
    arch.vocab_size = 99;
    let model = TinyLm::new(&arch, &mut Pcg32::seed(7)).expect("model");
    live.registry().register("tiny", model);
    let addrs = vec![silent_addr, live.local_addr().to_string()];

    let cfg = RouterConfig {
        request_timeout: Some(Duration::from_millis(200)),
        ..RouterConfig::default()
    };
    // A prompt whose affinity home is the silent replica, so the first
    // attempt goes there.
    let ring = HashRing::build(&addrs, cfg.vnodes);
    let prompt = (0..64)
        .map(|i| format!("Q:{i} silent home;A:"))
        .find(|p| ring.candidates(affinity_key("tiny", p))[0] == 0)
        .expect("a prompt homed on the silent replica");
    // No prober: the routed attempt is the only thing that can mark it.
    let router = Router::new(cfg, addrs);
    let req = GenerateRequest::greedy("tiny", &prompt, 16);
    let started = Instant::now();
    let routed = router
        .generate(&req)
        .expect("fails over to the live replica");
    let took = started.elapsed();
    let direct = Client::connect(live.local_addr())
        .expect("connect replica")
        .generate(req)
        .expect("direct generate");
    assert_eq!(routed.text, direct.text, "failover keeps the transcript");
    assert!(
        took >= Duration::from_millis(200),
        "the silent replica was waited on for the timeout: {took:?}"
    );

    let snap = router.metrics().snapshot();
    assert_eq!(snap.failovers, 1);
    assert_eq!(snap.primary_hits, 0);
    assert_eq!(snap.marks_degraded, 1);
    let fleet = router.fleet_status();
    assert_eq!(fleet[0].state, ReplicaHealth::Degraded);
    assert_eq!(fleet[0].consecutive_failures, 1);
    assert_eq!(fleet[1].state, ReplicaHealth::Healthy);
    drop(done);
    stub.join().expect("stub thread");
    live.shutdown();
}

/// A replica that accepts and never answers must not hang the router's
/// admin fan-out: `metrics` waits for each replica at most the probe
/// timeout, skips the silent one, and returns the live replica's counters.
#[test]
fn a_silent_replica_does_not_hang_the_metrics_fan_out() {
    // Bound and never accepted: the kernel completes every handshake, and
    // nothing ever replies.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind stub");
    let silent_addr = silent.local_addr().expect("addr").to_string();
    let live = replica(1, 1, 4);
    let mut arch = ArchSpec::tiny("router-e2e");
    arch.vocab_size = 99;
    live.registry().register(
        "tiny",
        TinyLm::new(&arch, &mut Pcg32::seed(7)).expect("model"),
    );
    Client::connect(live.local_addr())
        .expect("connect replica")
        .generate(GenerateRequest::greedy("tiny", "Q:x;A:", 4))
        .expect("direct generate");

    // The prober's first pass can mark the stub Degraded but not Down,
    // and its next pass is minutes away, so the fan-out still asks it.
    let front = router_over(
        vec![silent_addr, live.local_addr().to_string()],
        Duration::from_secs(120),
    );
    let mut client = Client::connect_timeout(
        front.local_addr(),
        Duration::from_secs(1),
        Some(Duration::from_secs(5)),
    )
    .expect("connect router");
    let reply = client.metrics();
    // Closing the stub resets its connections, so a router still waiting
    // on one lets go before the shutdown below.
    drop(silent);
    let snap = reply.expect("metrics answered within the client's read timeout");
    assert_eq!(snap.requests, 1, "the live replica's counters: {snap:?}");
    assert_eq!(snap.completed, 1);

    front.shutdown();
    live.shutdown();
}
