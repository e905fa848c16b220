//! Fleet chaos: replica kills mid-decode under the router.
//!
//! Requires `--features fault-inject`. Three identically-seeded replicas
//! sit behind a [`RouterServer`]; mid-burst, one replica loses a worker to
//! an armed [`Site::WorkerDeath`] (targeted by its `instance_tag`) and a
//! second is taken down whole with [`Server::kill`]. The invariant under
//! all of it:
//!
//! > every affected session is either answered **byte-identically** to an
//! > unperturbed reference after failover, or fails with a structured
//! > retryable error — never a hang, never a corrupted transcript.
//!
//! Identical zoo seeds across replicas make the transcripts comparable;
//! a fourth out-of-ring reference replica provides the golden texts.

#![cfg(feature = "fault-inject")]

use std::time::{Duration, Instant};

use chipalign_model::ArchSpec;
use chipalign_nn::TinyLm;
use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig};
use chipalign_router::{affinity_key, HashRing, RouterConfig, RouterServer};
use chipalign_serve::faults::{self, Site, Trigger};
use chipalign_serve::protocol::ReplicaHealth;
use chipalign_serve::{
    Client, ErrorCode, GenerateRequest, ModelRegistry, SchedulerConfig, ServeError, Server,
    ServerConfig,
};
use chipalign_tensor::rng::Pcg32;

const MODEL: &str = "chaos";

fn chaos_model() -> TinyLm {
    let mut arch = ArchSpec::tiny("fleet-chaos");
    arch.vocab_size = 99;
    TinyLm::new(&arch, &mut Pcg32::seed(77)).expect("model")
}

/// A replica with the shared chaos model registered under `MODEL` and the
/// given instance tag (`None` for the out-of-ring reference replica).
fn replica(tag: Option<&str>) -> Server {
    let zoo = Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed: 1,
        cache_dir: None,
    })
    .expect("zoo");
    let registry = ModelRegistry::new(zoo);
    registry.register(MODEL, chaos_model());
    Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_sessions: 32,
                max_batch: 1,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: tag.map(str::to_string),
        },
        registry,
    )
    .expect("bind replica")
}

/// Prompt families chosen *at runtime* so that every replica in `addrs`
/// is the affinity home of at least one family — the burst is guaranteed
/// to put sessions on both doomed replicas no matter where the ephemeral
/// ports hash.
fn families_covering_every_replica(addrs: &[String], cfg: &RouterConfig) -> Vec<(String, usize)> {
    let ring = HashRing::build(addrs, cfg.vnodes);
    let mut families: Vec<(String, usize)> = Vec::new();
    let mut covered = vec![false; addrs.len()];
    for i in 0.. {
        // The family index sits inside the 16-char affinity prefix, so
        // each family gets its own key (and thus its own candidate home).
        let scaffold = format!("Q:f{i:04} chaos member ");
        let home = ring.candidates(affinity_key(MODEL, &scaffold))[0];
        if !covered[home] {
            covered[home] = true;
            families.push((scaffold, home));
            if covered.iter().all(|&c| c) {
                break;
            }
        }
        assert!(i < 10_000, "ring never covered every replica");
    }
    families
}

#[test]
fn replica_kills_mid_decode_preserve_transcripts_or_fail_structured() {
    let _scope = faults::scope(7001);
    // Kill a worker on replica r1 on the third decode slice it runs for
    // the chaos model. The victim session gets a structured `internal`
    // ("worker died") and must be re-served elsewhere byte-identically.
    faults::arm(
        Site::WorkerDeath,
        Some(&format!("r1/{MODEL}")),
        Trigger::Once(3),
    );

    let servers: Vec<Server> = (0..3).map(|i| replica(Some(&format!("r{i}")))).collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let reference = replica(None);

    let cfg = RouterConfig {
        probe_interval: Duration::from_millis(100),
        ..RouterConfig::default()
    };
    let families = families_covering_every_replica(&addrs, &cfg);
    let front = RouterServer::bind(cfg, addrs.clone()).expect("bind router");
    let router_addr = front.local_addr();

    // 4 members per family; with one family homed on each replica, both
    // doomed replicas are guaranteed mid-decode traffic.
    let prompts: Vec<String> = families
        .iter()
        .flat_map(|(scaffold, _)| (0..4).map(move |m| format!("{scaffold}{m};A:")))
        .collect();

    // Golden transcripts from the unperturbed out-of-ring replica.
    let mut golden_client = Client::connect(reference.local_addr()).expect("connect reference");
    let golden: Vec<String> = prompts
        .iter()
        .map(|p| {
            golden_client
                .generate(GenerateRequest::greedy(MODEL, p, 48))
                .expect("golden generate")
                .text
        })
        .collect();

    // The burst: every prompt through the router, concurrently.
    let handles: Vec<_> = prompts
        .iter()
        .map(|prompt| {
            let prompt = prompt.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(router_addr).expect("connect router");
                client.generate(GenerateRequest::greedy(MODEL, &prompt, 48))
            })
        })
        .collect();

    // Mid-burst, take replica r2 down whole: queued and in-flight sessions
    // get structured `shutting_down`, then its listener vanishes.
    std::thread::sleep(Duration::from_millis(30));
    servers[2].kill();

    let mut ok = 0usize;
    let mut structured = 0usize;
    for (i, handle) in handles.into_iter().enumerate() {
        match handle.join().expect("client thread") {
            Ok(generation) => {
                assert_eq!(
                    generation.text, golden[i],
                    "session {i} ({:?}) must be byte-identical after any failover",
                    prompts[i]
                );
                ok += 1;
            }
            Err(ServeError::Remote(w)) => {
                assert!(
                    matches!(
                        w.code,
                        ErrorCode::Overloaded | ErrorCode::Internal | ErrorCode::ShuttingDown
                    ),
                    "session {i}: structured but non-retryable: {w:?}"
                );
                structured += 1;
            }
            Err(other) => panic!("session {i}: unstructured failure: {other:?}"),
        }
    }
    assert_eq!(ok + structured, prompts.len());
    assert!(
        ok >= prompts.len() - 2,
        "failover should save nearly every session: {ok} ok, {structured} structured"
    );

    // The router actually exercised failover (the worker death alone
    // guarantees at least one), and it noticed the dead replica.
    let routing = front.router().metrics().snapshot();
    assert_eq!(routing.routed, prompts.len() as u64);
    assert!(routing.failovers > 0, "no failover happened: {routing:?}");

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let statuses = front.router().fleet_status();
        if statuses[2].state == ReplicaHealth::Down {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "prober never marked the killed replica Down: {statuses:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Survivors keep serving through the router after the carnage.
    let mut client = Client::connect(router_addr).expect("connect router");
    let after = client
        .generate(GenerateRequest::greedy(MODEL, &prompts[0], 48))
        .expect("post-chaos generate");
    assert_eq!(
        after.text, golden[0],
        "the fleet still serves, bytes intact"
    );

    front.shutdown();
    reference.shutdown();
    for s in servers {
        s.shutdown();
    }
}
