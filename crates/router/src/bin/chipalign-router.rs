//! `chipalign-router`: the fleet front end.
//!
//! Speaks the same newline-JSON protocol as a single `chipalign-serve`
//! replica, so any existing client points here unchanged; behind it,
//! sessions spread across replicas via prefix-affinity consistent hashing
//! with health-checked failover.
//!
//! ```text
//! # Route over two already-running replicas:
//! chipalign-router --listen 127.0.0.1:7400 \
//!     --replica 127.0.0.1:7401 --replica 127.0.0.1:7402
//!
//! # Self-contained demo fleet: spawn 3 in-process replicas and route:
//! chipalign-router --spawn 3
//! ```
//!
//! Flags: `--listen ADDR` (default `127.0.0.1:7400`), `--replica ADDR`
//! (repeatable), `--spawn N` (in-process smoke-quality replicas on
//! ephemeral ports), `--vnodes N`, `--probe-interval-ms MS`, `--request-timeout-ms MS`,
//! `--seed N`.

use std::time::Duration;

use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig};
use chipalign_router::{RouterConfig, RouterServer};
use chipalign_serve::{ModelRegistry, SchedulerConfig, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: chipalign-router [--listen ADDR] [--replica ADDR]... [--spawn N] \
         [--vnodes N] [--probe-interval-ms MS] [--request-timeout-ms MS] [--seed N]"
    );
    std::process::exit(2);
}

fn parse<T: std::str::FromStr>(flag: &str, value: Option<String>) -> T {
    match value.and_then(|v| v.parse().ok()) {
        Some(v) => v,
        None => {
            eprintln!("invalid or missing value for {flag}");
            usage();
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = RouterConfig {
        listen: "127.0.0.1:7400".to_string(),
        ..RouterConfig::default()
    };
    let mut replicas: Vec<String> = Vec::new();
    let mut spawn = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => cfg.listen = parse("--listen", args.next()),
            "--replica" => replicas.push(parse("--replica", args.next())),
            "--spawn" => spawn = parse("--spawn", args.next()),
            "--vnodes" => cfg.vnodes = parse("--vnodes", args.next()),
            "--probe-interval-ms" => {
                cfg.probe_interval =
                    Duration::from_millis(parse("--probe-interval-ms", args.next()));
            }
            "--request-timeout-ms" => {
                cfg.request_timeout = Some(Duration::from_millis(parse(
                    "--request-timeout-ms",
                    args.next(),
                )));
            }
            "--seed" => cfg.seed = parse("--seed", args.next()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage();
            }
        }
    }

    // In-process replicas for a self-contained fleet: each gets its own
    // registry over an identically-seeded zoo, so every replica
    // materializes byte-identical models — the property that makes
    // cross-replica failover transcript-safe.
    let mut spawned: Vec<Server> = Vec::with_capacity(spawn);
    for i in 0..spawn {
        let zoo = Zoo::new(ZooConfig {
            quality: Quality::Smoke,
            seed: 2025,
            cache_dir: None,
        })?;
        let server = Server::bind(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                scheduler: SchedulerConfig {
                    workers: 2,
                    max_sessions: 16,
                    max_batch: 4,
                },
                instance_tag: Some(format!("r{i}")),
                ..ServerConfig::default()
            },
            ModelRegistry::new(zoo),
        )?;
        let addr = server.local_addr().to_string();
        println!("replica r{i} on {addr}");
        replicas.push(addr);
        spawned.push(server);
    }

    if replicas.is_empty() {
        eprintln!("no replicas: pass --replica ADDR (repeatable) and/or --spawn N");
        usage();
    }

    let front = RouterServer::bind(cfg, replicas)?;
    println!(
        "chipalign-router on {} ({} replicas, affinity routing)",
        front.local_addr(),
        front.router().fleet_status().len()
    );

    // Serve until killed. The accept loop and prober run on their own
    // threads; park this one.
    loop {
        std::thread::park();
    }
}
