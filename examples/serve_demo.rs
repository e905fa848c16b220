//! Serving demo: stand up the continuous-batching server on an ephemeral
//! port, hot-load a λ=0.6 geodesic merge of two smoke-quality zoo models,
//! and fan four concurrent clients at it.
//!
//! ```text
//! cargo run --release --example serve_demo
//! ```
//!
//! Everything runs in-process; the same wire protocol works across
//! machines by binding a routable address in [`ServerConfig`].

use chipalign::pipeline::zoo::{Quality, Zoo, ZooConfig};
use chipalign::serve::{
    Client, GenerateRequest, ModelRegistry, SchedulerConfig, Server, ServerConfig,
};

const SPEC: &str = "merge:eda-qwen+instruct-qwen@0.6";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Smoke quality trains each ingredient in seconds; swap in
    // Quality::Paper and a cache_dir of artifacts/zoo for the real models.
    let zoo = Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed: 2025,
        cache_dir: None,
    })?;
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 4,
                max_sessions: 16,
                max_batch: 4,
            },
            max_new_tokens_cap: 128,
            instance_tag: None,
        },
        ModelRegistry::new(zoo),
    )?;
    let addr = server.local_addr();
    println!("serving on {addr}");

    // Hot-load the paper's deliverable: the λ=0.6 geodesic merge. This
    // trains both ingredients and materializes the merge; later requests
    // hit the warm cache. Changing λ is just another load — no restart.
    let mut admin = Client::connect(addr)?;
    let key = admin.load(SPEC)?;
    println!("materialized {key}");

    let questions = [
        "Q:what is clock domain crossing?;A:",
        "Q:how do I fix a setup violation?;A:",
        "Q:what does the CTS stage do?;A:",
        "Q:why is IR drop bad?;A:",
    ];
    let handles: Vec<_> = questions
        .iter()
        .map(|q| {
            let q = (*q).to_string();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr)?;
                let mut req = GenerateRequest::greedy(SPEC, &q, 48);
                req.deadline_ms = Some(60_000);
                let generation = client.generate(req)?;
                Ok::<_, chipalign::serve::ServeError>((q, generation))
            })
        })
        .collect();
    for h in handles {
        let (q, generation) = h.join().expect("client thread")?;
        println!(
            "[{} tok, {} ms] {q} -> {}",
            generation.tokens, generation.latency_ms, generation.text
        );
    }

    let metrics = admin.metrics()?;
    println!(
        "served {} generations, {:.1} tokens/sec, p95 latency {:.1} ms",
        metrics.completed, metrics.tokens_per_sec, metrics.latency_p95_ms
    );
    server.shutdown();
    Ok(())
}
