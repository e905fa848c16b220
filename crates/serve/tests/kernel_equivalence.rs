//! Kernel-equivalence pin: greedy transcripts must be byte-identical across
//! every decode path the workspace has, using a fixed-seed model.
//!
//! Three implementations produce the "same" greedy continuation:
//!
//! 1. the served path (scheduler slices driving `StepDecoder` sessions),
//! 2. a single-threaded `generate()` (`StepDecoder` over `KvCache`, which
//!    runs on the matvec fast path),
//! 3. a from-scratch full-forward argmax loop (`TinyLm::logits` over the
//!    whole growing sequence, which runs on the batched GEMM kernels).
//!
//! Pinning all three to the same byte-for-byte transcript is what lets the
//! tensor crate swap kernel implementations (blocked tiles, lane-split
//! dots, matvec dispatch) without anyone downstream noticing: a kernel
//! change that altered accumulation order between the batched and
//! single-token paths would break this test before it shipped.

use std::sync::Arc;

use chipalign_model::ArchSpec;
use chipalign_nn::generate::{generate, GenerateConfig, StepDecoder};
use chipalign_nn::{CharTokenizer, KvPool, KvPoolConfig, TinyLm, BOS};
use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig};
use chipalign_serve::{
    Client, GenerateRequest, ModelRegistry, SchedulerConfig, Server, ServerConfig,
};
use chipalign_tensor::ops;
use chipalign_tensor::rng::Pcg32;

fn pinned_model() -> TinyLm {
    let mut arch = ArchSpec::tiny("kernel-eq");
    arch.vocab_size = 99;
    TinyLm::new(&arch, &mut Pcg32::seed(20_250_806)).expect("model")
}

/// The pinned absolute logit tolerance for int8 decode against the f32
/// oracle — the same bound the nn-crate int8 tests pin. Per-row symmetric
/// quantization of this architecture's projections stays comfortably
/// inside it; a kernel or quantizer change that drifts past it fails here
/// before it ships.
const INT8_LOGIT_TOL: f32 = 0.25;

/// The pinned model with its int8 decode sidecar attached. Quantization is
/// deterministic, so every call (and the registry's `pinned#int8` clone)
/// carries identical codes and scales.
fn pinned_int8_model() -> TinyLm {
    let mut m = pinned_model();
    m.quantize();
    m
}

fn registry_with_pinned() -> ModelRegistry {
    let zoo = Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed: 7,
        cache_dir: None,
    })
    .expect("zoo");
    let registry = ModelRegistry::new(zoo);
    registry.register("pinned", pinned_model());
    registry
}

/// Greedy continuation via repeated full forward passes: the batched-GEMM
/// decode path, no KV cache involved.
fn full_forward_greedy(model: &TinyLm, prompt: &[u32], budget: usize) -> Vec<u32> {
    let mut seq = prompt.to_vec();
    let mut new_tokens = Vec::with_capacity(budget);
    for _ in 0..budget {
        let logits = model.logits(&seq).expect("within context");
        let last = logits.row(logits.rows() - 1);
        let next = ops::argmax(last).expect("non-empty vocab") as u32;
        seq.push(next);
        new_tokens.push(next);
    }
    new_tokens
}

/// The acceptance pin: served, `generate()`, and full-forward greedy
/// transcripts are byte-identical on a fixed-seed model. Prompt + budget
/// stay within `max_seq_len` so the full-forward loop sees exactly the
/// token window the cached paths do (no slide).
#[test]
fn greedy_transcripts_identical_across_all_decode_paths() {
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_sessions: 8,
                max_batch: 1,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry_with_pinned(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let model = pinned_model();
    let tok = CharTokenizer::new();
    let budget = 20;
    // BOS + 11 prompt chars + 20 new tokens = 32 = max_seq_len exactly.
    for prompt in ["kernel swap", "clock tree?", "hold margin"] {
        let mut req = GenerateRequest::greedy("pinned", prompt, budget);
        req.stop_at_eos = false;
        let served = client.generate(req.clone()).expect("generate");

        let mut ids = vec![BOS];
        ids.extend(tok.encode(prompt));
        assert!(
            ids.len() + budget <= model.arch().max_seq_len,
            "test must stay inside the context window"
        );
        let cfg = GenerateConfig {
            max_new_tokens: budget,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let stepped = generate(&model, &ids, &cfg).expect("kv-cached reference");
        let forwarded = full_forward_greedy(&model, &ids, budget);

        assert_eq!(
            stepped, forwarded,
            "KV-cached and full-forward greedy diverged for {prompt:?}"
        );
        assert_eq!(
            served.text,
            tok.decode(&stepped),
            "served transcript not byte-identical for {prompt:?}"
        );
        assert_eq!(served.tokens, budget);
    }
    server.shutdown();
}

/// The same pin through the context-window slide: longer generations force
/// `StepDecoder` to re-prefill, and the served output must still match a
/// single-threaded `generate()` byte for byte.
#[test]
fn served_greedy_identical_through_window_slide() {
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_sessions: 8,
                max_batch: 1,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry_with_pinned(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let model = pinned_model();
    let tok = CharTokenizer::new();
    let budget = 64; // max_seq_len is 32: at least one slide re-prefill.
    let mut req = GenerateRequest::greedy("pinned", "slide please", budget);
    req.stop_at_eos = false;
    let served = client.generate(req).expect("generate");

    let mut ids = vec![BOS];
    ids.extend(tok.encode("slide please"));
    let cfg = GenerateConfig {
        max_new_tokens: budget,
        stop_at_eos: false,
        ..GenerateConfig::default()
    };
    let expected = generate(&model, &ids, &cfg).expect("reference");
    assert_eq!(served.text, tok.decode(&expected));
    assert_eq!(served.tokens, budget);
    server.shutdown();
}

/// The pinned architecture with a 128-position window, so a prompt spans
/// several of the scheduler's 32-token prefill chunks.
fn roomy_pinned_model() -> TinyLm {
    let mut arch = ArchSpec::tiny("kernel-eq-roomy");
    arch.vocab_size = 99;
    arch.max_seq_len = 128;
    TinyLm::new(&arch, &mut Pcg32::seed(20_250_806)).expect("model")
}

/// The scheduler's prefill chunk (`scheduler::PREFILL_CHUNK`), in tokens.
const PREFILL_CHUNK: usize = 32;

/// The chunked-prefill + prefix-reuse pin: prompts longer than two
/// prefill chunks, served twice each so the second session adopts a
/// shared-prefix KV fork, with one budget long enough to slide the context
/// window and replay it through the chunked path, must produce transcripts
/// byte-identical to single-threaded `generate()`. The metrics prove both
/// mechanisms actually ran: every cold prompt prefilled in at least two
/// chunks, and the repeats were seeded from the prefix cache.
#[test]
fn chunked_and_prefix_seeded_transcripts_identical_to_cold_prefill() {
    let model = roomy_pinned_model();
    let tok = CharTokenizer::new();
    let jobs: &[(&str, usize)] = &[
        (
            "kernel swap: which timing paths move when the dot kernel changes tiles?",
            20,
        ),
        (
            "slide please: a long answer runs past the window and replays it in chunks",
            80,
        ),
    ];
    let expected: Vec<String> = jobs
        .iter()
        .map(|&(prompt, budget)| {
            let mut ids = vec![BOS];
            ids.extend(tok.encode(prompt));
            assert!(ids.len() > 2 * PREFILL_CHUNK, "{prompt:?} spans 3+ chunks");
            let cfg = GenerateConfig {
                max_new_tokens: budget,
                stop_at_eos: false,
                ..GenerateConfig::default()
            };
            tok.decode(&generate(&model, &ids, &cfg).expect("reference"))
        })
        .collect();
    assert!(
        jobs[1].0.len() + 1 + jobs[1].1 > model.arch().max_seq_len,
        "the second job must slide the window"
    );

    let registry = registry_with_pinned();
    registry.register("roomy", model);
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 1,
                max_sessions: 8,
                max_batch: 1,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry,
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    // Two passes: the first prefills cold and donates its prompt window;
    // the second must hit the prefix cache — and still match.
    for pass in 0..2 {
        for (&(prompt, budget), want) in jobs.iter().zip(&expected) {
            let before = client.metrics().expect("metrics").prefill_chunks;
            let mut req = GenerateRequest::greedy("roomy", prompt, budget);
            req.stop_at_eos = false;
            let served = client.generate(req).expect("generate");
            assert_eq!(&served.text, want, "pass={pass}, prompt {prompt:?}");
            let chunks = client.metrics().expect("metrics").prefill_chunks - before;
            assert!(
                pass == 1 || chunks >= 2,
                "a cold {prompt:?} prefilled in {chunks} chunks, not in at least 2"
            );
        }
    }
    let snap = client.metrics().expect("metrics");
    assert!(
        snap.prefix_hits >= 1,
        "repeated prompts must hit the prefix cache"
    );
    assert!(
        snap.prefix_tokens_reused >= 1,
        "a prefix hit must reuse tokens"
    );
    server.shutdown();
}

/// The batched-scheduler pin: at every `max_batch`, concurrent greedy
/// sessions — including one long enough to slide the context window —
/// produce transcripts byte-identical to single-threaded `generate()`.
/// One worker forces the queue to drain in real batches, so at
/// `max_batch >= 2` the skinny-GEMM `decode_batch` path is what actually
/// produced the served bytes.
#[test]
fn batched_transcripts_identical_across_max_batch_sweep() {
    let model = pinned_model();
    let tok = CharTokenizer::new();
    // Budget 64 exceeds max_seq_len (32): that session must re-prefill
    // through at least one window slide while batched with the others.
    let jobs: &[(&str, usize)] = &[
        ("kernel swap", 20),
        ("clock tree?", 20),
        ("slide please", 64),
        ("hold margin", 12),
        ("skinny gemm", 28),
    ];
    let expected: Vec<String> = jobs
        .iter()
        .map(|&(prompt, budget)| {
            let mut ids = vec![BOS];
            ids.extend(tok.encode(prompt));
            let cfg = GenerateConfig {
                max_new_tokens: budget,
                stop_at_eos: false,
                ..GenerateConfig::default()
            };
            tok.decode(&generate(&model, &ids, &cfg).expect("reference"))
        })
        .collect();

    for max_batch in [1usize, 2, 4, 8] {
        let server = Server::bind(
            ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                scheduler: SchedulerConfig {
                    workers: 1,
                    max_sessions: 8,
                    max_batch,
                },
                max_new_tokens_cap: 10_000_000,
                instance_tag: None,
            },
            registry_with_pinned(),
        )
        .expect("bind");
        let addr = server.local_addr();
        let served: Vec<String> = std::thread::scope(|s| {
            let handles: Vec<_> = jobs
                .iter()
                .map(|&(prompt, budget)| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let mut req = GenerateRequest::greedy("pinned", prompt, budget);
                        req.stop_at_eos = false;
                        client.generate(req).expect("generate").text
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        for ((got, want), &(prompt, _)) in served.iter().zip(&expected).zip(jobs) {
            assert_eq!(got, want, "max_batch={max_batch}, prompt {prompt:?}");
        }
        server.shutdown();
    }
}

/// The shared-pool pin: a decoder on 4-token blocks of a shared pool
/// produces the same bytes as a single-threaded `generate()` on its
/// private one-token pool,
/// through the context-window slide (reset + chunked replay on paged
/// storage), and returns every block to the pool when it dies.
#[test]
fn pooled_decoder_transcripts_identical_through_window_slide() {
    let model = Arc::new(pinned_model());
    let pool = KvPool::new(KvPoolConfig {
        block_tokens: 4,
        max_blocks: 64,
        ..KvPoolConfig::default()
    })
    .expect("pool");
    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode("slide please"));
    let cfg = GenerateConfig {
        max_new_tokens: 64, // max_seq_len is 32: at least one slide.
        stop_at_eos: false,
        ..GenerateConfig::default()
    };
    let expected = generate(&model, &ids, &cfg).expect("private-pool reference");

    let mut decoder = StepDecoder::new_chunked_pooled(&model, &ids, &cfg, &pool).expect("pooled");
    assert!(Arc::ptr_eq(decoder.cache().pool(), &pool));
    let mut got = Vec::with_capacity(cfg.max_new_tokens);
    while let Some(t) = decoder.step().expect("step") {
        got.push(t);
    }
    assert_eq!(got, expected, "paged KV storage must be bit-invisible");
    drop(decoder);
    assert_eq!(pool.blocks_in_use(), 0, "all blocks return to the pool");
}

/// The int8-vs-f32 pin: teacher-forcing the f32 greedy transcript through
/// both decode paths, every int8 logit stays within the pinned tolerance
/// of its f32 oracle, and wherever the f32 argmax margin exceeds twice the
/// tolerance the int8 argmax agrees (near-ties are legitimately allowed to
/// flip; confident tokens are not).
#[test]
fn int8_decode_tracks_the_f32_oracle_within_pinned_tolerance() {
    use chipalign_nn::KvCache;

    let f32_model = Arc::new(pinned_model());
    let int8_model = Arc::new(pinned_int8_model());
    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode("hold margin"));

    let mut oracle = KvCache::new(&f32_model);
    let mut quant = KvCache::new(&int8_model);
    let mut f32_logits = oracle.prefill(&ids).expect("f32 prefill");
    let mut int8_logits = quant.prefill(&ids).expect("int8 prefill");

    for step in 0..16 {
        let max_diff = f32_logits
            .iter()
            .zip(&int8_logits)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(
            max_diff <= INT8_LOGIT_TOL,
            "step {step}: int8 logits drifted {max_diff} > {INT8_LOGIT_TOL}"
        );
        let next = ops::argmax(&f32_logits).expect("vocab") as u32;
        // Margin gate: when the f32 winner leads by more than 2×tol, no
        // in-tolerance perturbation can flip the argmax.
        let mut sorted = f32_logits.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).expect("finite logits"));
        if sorted[0] - sorted[1] > 2.0 * INT8_LOGIT_TOL {
            assert_eq!(
                ops::argmax(&int8_logits).expect("vocab") as u32,
                next,
                "step {step}: confident f32 token must survive quantization"
            );
        }
        f32_logits = oracle.decode_step(next).expect("f32 step");
        int8_logits = quant.decode_step(next).expect("int8 step");
    }
}

/// The served-int8 pin: a generation against the registry's `pinned#int8`
/// variant is byte-identical to a local single-threaded `generate()` on an
/// identically quantized model — the serving stack adds no numeric drift
/// of its own on the int8 path.
#[test]
fn served_int8_transcripts_identical_to_local_int8_decode() {
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_sessions: 8,
                max_batch: 1,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry_with_pinned(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let int8_model = pinned_int8_model();
    let tok = CharTokenizer::new();
    // Budget 64 slides the 32-token context window: the replay path must
    // also be bit-identical on int8.
    for (prompt, budget) in [("kernel swap", 20), ("slide please", 64)] {
        let mut req = GenerateRequest::greedy("pinned#int8", prompt, budget);
        req.stop_at_eos = false;
        let served = client.generate(req).expect("generate");

        let mut ids = vec![BOS];
        ids.extend(tok.encode(prompt));
        let cfg = GenerateConfig {
            max_new_tokens: budget,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let local = generate(&int8_model, &ids, &cfg).expect("local int8");
        assert_eq!(
            served.text,
            tok.decode(&local),
            "served int8 transcript not byte-identical for {prompt:?}"
        );
        assert_eq!(served.model, "pinned#int8");
    }
    server.shutdown();
}

/// The served-kv8 pin: a generation against `pinned#kv8` (f32 weights,
/// int8 KV pool) is byte-identical to a local single-threaded decoder on
/// an int8 pool of the registry's default shape — block sealing is a pure
/// function of position, so the scheduler's chunked prefill, decode
/// slicing, and boundary-aligned prefix donations add no drift, through
/// the context-window slide included.
#[test]
fn served_kv8_transcripts_identical_to_local_int8_pool_decode() {
    use chipalign_nn::KvDtype;

    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 2,
                max_sessions: 8,
                max_batch: 1,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry_with_pinned(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let model = Arc::new(pinned_model());
    // Same shape the registry hands to served `#kv8` sessions: the
    // default pool config at the int8 dtype.
    let pool = KvPool::new(KvPoolConfig {
        dtype: KvDtype::Int8,
        ..KvPoolConfig::default()
    })
    .expect("pool");
    let tok = CharTokenizer::new();
    // Budget 64 slides the 32-token context window: the reset + replay
    // re-seals blocks at their new positions identically in both runs.
    for (prompt, budget) in [("kernel swap", 20), ("slide please", 64)] {
        let mut req = GenerateRequest::greedy("pinned#kv8", prompt, budget);
        req.stop_at_eos = false;
        let served = client.generate(req).expect("generate");

        let mut ids = vec![BOS];
        ids.extend(tok.encode(prompt));
        let cfg = GenerateConfig {
            max_new_tokens: budget,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let mut decoder =
            StepDecoder::new_chunked_pooled(&model, &ids, &cfg, &pool).expect("pooled");
        decoder.prefill_pending(usize::MAX).expect("prefill");
        let mut local = Vec::with_capacity(budget);
        while let Some(t) = decoder.step().expect("step") {
            local.push(t);
        }
        assert_eq!(
            served.text,
            tok.decode(&local),
            "served kv8 transcript not byte-identical for {prompt:?}"
        );
        assert_eq!(served.model, "pinned#kv8");
    }

    // The int8 pool is live and visible on the admin surface.
    let snap = client.metrics().expect("metrics");
    let int8_row = snap
        .kv_pool_dtypes
        .iter()
        .find(|r| r.dtype == "int8")
        .expect("served #kv8 traffic must surface an int8 pool row");
    assert_eq!(
        int8_row.blocks_in_use + int8_row.blocks_free,
        8192,
        "default pool capacity at the int8 dtype"
    );
    assert_eq!(
        snap.kv_bytes_in_use,
        snap.kv_pool_dtypes
            .iter()
            .map(|r| r.bytes_in_use)
            .sum::<u64>(),
        "total bytes gauge sums the per-dtype rows"
    );
    server.shutdown();
}

/// The batched-int8 pin: concurrent int8 sessions forced through the
/// skinny-GEMM `decode_batch` path produce transcripts byte-identical to
/// single-threaded int8 `generate()` — batching stays bit-invisible at
/// int8 exactly as it is at f32.
#[test]
fn batched_int8_transcripts_identical_to_single_threaded_int8() {
    let int8_model = pinned_int8_model();
    let tok = CharTokenizer::new();
    let jobs: &[(&str, usize)] = &[
        ("kernel swap", 20),
        ("clock tree?", 20),
        ("slide please", 64),
        ("hold margin", 12),
    ];
    let expected: Vec<String> = jobs
        .iter()
        .map(|&(prompt, budget)| {
            let mut ids = vec![BOS];
            ids.extend(tok.encode(prompt));
            let cfg = GenerateConfig {
                max_new_tokens: budget,
                stop_at_eos: false,
                ..GenerateConfig::default()
            };
            tok.decode(&generate(&int8_model, &ids, &cfg).expect("reference"))
        })
        .collect();

    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 1,
                max_sessions: 8,
                max_batch: 4,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry_with_pinned(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let served: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(prompt, budget)| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut req = GenerateRequest::greedy("pinned#int8", prompt, budget);
                    req.stop_at_eos = false;
                    client.generate(req).expect("generate").text
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for ((got, want), &(prompt, _)) in served.iter().zip(&expected).zip(jobs) {
        assert_eq!(got, want, "batched int8, prompt {prompt:?}");
    }
    server.shutdown();
}

/// The admin-surface pin: loading `pinned#int8` surfaces an int8 detail
/// row whose bytes beat the f32 row, the weights gauge equals the sum of
/// every row, and the snapshot names the kernel backend in use.
#[test]
fn int8_registry_surfaces_dtype_weight_gauge_and_backend() {
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig::default(),
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry_with_pinned(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let key = client.load("pinned#int8").expect("load");
    assert_eq!(key, "pinned#int8");

    let (_, _, details) = client.models().expect("models");
    let row = |m: &str| {
        details
            .iter()
            .find(|d| d.model == m)
            .unwrap_or_else(|| panic!("missing detail row for {m}"))
            .clone()
    };
    let f32_row = row("pinned");
    let int8_row = row("pinned#int8");
    assert_eq!(f32_row.dtype, "f32");
    assert_eq!(int8_row.dtype, "int8");
    assert!(
        int8_row.weights_bytes < f32_row.weights_bytes / 2,
        "int8 footprint ({}) must be under half the f32 footprint ({})",
        int8_row.weights_bytes,
        f32_row.weights_bytes
    );

    let snap = client.metrics().expect("metrics");
    let total: u64 = details.iter().map(|d| d.weights_bytes).sum();
    assert_eq!(snap.weights_bytes, total, "gauge must equal the row sum");
    assert!(
        !snap.simd_backend.is_empty(),
        "snapshot must name the selected kernel backend"
    );
    server.shutdown();
}

/// The wire-path pin: served sessions decode on the registry's per-model
/// paged pool, and the pool's gauges surface in the metrics snapshot —
/// after a generation the donated prefix snapshot still holds blocks, and
/// in-use plus free always equals the configured capacity.
#[test]
fn served_sessions_decode_on_the_paged_pool() {
    let server = Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig::default(),
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry_with_pinned(),
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut req = GenerateRequest::greedy("pinned", "kernel swap", 8);
    req.stop_at_eos = false;
    client.generate(req).expect("generate");

    let snap = client.metrics().expect("metrics");
    assert!(
        snap.kv_blocks_in_use >= 1,
        "the donated prefix snapshot must hold at least one pool block"
    );
    let capacity = KvPoolConfig::default().max_blocks as u64;
    assert_eq!(
        snap.kv_blocks_in_use + snap.kv_blocks_free,
        capacity,
        "pool gauges must account for every block"
    );
    server.shutdown();
}

/// A registry that additionally carries `pinned-half`: the pinned model
/// truncated to its first layer, the cheap-draft shape the speculative
/// pins exercise alongside the identical-weights draft.
fn registry_with_pinned_and_half() -> ModelRegistry {
    let registry = registry_with_pinned();
    registry.register(
        "pinned-half",
        pinned_model().truncate_layers(1).expect("prefix model"),
    );
    registry
}

fn spec_server(max_batch: usize) -> Server {
    Server::bind(
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            scheduler: SchedulerConfig {
                workers: 1,
                max_sessions: 8,
                max_batch,
            },
            max_new_tokens_cap: 10_000_000,
            instance_tag: None,
        },
        registry_with_pinned_and_half(),
    )
    .expect("bind")
}

/// The speculative pin: sessions addressed as `spec:pinned|<draft>@k` —
/// with the identical-weights draft and the truncated cheap draft, at
/// several draft lengths, through the context-window slide — are
/// byte-identical to a single-threaded `generate()` on the target, and the
/// metrics prove speculation actually ran (draft tokens proposed and
/// accepted, with the identical draft accepting every proposal while no
/// slide has reset its window).
#[test]
fn speculative_transcripts_identical_to_plain_greedy() {
    let model = pinned_model();
    let tok = CharTokenizer::new();
    // Budget 64 slides the 32-token window: after the slide the draft
    // resyncs on a shorter context and may legitimately disagree, so the
    // pin is byte-identity plus accepted > 0, not total acceptance.
    let jobs: &[(&str, usize)] = &[("kernel swap", 20), ("slide please", 64)];
    let expected: Vec<String> = jobs
        .iter()
        .map(|&(prompt, budget)| {
            let mut ids = vec![BOS];
            ids.extend(tok.encode(prompt));
            let cfg = GenerateConfig {
                max_new_tokens: budget,
                stop_at_eos: false,
                ..GenerateConfig::default()
            };
            tok.decode(&generate(&model, &ids, &cfg).expect("reference"))
        })
        .collect();

    for spec in ["spec:pinned|pinned@4", "spec:pinned|pinned-half@3"] {
        let server = spec_server(1);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (&(prompt, budget), want) in jobs.iter().zip(&expected) {
            let mut req = GenerateRequest::greedy(spec, prompt, budget);
            req.stop_at_eos = false;
            let served = client.generate(req).expect("generate");
            assert_eq!(
                &served.text, want,
                "speculative transcript not byte-identical for {spec}, {prompt:?}"
            );
            assert_eq!(served.tokens, budget);
        }
        let snap = client.metrics().expect("metrics");
        assert!(
            snap.draft_tokens_proposed > 0,
            "{spec}: speculation must actually propose draft tokens"
        );
        assert!(
            snap.accepted_draft_tokens > 0,
            "{spec}: the target must accept at least one draft token"
        );
        assert!(
            snap.accepted_draft_tokens <= snap.draft_tokens_proposed,
            "{spec}: acceptance cannot exceed proposals"
        );
        server.shutdown();
    }
}

/// The batched-speculation pin: speculative and plain sessions share one
/// batched scheduler (spec members step individually, plain members ride
/// the joint `decode_batch`), and every transcript — window slides
/// included — stays byte-identical to single-threaded `generate()`.
#[test]
fn batched_speculative_and_plain_transcripts_identical() {
    let model = pinned_model();
    let tok = CharTokenizer::new();
    let jobs: &[(&str, &str, usize)] = &[
        ("spec:pinned|pinned@4", "kernel swap", 20),
        ("pinned", "clock tree?", 20),
        ("spec:pinned|pinned-half@2", "slide please", 64),
        ("pinned", "hold margin", 12),
        ("spec:pinned|pinned@3", "skinny gemm", 28),
    ];
    let expected: Vec<String> = jobs
        .iter()
        .map(|&(_, prompt, budget)| {
            let mut ids = vec![BOS];
            ids.extend(tok.encode(prompt));
            let cfg = GenerateConfig {
                max_new_tokens: budget,
                stop_at_eos: false,
                ..GenerateConfig::default()
            };
            tok.decode(&generate(&model, &ids, &cfg).expect("reference"))
        })
        .collect();

    let server = spec_server(4);
    let addr = server.local_addr();
    let served: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = jobs
            .iter()
            .map(|&(spec, prompt, budget)| {
                s.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    let mut req = GenerateRequest::greedy(spec, prompt, budget);
                    req.stop_at_eos = false;
                    client.generate(req).expect("generate").text
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    for ((got, want), &(spec, prompt, _)) in served.iter().zip(&expected).zip(jobs) {
        assert_eq!(got, want, "batched {spec}, prompt {prompt:?}");
    }
    server.shutdown();
}

/// The quantized-target speculation pin: speculative sessions whose target
/// segment carries `#int8` (quantized weights) or `#kv8` (int8 paged KV)
/// are byte-identical to plain served sessions against the same target —
/// the verify path quantizes KV blocks at the same positions the
/// sequential path does, and an f32 draft never leaks into the target's
/// bytes.
#[test]
fn speculative_quantized_targets_match_their_plain_served_counterparts() {
    // BOS + 11 prompt chars + 18 new tokens = 30 < max_seq_len (32): the
    // quantized sessions stay clear of the window slide, so the sealed
    // int8 blocks both runs produce sit at identical positions;
    // byte-identity through slides is pinned on the f32 paths above.
    //
    // Guaranteed acceptance needs a draft whose logits are bit-identical
    // to the target's: `pinned#int8` drafting for `pinned#int8` qualifies
    // (same quantized weights; the target's shared-pool f32 KV equals
    // the draft's private-pool f32 KV bitwise). A `#kv8` target attends over
    // int8 KV while every draft runs f32 KV, so acceptance there is
    // likely but not provable — those jobs pin byte-identity only.
    let jobs: &[(&str, &str, &str, usize, bool)] = &[
        (
            "spec:pinned#int8|pinned#int8@4",
            "pinned#int8",
            "kernel swap",
            18,
            true,
        ),
        (
            "spec:pinned#kv8|pinned@4",
            "pinned#kv8",
            "hold margin",
            18,
            false,
        ),
        (
            "spec:pinned#kv8|pinned-half@3",
            "pinned#kv8",
            "clock tree?",
            18,
            false,
        ),
    ];
    for &(spec, plain, prompt, budget, must_accept) in jobs {
        let server = spec_server(1);
        let mut client = Client::connect(server.local_addr()).expect("connect");
        let mut req = GenerateRequest::greedy(plain, prompt, budget);
        req.stop_at_eos = false;
        let want = client.generate(req).expect("plain generate").text;

        let mut req = GenerateRequest::greedy(spec, prompt, budget);
        req.stop_at_eos = false;
        let served = client.generate(req).expect("spec generate");
        assert_eq!(
            served.text, want,
            "speculative transcript diverged from plain serving for {spec}"
        );
        let snap = client.metrics().expect("metrics");
        assert!(
            snap.draft_tokens_proposed > 0,
            "{spec}: speculation must actually run"
        );
        if must_accept {
            assert!(
                snap.accepted_draft_tokens > 0,
                "{spec}: an identical draft must have tokens accepted"
            );
        }
        server.shutdown();
    }
}
