//! The benchmark's vocabulary: workloads, end-to-end metrics with their
//! regression bounds, per-layer metrics. `BENCHMARK.json` is printed from
//! these tables (`chipalign-benchmark manifest`), so the two cannot drift.

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "merge_sweep",
        why: "offline geodesic merge: lambda sweep plus load-merge-validate-save of a 103 MB pair; merge, tensor reductions and model I/O work, nn/serve/router idle, so serving changes must not move it",
    },
    Workload {
        name: "decode_steady",
        why: "in-process scheduler, 8 sessions in flight, short unique prompts, 64 greedy tokens: batched decode and skinny GEMM work; prefix cache, merge and wire are bypassed",
    },
    Workload {
        name: "prefill_shared",
        why: "in-process scheduler, 4 in flight, 160-192-token scaffolds (75% Zipf-shared, 25% unique), half 1-token TTFT probes: prefill, KV fork and prefix cache work; decode does little",
    },
    Workload {
        name: "fleet_mixed",
        why: "two servers behind the router over loopback TCP at concurrency 1, cycling f32, int8, kv8, int8+kv8, spec and merge-at-lambda specs: same layers used differently, plus wire and router hops",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Every workload reports every one of these (the driver's contract), so
/// each is defined per workload; see README.md, "End-to-end metrics". The
/// bounds are what this sandbox can hold: its speed drifts by 10–20 % over
/// minutes (README.md, "Steadiness"), and a bound applies to the metric on
/// every workload, so the noisiest workload sets it.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "work_per_s",
        unit: "1/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_latency_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "op_latency_p90_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "higher",
    }
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
    }
}

/// A traced run prints all of these; one that does not apply to the
/// workload reads 0 (see README.md for which applies where).
pub const PER_LAYER: &[PerLayer] = &[
    lo("tensor.matvec_f32_us", "us"),
    hi("tensor.matvec_f32_gbps", "GB/s"),
    hi("tensor.gemm_m8_gflops", "GFLOP/s"),
    hi("tensor.gemm_m32_gflops", "GFLOP/s"),
    lo("tensor.matvec_q8_us", "us"),
    hi("tensor.matvec_q8_gbps", "GB/s"),
    hi("tensor.gemm_q8_m8_gflops", "GFLOP/s"),
    hi("tensor.dot_gbps.scalar", "GB/s"),
    hi("tensor.dot_gbps.blocked", "GB/s"),
    hi("tensor.dot_gbps.simd", "GB/s"),
    hi("tensor.dot_q8_gbps.scalar", "GB/s"),
    hi("tensor.dot_q8_gbps.blocked", "GB/s"),
    hi("tensor.dot_q8_gbps.simd", "GB/s"),
    hi("tensor.frob_gbps", "GB/s"),
    hi("tensor.axpy_gbps", "GB/s"),
    lo("tensor.replay_s", "s"),
    hi("model.encode_mb_per_s", "MB/s"),
    hi("model.decode_mb_per_s", "MB/s"),
    hi("model.save_mb_per_s", "MB/s"),
    hi("model.load_mb_per_s", "MB/s"),
    hi("model.validate_mb_per_s", "MB/s"),
    hi("model.qencode_mb_per_s", "MB/s"),
    hi("merge.geodesic_mparams_per_s", "Mparam/s"),
    hi("merge.geodesic_global_mparams_per_s", "Mparam/s"),
    hi("merge.soup_mparams_per_s", "Mparam/s"),
    hi("merge.task_arith_mparams_per_s", "Mparam/s"),
    hi("merge.ties_mparams_per_s", "Mparam/s"),
    hi("merge.della_mparams_per_s", "Mparam/s"),
    hi("merge.dare_mparams_per_s", "Mparam/s"),
    hi("merge.slerp_tensor_share", "share"),
    lo("merge.bytes_per_param", "B"),
    lo("merge.self_share", "share"),
    hi("nn.prefill_tok_per_s", "1/s"),
    lo("nn.fork_us", "us"),
    lo("nn.decode_step_us", "us"),
    lo("nn.decode_step_us.ctx448", "us"),
    lo("nn.batch8_step_us", "us"),
    lo("nn.decode_step_us.int8", "us"),
    lo("nn.decode_step_us.kv8", "us"),
    hi("nn.spec_tok_per_s", "1/s"),
    hi("nn.spec_accept_share", "share"),
    lo("nn.kv_bytes_per_token.f32", "B"),
    lo("nn.kv_bytes_per_token.int8", "B"),
    hi("nn.sessions_per_gb.f32", "count"),
    hi("nn.sessions_per_gb.int8", "count"),
    lo("nn.replay_s", "s"),
    lo("nn.self_share", "share"),
    lo("serve.queue_ms_p50", "ms"),
    lo("serve.queue_ms_p90", "ms"),
    hi("serve.batch_occupancy_mean", "count"),
    hi("serve.batched_slice_share", "share"),
    lo("serve.cpu_s", "s"),
    hi("serve.cpu_util", "share"),
    lo("serve.overhead_share", "share"),
    hi("serve.prefix_hit_share", "share"),
    hi("serve.prefix_tokens_reused_share", "share"),
    lo("serve.ttft_p50_ms.shared", "ms"),
    lo("serve.ttft_p50_ms.unique", "ms"),
    lo("serve.session_latency_p50_ms", "ms"),
    lo("serve.cow_copies", "count"),
    lo("serve.pool_evictions", "count"),
    lo("serve.kv_bytes_peak", "B"),
    lo("serve.rejected", "count"),
    hi("serve.tok_per_s.f32", "1/s"),
    hi("serve.tok_per_s.int8", "1/s"),
    hi("serve.tok_per_s.kv8", "1/s"),
    hi("serve.tok_per_s.int8kv8", "1/s"),
    hi("serve.tok_per_s.spec", "1/s"),
    hi("serve.tok_per_s.merge", "1/s"),
    hi("serve.token_match_share.int8", "share"),
    hi("serve.token_match_share.kv8", "share"),
    hi("serve.spec_accept_share", "share"),
    lo("serve.spec_fallbacks", "count"),
    lo("serve.registry_merge_load_ms", "ms"),
    lo("serve.direct_latency_p50_ms", "ms"),
    lo("serve.loopback_latency_p50_ms", "ms"),
    lo("router.hop_ms_p50", "ms"),
    hi("router.primary_hit_share", "share"),
    lo("router.failovers", "count"),
    lo("router.spills", "count"),
    lo("router.exhausted", "count"),
    lo("router.replica_token_skew", "share"),
    lo("trace_overhead_share", "share"),
];

/// What one run found: metric values by name, and the operation count.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Operations attempted (merges, sessions, requests), output-checked.
    pub attempted: u64,
    /// Refused, errored, timed-out or wrong-output operations.
    pub failed: u64,
    /// Human-readable findings printed above the result line.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "unregistered metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Counts one operation; `ok` is false for a refused, errored or
    /// wrong-output one.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A number as JSON: all its digits, and never `NaN`/`inf` (not JSON).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".to_string()
    }
}

pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `BENCHMARK.json`, from the tables above.
pub fn manifest(run_seconds: u64) -> String {
    let object = |fields: &[(&str, String)]| {
        let fields: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_string(k)))
            .collect();
        format!("    {{{}}}", fields.join(", "))
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| object(&[("name", json_string(w.name)), ("why", json_string(w.why))]))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            object(&[
                ("name", json_string(m.name)),
                ("unit", json_string(m.unit)),
                ("better", json_string(m.better)),
                ("bound", json_number(m.bound)),
            ])
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            object(&[
                ("name", json_string(m.name)),
                ("unit", json_string(m.unit)),
                ("better", json_string(m.better)),
            ])
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}
