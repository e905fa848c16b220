//! `merge_sweep`: the paper's contribution as an offline batch job — a λ
//! sweep of in-memory geodesic merges plus the file pipeline load chip +
//! load instruct → merge → validate → atomic save.

use std::path::PathBuf;
use std::time::Instant;

use chipalign_merge::{
    Dare, Della, GeodesicMerge, Granularity, MergeReport, ModelSoup, TaskArithmetic, Ties,
};
use chipalign_model::{format, qformat, ArchSpec, Checkpoint, QuantCheckpoint};
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

use crate::inputs;
use crate::metrics::Report;
use crate::stats::{self, median};
use crate::trace::Tracer;
use crate::{repeat_setup, time_median, Opts};

/// λ of every pipeline merge; the paper's recommended interpolation point.
const PIPELINE_LAMBDA: f32 = 0.6;
const SWEEP: [f32; 9] = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Bytes one `GeodesicMerge` moves per parameter, from the `Matrix` calls
/// `merge_tensor` makes on an `r × c` tensor pair: `(reads, writes)` of 4
/// bytes each, in call order. Computed from shapes, not measured.
const GEODESIC_TRAFFIC: &[(&str, u32, u32)] = &[
    ("chip.clone", 1, 1),
    ("frobenius_norm(chip)", 1, 0),
    ("frobenius_norm(instruct)", 1, 0),
    ("scale(chip)", 1, 1),
    ("scale(instruct)", 1, 1),
    ("frobenius_dot", 2, 0),
    ("frobenius_norm(chip_unit)", 1, 0),
    ("frobenius_norm(instruct_unit)", 1, 0),
    ("scale(coef_chip)", 1, 1),
    ("axpy(coef_instruct)", 2, 1),
    ("scale_inplace(norm)", 1, 1),
    ("frobenius_norm(merged)", 1, 0),
];

struct Inputs {
    arch: ArchSpec,
    chip_path: PathBuf,
    instruct_path: PathBuf,
    merged_path: PathBuf,
}

fn arch(opts: &Opts) -> ArchSpec {
    if opts.quick {
        inputs::quick_arch("quick-merge")
    } else {
        inputs::bench_512x8()
    }
}

/// Generates the sibling pair and writes both checkpoints.
fn setup(opts: &Opts) -> Inputs {
    let arch = arch(opts);
    let trio = inputs::sibling_trio(&arch, opts.seed);
    let dir = opts.work_dir();
    let inputs = Inputs {
        arch,
        chip_path: dir.join("chip.calt"),
        instruct_path: dir.join("instruct.calt"),
        merged_path: dir.join("merged.calt"),
    };
    format::save(&trio.chip, &inputs.chip_path).expect("write chip checkpoint");
    format::save(&trio.instruct, &inputs.instruct_path).expect("write instruct checkpoint");
    inputs
}

/// The paper's formula in f64 on one tensor pair: unit-sphere projection,
/// SLERP, geometric-mean norm restore.
fn reference_merge(wc: &Matrix, wi: &Matrix, lambda: f64) -> Vec<f64> {
    let norm = |m: &Matrix| {
        m.data()
            .iter()
            .map(|&x| f64::from(x).powi(2))
            .sum::<f64>()
            .sqrt()
    };
    let (nc, ni) = (norm(wc), norm(wi));
    let cos: f64 = wc
        .data()
        .iter()
        .zip(wi.data())
        .map(|(&c, &i)| f64::from(c) / nc * (f64::from(i) / ni))
        .sum();
    let theta = cos.clamp(-1.0, 1.0).acos();
    let a = (lambda * theta).sin() / theta.sin();
    let b = ((1.0 - lambda) * theta).sin() / theta.sin();
    let restore = nc.powf(lambda) * ni.powf(1.0 - lambda);
    wc.data()
        .iter()
        .zip(wi.data())
        .map(|(&c, &i)| restore * (a * f64::from(c) / nc + b * f64::from(i) / ni))
        .collect()
}

/// Checks `merged` on three seeded tensors against [`reference_merge`],
/// and that every tensor took the SLERP path.
fn merge_is_correct(
    merged: &Checkpoint,
    report: &MergeReport,
    chip: &Checkpoint,
    instruct: &Checkpoint,
    lambda: f32,
    rng: &mut Pcg32,
) -> bool {
    if report.fallback_count() != 0 || merged.validate().is_err() || !merged.all_finite() {
        return false;
    }
    let names = chip.names();
    (0..3).all(|_| {
        let name = *rng.choose(&names);
        let got = merged.get(name).expect("validated above");
        let want = reference_merge(
            chip.get(name).expect("own name"),
            instruct.get(name).expect("conformable"),
            f64::from(lambda),
        );
        let scale = want.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        got.data()
            .iter()
            .zip(&want)
            .all(|(&g, &w)| (f64::from(g) - w).abs() <= 1e-4 * scale)
    })
}

/// One file pipeline; returns its wall seconds and whether the output is
/// right. The merged checkpoint stays on disk at `inputs.merged_path`.
fn pipeline(inputs: &Inputs, index: u64, tracer: &Tracer, rng: &mut Pcg32) -> (f64, bool) {
    let started = Instant::now();
    let root = tracer.open(0, index, "merge.pair");
    let chip = tracer.span(root, index, "model.load", || {
        format::load(&inputs.chip_path)
    });
    let instruct = tracer.span(root, index, "model.load", || {
        format::load(&inputs.instruct_path)
    });
    let (Ok(chip), Ok(instruct)) = (chip, instruct) else {
        tracer.close(root);
        return (started.elapsed().as_secs_f64(), false);
    };
    let merger = GeodesicMerge::new(PIPELINE_LAMBDA).expect("valid lambda");
    let merged = tracer.span(root, index, "merge.geodesic", || {
        merger.merge_with_report(&chip, &instruct)
    });
    let Ok((merged, merge_report)) = merged else {
        tracer.close(root);
        return (started.elapsed().as_secs_f64(), false);
    };
    let valid = tracer.span(root, index, "model.validate", || merged.validate().is_ok());
    let saved = tracer.span(root, index, "model.save", || {
        format::save(&merged, &inputs.merged_path).is_ok()
    });
    tracer.close(root);
    let wall = started.elapsed().as_secs_f64();
    let ok = valid
        && saved
        && merge_is_correct(
            &merged,
            &merge_report,
            &chip,
            &instruct,
            PIPELINE_LAMBDA,
            rng,
        );
    (wall, ok)
}

/// The tensor calls of one geodesic merge alone, on the real tensors.
fn tensor_replay(chip: &Checkpoint, instruct: &Checkpoint) -> f64 {
    let started = Instant::now();
    for (name, wc) in chip.iter() {
        let wi = instruct.get(name).expect("conformable");
        let (nc, ni) = (wc.frobenius_norm(), wi.frobenius_norm());
        let bar_c = wc.scale(1.0 / nc);
        let bar_i = wi.scale(1.0 / ni);
        let dot = bar_c.frobenius_dot(&bar_i).expect("same shape");
        let denom = bar_c.frobenius_norm() * bar_i.frobenius_norm();
        let mut merged = bar_c.scale(0.6);
        merged.axpy(0.4, &bar_i).expect("same shape");
        merged.scale_inplace(nc.max(ni));
        std::hint::black_box((dot, denom, merged.frobenius_norm()));
    }
    started.elapsed().as_secs_f64()
}

fn mb(bytes: usize) -> f64 {
    bytes as f64 / 1e6
}

/// Layer probes that belong to this workload: `tensor` reductions, `model`
/// codecs, every merge method. Baselines run on the smaller `bench-384`
/// trio (TIES and DELLA sort every tensor); rates are per parameter.
fn probes(opts: &Opts, inputs: &Inputs, chip: &Checkpoint, report: &mut Report) {
    // tensor: the two access patterns of the merge, on one MLP-sized pair.
    let (r, c) = (inputs.arch.d_ff, inputs.arch.d_model);
    let mut rng = Pcg32::seed(opts.seed).derive(40);
    let a = Matrix::from_fn(r, c, |_, _| rng.uniform() - 0.5);
    let b = Matrix::from_fn(r, c, |_, _| rng.uniform() - 0.5);
    let bytes = (r * c * 4) as f64;
    let frob = time_median(0.15, || {
        std::hint::black_box((a.frobenius_norm(), a.frobenius_dot(&b).expect("same shape")));
    });
    report.set("tensor.frob_gbps", 3.0 * bytes / frob / 1e9);
    let mut acc = a.clone();
    let axpy = time_median(0.15, || {
        acc.axpy(1e-3, &b).expect("same shape");
        std::hint::black_box(a.lerp(&b, 0.5).expect("same shape"));
    });
    report.set("tensor.axpy_gbps", 6.0 * bytes / axpy / 1e9);

    // model: codecs on the workload's own chip checkpoint.
    let ckpt_mb = mb(chip.scalar_count() * 4);
    let t = Instant::now();
    let encoded = format::encode(chip);
    report.set(
        "model.encode_mb_per_s",
        mb(encoded.len()) / t.elapsed().as_secs_f64(),
    );
    let t = Instant::now();
    let decoded = format::decode(&encoded);
    report.set(
        "model.decode_mb_per_s",
        mb(encoded.len()) / t.elapsed().as_secs_f64(),
    );
    report.op(decoded.is_ok_and(|d| d.approx_eq(chip, 0.0)));
    drop(encoded);
    let probe_path = opts.work_dir().join("probe.calt");
    let t = Instant::now();
    let saved = format::save(chip, &probe_path);
    report.set("model.save_mb_per_s", ckpt_mb / t.elapsed().as_secs_f64());
    let t = Instant::now();
    let loaded = format::load(&probe_path);
    report.set("model.load_mb_per_s", ckpt_mb / t.elapsed().as_secs_f64());
    report.op(saved.is_ok() && loaded.is_ok_and(|l| l.approx_eq(chip, 0.0)));
    let validate = time_median(0.05, || {
        std::hint::black_box(chip.validate().is_ok());
    });
    report.set("model.validate_mb_per_s", ckpt_mb / validate);
    let quant = QuantCheckpoint::quantize(chip);
    let t = Instant::now();
    let qbytes = qformat::encode(&quant);
    report.set(
        "model.qencode_mb_per_s",
        mb(qbytes.len()) / t.elapsed().as_secs_f64(),
    );
    drop((quant, qbytes));

    // merge: every method once, timed around its public entry point.
    let small = if opts.quick {
        inputs::quick_arch("quick-baselines")
    } else {
        inputs::bench_384()
    };
    let trio = inputs::sibling_trio(&small, opts.seed ^ 0x5eed);
    let mparams = trio.base.scalar_count() as f64 / 1e6;
    let tasks = [&trio.chip, &trio.instruct];
    let mut rate = |name: &'static str, f: &dyn Fn() -> bool| {
        let t = Instant::now();
        let ok = f();
        report.set(name, mparams / t.elapsed().as_secs_f64());
        report.op(ok);
    };
    rate("merge.geodesic_global_mparams_per_s", &|| {
        GeodesicMerge::new(PIPELINE_LAMBDA)
            .expect("valid lambda")
            .with_granularity(Granularity::Global)
            .merge_with_report(&trio.chip, &trio.instruct)
            .is_ok()
    });
    rate("merge.soup_mparams_per_s", &|| {
        ModelSoup::new().merge_many(&tasks).is_ok()
    });
    let base = || trio.base.clone();
    let task_arith = TaskArithmetic::new(base(), 0.5).expect("valid scale");
    rate("merge.task_arith_mparams_per_s", &|| {
        task_arith.merge_many(&tasks).is_ok()
    });
    let ties = Ties::recommended(base()).expect("valid defaults");
    rate("merge.ties_mparams_per_s", &|| {
        ties.merge_many(&tasks).is_ok()
    });
    let della = Della::recommended(base(), opts.seed).expect("valid defaults");
    rate("merge.della_mparams_per_s", &|| {
        della.merge_many(&tasks).is_ok()
    });
    let dare = Dare::recommended(base(), opts.seed).expect("valid defaults");
    rate("merge.dare_mparams_per_s", &|| {
        dare.merge_many(&tasks).is_ok()
    });
}

pub fn run(opts: &Opts, tracer: &Tracer, report: &mut Report) {
    let (inputs, setup_s) = repeat_setup(opts, || setup(opts), drop);
    report.set("setup_s", setup_s);

    let mut rng = Pcg32::seed(opts.seed).derive(41);
    let pipelines = opts.count(3, 1);
    let sweeps = opts.count(3, 1);

    // The file pipeline.
    let mut e2e = Vec::new();
    for i in 0..pipelines {
        let (wall, ok) = pipeline(&inputs, i as u64 + 1, tracer, &mut rng);
        e2e.push(wall * 1e3);
        report.op(ok);
    }

    // The λ sweep, in memory.
    let chip = format::load(&inputs.chip_path).expect("chip checkpoint written by set-up");
    let instruct =
        format::load(&inputs.instruct_path).expect("instruct checkpoint written by set-up");
    let mparams = chip.scalar_count() as f64 / 1e6;
    let mut merge_s = Vec::new();
    let mut slerp = (0usize, 0usize);
    for rep in 0..sweeps {
        for (k, &lambda) in SWEEP.iter().enumerate() {
            let req = 1000 + (rep * SWEEP.len() + k) as u64;
            let merger = GeodesicMerge::new(lambda).expect("valid lambda");
            let t = Instant::now();
            let out = tracer.span(0, req, "merge.geodesic", || {
                merger.merge_with_report(&chip, &instruct)
            });
            merge_s.push(t.elapsed().as_secs_f64());
            report.op(out.is_ok_and(|(merged, geometry)| {
                slerp.0 += geometry.tensors.len() - geometry.fallback_count();
                slerp.1 += geometry.tensors.len();
                merge_is_correct(&merged, &geometry, &chip, &instruct, lambda, &mut rng)
            }));
        }
    }
    let merge_median = median(&merge_s);

    // The endpoints are the inputs: λ = 1 is the chip model, λ = 0 the
    // instruct model.
    for (lambda, want) in [(1.0, &chip), (0.0, &instruct)] {
        let got = GeodesicMerge::new(lambda)
            .expect("valid lambda")
            .merge_with_report(&chip, &instruct);
        report.op(got.is_ok_and(|(m, _)| m.approx_eq(want, 1e-5)));
    }
    // What the last pipeline saved reads back as a valid merged checkpoint.
    report.op(format::load(&inputs.merged_path)
        .is_ok_and(|m| m.metadata().get("merge.method").map(String::as_str) == Some("ChipAlign")));

    report.note(format!(
        "merge_sweep: {pipelines} pipelines (load x2 -> merge -> validate -> save), {} sweep merges of {mparams:.1} M params",
        merge_s.len()
    ));
    let merge_ms: Vec<f64> = merge_s.iter().map(|s| s * 1e3).collect();
    report.note(format!(
        "merge_e2e_s = {:.3} s (median of {pipelines} pipelines, slowest {:.3} s; unbounded: its run-to-run spread exceeds any useful bound here, see README)",
        median(&e2e) / 1e3,
        stats::percentile(&e2e, 1.0) / 1e3
    ));
    if !tracer.enabled() {
        report.set("work_per_s", mparams / merge_median);
        report.set("op_latency_p50_ms", median(&merge_ms));
        report.set("op_latency_p90_ms", stats::percentile(&merge_ms, 0.9));
        report.set("peak_rss_mb", stats::peak_rss_mb());
        report.note(format!(
            "merge_mparams_per_s = work_per_s; op = one in-memory geodesic merge (n = {})",
            merge_s.len()
        ));
        return;
    }

    report.set("merge.geodesic_mparams_per_s", mparams / merge_median);
    report.set(
        "merge.slerp_tensor_share",
        slerp.0 as f64 / slerp.1.max(1) as f64,
    );
    let words: u32 = GEODESIC_TRAFFIC.iter().map(|&(_, r, w)| r + w).sum();
    report.set("merge.bytes_per_param", f64::from(words * 4));
    let replay_one = median(
        &(0..3)
            .map(|_| tensor_replay(&chip, &instruct))
            .collect::<Vec<_>>(),
    );
    let replay = replay_one * merge_s.len() as f64;
    let merge_total: f64 = merge_s.iter().sum();
    report.set("tensor.replay_s", replay);
    report.set(
        "trace_overhead_share",
        tracer.overhead_seconds() / (merge_total + e2e.iter().sum::<f64>() / 1e3),
    );
    report.set("merge.self_share", 1.0 - replay / merge_total);
    report.note(format!(
        "waterfall merge_sweep: merge.geodesic {merge_total:.3} s -> tensor.replay_s {replay:.3} s, residual (clone, insert, report) {:.3} s",
        merge_total - replay
    ));
    drop(instruct);
    probes(opts, &inputs, &chip, report);
}
