//! The ChipAlign stack benchmark: drives the public functions of `tensor`,
//! `model`, `merge`, `nn`, `serve` and `router` from outside, on inputs
//! generated from `--seed`, and prints every metric by name with its unit.
//! The last line of standard output is one JSON object for the driver.
//!
//! Imports only `std` and the `chipalign-*` crates, and writes its own JSON.

mod fleet;
mod inputs;
mod merge_sweep;
mod metrics;
mod probes;
mod sched;
mod stats;
mod trace;
mod wire;

use std::path::PathBuf;
use std::time::Instant;

use metrics::{json_number, json_string, Report, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;

/// Seconds the request counts below are calibrated for: a workload given
/// `--seconds S` runs `S / CALIBRATED_SECONDS` times its base counts, so
/// both sides of a comparison do identical work.
const CALIBRATED_SECONDS: u64 = 20;

/// Share of the request counts a traced run replays: its replays then walk
/// the same requests on one thread, which costs about `nproc` times the
/// wall time of the pass itself.
const TRACE_SHARE: f64 = 0.2;

pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Seconds-scale smoke: tiny models, a handful of requests.
    pub quick: bool,
    pub out_dir: PathBuf,
}

impl Opts {
    /// Scratch directory of this workload, inside the checkout.
    pub fn work_dir(&self) -> PathBuf {
        self.out_dir.join(&self.workload)
    }

    /// `base` operations at the calibrated run length, scaled to
    /// `--seconds` (and to [`TRACE_SHARE`] under `--trace`), at least `min`.
    pub fn count(&self, base: usize, min: usize) -> usize {
        if self.quick {
            return min;
        }
        let share = if self.trace { TRACE_SHARE } else { 1.0 };
        let scaled = base as f64 * self.seconds as f64 / CALIBRATED_SECONDS as f64 * share;
        (scaled.round() as usize).max(min)
    }

    /// Set-up runs three times in an untraced run so that `setup_s` is a
    /// median — except in `fleet_mixed`, whose set-up is a quarter of the
    /// run already. A traced run reports no set-up time and sets up once.
    pub fn setup_reps(&self) -> usize {
        if self.trace || self.quick || self.workload == "fleet_mixed" {
            1
        } else {
            3
        }
    }
}

/// Sets up [`Opts::setup_reps`] times, tearing each earlier set-up down
/// first, and returns the last one with the median set-up seconds.
pub fn repeat_setup<T>(
    opts: &Opts,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut seconds = Vec::new();
    let mut current = None;
    for _ in 0..opts.setup_reps() {
        if let Some(previous) = current.take() {
            teardown(previous);
        }
        let t = Instant::now();
        current = Some(setup());
        seconds.push(t.elapsed().as_secs_f64());
    }
    (
        current.expect("at least one set-up"),
        stats::median(&seconds),
    )
}

/// Median seconds per call of `f`, over at least three calls and at least
/// `budget_s` seconds of calls.
pub fn time_median(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy state
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || started.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    stats::median(&samples)
}

fn usage() -> ! {
    eprintln!(
        "usage: chipalign-benchmark run --workload <{}> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR] [--tsv FILE] [--meta K=V]...\n       chipalign-benchmark manifest <run_seconds>\n       chipalign-benchmark spread <runs.tsv>",
        WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join("|")
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("manifest") => {
            let secs = args
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage());
            print!("{}", metrics::manifest(secs));
        }
        Some("spread") => spread(args.get(1).unwrap_or_else(|| usage())),
        _ => usage(),
    }
}

fn run(args: &[String]) {
    let mut opts = Opts {
        workload: String::new(),
        seed: 1,
        seconds: CALIBRATED_SECONDS,
        trace: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut tsv: Option<PathBuf> = None;
    let mut meta: Vec<(String, String)> = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().cloned().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => opts.workload = value(),
            "--seed" => opts.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => opts.trace = value() == "1",
            "--quick" => opts.quick = true,
            "--out-dir" => opts.out_dir = PathBuf::from(value()),
            "--tsv" => tsv = Some(PathBuf::from(value())),
            "--meta" => {
                let kv = value();
                let (k, v) = kv.split_once('=').unwrap_or_else(|| usage());
                meta.push((k.to_string(), v.to_string()));
            }
            _ => usage(),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == opts.workload) || opts.seconds == 0 {
        usage();
    }
    // Absolute, so `file:` model specs and the zoo cache do not depend on
    // the working directory of whoever resolves them.
    std::fs::create_dir_all(opts.work_dir()).expect("create the workload's scratch directory");
    opts.out_dir = opts
        .out_dir
        .canonicalize()
        .expect("scratch directory exists");

    let started = Instant::now();
    let tracer = Tracer::new(opts.trace);
    let mut report = Report::default();
    match opts.workload.as_str() {
        "merge_sweep" => merge_sweep::run(&opts, &tracer, &mut report),
        "decode_steady" | "prefill_shared" => sched::run(&opts, &tracer, &mut report),
        "fleet_mixed" => fleet::run(&opts, &tracer, &mut report),
        _ => unreachable!("workload names are checked above"),
    }
    // The generated checkpoints are large; the trace lives in `out_dir`.
    let _ = std::fs::remove_dir_all(opts.work_dir());

    println!(
        "== {} seed {} seconds {} trace {}{}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        if opts.quick { " quick" } else { "" }
    );
    meta.push(("nproc".into(), stats::nproc().to_string()));
    meta.push((
        "backend".into(),
        chipalign_tensor::backend::active_name().to_string(),
    ));
    meta.push(("rayon".into(), "sequential stand-in".into()));
    for (k, v) in &meta {
        println!("meta {k} = {v}");
    }
    if opts.trace {
        let path = opts.out_dir.join(format!("trace-{}.jsonl", opts.workload));
        let n = tracer.write(&path).expect("write the trace file");
        println!("trace: {n} spans in {}", path.display());
        println!(
            "  {:<18} {:>7} {:>10} {:>10}",
            "span", "count", "total_s", "self_s"
        );
        for (name, count, total, own) in tracer.summary() {
            println!("  {name:<18} {count:>7} {total:>10.3} {own:>10.3}");
        }
    }
    for line in &report.notes {
        println!("{line}");
    }
    println!(
        "ops: attempted {} failed {} fail_share {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );

    // The driver's contract: every end-to-end metric untraced, every
    // per-layer metric traced (0 where one does not apply to the workload).
    let table: Vec<(&str, &str)> = if opts.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    let mut fields = Vec::new();
    let mut rows = String::new();
    for (name, unit) in table {
        let value = match report.get(name) {
            Some(v) => v,
            None if opts.trace => 0.0,
            None => panic!("workload {} did not measure {name}", opts.workload),
        };
        if report.get(name).is_some() {
            println!("metric {name} = {value} {unit}");
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(name),
            json_number(value),
            json_string(unit)
        ));
        rows.push_str(&format!("{}\t{name}\t{value:?}\n", opts.workload));
    }
    if let Some(path) = &tsv {
        use std::io::Write as _;
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(rows.as_bytes()))
            .expect("append to the runs file");
    }
    println!("wall: {:.1} s", started.elapsed().as_secs_f64());
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
}

/// Reads `workload <TAB> metric <TAB> value` lines and prints, per
/// end-to-end metric and workload, the spread of the runs against the
/// metric's bound: interquartile distance over median, as the driver
/// computes it.
fn spread(path: &str) {
    let text = std::fs::read_to_string(path).expect("read the runs file");
    let mut runs: std::collections::BTreeMap<(String, String), Vec<f64>> = Default::default();
    for line in text.lines() {
        let mut cols = line.split('\t');
        if let (Some(w), Some(m), Some(v)) = (cols.next(), cols.next(), cols.next()) {
            if let Ok(v) = v.parse() {
                runs.entry((w.to_string(), m.to_string()))
                    .or_default()
                    .push(v);
            }
        }
    }
    println!(
        "{:<16} {:<20} {:>4} {:>12} {:>9} {:>7}  verdict",
        "workload", "metric", "n", "median", "spread", "bound"
    );
    for w in WORKLOADS {
        for m in END_TO_END {
            let Some(values) = runs.get(&(w.name.to_string(), m.name.to_string())) else {
                continue;
            };
            if values.len() < 2 {
                continue;
            }
            let (q1, q3) = stats::quartiles(values);
            let med = stats::median(values);
            let spread = (q3 - q1) / med;
            let verdict = if m.name == "setup_s" {
                "not bounded"
            } else if spread <= m.bound / 3.0 {
                "steady"
            } else if spread <= m.bound {
                "within bound, above a third of it"
            } else {
                "UNSTEADY: lengthen the run"
            };
            println!(
                "{:<16} {:<20} {:>4} {:>12.4} {:>9.4} {:>7.2}  {verdict}",
                w.name,
                m.name,
                values.len(),
                med,
                spread,
                m.bound
            );
        }
    }
}
