//! `chipalign-cli` — merge, inspect, diff, and sweep checkpoints from the
//! command line.
//!
//! ```text
//! chipalign-cli info  model.calt
//! chipalign-cli diff  a.calt b.calt
//! chipalign-cli merge --chip chip.calt --instruct chat.calt \
//!                     [--lambda 0.6] [--method chipalign|soup|ta|ties|della|dare] \
//!                     [--base base.calt] -o merged.calt
//! chipalign-cli sweep --chip chip.calt --instruct chat.calt --steps 11 -o dir/
//! ```
//!
//! The task-vector methods (`ta`, `ties`, `della`, `dare`) require
//! `--base`, the common ancestor checkpoint.

use std::path::PathBuf;
use std::process::ExitCode;

use chipalign::merge::{
    sweep, Dare, Della, GeodesicMerge, MergeError, Merger, ModelSoup, TaskArithmetic, Ties,
};
use chipalign::model::{diff::CheckpointDiff, format, Checkpoint, ModelError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  chipalign-cli info  <model.calt>
  chipalign-cli diff  <a.calt> <b.calt>
  chipalign-cli merge --chip <c.calt> --instruct <i.calt> [--lambda 0.6]
                      [--method chipalign|slerp|soup|ta|ties|della|dare]
                      [--base <base.calt>] -o <out.calt>
  chipalign-cli sweep --chip <c.calt> --instruct <i.calt> [--steps 11] -o <dir>";

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("diff") => cmd_diff(&args[1..]),
        Some("merge") => cmd_merge(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some(other) => Err(format!("unknown subcommand `{other}`")),
        None => Err("no subcommand given".to_string()),
    }
}

fn load(path: &str) -> Result<Checkpoint, String> {
    format::load(path).map_err(|e: ModelError| format!("loading {path}: {e}"))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let [path] = args else {
        return Err("info takes exactly one checkpoint path".to_string());
    };
    let ckpt = load(path)?;
    println!("architecture : {}", ckpt.arch());
    println!(
        "parameters   : {} tensors, {} scalars",
        ckpt.param_count(),
        ckpt.scalar_count()
    );
    println!("global norm  : {:.4}", ckpt.global_norm());
    println!("finite       : {}", ckpt.all_finite());
    if !ckpt.metadata().is_empty() {
        println!("metadata     :");
        for (k, v) in ckpt.metadata() {
            println!("  {k} = {v}");
        }
    }
    Ok(())
}

fn cmd_diff(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("diff takes exactly two checkpoint paths".to_string());
    };
    let a = load(a_path)?;
    let b = load(b_path)?;
    let d = CheckpointDiff::between(&a, &b).map_err(|e| e.to_string())?;
    println!(
        "global delta {:.4} (relative {:.4}), mean cosine {:.4}",
        d.global_delta,
        d.global_relative,
        d.mean_cosine()
    );
    println!("most changed tensors:");
    for t in d.most_changed(8) {
        println!(
            "  {:<50} rel {:.4}  cos {:.4}",
            t.name, t.relative_delta, t.cosine
        );
    }
    Ok(())
}

/// Minimal flag parser: `--key value` pairs plus `-o value`.
fn parse_flags(args: &[String]) -> Result<std::collections::HashMap<String, String>, String> {
    let mut flags = std::collections::HashMap::new();
    let mut it = args.iter();
    while let Some(key) = it.next() {
        let name = key
            .strip_prefix("--")
            .or_else(|| key.strip_prefix('-'))
            .ok_or_else(|| format!("expected a flag, got `{key}`"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{key}` needs a value"))?;
        flags.insert(name.to_string(), value.clone());
    }
    Ok(flags)
}

fn cmd_merge(args: &[String]) -> Result<(), String> {
    // Every flag is checked before the first checkpoint is read: a typo
    // must not cost two full loads.
    let flags = parse_flags(args)?;
    let chip_path = flags.get("chip").ok_or("--chip is required")?;
    let instruct_path = flags.get("instruct").ok_or("--instruct is required")?;
    let out = flags
        .get("o")
        .or(flags.get("out"))
        .ok_or("-o is required")?;
    let lambda: f32 = flags
        .get("lambda")
        .map_or(Ok(0.6), |s| s.parse().map_err(|_| "bad --lambda"))?;
    let method = flags.get("method").map_or("chipalign", String::as_str);

    let base = || -> Result<Checkpoint, String> {
        load(
            flags
                .get("base")
                .ok_or("this method requires --base (the common ancestor)")?,
        )
    };
    let merger: Box<dyn Merger> = match method {
        "chipalign" => Box::new(GeodesicMerge::new(lambda).map_err(err)?),
        "slerp" => Box::new(GeodesicMerge::raw_slerp(lambda).map_err(err)?),
        "soup" => Box::new(ModelSoup::new()),
        "ta" => Box::new(TaskArithmetic::new(base()?, 0.8).map_err(err)?),
        "ties" => Box::new(Ties::recommended(base()?).map_err(err)?),
        "della" => Box::new(Della::recommended(base()?, 7).map_err(err)?),
        "dare" => Box::new(Dare::recommended(base()?, 7).map_err(err)?),
        other => return Err(format!("unknown method `{other}`")),
    };

    let chip = load(chip_path)?;
    let instruct = load(instruct_path)?;
    let merged = merger.merge_pair(&chip, &instruct).map_err(err)?;
    format::save(&merged, out).map_err(|e| e.to_string())?;
    println!(
        "{} merged -> {out} ({} scalars, norm {:.4})",
        merger.name(),
        merged.scalar_count(),
        merged.global_norm()
    );
    Ok(())
}

/// Merges, saves and drops one λ at a time, so memory holds the two inputs
/// and one merge however many steps the sweep has.
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let chip_path = flags.get("chip").ok_or("--chip is required")?;
    let instruct_path = flags.get("instruct").ok_or("--instruct is required")?;
    let out_dir = PathBuf::from(
        flags
            .get("o")
            .or(flags.get("out"))
            .ok_or("-o is required")?,
    );
    let steps: usize = flags
        .get("steps")
        .map_or(Ok(11), |s| s.parse().map_err(|_| "bad --steps"))?;
    if steps < 2 {
        return Err("--steps must be at least 2".to_string());
    }
    let chip = load(chip_path)?;
    let instruct = load(instruct_path)?;
    std::fs::create_dir_all(&out_dir).map_err(|e| e.to_string())?;
    for lambda in sweep::lambda_grid(steps) {
        let model = GeodesicMerge::new(lambda)
            .and_then(|m| m.merge_pair(&chip, &instruct))
            .map_err(err)?;
        let path = out_dir.join(format!("lambda-{lambda:.2}.calt"));
        format::save(&model, &path).map_err(|e| e.to_string())?;
        println!(
            "lambda {lambda:.2} -> {} (norm {:.4})",
            path.display(),
            model.global_norm()
        );
    }
    Ok(())
}

fn err(e: MergeError) -> String {
    e.to_string()
}
