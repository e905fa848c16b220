//! `chipalign-cli` end to end: the built binary run on tiny checkpoints in a
//! temporary directory.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use chipalign::merge::{GeodesicMerge, Merger};
use chipalign::model::{format, ArchSpec, Checkpoint};
use chipalign::tensor::rng::Pcg32;

/// A fresh directory holding a chip and an instruct checkpoint.
fn workdir(name: &str) -> (PathBuf, Checkpoint, Checkpoint) {
    let dir = std::env::temp_dir().join(format!("chipalign-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let arch = ArchSpec::tiny("cli");
    let chip = Checkpoint::random(&arch, &mut Pcg32::seed(1));
    let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(2));
    format::save(&chip, dir.join("chip.calt")).expect("save chip");
    format::save(&instruct, dir.join("instruct.calt")).expect("save instruct");
    (dir, chip, instruct)
}

fn cli(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_chipalign-cli"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("run chipalign-cli")
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "chipalign-cli failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn merge_then_info() {
    let (dir, chip, instruct) = workdir("merge");
    let args = [
        "merge",
        "--chip",
        "chip.calt",
        "--instruct",
        "instruct.calt",
        "--lambda",
        "0.6",
        "-o",
        "merged.calt",
    ];
    let said = stdout(&cli(&dir, &args));
    assert!(said.contains("merged -> merged.calt"), "{said}");

    let merged = format::load(dir.join("merged.calt")).expect("merged file loads");
    let expected = GeodesicMerge::new(0.6)
        .and_then(|m| m.merge_pair(&chip, &instruct))
        .expect("merge");
    assert!(
        merged.approx_eq(&expected, 0.0),
        "the CLI merge is the library merge"
    );

    let info = stdout(&cli(&dir, &["info", "merged.calt"]));
    assert!(info.contains("finite       : true"), "{info}");
    assert!(
        info.contains(&format!("{} scalars", chip.scalar_count())),
        "{info}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_endpoints_are_the_inputs() {
    let (dir, chip, instruct) = workdir("sweep");
    let args = [
        "sweep",
        "--chip",
        "chip.calt",
        "--instruct",
        "instruct.calt",
        "--steps",
        "3",
        "-o",
        "out",
    ];
    let said = stdout(&cli(&dir, &args));
    assert_eq!(said.lines().count(), 3, "{said}");
    let at = |lambda: &str| format::load(dir.join(format!("out/lambda-{lambda}.calt")));
    assert!(at("0.00").expect("λ = 0").approx_eq(&instruct, 0.0));
    assert!(at("1.00").expect("λ = 1").approx_eq(&chip, 0.0));
    let mid = at("0.50").expect("λ = 0.5");
    assert!(!mid.approx_eq(&chip, 0.0) && !mid.approx_eq(&instruct, 0.0));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_old_version_file_is_refused_as_a_merge_input() {
    let (dir, _, _) = workdir("old-version");
    let mut old = std::fs::read(dir.join("chip.calt")).expect("chip file");
    old[4] = 2;
    std::fs::write(dir.join("old.calt"), &old).expect("write");
    let args = [
        "merge",
        "--chip",
        "old.calt",
        "--instruct",
        "instruct.calt",
        "--lambda",
        "1",
        "-o",
        "merged.calt",
    ];
    let out = cli(&dir, &args);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("loading old.calt: corrupt checkpoint data: unsupported version 2"),
        "{err}"
    );
    assert!(!dir.join("merged.calt").exists(), "nothing is written");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_missing_output_is_reported_before_any_load() {
    let (dir, _, _) = workdir("flags");
    let out = cli(
        &dir,
        &[
            "merge",
            "--chip",
            "no-such-file.calt",
            "--instruct",
            "instruct.calt",
        ],
    );
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("-o is required"), "{err}");
    assert!(!err.contains("no-such-file"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn diff_reports_the_delta_and_checks_its_arguments() {
    let (dir, _, _) = workdir("diff");
    let said = stdout(&cli(&dir, &["diff", "chip.calt", "instruct.calt"]));
    assert!(said.starts_with("global delta "), "{said}");
    let listed: Vec<&str> = said
        .lines()
        .skip_while(|l| *l != "most changed tensors:")
        .skip(1)
        .collect();
    assert!(!listed.is_empty(), "{said}");
    assert!(
        listed
            .iter()
            .all(|l| l.contains(" rel ") && l.contains(" cos ")),
        "{said}"
    );

    let same = stdout(&cli(&dir, &["diff", "chip.calt", "chip.calt"]));
    assert!(
        same.starts_with("global delta 0.0000 (relative 0.0000), mean cosine 1.0000"),
        "{same}"
    );

    let out = cli(&dir, &["diff", "chip.calt"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("diff takes exactly two checkpoint paths"),
        "{err}"
    );
    assert!(err.contains("usage:"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
