//! Smoke-scale end-to-end pipeline test: the zoo trains, the merged
//! variants build, and every experiment runner produces well-formed output
//! on benchmark subsets.
//!
//! Model *quality* is not asserted here (smoke models are deliberately
//! undertrained); the paper-shape assertions live in EXPERIMENTS.md and the
//! bench binaries.

use chipalign::data::ifeval_bench;
use chipalign::data::industrial::IndustrialBenchmark;
use chipalign::data::multichoice;
use chipalign::pipeline::experiments::openroad::{ContextMode, OpenRoadEval};
use chipalign::pipeline::experiments::{
    ifeval, industrial, merged_variants, multichoice as mc, qualitative,
};
use chipalign::pipeline::zoo::{Backbone, Quality, Zoo, ZooConfig, ZooModel};

fn smoke_zoo() -> Zoo {
    Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed: 11,
        cache_dir: None,
    })
    .expect("zoo builds")
}

#[test]
fn zoo_trains_and_merges_end_to_end() {
    let zoo = smoke_zoo();
    let variants = merged_variants(&zoo, Backbone::LlamaTiny).expect("variants build");
    assert_eq!(variants.len(), 5, "TA, TIES, DELLA, Soup, ChipAlign");
    let names: Vec<&str> = variants.iter().map(|(n, _)| n.as_str()).collect();
    assert!(names.iter().any(|n| n.ends_with("ChipAlign")));
    for (name, model) in &variants {
        let ckpt = model.to_checkpoint().expect("exportable");
        assert!(ckpt.all_finite(), "{name} has non-finite weights");
    }

    // OpenROAD eval on a small subset, both context modes.
    let eval = OpenRoadEval::new(11);
    let subset = &eval.triplets()[..6];
    let instruct = zoo
        .model(ZooModel::Instruct(Backbone::LlamaTiny))
        .expect("ok");
    for mode in [ContextMode::Golden, ContextMode::Rag] {
        let scores = eval
            .eval_subset(&instruct, subset, mode)
            .expect("eval runs");
        assert!(
            (0.0..=1.0).contains(&scores.all),
            "rouge must be a fraction, got {}",
            scores.all
        );
    }
}

#[test]
fn ifeval_and_multichoice_runners_produce_valid_reports() {
    let zoo = smoke_zoo();
    let model = zoo
        .model(ZooModel::Instruct(Backbone::LlamaTiny))
        .expect("ok");

    let prompts = ifeval_bench::generate(11);
    let report = ifeval::eval_subset(&model, &prompts[..12]).expect("runs");
    assert_eq!(report.n_prompts, 12);
    assert!(report.prompt_loose >= report.prompt_strict);
    assert!(report.instruction_loose >= report.instruction_strict);

    let items = multichoice::generate(11);
    let scores = mc::eval_subset(&model, &items[..8]).expect("runs");
    assert!((0.0..=1.0).contains(&scores.mean));
    assert_eq!(scores.per_domain.len(), 3);
}

#[test]
fn industrial_runner_grades_both_turns() {
    let zoo = smoke_zoo();
    let model = zoo.model(ZooModel::ChipNemo).expect("ok");
    let bench = IndustrialBenchmark::generate(11);
    let scores = industrial::eval_subset(&model, &bench.questions[..4]).expect("runs");
    assert!((0.0..=100.0).contains(&scores.single_all));
    assert!((0.0..=100.0).contains(&scores.multi_all));
    assert_eq!(scores.single.len(), 4);
}

#[test]
fn qualitative_comparisons_render() {
    let zoo = smoke_zoo();
    let comparison = qualitative::fig5(&zoo, 11).expect("fig5 builds");
    assert_eq!(comparison.responses.len(), 3);
    let text = comparison.render();
    assert!(text.contains("PROMPT"));
    assert!(text.contains("ChipAlign"));
}

#[test]
fn zoo_disk_cache_round_trips() {
    let dir = std::env::temp_dir().join("chipalign-zoo-cache-test");
    std::fs::remove_dir_all(&dir).ok();
    let mk = || {
        Zoo::new(ZooConfig {
            quality: Quality::Smoke,
            seed: 21,
            cache_dir: Some(dir.clone()),
        })
        .expect("zoo builds")
    };
    let zoo1 = mk();
    let trained = zoo1
        .model(ZooModel::Base(Backbone::LlamaTiny))
        .expect("trains");
    // A fresh zoo instance must load the identical model from disk.
    let zoo2 = mk();
    let loaded = zoo2
        .model(ZooModel::Base(Backbone::LlamaTiny))
        .expect("loads");
    assert!(trained
        .to_checkpoint()
        .expect("ok")
        .approx_eq(&loaded.to_checkpoint().expect("ok"), 0.0));
    std::fs::remove_dir_all(&dir).ok();
}
