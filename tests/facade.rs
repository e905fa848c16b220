//! Cross-crate integration through the `chipalign` facade: checkpoints
//! flow from the transformer substrate through serialization into every
//! merging method and back into a runnable model.

use chipalign::merge::{sweep, Della, GeodesicMerge, Merger, ModelSoup, TaskArithmetic, Ties};
use chipalign::model::{format, ArchSpec};
use chipalign::nn::TinyLm;
use chipalign::tensor::rng::Pcg32;

fn arch() -> ArchSpec {
    ArchSpec {
        name: "facade".into(),
        vocab_size: 99,
        d_model: 16,
        n_layers: 2,
        n_heads: 2,
        d_ff: 32,
        max_seq_len: 64,
    }
}

#[test]
fn trained_models_round_trip_through_serialization_and_merge() {
    // Train two tiny specialists from a common base.
    let base = TinyLm::new(&arch(), &mut Pcg32::seed(1)).expect("valid arch");
    let mk_specialist = |seq: &[u32], seed: u64| -> TinyLm {
        let mut m = base.clone();
        let data = vec![chipalign::nn::train::Example::pretrain(seq.to_vec())];
        chipalign::nn::train::train(
            &mut m,
            &data,
            &chipalign::nn::train::TrainConfig {
                steps: 40,
                batch_size: 2,
                adam: chipalign::nn::AdamConfig {
                    lr: 2e-3,
                    ..Default::default()
                },
                seed,
            },
        )
        .expect("training succeeds");
        m
    };
    let chip = mk_specialist(&[10, 20, 30, 40, 50], 2);
    let instruct = mk_specialist(&[60, 61, 62, 63, 64], 3);

    // Serialize through the binary format.
    let dir = std::env::temp_dir().join("chipalign-facade-test");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let chip_path = dir.join("chip.calt");
    format::save(&chip.to_checkpoint().expect("ok"), &chip_path).expect("save");
    let chip_ckpt = format::load(&chip_path).expect("load");
    let instruct_ckpt = instruct.to_checkpoint().expect("ok");

    // Every merging method produces a valid, runnable model.
    let base_ckpt = base.to_checkpoint().expect("ok");
    let mergers: Vec<Box<dyn Merger>> = vec![
        Box::new(GeodesicMerge::recommended()),
        Box::new(ModelSoup::new()),
        Box::new(TaskArithmetic::new(base_ckpt.clone(), 1.0).expect("ok")),
        Box::new(Ties::recommended(base_ckpt.clone()).expect("ok")),
        Box::new(Della::recommended(base_ckpt, 5).expect("ok")),
    ];
    for merger in &mergers {
        let merged = merger
            .merge_pair(&chip_ckpt, &instruct_ckpt)
            .unwrap_or_else(|e| panic!("{} failed: {e}", merger.name()));
        merged.validate().expect("merged checkpoint validates");
        assert!(
            merged.all_finite(),
            "{} produced non-finite weights",
            merger.name()
        );
        let model = TinyLm::from_checkpoint(&merged).expect("runnable");
        let logits = model.logits(&[1, 10, 60]).expect("forward works");
        assert!(logits.all_finite(), "{} model produced NaNs", merger.name());
    }
    std::fs::remove_file(&chip_path).ok();
}

#[test]
fn lambda_sweep_interpolates_between_trained_specialists() {
    let base = TinyLm::new(&arch(), &mut Pcg32::seed(9)).expect("valid arch");
    let chip_ckpt = base
        .to_checkpoint()
        .expect("ok")
        .map_tensors(|_, t| t.scale(1.2));
    let instruct_ckpt = base.to_checkpoint().expect("ok");
    let points =
        sweep::lambda_sweep(&chip_ckpt, &instruct_ckpt, &sweep::lambda_grid(5)).expect("ok");
    assert_eq!(points.len(), 5);
    assert!(points[0].model.approx_eq(&instruct_ckpt, 1e-5));
    assert!(points[4].model.approx_eq(&chip_ckpt, 1e-5));
    // Norms increase monotonically for a pure-scaling pair.
    for w in points.windows(2) {
        assert!(w[1].model.global_norm() > w[0].model.global_norm());
    }
}

#[test]
fn benchmarks_and_metrics_compose() {
    use chipalign::data::openroad::OpenRoadBenchmark;
    use chipalign::eval::rouge::rouge_l;
    use chipalign::rag::{Chunker, Retriever};

    let bench = OpenRoadBenchmark::generate(123);
    let retriever =
        Retriever::build(Chunker::default().chunk_all(&OpenRoadBenchmark::corpus_documents()));
    // RAG retrieval finds the golden fact for most questions.
    let mut hits = 0;
    for t in &bench.triplets {
        let ctx = retriever.retrieve_context(&t.question, 2);
        if ctx.contains(&t.fact_name) {
            hits += 1;
        }
    }
    assert!(
        hits * 10 >= bench.triplets.len() * 8,
        "retrieval should find >=80% of facts, got {hits}/{}",
        bench.triplets.len()
    );
    // Golden answers score 1.0 against themselves and low against others.
    let t0 = &bench.triplets[0];
    assert!(rouge_l(&t0.golden, &t0.golden).f1 > 0.999);
}

#[test]
fn ifeval_and_grader_compose_with_tags() {
    use chipalign::data::ifeval_bench;
    use chipalign::eval::grader::Rubric;
    use chipalign::eval::ifeval::{aggregate, PromptVerdict};

    let prompts = ifeval_bench::generate(5);
    // A perfect responder (echoing the reference) aces the benchmark.
    let verdicts: Vec<PromptVerdict> = prompts
        .iter()
        .map(|p| PromptVerdict::of(&p.instructions, &p.reference))
        .collect();
    let report = aggregate(&verdicts);
    assert_eq!(report.prompt_strict, 1.0);
    assert_eq!(report.n_prompts, 541);

    // The grader rewards the reference answer.
    let p = &prompts[0];
    let grade = Rubric::default().grade(&p.reference, &p.reference, "", &p.instructions);
    assert_eq!(grade.score, 100);
}
