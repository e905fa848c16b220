//! Table 1 (OpenROAD QA ROUGE-L) and Figure 8 (λ sensitivity).

use chipalign_data::openroad::{OpenRoadBenchmark, QaTriplet};
use chipalign_eval::rouge::rouge_l;
use chipalign_merge::{sweep, GeodesicMerge, Merger};
use chipalign_nn::TinyLm;
use chipalign_rag::{Chunker, Retriever};

use crate::evalkit::{mean, respond};
use crate::report::TextTable;
use crate::zoo::{Backbone, Zoo, ZooModel};
use crate::PipelineError;

/// Which context each prompt carries (the two column groups of Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextMode {
    /// The triplet's own grounding sentence.
    Golden,
    /// Whatever the retrieval pipeline returns for the question.
    Rag,
}

/// Per-category mean ROUGE-L F1 scores.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CategoryScores {
    /// "Functionality" column.
    pub(crate) functionality: f64,
    /// "VLSI Flow" column.
    pub(crate) vlsi_flow: f64,
    /// "GUI & Install & Test" column.
    pub(crate) gui: f64,
    /// "All" column (mean over all triplets).
    pub all: f64,
}

impl CategoryScores {
    /// The four columns in the paper's order.
    #[must_use]
    pub(crate) fn as_row(&self) -> Vec<f64> {
        vec![self.functionality, self.vlsi_flow, self.gui, self.all]
    }
}

/// The shared evaluation state for Table 1 and Figure 8.
#[derive(Debug)]
pub struct OpenRoadEval {
    bench: OpenRoadBenchmark,
    retriever: Retriever,
    /// How many chunks the RAG mode stuffs into the context.
    rag_top_k: usize,
}

impl OpenRoadEval {
    /// Builds the benchmark and its retrieval pipeline.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let bench = OpenRoadBenchmark::generate(seed);
        let docs = OpenRoadBenchmark::corpus_documents();
        let retriever = Retriever::build(Chunker::default().chunk_all(&docs));
        OpenRoadEval {
            bench,
            retriever,
            rag_top_k: 2,
        }
    }

    /// The benchmark triplets.
    #[must_use]
    pub fn triplets(&self) -> &[QaTriplet] {
        &self.bench.triplets
    }

    /// Evaluates one model over a triplet subset.
    ///
    /// # Errors
    ///
    /// Propagates generation failures.
    pub fn eval_subset(
        &self,
        model: &TinyLm,
        triplets: &[QaTriplet],
        mode: ContextMode,
    ) -> Result<CategoryScores, PipelineError> {
        let items = self.eval_items(model, triplets, mode)?;
        let cat = |name: &str| {
            let scores: Vec<f64> = triplets
                .iter()
                .zip(&items)
                .filter(|(t, _)| t.category == name)
                .map(|(_, &f1)| f1)
                .collect();
            mean(&scores)
        };
        Ok(CategoryScores {
            functionality: cat("Functionality"),
            vlsi_flow: cat("VLSI Flow"),
            gui: cat("GUI & Install & Test"),
            all: mean(&items),
        })
    }

    /// Evaluates one model over the full benchmark.
    ///
    /// # Errors
    ///
    /// Propagates generation failures.
    pub fn eval_model(
        &self,
        model: &TinyLm,
        mode: ContextMode,
    ) -> Result<CategoryScores, PipelineError> {
        self.eval_subset(model, &self.bench.triplets, mode)
    }

    /// Per-item ROUGE-L F1 scores over a triplet subset, in triplet order —
    /// the input shape paired significance tests need.
    ///
    /// # Errors
    ///
    /// Propagates generation failures.
    pub(crate) fn eval_items(
        &self,
        model: &TinyLm,
        triplets: &[QaTriplet],
        mode: ContextMode,
    ) -> Result<Vec<f64>, PipelineError> {
        let mut items = Vec::with_capacity(triplets.len());
        for t in triplets {
            let prompt = match mode {
                ContextMode::Golden => t.prompt(),
                ContextMode::Rag => {
                    let ctx = self.retriever.retrieve_context(&t.question, self.rag_top_k);
                    t.prompt_with_context(&ctx)
                }
            };
            let response = respond(model, &prompt)?;
            items.push(rouge_l(&response, &t.golden).f1);
        }
        Ok(items)
    }
}

/// Paired-bootstrap comparison of ChipAlign against ModelSoup (the
/// strongest merging baseline) on the golden-context benchmark.
///
/// # Errors
///
/// Propagates zoo, merge, and generation failures.
pub fn chipalign_vs_soup_significance(
    zoo: &Zoo,
    backbone: Backbone,
    bench_seed: u64,
) -> Result<chipalign_eval::significance::BootstrapResult, PipelineError> {
    use chipalign_eval::significance::paired_bootstrap;

    let eval = OpenRoadEval::new(bench_seed);
    let variants = super::merged_variants(zoo, backbone)?;
    let find = |suffix: &str| {
        variants
            .iter()
            .find(|(n, _)| n.ends_with(suffix))
            .expect("variant exists")
    };
    let chipalign = &find("ChipAlign").1;
    let soup = &find("ModelSoup").1;
    let a = eval.eval_items(chipalign, eval.triplets(), ContextMode::Golden)?;
    let b = eval.eval_items(soup, eval.triplets(), ContextMode::Golden)?;
    paired_bootstrap(&a, &b, 2000, bench_seed).ok_or_else(|| PipelineError::BadConfig {
        detail: "bootstrap over empty benchmark".into(),
    })
}

/// Regenerates Table 1: every method row for both backbones, golden and
/// RAG context columns.
///
/// # Errors
///
/// Propagates zoo, merge, and generation failures.
pub fn table1(zoo: &Zoo, bench_seed: u64) -> Result<TextTable, PipelineError> {
    let eval = OpenRoadEval::new(bench_seed);
    let mut table = TextTable::new(
        "Table 1: ROUGE-L on the OpenROAD QA benchmark (golden | RAG context)",
        &[
            "G-Func", "G-VLSI", "G-GUI", "G-All", "R-Func", "R-VLSI", "R-GUI", "R-All",
        ],
        3,
    );

    let mut rows: Vec<(String, TinyLm)> = vec![
        (
            ZooModel::GeneralStrong.paper_name(),
            zoo.model(ZooModel::GeneralStrong)?,
        ),
        (ZooModel::RagEda.paper_name(), zoo.model(ZooModel::RagEda)?),
    ];
    for backbone in [Backbone::QwenTiny, Backbone::LlamaTiny] {
        rows.push((
            ZooModel::Instruct(backbone).paper_name(),
            zoo.model(ZooModel::Instruct(backbone))?,
        ));
        rows.push((
            ZooModel::Eda(backbone).paper_name(),
            zoo.model(ZooModel::Eda(backbone))?,
        ));
        rows.extend(merged_rows(zoo, backbone)?);
    }

    for (label, model) in rows {
        eprintln!("[table1] evaluating {label}...");
        let golden = eval.eval_model(&model, ContextMode::Golden)?;
        let rag = eval.eval_model(&model, ContextMode::Rag)?;
        let mut values = golden.as_row();
        values.extend(rag.as_row());
        table.push_row(&label, values);
    }
    Ok(table)
}

fn merged_rows(zoo: &Zoo, backbone: Backbone) -> Result<Vec<(String, TinyLm)>, PipelineError> {
    super::merged_variants(zoo, backbone)
}

/// Regenerates Figure 8: ROUGE-L ("All", golden context) as a function of
/// λ for both backbones.
///
/// # Errors
///
/// Propagates zoo, merge, and generation failures.
pub fn fig8(zoo: &Zoo, bench_seed: u64, steps: usize) -> Result<TextTable, PipelineError> {
    let eval = OpenRoadEval::new(bench_seed);
    let lambdas = sweep::lambda_grid(steps);
    let mut table = TextTable::new(
        "Figure 8: ROUGE-L (All, golden context) vs lambda",
        &["Qwen1.5-14B", "LLaMA3-8B"],
        3,
    );
    let mut columns: Vec<Vec<f64>> = Vec::new();
    for backbone in [Backbone::QwenTiny, Backbone::LlamaTiny] {
        let instruct = zoo.model(ZooModel::Instruct(backbone))?.to_checkpoint()?;
        let eda = zoo.model(ZooModel::Eda(backbone))?.to_checkpoint()?;
        let mut scores = Vec::with_capacity(lambdas.len());
        for &lambda in &lambdas {
            eprintln!("[fig8] {} lambda={lambda:.1}...", backbone.paper_name());
            let merged = GeodesicMerge::new(lambda)?.merge_pair(&eda, &instruct)?;
            let model = TinyLm::from_checkpoint(&merged)?;
            let s = eval.eval_model(&model, ContextMode::Golden)?;
            scores.push(s.all);
        }
        columns.push(scores);
    }
    for (i, &lambda) in lambdas.iter().enumerate() {
        table.push_row(
            &format!("lambda={lambda:.1}"),
            vec![columns[0][i], columns[1][i]],
        );
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_row_order_matches_paper() {
        let s = CategoryScores {
            functionality: 0.1,
            vlsi_flow: 0.2,
            gui: 0.3,
            all: 0.4,
        };
        assert_eq!(s.as_row(), vec![0.1, 0.2, 0.3, 0.4]);
    }

    #[test]
    fn eval_state_builds() {
        let eval = OpenRoadEval::new(42);
        assert_eq!(eval.triplets().len(), 90);
        assert!(!eval.retriever.chunks().is_empty());
    }

    #[test]
    fn eval_items_align_with_subset_mean() {
        use chipalign_model::ArchSpec;
        use chipalign_tensor::rng::Pcg32;

        let mut arch = ArchSpec::tiny("openroad-test");
        arch.vocab_size = 99;
        arch.max_seq_len = 320;
        let model = TinyLm::new(&arch, &mut Pcg32::seed(5)).expect("valid");
        let eval = OpenRoadEval::new(42);
        let subset = &eval.triplets()[..5];
        let items = eval
            .eval_items(&model, subset, ContextMode::Golden)
            .expect("runs");
        let scores = eval
            .eval_subset(&model, subset, ContextMode::Golden)
            .expect("runs");
        assert_eq!(items.len(), 5);
        let mean_items = items.iter().sum::<f64>() / items.len() as f64;
        assert!(
            (mean_items - scores.all).abs() < 1e-12,
            "per-item scores must aggregate to the subset mean"
        );
        for i in &items {
            assert!((0.0..=1.0).contains(i));
        }
    }
}
