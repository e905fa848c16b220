//! Figures 5 and 6: qualitative side-by-side model responses.

use chipalign_data::industrial::IndustrialBenchmark;
use chipalign_data::openroad::OpenRoadBenchmark;
use chipalign_eval::grader::Rubric;
use chipalign_eval::ifeval::Instruction;
use chipalign_eval::rouge::rouge_l;
use chipalign_model::json_struct;
use chipalign_nn::TinyLm;

use crate::evalkit::respond;
use crate::zoo::{Backbone, Zoo, ZooModel};
use crate::PipelineError;

json_struct! {
    /// One model's response with its scores.
    #[derive(Debug, Clone, PartialEq)]
    pub struct QualitativeResponse {
        /// Model label.
        pub(crate) model: String,
        /// The raw response text.
        pub(crate) response: String,
        /// ROUGE-L F1 vs the golden answer.
        pub(crate) rouge_f1: f64,
        /// Rubric grade (the Figure-6 style evaluation score).
        pub(crate) grade: u8,
        /// Whether every directive in the prompt was strictly followed.
        pub(crate) follows_instructions: bool,
    }
}

json_struct! {
    /// A rendered qualitative comparison; its JSON form is what the
    /// Figure 5 and 6 binaries write.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Comparison {
        /// The full prompt shown to every model.
        pub(crate) prompt: String,
        /// The golden answer.
        pub(crate) golden: String,
        /// One entry per model.
        pub responses: Vec<QualitativeResponse>,
    }
}

impl Comparison {
    /// Renders the comparison as display text.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("PROMPT : {}\n", self.prompt));
        out.push_str(&format!("GOLDEN : {}\n", self.golden));
        for r in &self.responses {
            out.push_str(&format!(
                "{:<22} rouge={:.3} grade={:>3} follows={}\n    -> {}\n",
                r.model, r.rouge_f1, r.grade, r.follows_instructions, r.response
            ));
        }
        out
    }
}

fn compare(
    models: &[(String, TinyLm)],
    prompt: &str,
    golden: &str,
    context: &str,
    instructions: &[Instruction],
) -> Result<Comparison, PipelineError> {
    let rubric = Rubric::default();
    let mut responses = Vec::with_capacity(models.len());
    for (label, model) in models {
        let response = respond(model, prompt)?;
        let grade = rubric.grade(&response, golden, context, instructions);
        responses.push(QualitativeResponse {
            model: label.clone(),
            rouge_f1: rouge_l(&response, golden).f1,
            grade: grade.score,
            follows_instructions: instructions.iter().all(|i| i.check_strict(&response)),
            response,
        });
    }
    Ok(Comparison {
        prompt: prompt.to_string(),
        golden: golden.to_string(),
        responses,
    })
}

/// Figure 5: an OpenROAD QA triplet answered by the instruct, EDA, and
/// ChipAlign models of one backbone.
///
/// # Errors
///
/// Propagates zoo, merge, and generation failures.
pub fn fig5(zoo: &Zoo, bench_seed: u64) -> Result<Comparison, PipelineError> {
    let bench = OpenRoadBenchmark::generate(bench_seed);
    // Pick a GUI-category triplet, as the paper's example is a GUI question.
    let triplet = bench
        .triplets
        .iter()
        .find(|t| t.category == "GUI & Install & Test")
        .unwrap_or(&bench.triplets[0]);
    let backbone = Backbone::LlamaTiny;
    let merged = super::merged_variants(zoo, backbone)?;
    let chipalign = merged
        .into_iter()
        .find(|(n, _)| n.ends_with("ChipAlign"))
        .expect("ChipAlign variant exists");
    let models = vec![
        (
            ZooModel::Instruct(backbone).paper_name(),
            zoo.model(ZooModel::Instruct(backbone))?,
        ),
        (
            ZooModel::Eda(backbone).paper_name(),
            zoo.model(ZooModel::Eda(backbone))?,
        ),
        chipalign,
    ];
    let instructions: Vec<Instruction> = triplet.tags.iter().map(|t| t.instruction()).collect();
    compare(
        &models,
        &triplet.prompt(),
        &triplet.golden,
        &triplet.context,
        &instructions,
    )
}

/// Figure 6: a BUILD-category industrial question answered by Chat,
/// ChipNeMo, and ChipAlign.
///
/// # Errors
///
/// Propagates zoo, merge, and generation failures.
pub fn fig6(zoo: &Zoo, bench_seed: u64) -> Result<Comparison, PipelineError> {
    let bench = IndustrialBenchmark::generate(bench_seed);
    let question = bench
        .questions
        .iter()
        .find(|q| q.category == chipalign_data::facts::IndustrialCategory::Build)
        .expect("benchmark has BUILD questions");
    let models = vec![
        (
            ZooModel::Instruct(Backbone::LlamaLarge).paper_name(),
            zoo.model(ZooModel::Instruct(Backbone::LlamaLarge))?,
        ),
        (
            ZooModel::ChipNemo.paper_name(),
            zoo.model(ZooModel::ChipNemo)?,
        ),
        (
            "LLaMA2-70B-ChipAlign".to_string(),
            super::chipalign_large(zoo)?,
        ),
    ];
    let instructions: Vec<Instruction> = question.tags.iter().map(|t| t.instruction()).collect();
    compare(
        &models,
        &question.prompt(),
        &question.golden,
        &question.context,
        &instructions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_renders_all_fields() {
        let c = Comparison {
            prompt: "P".into(),
            golden: "G".into(),
            responses: vec![QualitativeResponse {
                model: "M".into(),
                response: "R".into(),
                rouge_f1: 0.5,
                grade: 75,
                follows_instructions: true,
            }],
        };
        let text = c.render();
        assert!(text.contains("PROMPT : P"));
        assert!(text.contains("grade= 75"));
        assert!(text.contains("-> R"));
    }
}
