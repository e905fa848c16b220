//! Table 2: graded industrial chip QA, single and multi turn.

use chipalign_data::facts::IndustrialCategory;
use chipalign_data::industrial::{IndustrialBenchmark, IndustrialQuestion};
use chipalign_eval::grader::{Grade, Rubric};
use chipalign_eval::ifeval::Instruction;
use chipalign_nn::TinyLm;

use crate::evalkit::{mean, respond};
use crate::report::TextTable;
use crate::zoo::{Backbone, Zoo, ZooModel};
use crate::PipelineError;

/// Scores for one model on the benchmark: per category and overall, for
/// each turn setting.
#[derive(Debug, Clone, PartialEq)]
pub struct IndustrialScores {
    /// Mean grade per category, single turn, in Table 2 column order.
    pub single: Vec<f64>,
    /// "All" column, single turn.
    pub single_all: f64,
    /// Mean grade per category, multi turn (the follow-up answer).
    pub(crate) multi: Vec<f64>,
    /// "All" column, multi turn.
    pub multi_all: f64,
}

/// Evaluates one model over a question subset.
///
/// Single turn: the model answers the tagged question; the rubric grades
/// content vs golden, grounding vs context, and tag compliance. Multi turn:
/// the model's own first answer is replayed as history and the follow-up is
/// graded the same way (no tags on follow-ups).
///
/// # Errors
///
/// Propagates generation failures.
pub fn eval_subset(
    model: &TinyLm,
    questions: &[IndustrialQuestion],
) -> Result<IndustrialScores, PipelineError> {
    let rubric = Rubric::default();
    let mut single: std::collections::HashMap<IndustrialCategory, Vec<f64>> = Default::default();
    let mut multi: std::collections::HashMap<IndustrialCategory, Vec<f64>> = Default::default();
    let mut single_all = Vec::new();
    let mut multi_all = Vec::new();

    for q in questions {
        let instructions: Vec<Instruction> = q.tags.iter().map(|t| t.instruction()).collect();
        let first_answer = respond(model, &q.prompt())?;
        let g1: Grade = rubric.grade(&first_answer, &q.golden, &q.context, &instructions);
        single
            .entry(q.category)
            .or_default()
            .push(f64::from(g1.score));
        single_all.push(f64::from(g1.score));

        let follow_prompt = q.followup_prompt(&first_answer);
        let follow_answer = respond(model, &follow_prompt)?;
        let g2 = rubric.grade(&follow_answer, &q.followup_golden, &q.context, &[]);
        multi
            .entry(q.category)
            .or_default()
            .push(f64::from(g2.score));
        multi_all.push(f64::from(g2.score));
    }

    let row = |map: &std::collections::HashMap<IndustrialCategory, Vec<f64>>| {
        IndustrialCategory::ALL
            .iter()
            .map(|c| mean(map.get(c).map_or(&[][..], Vec::as_slice)))
            .collect::<Vec<f64>>()
    };
    Ok(IndustrialScores {
        single: row(&single),
        single_all: mean(&single_all),
        multi: row(&multi),
        multi_all: mean(&multi_all),
    })
}

/// Regenerates Table 2 for the large trio: Chat, ChipNeMo, ChipAlign.
///
/// # Errors
///
/// Propagates zoo, merge, and generation failures.
pub fn table2(zoo: &Zoo, bench_seed: u64) -> Result<TextTable, PipelineError> {
    let bench = IndustrialBenchmark::generate(bench_seed);
    let mut table = TextTable::new(
        "Table 2: graded scores on the industrial chip QA benchmark (single | multi turn)",
        &[
            "S-ARCH",
            "S-BUILD",
            "S-LSF",
            "S-TESTGEN",
            "S-All",
            "M-ARCH",
            "M-BUILD",
            "M-LSF",
            "M-TESTGEN",
            "M-All",
        ],
        2,
    );
    let rows: Vec<(String, TinyLm)> = vec![
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
    for (label, model) in rows {
        eprintln!("[table2] evaluating {label}...");
        let scores = eval_subset(&model, &bench.questions)?;
        let mut values = scores.single.clone();
        values.push(scores.single_all);
        values.extend(scores.multi.clone());
        values.push(scores.multi_all);
        table.push_row(&label, values);
    }
    Ok(table)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_row_shapes() {
        let s = IndustrialScores {
            single: vec![1.0; 4],
            single_all: 1.0,
            multi: vec![0.5; 4],
            multi_all: 0.5,
        };
        assert_eq!(s.single.len(), IndustrialCategory::ALL.len());
    }
}
