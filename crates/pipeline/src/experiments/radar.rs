//! Figure 2: the normalized capability radar for the large trio
//! (Chat vs ChipNeMo vs ChipAlign).
//!
//! The paper normalizes each benchmark axis to `[0, 1]` (per its ref.\ 12) so the
//! three models can be overlaid; here each axis is normalized by the
//! maximum across the three models, which preserves the figure's reading —
//! who dominates which axis.

use chipalign_data::ifeval_bench::generate as gen_ifeval;
use chipalign_data::industrial::IndustrialBenchmark;
use chipalign_data::multichoice::generate as gen_multichoice;
use chipalign_nn::TinyLm;

use crate::report::TextTable;
use crate::zoo::{Backbone, Zoo, ZooModel};
use crate::PipelineError;

use super::{ifeval, industrial, multichoice};

/// The radar's axes, in display order.
pub(crate) const AXES: [&str; 5] = [
    "IFEval (strict)",
    "Industrial QA (single)",
    "Industrial QA (multi)",
    "Multi-choice chip QA",
    "Chip grounding",
];

/// Regenerates the Figure 2 data: one row per model, one normalized column
/// per axis.
///
/// # Errors
///
/// Propagates zoo, merge, and generation failures.
pub fn fig2(zoo: &Zoo, bench_seed: u64) -> Result<TextTable, PipelineError> {
    let ifeval_prompts = gen_ifeval(bench_seed);
    let industrial_bench = IndustrialBenchmark::generate(bench_seed);
    let mc_items = gen_multichoice(bench_seed);

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

    let mut raw: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, model) in rows {
        eprintln!("[fig2] evaluating {label}...");
        let ife = ifeval::eval_subset(&model, &ifeval_prompts)?;
        let ind = industrial::eval_subset(&model, &industrial_bench.questions)?;
        let mc = multichoice::eval_subset(&model, &mc_items)?;
        // "Chip grounding": how well single-turn answers stay inside the
        // provided context — proxied by the single-turn TESTGEN+BUILD mean
        // (the categories Figure 6 illustrates).
        let grounding = (ind.single[1] + ind.single[3]) / 2.0;
        raw.push((
            label,
            vec![
                ife.prompt_strict,
                ind.single_all / 100.0,
                ind.multi_all / 100.0,
                mc.mean,
                grounding / 100.0,
            ],
        ));
    }

    // Normalize each axis by the max across models.
    let n_axes = AXES.len();
    let mut maxima = vec![0.0f64; n_axes];
    for (_, values) in &raw {
        for (m, v) in maxima.iter_mut().zip(values) {
            *m = m.max(*v);
        }
    }
    let mut table = TextTable::new(
        "Figure 2: normalized capability overview (1.0 = best model on the axis)",
        &AXES,
        3,
    );
    for (label, values) in raw {
        let normalized = values
            .iter()
            .zip(&maxima)
            .map(|(v, m)| if *m > 0.0 { v / m } else { 0.0 })
            .collect();
        table.push_row(&label, normalized);
    }
    Ok(table)
}
