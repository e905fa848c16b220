//! One runner per paper experiment.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`openroad`] | Table 1 (ROUGE-L on OpenROAD QA) and Figure 8 (λ sensitivity) |
//! | [`industrial`] | Table 2 (graded industrial chip QA, single + multi turn) |
//! | [`ifeval`] | Table 3 (instruction-following accuracy) |
//! | [`multichoice`] | Figure 7 (multi-choice chip QA accuracy) |
//! | [`radar`] | Figure 2 (normalized capability overview) |
//! | [`qualitative`] | Figures 5 and 6 (side-by-side responses) |

pub mod ifeval;
pub mod industrial;
pub mod multichoice;
pub mod openroad;
pub mod qualitative;
pub mod radar;

use chipalign_merge::{Della, GeodesicMerge, Merger, ModelSoup, TaskArithmetic, Ties};
use chipalign_nn::TinyLm;

use crate::zoo::{Backbone, Zoo, ZooModel};
use crate::PipelineError;

/// The paper's recommended interpolation coefficient.
pub const PAPER_LAMBDA: f32 = 0.6;

/// Builds every merged variant of one tiny backbone, in the row order of
/// Table 1: TA, TIES, DELLA, ModelSoup, ChipAlign.
///
/// The EDA model plays the "chip" role and the instruct model the
/// "instruct" role. The task-vector methods (TA/TIES/DELLA) additionally
/// need the common ancestor both specialists descend from — the
/// *pretrained base* — as their reference point; using the instruct model
/// itself would make TA degenerate to exactly ModelSoup.
///
/// # Errors
///
/// Propagates zoo training and merge failures.
pub fn merged_variants(
    zoo: &Zoo,
    backbone: Backbone,
) -> Result<Vec<(String, TinyLm)>, PipelineError> {
    let base = zoo.model(ZooModel::Base(backbone))?;
    let instruct = zoo.model(ZooModel::Instruct(backbone))?;
    let eda = zoo.model(ZooModel::Eda(backbone))?;
    let base_ckpt = base.to_checkpoint()?;
    let chip_ckpt = eda.to_checkpoint()?;
    let instruct_ckpt = instruct.to_checkpoint()?;
    let name = backbone.paper_name();

    let mergers: Vec<(String, Box<dyn Merger>)> = vec![
        (
            format!("{name}-TA"),
            // Scale < 1: at exactly 1.0, averaging two task vectors onto
            // the base is algebraically identical to ModelSoup. The task-
            // arithmetic literature recommends per-task coefficients below
            // 0.5; 0.8 total (0.4 per task vector) is in that range.
            Box::new(TaskArithmetic::new(base_ckpt.clone(), 0.8)?),
        ),
        (
            format!("{name}-TIES"),
            Box::new(Ties::recommended(base_ckpt.clone())?),
        ),
        (
            format!("{name}-DELLA"),
            Box::new(Della::recommended(base_ckpt, 7)?),
        ),
        (format!("{name}-ModelSoup"), Box::new(ModelSoup::new())),
        (
            format!("{name}-ChipAlign"),
            Box::new(GeodesicMerge::new(PAPER_LAMBDA)?),
        ),
    ];

    let mut out = Vec::with_capacity(mergers.len());
    for (label, merger) in mergers {
        let merged_ckpt = merger.merge_pair(&chip_ckpt, &instruct_ckpt)?;
        out.push((label, TinyLm::from_checkpoint(&merged_ckpt)?));
    }
    Ok(out)
}

/// Builds the large-model ChipAlign merge (ChipNeMo ⊕ Chat at λ = 0.6).
///
/// # Errors
///
/// Propagates zoo training and merge failures.
pub(crate) fn chipalign_large(zoo: &Zoo) -> Result<TinyLm, PipelineError> {
    let chat = zoo.model(ZooModel::Instruct(Backbone::LlamaLarge))?;
    let chipnemo = zoo.model(ZooModel::ChipNemo)?;
    let merged = GeodesicMerge::new(PAPER_LAMBDA)?
        .merge_pair(&chipnemo.to_checkpoint()?, &chat.to_checkpoint()?)?;
    Ok(TinyLm::from_checkpoint(&merged)?)
}
