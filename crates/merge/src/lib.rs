//! Model merging — the primary contribution of the ChipAlign paper.
//!
//! ChipAlign fuses a chip-domain LLM with an instruction-aligned LLM
//! *without any training*, by treating each weight matrix as a point on a
//! Riemannian manifold and interpolating along the geodesic between the two
//! models:
//!
//! 1. Project both weight matrices onto the unit n-sphere by dividing by
//!    their Frobenius norms.
//! 2. Spherically interpolate (SLERP, Lemma III.2 of the paper) along the
//!    arc connecting the projections:
//!    `W̄ = sin(λΘ)/sin(Θ) · W̄_chip + sin((1−λ)Θ)/sin(Θ) · W̄_instruct`.
//! 3. Restore magnitude with the geometric mean of the input norms:
//!    `W = Norm_chip^λ · Norm_instruct^(1−λ) · W̄`.
//!
//! This crate implements that method ([`GeodesicMerge`]) together with every
//! baseline the paper compares against — [`ModelSoup`], [`TaskArithmetic`],
//! [`Ties`], and [`Della`] — plus [`Dare`] (the paper's reference on
//! absorbing abilities from homologous models), behind a common [`Merger`]
//! trait, plus λ-sweep
//! utilities ([`sweep`]) and per-tensor geometry reports ([`MergeReport`]).
//!
//! All mergers run in `O(n)` time and space in the total parameter count
//! `n`, matching the paper's complexity analysis (§III-C). Tensors are
//! independent: [`GeodesicMerge`] reads each input pair twice and writes
//! each output once (20 bytes per parameter), and fans tensors out over
//! every core. The baselines share one sequential driver, each method
//! being just its per-tensor rule (see the `baselines` module).
//!
//! # Example
//!
//! ```
//! use chipalign_merge::{GeodesicMerge, Merger};
//! use chipalign_model::{ArchSpec, Checkpoint};
//! use chipalign_tensor::rng::Pcg32;
//!
//! # fn main() -> Result<(), chipalign_merge::MergeError> {
//! let arch = ArchSpec::tiny("demo");
//! let chip = Checkpoint::random(&arch, &mut Pcg32::seed(1));
//! let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(2));
//!
//! let merger = GeodesicMerge::new(0.6)?; // the paper's recommended λ
//! let merged = merger.merge_pair(&chip, &instruct)?;
//! assert!(merged.all_finite());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod baselines;
mod error;
mod geodesic;
mod report;
pub mod sweep;

pub use baselines::{Dare, Della, ModelSoup, TaskArithmetic, Ties};
pub use error::MergeError;
pub use geodesic::{GeodesicMerge, Granularity, NormRestore};
pub use report::MergeReport;

use chipalign_model::Checkpoint;

/// A training-free model merging method.
///
/// All of the paper's methods (ChipAlign and the four baselines) implement
/// this trait, which is how the experiment pipeline swaps methods per table
/// row. The convention follows the paper: the first argument is the
/// domain-adapted ("chip") model, the second the instruction-aligned model.
pub trait Merger {
    /// Short method name as it appears in the paper's tables
    /// (e.g. `"ChipAlign"`, `"TIES"`).
    fn name(&self) -> &'static str;

    /// Merges a chip model with an instruction model.
    ///
    /// # Errors
    ///
    /// Returns [`MergeError::NotConformable`] if the two checkpoints do not
    /// expose identical parameter names and shapes, or a method-specific
    /// error (e.g. a baseline missing its required base model).
    fn merge_pair(
        &self,
        chip: &Checkpoint,
        instruct: &Checkpoint,
    ) -> Result<Checkpoint, MergeError>;
}

/// Verifies the conformability precondition shared by all mergers.
pub(crate) fn check_conformable(a: &Checkpoint, b: &Checkpoint) -> Result<(), MergeError> {
    match a.conformability_error(b) {
        None => Ok(()),
        Some(reason) => Err(MergeError::NotConformable { reason }),
    }
}
