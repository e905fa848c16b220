//! λ-sweep utilities for the paper's sensitivity analysis (Figure 8).
//!
//! The sweep produces the continuum of models Lemma III.2 describes: for a
//! grid of interpolation points `λ ∈ [0, 1]`, one merged checkpoint per
//! point, with `λ = 0` equal to the instruction model and `λ = 1` equal to
//! the chip model.

use chipalign_model::Checkpoint;

use crate::{GeodesicMerge, MergeError, Merger};

/// A single point of a λ sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The interpolation coefficient.
    pub lambda: f32,
    /// The merged model at this coefficient.
    pub model: Checkpoint,
}

/// Returns an evenly spaced λ grid with `steps` points covering `[0, 1]`
/// inclusive.
///
/// # Panics
///
/// Panics if `steps < 2` (a sweep needs both endpoints).
#[must_use]
pub fn lambda_grid(steps: usize) -> Vec<f32> {
    assert!(steps >= 2, "a lambda sweep needs at least both endpoints");
    (0..steps).map(|i| i as f32 / (steps - 1) as f32).collect()
}

/// Merges `chip` and `instruct` at every λ in `lambdas`.
///
/// # Errors
///
/// Returns the first merge failure (non-conformable inputs or an invalid λ
/// in the grid).
pub fn lambda_sweep(
    chip: &Checkpoint,
    instruct: &Checkpoint,
    lambdas: &[f32],
) -> Result<Vec<SweepPoint>, MergeError> {
    lambdas
        .iter()
        .map(|&lambda| {
            let model = GeodesicMerge::new(lambda)?.merge_pair(chip, instruct)?;
            Ok(SweepPoint { lambda, model })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    #[test]
    fn grid_covers_unit_interval() {
        let grid = lambda_grid(11);
        assert_eq!(grid.len(), 11);
        assert_eq!(grid[0], 0.0);
        assert_eq!(grid[10], 1.0);
        assert!((grid[5] - 0.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least both endpoints")]
    fn grid_rejects_single_point() {
        let _ = lambda_grid(1);
    }

    #[test]
    fn sweep_endpoints_are_the_inputs() {
        let arch = ArchSpec::tiny("sweep");
        let chip = Checkpoint::random(&arch, &mut Pcg32::seed(1));
        let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(2));
        let points = lambda_sweep(&chip, &instruct, &lambda_grid(3)).expect("ok");
        assert!(
            points[0].model.approx_eq(&instruct, 1e-5),
            "λ=0 is instruct"
        );
        assert!(points[2].model.approx_eq(&chip, 1e-5), "λ=1 is chip");
        assert!(!points[1].model.approx_eq(&chip, 1e-5));
    }

    #[test]
    fn sweep_norms_vary_monotonically_for_scaled_models() {
        // chip = 2 * instruct: along the sweep the restored norm is
        // |instruct| * 2^λ, which is strictly increasing in λ.
        let arch = ArchSpec::tiny("sweep");
        let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(3));
        let chip = instruct.map_tensors(|_, t| t.scale(2.0));
        let points = lambda_sweep(&chip, &instruct, &lambda_grid(5)).expect("ok");
        let norms: Vec<f64> = points.iter().map(|p| p.model.global_norm()).collect();
        for w in norms.windows(2) {
            assert!(
                w[1] > w[0],
                "norms must increase along the sweep: {norms:?}"
            );
        }
    }

    #[test]
    fn sweep_propagates_bad_lambda() {
        let arch = ArchSpec::tiny("sweep");
        let chip = Checkpoint::zeros(&arch);
        let err = lambda_sweep(&chip, &chip, &[0.5, 2.0]);
        assert!(matches!(err, Err(MergeError::BadLambda { .. })));
    }
}
