//! Per-tensor geometry reports produced during a geodesic merge.

use std::fmt;

/// The geometry of one weight pair as seen by the geodesic merge.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorGeometry {
    /// Canonical parameter name.
    pub name: String,
    /// Cosine between the unit-sphere projections of the two weights.
    pub(crate) cosine: f64,
    /// Geodesic angle Θ in radians (`arccos` of [`TensorGeometry::cosine`]).
    pub theta: f64,
    /// Frobenius norm of the chip-model weight.
    pub norm_chip: f32,
    /// Frobenius norm of the instruction-model weight.
    pub norm_instruct: f32,
    /// Frobenius norm of the merged weight after magnitude restoration.
    pub norm_merged: f32,
    /// Whether the small-angle LERP fallback was taken for this tensor.
    pub(crate) lerp_fallback: bool,
}

/// A full merge report: one `TensorGeometry` per parameter, plus the
/// merge configuration that produced it.
///
/// Reports answer the diagnostic questions the paper's geometric argument
/// raises: how far apart are the two models on the sphere, which layers
/// diverge most, and whether the norm restoration stayed between the input
/// norms.
///
/// # Example
///
/// ```
/// use chipalign_merge::GeodesicMerge;
/// use chipalign_model::{ArchSpec, Checkpoint};
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_merge::MergeError> {
/// let arch = ArchSpec::tiny("demo");
/// let chip = Checkpoint::random(&arch, &mut Pcg32::seed(1));
/// let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(2));
/// let (_merged, report) = GeodesicMerge::new(0.6)?.merge_with_report(&chip, &instruct)?;
/// assert_eq!(report.tensors.len(), arch.param_count());
/// assert!(report.mean_angle() >= 0.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// The λ used for the merge.
    pub(crate) lambda: f32,
    /// Method name (always `"ChipAlign"` for geodesic merges).
    pub(crate) method: &'static str,
    /// Per-tensor geometry in canonical parameter order.
    pub tensors: Vec<TensorGeometry>,
}

impl MergeReport {
    /// Mean geodesic angle across all tensors, in radians (0 for an empty
    /// report).
    #[must_use]
    pub fn mean_angle(&self) -> f64 {
        if self.tensors.is_empty() {
            return 0.0;
        }
        self.tensors.iter().map(|t| t.theta).sum::<f64>() / self.tensors.len() as f64
    }

    /// The tensor with the largest geodesic angle, if any.
    #[must_use]
    pub fn max_angle(&self) -> Option<&TensorGeometry> {
        self.tensors
            .iter()
            .max_by(|a, b| a.theta.total_cmp(&b.theta))
    }

    /// Number of tensors that took the small-angle LERP fallback.
    #[must_use]
    pub fn fallback_count(&self) -> usize {
        self.tensors.iter().filter(|t| t.lerp_fallback).count()
    }
}

impl fmt::Display for MergeReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} merge (lambda={:.2}): {} tensors, mean angle {:.4} rad, {} lerp fallbacks",
            self.method,
            self.lambda,
            self.tensors.len(),
            self.mean_angle(),
            self.fallback_count()
        )?;
        for t in &self.tensors {
            writeln!(
                f,
                "  {:<50} theta={:.4} |chip|={:.4} |instruct|={:.4} |merged|={:.4}{}",
                t.name,
                t.theta,
                t.norm_chip,
                t.norm_instruct,
                t.norm_merged,
                if t.lerp_fallback { "  [lerp]" } else { "" }
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom(name: &str, theta: f64, fallback: bool) -> TensorGeometry {
        TensorGeometry {
            name: name.into(),
            cosine: theta.cos(),
            theta,
            norm_chip: 1.0,
            norm_instruct: 1.0,
            norm_merged: 1.0,
            lerp_fallback: fallback,
        }
    }

    #[test]
    fn mean_and_max_angle() {
        let report = MergeReport {
            lambda: 0.6,
            method: "ChipAlign",
            tensors: vec![geom("a", 0.2, false), geom("b", 0.6, false)],
        };
        assert!((report.mean_angle() - 0.4).abs() < 1e-12);
        assert_eq!(report.max_angle().map(|t| t.name.as_str()), Some("b"));
    }

    #[test]
    fn empty_report_is_safe() {
        let report = MergeReport {
            lambda: 0.5,
            method: "ChipAlign",
            tensors: vec![],
        };
        assert_eq!(report.mean_angle(), 0.0);
        assert!(report.max_angle().is_none());
        assert_eq!(report.fallback_count(), 0);
    }

    #[test]
    fn fallback_counted_and_displayed() {
        let report = MergeReport {
            lambda: 0.6,
            method: "ChipAlign",
            tensors: vec![geom("a", 0.0, true), geom("b", 0.3, false)],
        };
        assert_eq!(report.fallback_count(), 1);
        let text = report.to_string();
        assert!(text.contains("[lerp]"));
        assert!(text.contains("1 lerp fallbacks"));
    }
}
