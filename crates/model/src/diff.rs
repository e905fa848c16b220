//! Checkpoint diffing: quantify how far two conformable checkpoints are
//! apart, per tensor and globally.
//!
//! Merging work constantly asks "how much did this finetune move, and
//! where?" — the answer decides whether interpolation can work at all
//! (see DESIGN.md §6.3). [`CheckpointDiff`] reports, per parameter, the
//! relative weight delta and direction change, plus global summaries and
//! the most-moved tensors.

use chipalign_tensor::stats;

use crate::{Checkpoint, ModelError};

/// The difference between one pair of tensors.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDiff {
    /// Parameter name.
    pub name: String,
    /// Frobenius norm of `b − a`.
    pub(crate) delta_norm: f32,
    /// `‖b − a‖ / ‖a‖` (0 when `a` is zero).
    pub relative_delta: f32,
    /// Cosine similarity between the two tensors.
    pub cosine: f64,
}

/// A full checkpoint comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointDiff {
    /// Per-tensor differences in canonical parameter order.
    pub(crate) tensors: Vec<TensorDiff>,
    /// Global `‖b − a‖` over all parameters.
    pub global_delta: f64,
    /// Global relative delta `‖b − a‖ / ‖a‖`.
    pub global_relative: f64,
}

impl CheckpointDiff {
    /// Compares two conformable checkpoints (`a` is the reference).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::NotConformable`] if the checkpoints differ in
    /// structure.
    ///
    /// # Example
    ///
    /// ```
    /// use chipalign_model::{diff::CheckpointDiff, ArchSpec, Checkpoint};
    /// use chipalign_tensor::rng::Pcg32;
    ///
    /// # fn main() -> Result<(), chipalign_model::ModelError> {
    /// let arch = ArchSpec::tiny("demo");
    /// let a = Checkpoint::random(&arch, &mut Pcg32::seed(1));
    /// let d = CheckpointDiff::between(&a, &a)?;
    /// assert_eq!(d.global_delta, 0.0);
    /// # Ok(())
    /// # }
    /// ```
    pub fn between(a: &Checkpoint, b: &Checkpoint) -> Result<Self, ModelError> {
        if let Some(reason) = a.conformability_error(b) {
            return Err(ModelError::NotConformable { reason });
        }
        let mut tensors = Vec::with_capacity(a.param_count());
        let mut delta_sq = 0.0f64;
        let mut ref_sq = 0.0f64;
        for (name, ta) in a.iter() {
            let tb = b.get(name).expect("conformable");
            let delta = tb.sub(ta)?;
            let delta_norm = delta.frobenius_norm();
            let ref_norm = ta.frobenius_norm();
            delta_sq += f64::from(delta_norm) * f64::from(delta_norm);
            ref_sq += f64::from(ref_norm) * f64::from(ref_norm);
            tensors.push(TensorDiff {
                name: name.to_string(),
                delta_norm,
                relative_delta: if ref_norm > 0.0 {
                    delta_norm / ref_norm
                } else {
                    0.0
                },
                cosine: stats::cosine_similarity(ta, tb)?,
            });
        }
        let global_delta = delta_sq.sqrt();
        Ok(CheckpointDiff {
            tensors,
            global_delta,
            global_relative: if ref_sq > 0.0 {
                global_delta / ref_sq.sqrt()
            } else {
                0.0
            },
        })
    }

    /// The `k` tensors with the largest relative deltas, descending.
    #[must_use]
    pub fn most_changed(&self, k: usize) -> Vec<&TensorDiff> {
        let mut sorted: Vec<&TensorDiff> = self.tensors.iter().collect();
        sorted.sort_by(|a, b| b.relative_delta.total_cmp(&a.relative_delta));
        sorted.truncate(k);
        sorted
    }

    /// Mean cosine similarity across tensors (1 when identical).
    #[must_use]
    pub fn mean_cosine(&self) -> f64 {
        if self.tensors.is_empty() {
            return 1.0;
        }
        self.tensors.iter().map(|t| t.cosine).sum::<f64>() / self.tensors.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn ckpt(seed: u64) -> Checkpoint {
        Checkpoint::random(&ArchSpec::tiny("diff"), &mut Pcg32::seed(seed))
    }

    #[test]
    fn identical_checkpoints_have_zero_diff() {
        let a = ckpt(1);
        let d = CheckpointDiff::between(&a, &a).expect("conformable");
        assert_eq!(d.global_delta, 0.0);
        assert_eq!(d.global_relative, 0.0);
        assert!((d.mean_cosine() - 1.0).abs() < 1e-6);
        assert!(d.tensors.iter().all(|t| t.delta_norm == 0.0));
    }

    #[test]
    fn independent_checkpoints_diverge() {
        let d = CheckpointDiff::between(&ckpt(1), &ckpt(2)).expect("conformable");
        assert!(d.global_relative > 0.5, "independent inits are far apart");
        // Norm gains are identical (all ones), so some cosines are exactly 1.
        assert!(d.tensors.iter().any(|t| (t.cosine - 1.0).abs() < 1e-9));
    }

    #[test]
    fn scaled_checkpoint_has_unit_cosine() {
        let a = ckpt(3);
        let b = a.map_tensors(|_, t| t.scale(1.5));
        let d = CheckpointDiff::between(&a, &b).expect("conformable");
        for t in &d.tensors {
            if t.delta_norm > 0.0 {
                assert!((t.cosine - 1.0).abs() < 1e-5, "{t:?}");
                assert!((t.relative_delta - 0.5).abs() < 1e-4, "{t:?}");
            }
        }
        assert!((d.global_relative - 0.5).abs() < 1e-3);
    }

    #[test]
    fn most_changed_orders_by_relative_delta() {
        let a = ckpt(4);
        let mut b = a.clone();
        // Perturb one tensor strongly.
        let t = b.get_mut("lm_head.weight").expect("present");
        t.scale_inplace(3.0);
        let d = CheckpointDiff::between(&a, &b).expect("conformable");
        let top = d.most_changed(1);
        assert_eq!(top[0].name, "lm_head.weight");
        assert_eq!(d.most_changed(1000).len(), a.param_count());
    }

    #[test]
    fn nonconformable_is_an_error() {
        let mut small = ArchSpec::tiny("diff");
        small.n_layers = 1;
        let err = CheckpointDiff::between(&ckpt(1), &Checkpoint::zeros(&small));
        assert!(matches!(err, Err(ModelError::NotConformable { .. })));
    }
}
