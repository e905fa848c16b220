//! The named-tensor checkpoint type.

use std::collections::BTreeMap;

use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

use crate::{ArchSpec, ModelError, ParamKind};

/// A complete set of model weights, keyed by canonical parameter name.
///
/// Checkpoints are the unit of work for model merging: the paper's merging
/// function `f` maps `(W_chip^(l), W_instruct^(l))` pairs — drawn from two
/// conformable checkpoints — to the merged layer weights.
///
/// Tensors are stored in a `BTreeMap` so iteration order (and therefore
/// every merge, serialization, and report) is deterministic.
///
/// # Example
///
/// ```
/// use chipalign_model::{ArchSpec, Checkpoint};
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_model::ModelError> {
/// let arch = ArchSpec::tiny("demo");
/// let a = Checkpoint::random(&arch, &mut Pcg32::seed(1));
/// let b = Checkpoint::random(&arch, &mut Pcg32::seed(2));
/// assert!(a.conformable_with(&b));
/// assert_eq!(a.scalar_count(), arch.scalar_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    arch: ArchSpec,
    tensors: BTreeMap<String, Matrix>,
    metadata: BTreeMap<String, String>,
}

impl Checkpoint {
    /// Creates an all-zero checkpoint for an architecture.
    #[must_use]
    pub fn zeros(arch: &ArchSpec) -> Self {
        let tensors = arch
            .param_names()
            .into_iter()
            .map(|name| {
                let (r, c) = arch.shape_of(&name).expect("own names are valid");
                (name, Matrix::zeros(r, c))
            })
            .collect();
        Checkpoint {
            arch: arch.clone(),
            tensors,
            metadata: BTreeMap::new(),
        }
    }

    /// Creates a randomly initialised checkpoint: Xavier-uniform projections,
    /// small-normal embeddings, unit norm gains — the standard init for the
    /// transformer substrate.
    #[must_use]
    pub fn random(arch: &ArchSpec, rng: &mut Pcg32) -> Self {
        let tensors = arch
            .param_names()
            .into_iter()
            .map(|name| {
                let (r, c) = arch.shape_of(&name).expect("own names are valid");
                let kind = arch.kind_of(&name).expect("own names are valid");
                let m = match kind {
                    ParamKind::Embedding | ParamKind::LmHead => Matrix::randn(r, c, 0.02, rng),
                    k if k.is_norm() => Matrix::ones(r, c),
                    _ => Matrix::xavier(r, c, rng),
                };
                (name, m)
            })
            .collect();
        Checkpoint {
            arch: arch.clone(),
            tensors,
            metadata: BTreeMap::new(),
        }
    }

    /// Assembles a checkpoint from raw parts.
    ///
    /// # Errors
    ///
    /// Returns the first validation failure (missing/unexpected parameter or
    /// shape violation) if the tensors do not instantiate `arch` exactly.
    pub fn from_parts(
        arch: ArchSpec,
        tensors: BTreeMap<String, Matrix>,
        metadata: BTreeMap<String, String>,
    ) -> Result<Self, ModelError> {
        let ckpt = Checkpoint {
            arch,
            tensors,
            metadata,
        };
        ckpt.validate()?;
        Ok(ckpt)
    }

    /// Splits the checkpoint into the parts [`Checkpoint::from_parts`]
    /// takes, moving the tensors out rather than copying them.
    #[must_use]
    pub fn into_parts(self) -> (ArchSpec, BTreeMap<String, Matrix>, BTreeMap<String, String>) {
        (self.arch, self.tensors, self.metadata)
    }

    /// The architecture this checkpoint instantiates.
    #[must_use]
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// Free-form metadata (provenance, training recipe, merge settings).
    #[must_use]
    pub fn metadata(&self) -> &BTreeMap<String, String> {
        &self.metadata
    }

    /// Inserts or replaces a metadata entry.
    pub fn set_metadata(&mut self, key: &str, value: &str) {
        self.metadata.insert(key.to_string(), value.to_string());
    }

    /// Looks up a tensor by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Matrix> {
        self.tensors.get(name)
    }

    /// Mutable access to a tensor by name.
    pub fn get_mut(&mut self, name: &str) -> Option<&mut Matrix> {
        self.tensors.get_mut(name)
    }

    /// Replaces a tensor, enforcing the architecture's shape.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnexpectedParam`] for a name outside the
    /// architecture, or [`ModelError::ShapeViolation`] for a wrong shape.
    pub fn insert(&mut self, name: &str, tensor: Matrix) -> Result<(), ModelError> {
        let expected = self
            .arch
            .shape_of(name)
            .ok_or_else(|| ModelError::UnexpectedParam { name: name.into() })?;
        if tensor.shape() != expected {
            return Err(ModelError::ShapeViolation {
                name: name.into(),
                expected,
                found: tensor.shape(),
            });
        }
        self.tensors.insert(name.to_string(), tensor);
        Ok(())
    }

    /// Iterates over `(name, tensor)` pairs in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Matrix)> {
        self.tensors.iter().map(|(n, t)| (n.as_str(), t))
    }

    /// Parameter names in canonical order.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        self.tensors.keys().map(String::as_str).collect()
    }

    /// Number of named parameters.
    #[must_use]
    pub fn param_count(&self) -> usize {
        self.tensors.len()
    }

    /// Total number of scalar weights.
    #[must_use]
    pub fn scalar_count(&self) -> usize {
        self.tensors.values().map(Matrix::len).sum()
    }

    /// Verifies that this checkpoint instantiates its architecture exactly:
    /// every declared parameter present with the declared shape, and nothing
    /// extra.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<(), ModelError> {
        for name in self.arch.param_names() {
            let expected = self.arch.shape_of(&name).expect("own names are valid");
            match self.tensors.get(&name) {
                None => return Err(ModelError::MissingParam { name }),
                Some(t) if t.shape() != expected => {
                    return Err(ModelError::ShapeViolation {
                        name,
                        expected,
                        found: t.shape(),
                    })
                }
                Some(_) => {}
            }
        }
        if self.tensors.len() != self.arch.param_count() {
            let extra = self
                .tensors
                .keys()
                .find(|k| self.arch.kind_of(k).is_none())
                .cloned()
                .unwrap_or_default();
            return Err(ModelError::UnexpectedParam { name: extra });
        }
        Ok(())
    }

    /// Whether two checkpoints can be merged: identical parameter names with
    /// identical shapes (the paper's conformability assumption). Metadata
    /// and architecture *names* may differ.
    #[must_use]
    pub fn conformable_with(&self, other: &Checkpoint) -> bool {
        self.conformability_error(other).is_none()
    }

    /// Explains why two checkpoints are not conformable, or `None` if they
    /// are.
    #[must_use]
    pub fn conformability_error(&self, other: &Checkpoint) -> Option<String> {
        if self.tensors.len() != other.tensors.len() {
            return Some(format!(
                "parameter count differs: {} vs {}",
                self.tensors.len(),
                other.tensors.len()
            ));
        }
        for ((na, ta), (nb, tb)) in self.tensors.iter().zip(other.tensors.iter()) {
            if na != nb {
                return Some(format!("parameter name mismatch: `{na}` vs `{nb}`"));
            }
            if ta.shape() != tb.shape() {
                return Some(format!(
                    "shape mismatch for `{na}`: {:?} vs {:?}",
                    ta.shape(),
                    tb.shape()
                ));
            }
        }
        None
    }

    /// Applies `f` to every tensor, producing a new checkpoint with the same
    /// architecture and metadata.
    #[must_use]
    pub fn map_tensors(&self, mut f: impl FnMut(&str, &Matrix) -> Matrix) -> Self {
        Checkpoint {
            arch: self.arch.clone(),
            tensors: self
                .tensors
                .iter()
                .map(|(n, t)| (n.clone(), f(n, t)))
                .collect(),
            metadata: self.metadata.clone(),
        }
    }

    /// Whole-model Frobenius norm (flattening all parameters into one
    /// vector).
    #[must_use]
    pub fn global_norm(&self) -> f64 {
        self.tensors
            .values()
            .map(|t| {
                let n = f64::from(t.frobenius_norm());
                n * n
            })
            .sum::<f64>()
            .sqrt()
    }

    /// `true` if every element of every tensor is finite.
    #[must_use]
    pub fn all_finite(&self) -> bool {
        self.tensors.values().all(Matrix::all_finite)
    }

    /// Name of the first tensor (in canonical order) containing a NaN or
    /// infinite value, or `None` when the checkpoint is entirely finite.
    #[must_use]
    pub fn first_non_finite(&self) -> Option<&str> {
        self.tensors
            .iter()
            .find(|(_, t)| !t.all_finite())
            .map(|(n, _)| n.as_str())
    }

    /// `true` if the two checkpoints agree elementwise within `tol`.
    #[must_use]
    pub fn approx_eq(&self, other: &Checkpoint, tol: f32) -> bool {
        self.conformable_with(other)
            && self
                .tensors
                .values()
                .zip(other.tensors.values())
                .all(|(a, b)| a.approx_eq(b, tol))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchSpec {
        ArchSpec::tiny("test")
    }

    #[test]
    fn zeros_and_random_validate() {
        let a = arch();
        Checkpoint::zeros(&a).validate().expect("zeros valid");
        Checkpoint::random(&a, &mut Pcg32::seed(3))
            .validate()
            .expect("random valid");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let a = arch();
        let c1 = Checkpoint::random(&a, &mut Pcg32::seed(9));
        let c2 = Checkpoint::random(&a, &mut Pcg32::seed(9));
        assert!(c1.approx_eq(&c2, 0.0));
    }

    #[test]
    fn norm_gains_initialise_to_one() {
        let a = arch();
        let c = Checkpoint::random(&a, &mut Pcg32::seed(1));
        let norm = c.get("model.norm.weight").expect("present");
        assert!(norm.data().iter().all(|&x| x == 1.0));
    }

    #[test]
    fn insert_enforces_shape() {
        let a = arch();
        let mut c = Checkpoint::zeros(&a);
        let err = c.insert("model.norm.weight", Matrix::zeros(2, 16));
        assert!(matches!(err, Err(ModelError::ShapeViolation { .. })));
        let err = c.insert("nonsense", Matrix::zeros(1, 1));
        assert!(matches!(err, Err(ModelError::UnexpectedParam { .. })));
        c.insert("model.norm.weight", Matrix::ones(1, 16))
            .expect("correct shape accepted");
    }

    #[test]
    fn validate_catches_missing_param() {
        let a = arch();
        let mut tensors: BTreeMap<String, Matrix> = Checkpoint::zeros(&a)
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();
        tensors.remove("lm_head.weight");
        let err = Checkpoint::from_parts(a, tensors, BTreeMap::new());
        assert!(matches!(err, Err(ModelError::MissingParam { .. })));
    }

    #[test]
    fn validate_catches_extra_param() {
        let a = arch();
        let mut tensors: BTreeMap<String, Matrix> = Checkpoint::zeros(&a)
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect();
        tensors.insert("bogus.weight".into(), Matrix::zeros(1, 1));
        let err = Checkpoint::from_parts(a, tensors, BTreeMap::new());
        assert!(matches!(err, Err(ModelError::UnexpectedParam { .. })));
    }

    #[test]
    fn conformable_across_same_shape_archs() {
        let mut a1 = arch();
        a1.name = "alpha".into();
        let mut a2 = arch();
        a2.name = "beta".into();
        let c1 = Checkpoint::zeros(&a1);
        let c2 = Checkpoint::zeros(&a2);
        assert!(c1.conformable_with(&c2), "names may differ, shapes decide");
    }

    #[test]
    fn not_conformable_when_layers_differ() {
        let a1 = arch();
        let mut a2 = arch();
        a2.n_layers = 1;
        let c1 = Checkpoint::zeros(&a1);
        let c2 = Checkpoint::zeros(&a2);
        assert!(!c1.conformable_with(&c2));
        assert!(c1
            .conformability_error(&c2)
            .expect("must explain")
            .contains("parameter count"));
    }

    #[test]
    fn map_tensors_preserves_structure() {
        let a = arch();
        let c = Checkpoint::random(&a, &mut Pcg32::seed(4));
        let doubled = c.map_tensors(|_, t| t.scale(2.0));
        doubled.validate().expect("still valid");
        assert!((doubled.global_norm() - 2.0 * c.global_norm()).abs() < 1e-3 * c.global_norm());
    }

    #[test]
    fn global_norm_of_zeros_is_zero() {
        assert_eq!(Checkpoint::zeros(&arch()).global_norm(), 0.0);
    }

    #[test]
    fn scalar_count_matches_arch() {
        let a = arch();
        assert_eq!(Checkpoint::zeros(&a).scalar_count(), a.scalar_count());
    }

    #[test]
    fn metadata_round_trip() {
        let mut c = Checkpoint::zeros(&arch());
        c.set_metadata("recipe", "daft-lora-r8");
        assert_eq!(
            c.metadata().get("recipe").map(String::as_str),
            Some("daft-lora-r8")
        );
    }

    #[test]
    fn all_finite_detects_nan() {
        let mut c = Checkpoint::zeros(&arch());
        assert!(c.all_finite());
        assert_eq!(c.first_non_finite(), None);
        let t = c.get_mut("model.norm.weight").expect("present");
        t.data_mut()[0] = f32::NAN;
        assert!(!c.all_finite());
        assert_eq!(c.first_non_finite(), Some("model.norm.weight"));
    }
}
