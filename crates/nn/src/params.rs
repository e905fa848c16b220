//! Flat parameter containers shared by the model and its gradients.
//!
//! [`ParamSet`] holds one matrix per architecture parameter in a fixed
//! order; the same type represents weights and gradients, and
//! [`crate::Adam`] walks both, with its moments, in lockstep through
//! [`ParamSet::tensors`] and [`ParamSet::tensors_mut`].

use chipalign_model::{ArchSpec, Checkpoint, ModelError};
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

use crate::NnError;

/// The per-layer weights of a LLaMA-style transformer block.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams {
    /// RMSNorm gain before attention (`1 × d_model`).
    pub(crate) norm1: Matrix,
    /// Query projection (`d_model × d_model`).
    pub wq: Matrix,
    /// Key projection (`d_model × d_model`).
    pub wk: Matrix,
    /// Value projection (`d_model × d_model`).
    pub wv: Matrix,
    /// Output projection (`d_model × d_model`).
    pub wo: Matrix,
    /// RMSNorm gain before the MLP (`1 × d_model`).
    pub(crate) norm2: Matrix,
    /// SwiGLU gate projection (`d_ff × d_model`).
    pub wg: Matrix,
    /// SwiGLU up projection (`d_ff × d_model`).
    pub wu: Matrix,
    /// SwiGLU down projection (`d_model × d_ff`).
    pub wd: Matrix,
}

/// All weights of a [`crate::TinyLm`], in checkpoint order.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamSet {
    /// Token embedding table (`vocab × d_model`).
    pub(crate) embed: Matrix,
    /// Transformer blocks.
    pub layers: Vec<LayerParams>,
    /// Final RMSNorm gain (`1 × d_model`).
    pub(crate) final_norm: Matrix,
    /// LM head (`vocab × d_model`).
    pub lm_head: Matrix,
}

impl ParamSet {
    /// Randomly initialises a parameter set for an architecture
    /// (Xavier projections, small-normal embeddings, unit norm gains).
    #[must_use]
    pub(crate) fn init(arch: &ArchSpec, rng: &mut Pcg32) -> Self {
        let layers = (0..arch.n_layers)
            .map(|_| LayerParams {
                norm1: Matrix::ones(1, arch.d_model),
                wq: Matrix::xavier(arch.d_model, arch.d_model, rng),
                wk: Matrix::xavier(arch.d_model, arch.d_model, rng),
                wv: Matrix::xavier(arch.d_model, arch.d_model, rng),
                wo: Matrix::xavier(arch.d_model, arch.d_model, rng),
                norm2: Matrix::ones(1, arch.d_model),
                wg: Matrix::xavier(arch.d_ff, arch.d_model, rng),
                wu: Matrix::xavier(arch.d_ff, arch.d_model, rng),
                wd: Matrix::xavier(arch.d_model, arch.d_ff, rng),
            })
            .collect();
        ParamSet {
            embed: Matrix::randn(arch.vocab_size, arch.d_model, 0.02, rng),
            layers,
            final_norm: Matrix::ones(1, arch.d_model),
            lm_head: Matrix::randn(arch.vocab_size, arch.d_model, 0.02, rng),
        }
    }

    /// An all-zero set with the same shapes as `self` (for gradient
    /// accumulation).
    #[must_use]
    pub(crate) fn zeros_like(&self) -> Self {
        let z = |m: &Matrix| Matrix::zeros(m.rows(), m.cols());
        ParamSet {
            embed: z(&self.embed),
            layers: self
                .layers
                .iter()
                .map(|l| LayerParams {
                    norm1: z(&l.norm1),
                    wq: z(&l.wq),
                    wk: z(&l.wk),
                    wv: z(&l.wv),
                    wo: z(&l.wo),
                    norm2: z(&l.norm2),
                    wg: z(&l.wg),
                    wu: z(&l.wu),
                    wd: z(&l.wd),
                })
                .collect(),
            final_norm: z(&self.final_norm),
            lm_head: z(&self.lm_head),
        }
    }

    /// All tensors in fixed canonical order.
    #[must_use]
    pub fn tensors(&self) -> Vec<&Matrix> {
        let mut out = vec![&self.embed];
        for l in &self.layers {
            out.extend([
                &l.norm1, &l.wq, &l.wk, &l.wv, &l.wo, &l.norm2, &l.wg, &l.wu, &l.wd,
            ]);
        }
        out.push(&self.final_norm);
        out.push(&self.lm_head);
        out
    }

    /// All tensors, mutably, in the same order as [`ParamSet::tensors`].
    pub fn tensors_mut(&mut self) -> Vec<&mut Matrix> {
        let mut out: Vec<&mut Matrix> = vec![&mut self.embed];
        for l in &mut self.layers {
            out.push(&mut l.norm1);
            out.push(&mut l.wq);
            out.push(&mut l.wk);
            out.push(&mut l.wv);
            out.push(&mut l.wo);
            out.push(&mut l.norm2);
            out.push(&mut l.wg);
            out.push(&mut l.wu);
            out.push(&mut l.wd);
        }
        out.push(&mut self.final_norm);
        out.push(&mut self.lm_head);
        out
    }

    /// Canonical checkpoint names, index-aligned with [`ParamSet::tensors`].
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        let mut out = vec!["model.embed_tokens.weight".to_string()];
        for i in 0..self.layers.len() {
            out.push(format!("model.layers.{i}.input_layernorm.weight"));
            out.push(format!("model.layers.{i}.self_attn.q_proj.weight"));
            out.push(format!("model.layers.{i}.self_attn.k_proj.weight"));
            out.push(format!("model.layers.{i}.self_attn.v_proj.weight"));
            out.push(format!("model.layers.{i}.self_attn.o_proj.weight"));
            out.push(format!("model.layers.{i}.post_attention_layernorm.weight"));
            out.push(format!("model.layers.{i}.mlp.gate_proj.weight"));
            out.push(format!("model.layers.{i}.mlp.up_proj.weight"));
            out.push(format!("model.layers.{i}.mlp.down_proj.weight"));
        }
        out.push("model.norm.weight".to_string());
        out.push("lm_head.weight".to_string());
        out
    }

    /// Total number of scalar parameters.
    #[must_use]
    pub fn scalar_count(&self) -> usize {
        self.tensors().iter().map(|t| t.len()).sum()
    }

    /// Accumulates `other` scaled by `alpha` into `self` (gradient
    /// accumulation across a batch).
    ///
    /// # Errors
    ///
    /// Returns a tensor shape error if the two sets do not match.
    pub(crate) fn axpy(&mut self, alpha: f32, other: &ParamSet) -> Result<(), NnError> {
        let others = other.tensors();
        for (mine, theirs) in self.tensors_mut().into_iter().zip(others) {
            mine.axpy(alpha, theirs)?;
        }
        Ok(())
    }

    /// Converts to a checkpoint for the given architecture.
    ///
    /// # Errors
    ///
    /// Returns a validation error if the shapes do not instantiate `arch`.
    pub fn to_checkpoint(&self, arch: &ArchSpec) -> Result<Checkpoint, ModelError> {
        let tensors = self
            .names()
            .into_iter()
            .zip(self.tensors().into_iter().cloned())
            .collect();
        Checkpoint::from_parts(arch.clone(), tensors, Default::default())
    }
}

impl TryFrom<Checkpoint> for ParamSet {
    type Error = ModelError;

    /// Reconstructs a parameter set from a checkpoint, moving its tensors.
    fn try_from(ckpt: Checkpoint) -> Result<Self, ModelError> {
        ckpt.validate()?;
        let (arch, mut tensors, _) = ckpt.into_parts();
        let mut grab = |name: &str| -> Result<Matrix, ModelError> {
            tensors
                .remove(name)
                .ok_or_else(|| ModelError::MissingParam { name: name.into() })
        };
        let mut layers = Vec::with_capacity(arch.n_layers);
        for i in 0..arch.n_layers {
            layers.push(LayerParams {
                norm1: grab(&format!("model.layers.{i}.input_layernorm.weight"))?,
                wq: grab(&format!("model.layers.{i}.self_attn.q_proj.weight"))?,
                wk: grab(&format!("model.layers.{i}.self_attn.k_proj.weight"))?,
                wv: grab(&format!("model.layers.{i}.self_attn.v_proj.weight"))?,
                wo: grab(&format!("model.layers.{i}.self_attn.o_proj.weight"))?,
                norm2: grab(&format!("model.layers.{i}.post_attention_layernorm.weight"))?,
                wg: grab(&format!("model.layers.{i}.mlp.gate_proj.weight"))?,
                wu: grab(&format!("model.layers.{i}.mlp.up_proj.weight"))?,
                wd: grab(&format!("model.layers.{i}.mlp.down_proj.weight"))?,
            });
        }
        Ok(ParamSet {
            embed: grab("model.embed_tokens.weight")?,
            layers,
            final_norm: grab("model.norm.weight")?,
            lm_head: grab("lm_head.weight")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::tiny("params");
        a.vocab_size = 99;
        a
    }

    #[test]
    fn init_matches_arch_scalar_count() {
        let a = arch();
        let p = ParamSet::init(&a, &mut Pcg32::seed(1));
        assert_eq!(p.scalar_count(), a.scalar_count());
        assert_eq!(p.tensors().len(), a.param_count());
    }

    #[test]
    fn names_align_with_tensors() {
        let a = arch();
        let p = ParamSet::init(&a, &mut Pcg32::seed(1));
        let names = p.names();
        let tensors = p.tensors();
        assert_eq!(names.len(), tensors.len());
        for (name, tensor) in names.iter().zip(&tensors) {
            assert_eq!(
                a.shape_of(name),
                Some(tensor.shape()),
                "shape mismatch for {name}"
            );
        }
    }

    #[test]
    fn checkpoint_round_trip() {
        let a = arch();
        let p = ParamSet::init(&a, &mut Pcg32::seed(2));
        let ckpt = p.to_checkpoint(&a).expect("valid");
        let back = ParamSet::try_from(ckpt).expect("round trip");
        assert_eq!(p, back);
    }

    #[test]
    fn zeros_like_matches_shapes() {
        let p = ParamSet::init(&arch(), &mut Pcg32::seed(3));
        let z = p.zeros_like();
        assert_eq!(z.scalar_count(), p.scalar_count());
        assert!(z.tensors().iter().all(|t| t.max_abs() == 0.0));
    }

    #[test]
    fn axpy_accumulates() {
        let p = ParamSet::init(&arch(), &mut Pcg32::seed(4));
        let mut acc = p.zeros_like();
        acc.axpy(2.0, &p).expect("same shapes");
        for (a, t) in acc.tensors().iter().zip(p.tensors()) {
            assert_eq!(*a, &t.scale(2.0), "0 + 2·x is exactly 2·x");
        }
    }

    #[test]
    fn tensors_mut_order_matches_tensors() {
        let mut p = ParamSet::init(&arch(), &mut Pcg32::seed(6));
        let shapes: Vec<_> = p.tensors().iter().map(|t| t.shape()).collect();
        let shapes_mut: Vec<_> = p.tensors_mut().iter().map(|t| t.shape()).collect();
        assert_eq!(shapes, shapes_mut);
    }
}
