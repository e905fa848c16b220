//! Low-rank adaptation (LoRA) of a frozen base model.
//!
//! The paper's domain specialists are produced by retrieval-augmented DAFT
//! using LoRA with rank 8 and alpha 16. This module reproduces that recipe:
//! every attention and MLP projection `W` gets a low-rank update
//! `W_eff = W + (α/r)·B·A` with `A ∈ R^{r×in}` (small normal init) and
//! `B ∈ R^{out×r}` (zero init, so training starts at the base model).
//! Only `A` and `B` receive gradients; the base stays frozen.

use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

use crate::model::TinyLm;
use crate::optim::Adam;
use crate::train::{Example, TrainConfig};
use crate::{loss, NnError};

/// LoRA hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoraConfig {
    /// Adapter rank `r`.
    pub(crate) rank: usize,
    /// Scaling numerator `α`; the effective scale is `α / r`.
    pub(crate) alpha: usize,
}

impl Default for LoraConfig {
    /// The paper's DAFT recipe: rank 8, alpha 16.
    fn default() -> Self {
        LoraConfig { rank: 8, alpha: 16 }
    }
}

/// Which projections carry adapters, in fixed order per layer.
const TARGETS_PER_LAYER: usize = 7;

/// A LoRA-adapted model: frozen base plus trainable low-rank updates on
/// every q/k/v/o/gate/up/down projection.
///
/// # Example
///
/// ```
/// use chipalign_model::ArchSpec;
/// use chipalign_nn::{LoraConfig, LoraModel, TinyLm};
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_nn::NnError> {
/// let mut arch = ArchSpec::tiny("demo");
/// arch.vocab_size = 99;
/// let base = TinyLm::new(&arch, &mut Pcg32::seed(1))?;
/// let lora = LoraModel::new(base.clone(), LoraConfig::default(), &mut Pcg32::seed(2))?;
/// // B starts at zero, so the adapted model equals the base model.
/// let merged = lora.merged_model()?;
/// let a = base.logits(&[1, 2, 3])?;
/// let b = merged.logits(&[1, 2, 3])?;
/// assert!(a.approx_eq(&b, 1e-6));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LoraModel {
    base: TinyLm,
    cfg: LoraConfig,
    /// Interleaved `[A, B]` pairs: layer-major, target-minor
    /// (q, k, v, o, gate, up, down), so `adapters[2*(l*7+t)]` is `A` and
    /// `… + 1` is `B`.
    adapters: Vec<Matrix>,
}

impl LoraModel {
    /// Wraps a base model with fresh adapters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for a zero rank or a rank larger than
    /// the smallest projection dimension.
    pub fn new(base: TinyLm, cfg: LoraConfig, rng: &mut Pcg32) -> Result<Self, NnError> {
        let arch = base.arch();
        let min_dim = arch.d_model.min(arch.d_ff);
        if cfg.rank == 0 || cfg.rank > min_dim {
            return Err(NnError::BadConfig {
                detail: format!(
                    "LoRA rank {} must be in 1..={} for this architecture",
                    cfg.rank, min_dim
                ),
            });
        }
        let mut adapters = Vec::with_capacity(arch.n_layers * TARGETS_PER_LAYER * 2);
        for _ in 0..arch.n_layers {
            for (out_dim, in_dim) in Self::target_shapes(arch.d_model, arch.d_ff) {
                adapters.push(Matrix::randn(cfg.rank, in_dim, 0.02, rng)); // A
                adapters.push(Matrix::zeros(out_dim, cfg.rank)); // B
            }
        }
        Ok(LoraModel {
            base,
            cfg,
            adapters,
        })
    }

    /// `(out, in)` shapes of the seven adapted projections, in order.
    fn target_shapes(d_model: usize, d_ff: usize) -> [(usize, usize); TARGETS_PER_LAYER] {
        [
            (d_model, d_model), // q
            (d_model, d_model), // k
            (d_model, d_model), // v
            (d_model, d_model), // o
            (d_ff, d_model),    // gate
            (d_ff, d_model),    // up
            (d_model, d_ff),    // down
        ]
    }

    /// The adapter scale `α / r`.
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.cfg.alpha as f32 / self.cfg.rank as f32
    }

    /// Materialises the adapted model `W + (α/r)·B·A` for every target.
    ///
    /// # Errors
    ///
    /// Propagates tensor shape errors (impossible for adapters built by
    /// [`LoraModel::new`]).
    pub fn merged_model(&self) -> Result<TinyLm, NnError> {
        let mut model = self.base.clone();
        let scale = self.scale();
        let n_layers = model.arch().n_layers;
        for l in 0..n_layers {
            for t in 0..TARGETS_PER_LAYER {
                let a = &self.adapters[2 * (l * TARGETS_PER_LAYER + t)];
                let b = &self.adapters[2 * (l * TARGETS_PER_LAYER + t) + 1];
                let update = b.matmul(a)?.scale(scale);
                let layer = &mut model.params_mut().layers[l];
                let target = match t {
                    0 => &mut layer.wq,
                    1 => &mut layer.wk,
                    2 => &mut layer.wv,
                    3 => &mut layer.wo,
                    4 => &mut layer.wg,
                    5 => &mut layer.wu,
                    _ => &mut layer.wd,
                };
                target.add_assign(&update)?;
            }
        }
        Ok(model)
    }

    /// Trains the adapters with prompt-masked cross-entropy while the base
    /// stays frozen. Returns the per-step mean losses.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an empty dataset or invalid
    /// optimizer settings, and forwards any forward/backward failure.
    pub fn train(&mut self, data: &[Example], cfg: &TrainConfig) -> Result<Vec<f32>, NnError> {
        if data.is_empty() {
            return Err(NnError::BadConfig {
                detail: "LoRA training requires a non-empty dataset".into(),
            });
        }
        let mut rng = Pcg32::seed(cfg.seed);
        let mut adam = Adam::new(self.adapters.as_slice(), cfg.adam)?;
        let mut losses = Vec::with_capacity(cfg.steps);
        let scale = self.scale();
        let n_layers = self.base.arch().n_layers;

        for _ in 0..cfg.steps {
            // Materialise the effective model once per step.
            let model = self.merged_model()?;
            let mut grad_acc: Vec<Matrix> = self
                .adapters
                .iter()
                .map(|m| Matrix::zeros(m.rows(), m.cols()))
                .collect();
            let mut batch_loss = 0.0f32;
            for _ in 0..cfg.batch_size {
                let ex = &data[rng.below(data.len())];
                let (logits, cache) = model.forward(&ex.tokens)?;
                let result = loss::masked_cross_entropy(&logits, &ex.tokens, &ex.mask)?;
                batch_loss += result.loss;
                let full = model.backward(&cache, &result.dlogits)?;
                // Project full-weight gradients onto the adapters:
                // dA = s·Bᵀ·dW, dB = s·dW·Aᵀ.
                for l in 0..n_layers {
                    let lg = &full.layers[l];
                    let weight_grads = [&lg.wq, &lg.wk, &lg.wv, &lg.wo, &lg.wg, &lg.wu, &lg.wd];
                    for (t, dw) in weight_grads.into_iter().enumerate() {
                        let idx = 2 * (l * TARGETS_PER_LAYER + t);
                        let a = &self.adapters[idx];
                        let b = &self.adapters[idx + 1];
                        let mut da = b.matmul_at(dw)?;
                        da.scale_inplace(scale);
                        let mut db = dw.matmul_bt(a)?;
                        db.scale_inplace(scale);
                        grad_acc[idx].add_assign(&da)?;
                        grad_acc[idx + 1].add_assign(&db)?;
                    }
                }
            }
            let inv = 1.0 / cfg.batch_size as f32;
            for g in &mut grad_acc {
                g.scale_inplace(inv);
            }
            adam.step(self.adapters.as_mut_slice(), &grad_acc)?;
            losses.push(batch_loss * inv);
        }
        Ok(losses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamConfig;
    use crate::train::TrainConfig;
    use chipalign_model::ArchSpec;

    fn base() -> TinyLm {
        let mut arch = ArchSpec::tiny("lora");
        arch.vocab_size = 99;
        TinyLm::new(&arch, &mut Pcg32::seed(11)).expect("valid")
    }

    #[test]
    fn fresh_adapters_are_identity() {
        let b = base();
        let lora =
            LoraModel::new(b.clone(), LoraConfig::default(), &mut Pcg32::seed(1)).expect("ok");
        let merged = lora.merged_model().expect("ok");
        let x = b.logits(&[4, 8, 15]).expect("ok");
        let y = merged.logits(&[4, 8, 15]).expect("ok");
        assert!(x.approx_eq(&y, 1e-6));
    }

    #[test]
    fn rank_validation() {
        let b = base();
        assert!(LoraModel::new(
            b.clone(),
            LoraConfig { rank: 0, alpha: 16 },
            &mut Pcg32::seed(1)
        )
        .is_err());
        assert!(LoraModel::new(
            b,
            LoraConfig {
                rank: 1000,
                alpha: 16
            },
            &mut Pcg32::seed(1)
        )
        .is_err());
    }

    #[test]
    fn training_reduces_loss_and_freezes_base() {
        // Mirror real usage: LoRA adapts a *pretrained* base (the paper's
        // DAFT setting), steering it to a new continuation of a known
        // prefix. A random base would leave the frozen embedding/LM head
        // unusable and make learning artificially slow.
        let mut pretrained = base();
        let old_seq: Vec<u32> = vec![10, 20, 30, 40, 50, 60];
        crate::train::train(
            &mut pretrained,
            &[Example::pretrain(old_seq)],
            &TrainConfig {
                steps: 80,
                batch_size: 2,
                adam: AdamConfig {
                    lr: 3e-3,
                    ..AdamConfig::default()
                },
                seed: 1,
            },
        )
        .expect("pretraining succeeds");
        let base_ckpt = pretrained.to_checkpoint().expect("ok");
        let mut lora = LoraModel::new(
            pretrained,
            LoraConfig { rank: 4, alpha: 8 },
            &mut Pcg32::seed(2),
        )
        .expect("ok");
        // New behaviour: the same prefix now continues with a permutation
        // of *seen* tokens. (Unseen tokens would be unreachable: their
        // frozen LM-head rows are near-zero and LoRA cannot touch the head.)
        let new_seq: Vec<u32> = vec![10, 20, 30, 60, 50, 40];
        let data = vec![Example::pretrain(new_seq)];
        let cfg = TrainConfig {
            steps: 400,
            batch_size: 2,
            adam: AdamConfig {
                lr: 1e-2,
                warmup_steps: 10,
                ..AdamConfig::default()
            },
            seed: 3,
        };
        let losses = lora.train(&data, &cfg).expect("ok");
        let first = losses[..5].iter().sum::<f32>() / 5.0;
        let last = losses[losses.len() - 5..].iter().sum::<f32>() / 5.0;
        assert!(
            last < first * 0.6,
            "LoRA training failed to learn: first {first}, last {last}"
        );
        // Base is untouched.
        let still = lora.base.to_checkpoint().expect("ok");
        assert!(still.approx_eq(&base_ckpt, 0.0));
        // Merged model now differs from the base.
        let merged = lora
            .merged_model()
            .expect("ok")
            .to_checkpoint()
            .expect("ok");
        assert!(!merged.approx_eq(&base_ckpt, 1e-6));
    }

    #[test]
    fn empty_dataset_rejected() {
        let mut lora =
            LoraModel::new(base(), LoraConfig::default(), &mut Pcg32::seed(1)).expect("ok");
        let cfg = TrainConfig::default();
        assert!(lora.train(&[], &cfg).is_err());
    }

    #[test]
    fn betas_outside_unit_interval_rejected_like_full_training() {
        let data = vec![Example::pretrain(vec![10, 20, 30, 40])];
        for (beta1, beta2) in [(1.0, 0.999), (0.9, 1.0)] {
            let cfg = TrainConfig {
                steps: 3,
                batch_size: 1,
                adam: AdamConfig {
                    beta1,
                    beta2,
                    ..AdamConfig::default()
                },
                seed: 1,
            };
            let mut full = base();
            assert!(matches!(
                crate::train::train(&mut full, &data, &cfg),
                Err(NnError::BadConfig { .. })
            ));
            let mut lora =
                LoraModel::new(base(), LoraConfig::default(), &mut Pcg32::seed(1)).expect("ok");
            assert!(
                matches!(lora.train(&data, &cfg), Err(NnError::BadConfig { .. })),
                "LoRA trained with beta1 {beta1}, beta2 {beta2}"
            );
        }
    }
}
