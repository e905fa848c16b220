//! Full-parameter training loops: pretraining (DAPT) and supervised
//! finetuning (DAFT).
//!
//! One training *step* samples `batch_size` examples, computes
//! prompt-masked cross-entropy gradients for each, averages
//! them, and applies one Adam update. The whole loop is deterministic given
//! the config seed.

use chipalign_tensor::rng::Pcg32;

use crate::model::TinyLm;
use crate::optim::{Adam, AdamConfig};
use crate::{loss, NnError};

/// One training example: a token sequence plus its target mask.
///
/// `mask[t]` marks token `t` as a *target*: position `t−1` is trained to
/// predict it. Pretraining examples mask everything on; SFT examples mask
/// only the completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Example {
    /// The full token sequence (prompt + completion for SFT).
    pub tokens: Vec<u32>,
    /// Target mask, same length as `tokens`.
    pub mask: Vec<bool>,
}

impl Example {
    /// A pretraining example: every position is a target.
    #[must_use]
    pub fn pretrain(tokens: Vec<u32>) -> Self {
        let mask = vec![true; tokens.len()];
        Example { tokens, mask }
    }

    /// An SFT example: only completion tokens are targets.
    #[must_use]
    pub fn sft(prompt: Vec<u32>, completion: Vec<u32>) -> Self {
        let mut tokens = prompt.clone();
        tokens.extend_from_slice(&completion);
        let mut mask = vec![false; prompt.len()];
        mask.extend(std::iter::repeat_n(true, completion.len()));
        Example { tokens, mask }
    }
}

/// Training-loop configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Number of optimizer steps.
    pub steps: usize,
    /// Examples per step.
    pub batch_size: usize,
    /// Optimizer settings.
    pub adam: AdamConfig,
    /// Seed for batch sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 100,
            batch_size: 8,
            adam: AdamConfig::default(),
            seed: 0,
        }
    }
}

/// Trains `model` in place; returns per-step mean losses.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for an empty dataset or zero steps/batch,
/// and forwards forward/backward failures (e.g. an example longer than the
/// context window).
pub fn train(model: &mut TinyLm, data: &[Example], cfg: &TrainConfig) -> Result<Vec<f32>, NnError> {
    if data.is_empty() {
        return Err(NnError::BadConfig {
            detail: "training requires a non-empty dataset".into(),
        });
    }
    if cfg.steps == 0 || cfg.batch_size == 0 {
        return Err(NnError::BadConfig {
            detail: "steps and batch_size must be positive".into(),
        });
    }
    let mut rng = Pcg32::seed(cfg.seed);
    let mut adam = Adam::new(model.params(), cfg.adam)?;
    let mut losses = Vec::with_capacity(cfg.steps);

    for _ in 0..cfg.steps {
        let batch: Vec<&Example> = (0..cfg.batch_size)
            .map(|_| &data[rng.below(data.len())])
            .collect();
        // Per-example losses and gradients (examples are independent).
        let results: Vec<Result<(f32, crate::ParamSet), NnError>> = batch
            .iter()
            .map(|ex| {
                let (logits, cache) = model.forward(&ex.tokens)?;
                let result = loss::masked_cross_entropy(&logits, &ex.tokens, &ex.mask)?;
                let grads = model.backward(&cache, &result.dlogits)?;
                Ok((result.loss, grads))
            })
            .collect();

        let mut total_loss = 0.0f32;
        let mut grad_acc = model.params().zeros_like();
        let inv = 1.0 / cfg.batch_size as f32;
        for r in results {
            let (l, g) = r?;
            total_loss += l;
            grad_acc.axpy(inv, &g)?;
        }
        adam.step(model.params_mut(), &grad_acc)?;
        losses.push(total_loss * inv);
    }
    Ok(losses)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::tiny("train");
        a.vocab_size = 99;
        a
    }

    #[test]
    fn sft_example_masks_prompt() {
        let ex = Example::sft(vec![1, 2, 3], vec![4, 5]);
        assert_eq!(ex.tokens, vec![1, 2, 3, 4, 5]);
        assert_eq!(ex.mask, vec![false, false, false, true, true]);
    }

    #[test]
    fn training_memorizes_a_sequence() {
        let mut model = TinyLm::new(&arch(), &mut Pcg32::seed(21)).expect("valid");
        let seq: Vec<u32> = vec![10, 20, 30, 40, 50, 60, 70, 80];
        let data = vec![Example::pretrain(seq.clone())];
        let cfg = TrainConfig {
            steps: 80,
            batch_size: 2,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            seed: 1,
        };
        let losses = train(&mut model, &data, &cfg).expect("ok");
        assert!(
            losses.last().copied().expect("non-empty") < losses[0] * 0.3,
            "loss failed to drop: {} -> {}",
            losses[0],
            losses.last().copied().expect("non-empty")
        );
        // Greedy next-token prediction should now reproduce the sequence.
        let logits = model.logits(&seq).expect("ok");
        let mut correct = 0;
        for t in 0..seq.len() - 1 {
            let pred = chipalign_tensor::ops::argmax(logits.row(t)).expect("non-empty");
            if pred as u32 == seq[t + 1] {
                correct += 1;
            }
        }
        assert!(
            correct >= seq.len() - 2,
            "memorization failed: {correct}/{} next-token predictions",
            seq.len() - 1
        );
    }

    #[test]
    fn training_is_deterministic() {
        let data = vec![
            Example::pretrain(vec![5, 6, 7, 8]),
            Example::pretrain(vec![9, 10, 11, 12]),
        ];
        let cfg = TrainConfig {
            steps: 10,
            batch_size: 2,
            adam: AdamConfig::default(),
            seed: 7,
        };
        let mut m1 = TinyLm::new(&arch(), &mut Pcg32::seed(1)).expect("valid");
        let mut m2 = TinyLm::new(&arch(), &mut Pcg32::seed(1)).expect("valid");
        let l1 = train(&mut m1, &data, &cfg).expect("ok");
        let l2 = train(&mut m2, &data, &cfg).expect("ok");
        assert_eq!(l1, l2);
        assert!(m1
            .to_checkpoint()
            .expect("ok")
            .approx_eq(&m2.to_checkpoint().expect("ok"), 0.0));
    }

    #[test]
    fn empty_dataset_and_bad_config_rejected() {
        let mut model = TinyLm::new(&arch(), &mut Pcg32::seed(1)).expect("valid");
        assert!(train(&mut model, &[], &TrainConfig::default()).is_err());
        let cfg = TrainConfig {
            steps: 0,
            ..TrainConfig::default()
        };
        let data = vec![Example::pretrain(vec![1, 2])];
        assert!(train(&mut model, &data, &cfg).is_err());
    }
}
