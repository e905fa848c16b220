//! Prompt-masked causal cross-entropy.
//!
//! Training examples are `(tokens, mask)` pairs: the model predicts token
//! `t+1` from positions `0..=t`, and position `t` contributes to the loss
//! only when `mask[t+1]` is set. SFT examples mask out the prompt so that
//! only completion tokens are trained — the paper's DAFT objective.

use chipalign_tensor::ops;
use chipalign_tensor::Matrix;

use crate::NnError;

/// The result of a loss computation: the scalar loss and the gradient with
/// respect to the logits (ready for [`crate::TinyLm::backward`]).
#[derive(Debug, Clone)]
pub struct LossResult {
    /// Mean negative log-likelihood over the unmasked target positions.
    pub loss: f32,
    /// `∂loss/∂logits`, shape `(seq × vocab)`.
    pub dlogits: Matrix,
}

/// Computes masked next-token cross-entropy and its gradient.
///
/// `logits` has shape `(seq × vocab)`; position `t` predicts `tokens[t+1]`.
/// `target_mask[t]` says whether token `t` counts as a *target* (so position
/// `t−1` is trained). `target_mask` must have the same length as `tokens`;
/// index 0 is ignored (nothing predicts the first token).
///
/// # Errors
///
/// Returns [`NnError::BadSequence`] if shapes disagree or no position is
/// unmasked.
pub fn masked_cross_entropy(
    logits: &Matrix,
    tokens: &[u32],
    target_mask: &[bool],
) -> Result<LossResult, NnError> {
    let seq = tokens.len();
    if logits.rows() != seq || target_mask.len() != seq {
        return Err(NnError::BadSequence {
            detail: format!(
                "logits rows {}, tokens {}, mask {} must agree",
                logits.rows(),
                seq,
                target_mask.len()
            ),
        });
    }
    let vocab = logits.cols();
    let mut dlogits = Matrix::zeros(seq, vocab);
    let mut total = 0.0f64;
    let mut count = 0usize;

    for t in 0..seq.saturating_sub(1) {
        if !target_mask[t + 1] {
            continue;
        }
        let target = tokens[t + 1] as usize;
        if target >= vocab {
            return Err(NnError::BadToken {
                id: tokens[t + 1],
                vocab,
            });
        }
        let row = logits.row(t);
        let lse = ops::logsumexp(row);
        total += f64::from(lse - row[target]);
        // dlogits = softmax(row); dlogits[target] -= 1 (scaled later).
        let mut probs = row.to_vec();
        ops::softmax_inplace(&mut probs);
        probs[target] -= 1.0;
        dlogits.row_mut(t).copy_from_slice(&probs);
        count += 1;
    }

    if count == 0 {
        return Err(NnError::BadSequence {
            detail: "no unmasked target positions".into(),
        });
    }
    let scale = 1.0 / count as f32;
    dlogits.scale_inplace(scale);
    Ok(LossResult {
        loss: (total / count as f64) as f32,
        dlogits,
    })
}

/// Convenience: cross-entropy with every position unmasked (pretraining).
///
/// # Errors
///
/// Same contract as [`masked_cross_entropy`].
pub fn cross_entropy(logits: &Matrix, tokens: &[u32]) -> Result<LossResult, NnError> {
    masked_cross_entropy(logits, tokens, &vec![true; tokens.len()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_tensor::rng::Pcg32;

    #[test]
    fn uniform_logits_give_log_vocab() {
        let logits = Matrix::zeros(3, 10);
        let result = cross_entropy(&logits, &[1, 2, 3]).expect("ok");
        assert!((result.loss - (10.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let mut logits = Matrix::zeros(2, 5);
        logits.set(0, 3, 20.0).expect("in range"); // predicts token 3
        let result = cross_entropy(&logits, &[0, 3]).expect("ok");
        assert!(result.loss < 1e-3, "loss was {}", result.loss);
    }

    #[test]
    fn confident_wrong_prediction_has_high_loss() {
        let mut logits = Matrix::zeros(2, 5);
        logits.set(0, 1, 20.0).expect("in range"); // predicts 1, target is 3
        let result = cross_entropy(&logits, &[0, 3]).expect("ok");
        assert!(result.loss > 10.0);
    }

    #[test]
    fn mask_excludes_prompt_positions() {
        let mut rng = Pcg32::seed(1);
        let logits = Matrix::randn(4, 6, 1.0, &mut rng);
        let tokens = [0u32, 1, 2, 3];
        // Only token 3 (position 3) is a target -> only position 2 trains.
        let mask = [false, false, false, true];
        let result = masked_cross_entropy(&logits, &tokens, &mask).expect("ok");
        // Gradient must be zero except at row 2.
        for r in [0usize, 1, 3] {
            let norm: f32 = result.dlogits.row(r).iter().map(|v| v * v).sum();
            assert_eq!(norm, 0.0, "row {r} should have no gradient");
        }
        let norm2: f32 = result.dlogits.row(2).iter().map(|v| v * v).sum();
        assert!(norm2 > 0.0);
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        // softmax minus one-hot always sums to zero per row.
        let mut rng = Pcg32::seed(2);
        let logits = Matrix::randn(5, 8, 1.0, &mut rng);
        let tokens = [1u32, 2, 3, 4, 5];
        let result = cross_entropy(&logits, &tokens).expect("ok");
        for r in 0..4 {
            let sum: f32 = result.dlogits.row(r).iter().sum();
            assert!(sum.abs() < 1e-5, "row {r} sums to {sum}");
        }
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = Pcg32::seed(3);
        let logits = Matrix::randn(3, 5, 1.0, &mut rng);
        let tokens = [0u32, 2, 4];
        let result = cross_entropy(&logits, &tokens).expect("ok");
        let h = 1e-3;
        for r in 0..2 {
            for c in 0..5 {
                let mut lp = logits.clone();
                let mut lm = logits.clone();
                lp.row_mut(r)[c] += h;
                lm.row_mut(r)[c] -= h;
                let fp = cross_entropy(&lp, &tokens).expect("ok").loss;
                let fm = cross_entropy(&lm, &tokens).expect("ok").loss;
                let fd = (fp - fm) / (2.0 * h);
                let an = result.dlogits.get(r, c).expect("in range");
                assert!(
                    (fd - an).abs() < 1e-2,
                    "dlogits[{r}][{c}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn all_masked_is_an_error() {
        let logits = Matrix::zeros(3, 4);
        let err = masked_cross_entropy(&logits, &[0, 1, 2], &[false; 3]);
        assert!(matches!(err, Err(NnError::BadSequence { .. })));
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let logits = Matrix::zeros(3, 4);
        assert!(masked_cross_entropy(&logits, &[0, 1], &[true, true]).is_err());
        assert!(masked_cross_entropy(&logits, &[0, 1, 2], &[true; 2]).is_err());
    }

    #[test]
    fn out_of_vocab_target_is_an_error() {
        let logits = Matrix::zeros(2, 4);
        assert!(matches!(
            cross_entropy(&logits, &[0, 9]),
            Err(NnError::BadToken { .. })
        ));
    }
}
