//! Likelihood scoring for multiple-choice evaluation.
//!
//! The ChipNeMo-style multi-choice chip QA benchmark (paper Figure 7)
//! contains no instructions: the model is scored by which answer option it
//! assigns the highest likelihood. This module computes the (optionally
//! length-normalised) log-probability a model assigns to a continuation
//! given a prompt, and the induced argmax choice.

use chipalign_tensor::ops;

use crate::model::TinyLm;
use crate::NnError;

/// Log-probability that `model` continues `prompt` with `continuation`
/// (natural log, summed over continuation tokens).
///
/// # Errors
///
/// Returns [`NnError::BadSequence`] for empty inputs or a combined sequence
/// longer than the context window, and [`NnError::BadToken`] for
/// out-of-vocabulary ids.
pub(crate) fn continuation_logprob(
    model: &TinyLm,
    prompt: &[u32],
    continuation: &[u32],
) -> Result<f64, NnError> {
    if prompt.is_empty() || continuation.is_empty() {
        return Err(NnError::BadSequence {
            detail: "prompt and continuation must be non-empty".into(),
        });
    }
    let mut full = prompt.to_vec();
    full.extend_from_slice(continuation);
    let logits = model.logits(&full)?;
    let mut total = 0.0f64;
    for (i, &tok) in continuation.iter().enumerate() {
        // Position prompt.len()-1+i predicts continuation[i].
        let row = logits.row(prompt.len() - 1 + i);
        let lse = ops::logsumexp(row);
        total += f64::from(row[tok as usize] - lse);
    }
    Ok(total)
}

/// Scores each choice and returns `(best_index, scores)`.
///
/// With `length_normalize`, each score is divided by the choice's token
/// count, removing the bias toward short answers.
///
/// # Errors
///
/// Returns [`NnError::BadSequence`] for an empty choice list and forwards
/// scoring failures.
pub fn choose(
    model: &TinyLm,
    prompt: &[u32],
    choices: &[Vec<u32>],
    length_normalize: bool,
) -> Result<(usize, Vec<f64>), NnError> {
    if choices.is_empty() {
        return Err(NnError::BadSequence {
            detail: "at least one choice is required".into(),
        });
    }
    let mut scores = Vec::with_capacity(choices.len());
    for choice in choices {
        let lp = continuation_logprob(model, prompt, choice)?;
        let score = if length_normalize {
            lp / choice.len() as f64
        } else {
            lp
        };
        scores.push(score);
    }
    let best = scores
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .expect("non-empty");
    Ok((best, scores))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, Example, TrainConfig};
    use crate::AdamConfig;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::tiny("score");
        a.vocab_size = 99;
        a
    }

    fn model_trained_on(seq: &[u32]) -> TinyLm {
        let mut model = TinyLm::new(&arch(), &mut Pcg32::seed(41)).expect("valid");
        let data = vec![Example::pretrain(seq.to_vec())];
        let cfg = TrainConfig {
            steps: 80,
            batch_size: 2,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            seed: 8,
        };
        train(&mut model, &data, &cfg).expect("ok");
        model
    }

    #[test]
    fn logprob_is_negative_and_finite() {
        let model = model_trained_on(&[10, 20, 30, 40]);
        let lp = continuation_logprob(&model, &[10, 20], &[30, 40]).expect("ok");
        assert!(lp < 0.0 && lp.is_finite());
    }

    #[test]
    fn memorized_continuation_beats_random() {
        let seq = [10u32, 20, 30, 40, 50, 60];
        let model = model_trained_on(&seq);
        let good = continuation_logprob(&model, &seq[..3], &seq[3..]).expect("ok");
        let bad = continuation_logprob(&model, &seq[..3], &[77, 88, 91]).expect("ok");
        assert!(
            good > bad + 1.0,
            "trained continuation {good} should beat random {bad}"
        );
    }

    #[test]
    fn choose_picks_memorized_answer() {
        let seq = [10u32, 20, 30, 40, 50, 60];
        let model = model_trained_on(&seq);
        let choices = vec![vec![77, 88, 91], seq[3..].to_vec(), vec![5, 6, 7]];
        let (best, scores) = choose(&model, &seq[..3], &choices, true).expect("ok");
        assert_eq!(best, 1, "scores were {scores:?}");
        assert_eq!(scores.len(), 3);
    }

    #[test]
    fn length_normalization_changes_scale() {
        let model = model_trained_on(&[10, 20, 30, 40]);
        let (_, raw) = choose(&model, &[10, 20], &[vec![30, 40]], false).expect("ok");
        let (_, norm) = choose(&model, &[10, 20], &[vec![30, 40]], true).expect("ok");
        assert!((raw[0] / 2.0 - norm[0]).abs() < 1e-9);
    }

    #[test]
    fn additivity_of_logprob() {
        // log p(ab | prompt) = log p(a | prompt) + log p(b | prompt+a)
        let model = model_trained_on(&[10, 20, 30, 40, 50]);
        let joint = continuation_logprob(&model, &[10, 20], &[30, 40]).expect("ok");
        let first = continuation_logprob(&model, &[10, 20], &[30]).expect("ok");
        let second = continuation_logprob(&model, &[10, 20, 30], &[40]).expect("ok");
        assert!(
            (joint - (first + second)).abs() < 1e-4,
            "chain rule violated: {joint} vs {}",
            first + second
        );
    }

    #[test]
    fn empty_inputs_rejected() {
        let model = model_trained_on(&[10, 20, 30]);
        assert!(continuation_logprob(&model, &[], &[1]).is_err());
        assert!(continuation_logprob(&model, &[1], &[]).is_err());
        assert!(choose(&model, &[1], &[], true).is_err());
    }
}
