//! Shared inference and scoring helpers used by every experiment runner.

use chipalign_data::prompt::extract_answer;
use chipalign_nn::generate::{generate, GenerateConfig};
use chipalign_nn::{score, CharTokenizer, TinyLm};

use crate::PipelineError;

/// Token id prepended to every sequence (matches training encoding).
const BOS: u32 = 1;

/// Maximum tokens a benchmark response may have.
const MAX_NEW_TOKENS: usize = 72;

/// Generates a temperature-0 response to a benchmark prompt and extracts
/// the answer text (everything before the grammar's turn separator).
///
/// All paper evaluations run at temperature 0 "for reproducibility"; the
/// same convention applies here.
///
/// # Errors
///
/// Propagates generation failures (over-long prompts and the like).
pub fn respond(model: &TinyLm, prompt: &str) -> Result<String, PipelineError> {
    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode(prompt));
    // Leave room for the response inside the context window.
    let max_prompt = model.arch().max_seq_len.saturating_sub(MAX_NEW_TOKENS);
    if ids.len() > max_prompt {
        let cut = ids.len() - max_prompt;
        ids.drain(1..1 + cut);
    }
    let cfg = GenerateConfig {
        max_new_tokens: MAX_NEW_TOKENS,
        temperature: 0.0,
        top_k: 0,
        top_p: 1.0,
        stop_at_eos: true,
        seed: 0,
    };
    let new_tokens = generate(model, &ids, &cfg)?;
    Ok(extract_answer(&tok.decode(&new_tokens)))
}

/// Scores a multiple-choice item by length-normalised answer
/// log-likelihood and returns the chosen index.
///
/// # Errors
///
/// Propagates scoring failures.
pub(crate) fn choose_option(
    model: &TinyLm,
    prompt: &str,
    choices: &[String],
) -> Result<usize, PipelineError> {
    let tok = CharTokenizer::new();
    let mut prompt_ids = vec![BOS];
    prompt_ids.extend(tok.encode(prompt));
    let choice_ids: Vec<Vec<u32>> = choices.iter().map(|c| tok.encode(c)).collect();
    let (best, _) = score::choose(model, &prompt_ids, &choice_ids, true)?;
    Ok(best)
}

/// Mean of a slice of `f64` (0 for empty input).
#[must_use]
pub(crate) fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn model() -> TinyLm {
        let mut arch = ArchSpec::tiny("evalkit");
        arch.vocab_size = 99;
        arch.max_seq_len = 128;
        TinyLm::new(&arch, &mut Pcg32::seed(1)).expect("valid")
    }

    #[test]
    fn respond_returns_printable_text() {
        let m = model();
        let out = respond(&m, "Q:hello?;A:").expect("ok");
        assert!(out.len() <= MAX_NEW_TOKENS);
        assert!(!out.contains(';'), "answer extraction must cut at ';'");
    }

    #[test]
    fn respond_truncates_over_long_prompts() {
        let m = model(); // max_seq_len 128
        let long_prompt = "x".repeat(400);
        let out = respond(&m, &long_prompt);
        assert!(out.is_ok(), "long prompts must be window-trimmed: {out:?}");
    }

    #[test]
    fn respond_is_deterministic() {
        let m = model();
        let a = respond(&m, "Q:abc?;A:").expect("ok");
        let b = respond(&m, "Q:abc?;A:").expect("ok");
        assert_eq!(a, b);
    }

    #[test]
    fn choose_option_returns_valid_index() {
        let m = model();
        let choices = vec!["first".to_string(), "second".to_string()];
        let idx = choose_option(&m, "Q:pick?;A:", &choices).expect("ok");
        assert!(idx < 2);
    }

    #[test]
    fn mean_math() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
