//! ROUGE-L: longest-common-subsequence overlap scoring.
//!
//! The paper follows Pu et al. in reporting ROUGE-L on the OpenROAD QA
//! benchmark, and found it more representative than BLEU or UniEval for
//! this task. Scores here use the standard sentence-level formulation with
//! the conventional F-measure (`β = 1.2`, recall-weighted, matching the
//! original ROUGE package).

use crate::text::{lcs_length, tokenize};

/// A ROUGE-L score triple.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RougeScore {
    /// LCS length over candidate length.
    pub(crate) precision: f64,
    /// LCS length over reference length.
    pub(crate) recall: f64,
    /// Weighted F-measure (β = 1.2, as in the ROUGE package).
    pub f1: f64,
}

const BETA: f64 = 1.2;

/// Computes ROUGE-L between a candidate and a reference text.
///
/// Both texts are word-tokenized and lowercased. Empty candidate or
/// reference yields an all-zero score.
///
/// # Example
///
/// ```
/// use chipalign_eval::rouge::rouge_l;
///
/// let exact = rouge_l("select the setup tab", "select the setup tab");
/// assert!((exact.f1 - 1.0).abs() < 1e-9);
/// let miss = rouge_l("completely unrelated words", "select the setup tab");
/// assert_eq!(miss.f1, 0.0);
/// ```
#[must_use]
pub fn rouge_l(candidate: &str, reference: &str) -> RougeScore {
    let cand = tokenize(candidate);
    let refr = tokenize(reference);
    if cand.is_empty() || refr.is_empty() {
        return RougeScore::default();
    }
    let lcs = lcs_length(&cand, &refr) as f64;
    let precision = lcs / cand.len() as f64;
    let recall = lcs / refr.len() as f64;
    let f1 = if precision + recall == 0.0 {
        0.0
    } else {
        let b2 = BETA * BETA;
        (1.0 + b2) * precision * recall / (recall + b2 * precision)
    };
    RougeScore {
        precision,
        recall,
        f1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_texts_score_one() {
        let s = rouge_l("a b c d", "a b c d");
        assert!((s.precision - 1.0).abs() < 1e-12);
        assert!((s.recall - 1.0).abs() < 1e-12);
        assert!((s.f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_texts_score_zero() {
        let s = rouge_l("alpha beta", "gamma delta");
        assert_eq!(s.f1, 0.0);
    }

    #[test]
    fn empty_inputs_score_zero() {
        assert_eq!(rouge_l("", "reference").f1, 0.0);
        assert_eq!(rouge_l("candidate", "").f1, 0.0);
    }

    #[test]
    fn subsequence_not_substring() {
        // "a c" is a subsequence of "a b c": LCS = 2.
        let s = rouge_l("a c", "a b c");
        assert!((s.precision - 1.0).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn case_and_punctuation_insensitive() {
        let a = rouge_l("Click the Icon!", "click the icon");
        assert!((a.f1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn f_measure_weights_recall() {
        // precision 1.0, recall 0.5: with β=1.2 the F-measure leans toward
        // recall, so it must be below the harmonic mean (β=1) value of 2/3.
        let s = rouge_l("a b", "a b c d");
        let harmonic = 2.0 * s.precision * s.recall / (s.precision + s.recall);
        assert!(s.f1 < harmonic + 1e-12);
        assert!(s.f1 > s.recall);
    }

    #[test]
    fn longer_overlap_scores_higher() {
        let reference = "navigate to timing report and select setup tab";
        let good = rouge_l(
            "navigate to timing report then select the setup tab",
            reference,
        );
        let weak = rouge_l("open the gui and click around", reference);
        assert!(good.f1 > weak.f1 + 0.3);
    }
}
