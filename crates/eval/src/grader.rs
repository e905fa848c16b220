//! A deterministic rubric grader replacing the paper's GPT-4-aided judge.
//!
//! The paper's industrial chip QA benchmark (Table 2) is scored by GPT-4
//! comparing each response against the golden answer, assigning
//! `{0, 25, 50, 75, 100}`. This module reproduces the *rubric* with a
//! deterministic program:
//!
//! * **Content fidelity** — ROUGE-L F1 against the golden answer (does the
//!   response say the right thing?).
//! * **Grounding** — fraction of response content words present in the
//!   provided context (did the model answer from the context, as the
//!   instructions demand, or hallucinate?).
//! * **Instruction compliance** — fraction of prompt instructions followed
//!   (strict checking).
//!
//! The weighted composite is quantised to the same five-point scale. The
//! substitution trades judge flexibility for exact reproducibility; the
//! quantities graded are those Figure 6 of the paper shows the judge
//! rewarding and punishing.

use crate::ifeval::Instruction;
use crate::rouge::rouge_l;
use crate::text::tokenize;

/// One grading outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grade {
    /// Quantised score in `{0, 25, 50, 75, 100}`.
    pub score: u8,
    /// Content-fidelity component in `[0, 1]`.
    pub content: f64,
    /// Grounding component in `[0, 1]`.
    pub grounding: f64,
    /// Instruction-compliance component in `[0, 1]`.
    pub compliance: f64,
}

/// Rubric weights; the defaults emphasise content, as the paper's grader
/// compares against the golden answer first.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rubric {
    /// Weight of content fidelity.
    pub(crate) content_weight: f64,
    /// Weight of grounding in the provided context.
    pub(crate) grounding_weight: f64,
    /// Weight of instruction compliance.
    pub(crate) compliance_weight: f64,
}

impl Default for Rubric {
    fn default() -> Self {
        Rubric {
            content_weight: 0.6,
            grounding_weight: 0.2,
            compliance_weight: 0.2,
        }
    }
}

impl Rubric {
    /// Grades a response.
    ///
    /// `context` may be empty (no grounding requirement — the component is
    /// then scored 1), and `instructions` may be empty (compliance scored
    /// 1), so the grader degrades gracefully to pure content matching.
    ///
    /// # Example
    ///
    /// ```
    /// use chipalign_eval::grader::Rubric;
    ///
    /// let grade = Rubric::default().grade(
    ///     "use the -build option followed by the target name",
    ///     "use the -build option followed by the name of the target",
    ///     "ZZZ -build <target> builds the individual job",
    ///     &[],
    /// );
    /// assert!(grade.score >= 75);
    /// ```
    #[must_use]
    pub fn grade(
        &self,
        response: &str,
        golden: &str,
        context: &str,
        instructions: &[Instruction],
    ) -> Grade {
        let content = rouge_l(response, golden).f1;
        let grounding = if context.trim().is_empty() {
            1.0
        } else {
            grounding_fraction(response, context)
        };
        let compliance = if instructions.is_empty() {
            1.0
        } else {
            instructions
                .iter()
                .filter(|i| i.check_strict(response))
                .count() as f64
                / instructions.len() as f64
        };
        let total = self.content_weight + self.grounding_weight + self.compliance_weight;
        let composite = (self.content_weight * boost(content)
            + self.grounding_weight * grounding
            + self.compliance_weight * compliance)
            / total;
        Grade {
            score: quantise(composite),
            content,
            grounding,
            compliance,
        }
    }
}

/// Fraction of response content words that appear in the context.
fn grounding_fraction(response: &str, context: &str) -> f64 {
    let ctx: std::collections::HashSet<String> = tokenize(context).into_iter().collect();
    let words = tokenize(response);
    if words.is_empty() {
        return 0.0;
    }
    let grounded = words.iter().filter(|w| ctx.contains(*w)).count();
    grounded as f64 / words.len() as f64
}

/// Maps raw ROUGE-L F1 onto the judge's effective scale.
///
/// Human/GPT-4 judges saturate: a response capturing most of the golden
/// content reads as "correct" well below F1 = 1.0. The boost reflects that:
/// 0.6 F1 already grades near the top.
fn boost(f1: f64) -> f64 {
    (f1 / 0.6).min(1.0)
}

/// Quantises a `[0, 1]` composite onto `{0, 25, 50, 75, 100}`.
fn quantise(composite: f64) -> u8 {
    let c = composite.clamp(0.0, 1.0);
    if c >= 0.875 {
        100
    } else if c >= 0.625 {
        75
    } else if c >= 0.375 {
        50
    } else if c >= 0.125 {
        25
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_answer_scores_100() {
        let golden = "use the -build option followed by the target name";
        let grade = Rubric::default().grade(golden, golden, golden, &[]);
        assert_eq!(grade.score, 100);
    }

    #[test]
    fn unrelated_answer_scores_low() {
        let grade = Rubric::default().grade(
            "completely irrelevant chatter about lunch plans",
            "use the -build option followed by the target name",
            "ZZZ -build <target> builds the job",
            &[],
        );
        assert!(grade.score <= 25, "got {}", grade.score);
    }

    #[test]
    fn hallucination_hurts_grounding() {
        let golden = "use the -build option";
        let context = "ZZZ -build <target> builds the individual job";
        let grounded = Rubric::default().grade("use the -build option", golden, context, &[]);
        let hallucinated = Rubric::default().grade(
            "use the -build option and also purple elephants dance nightly",
            golden,
            context,
            &[],
        );
        assert!(grounded.grounding > hallucinated.grounding);
        assert!(grounded.score >= hallucinated.score);
    }

    #[test]
    fn instruction_violation_lowers_score() {
        let golden = "the answer is forty two";
        let instructions = vec![Instruction::AllLowercase];
        let obeys = Rubric::default().grade("the answer is forty two", golden, "", &instructions);
        let violates =
            Rubric::default().grade("THE ANSWER IS FORTY TWO", golden, "", &instructions);
        assert!(obeys.score > violates.score);
        assert_eq!(violates.compliance, 0.0);
    }

    #[test]
    fn quantisation_boundaries() {
        assert_eq!(quantise(1.0), 100);
        assert_eq!(quantise(0.9), 100);
        assert_eq!(quantise(0.7), 75);
        assert_eq!(quantise(0.5), 50);
        assert_eq!(quantise(0.2), 25);
        assert_eq!(quantise(0.05), 0);
        assert_eq!(quantise(-1.0), 0);
        assert_eq!(quantise(2.0), 100);
    }

    #[test]
    fn empty_context_and_instructions_are_neutral() {
        let grade = Rubric::default().grade("exact match", "exact match", "", &[]);
        assert_eq!(grade.grounding, 1.0);
        assert_eq!(grade.compliance, 1.0);
        assert_eq!(grade.score, 100);
    }

    #[test]
    fn grader_is_deterministic() {
        let r = Rubric::default();
        let a = r.grade("some answer", "golden answer", "context words", &[]);
        let b = r.grade("some answer", "golden answer", "context words", &[]);
        assert_eq!(a, b);
    }

    #[test]
    fn partial_match_lands_midscale() {
        let grade = Rubric::default().grade(
            "click the timing icon",
            "click on the timing icon in the toolbar to open the report window",
            "",
            &[],
        );
        assert!(
            grade.score >= 25 && grade.score <= 75,
            "got {}",
            grade.score
        );
    }
}
