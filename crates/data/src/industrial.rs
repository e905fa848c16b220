//! The industrial chip QA benchmark (paper Table 2).
//!
//! 39 practical engineer questions over the redacted-style internal world,
//! split across ARCH / BUILD / LSF / TESTGEN, each with a follow-up
//! question for the multi-turn setting. Prompts carry the context retrieved
//! for the question plus format directives (the paper's prompts include
//! explicit instructions such as "answer only from the context chunks");
//! responses are graded by the deterministic rubric grader.

use chipalign_tensor::rng::Pcg32;

use crate::facts::{industrial_facts, IndustrialCategory};
use crate::prompt::{format_followup, format_prompt};
use crate::tags::FormatTag;

/// Number of questions, matching the paper.
pub(crate) const NUM_QUESTIONS: usize = 39;

/// One benchmark question with its follow-up turn.
#[derive(Debug, Clone, PartialEq)]
pub struct IndustrialQuestion {
    /// Category (Table 2 column).
    pub category: IndustrialCategory,
    /// Retrieved context (the grounding documentation).
    pub context: String,
    /// First-turn question.
    pub question: String,
    /// First-turn format directives.
    pub tags: Vec<FormatTag>,
    /// First-turn golden answer (directives applied).
    pub golden: String,
    /// Follow-up question (multi-turn setting).
    pub followup_question: String,
    /// Follow-up golden answer (plain; the follow-up carries no tag so the
    /// turn fits the context window).
    pub followup_golden: String,
}

impl IndustrialQuestion {
    /// The single-turn prompt.
    #[must_use]
    pub fn prompt(&self) -> String {
        format_prompt(&self.context, &self.question, &self.tags)
    }

    /// The multi-turn prompt: first turn replayed with `first_answer`
    /// (normally the model's own first response), then the follow-up cue.
    #[must_use]
    pub fn followup_prompt(&self, first_answer: &str) -> String {
        format_followup(&self.prompt(), first_answer, &self.followup_question, &[])
    }
}

/// The generated benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct IndustrialBenchmark {
    /// The 39 questions.
    pub questions: Vec<IndustrialQuestion>,
}

impl IndustrialBenchmark {
    /// Generates the benchmark deterministically from a seed.
    ///
    /// 39 of the 40 industrial facts are used (one TESTGEN fact dropped, so
    /// the categories split 10/10/10/9 as in the paper's uneven 39).
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let facts = industrial_facts();
        let mut rng = Pcg32::seed(seed);
        let content_tags = FormatTag::content_tags();
        let mut questions = Vec::with_capacity(NUM_QUESTIONS);
        // Drop the last TESTGEN fact deterministically.
        let mut dropped_testgen = false;
        for fact in facts.iter().rev() {
            if !dropped_testgen && fact.category == IndustrialCategory::Testgen {
                dropped_testgen = true;
                continue;
            }
            let tag = content_tags[rng.below(content_tags.len())].clone();
            questions.push(IndustrialQuestion {
                category: fact.category,
                context: fact.doc.clone(),
                question: fact.question.clone(),
                golden: tag.apply(&fact.answer),
                tags: vec![tag],
                followup_question: fact.followup.0.clone(),
                followup_golden: fact.followup.1.clone(),
            });
        }
        questions.reverse();
        IndustrialBenchmark { questions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_nine_questions_with_paper_split() {
        let bench = IndustrialBenchmark::generate(7);
        assert_eq!(bench.questions.len(), NUM_QUESTIONS);
        let count = |c| bench.questions.iter().filter(|q| q.category == c).count();
        assert_eq!(count(IndustrialCategory::Arch), 10);
        assert_eq!(count(IndustrialCategory::Build), 10);
        assert_eq!(count(IndustrialCategory::Lsf), 10);
        assert_eq!(count(IndustrialCategory::Testgen), 9);
    }

    #[test]
    fn goldens_obey_directives_and_are_grounded() {
        let bench = IndustrialBenchmark::generate(7);
        for q in &bench.questions {
            for tag in &q.tags {
                assert!(
                    tag.instruction().check_strict(&q.golden),
                    "golden violates {tag:?}: {}",
                    q.golden
                );
            }
            assert!(
                q.context.contains(&q.followup_golden),
                "follow-up must be grounded: {q:?}"
            );
        }
    }

    #[test]
    fn single_turn_prompt_shape() {
        let bench = IndustrialBenchmark::generate(7);
        let q = &bench.questions[0];
        let p = q.prompt();
        assert!(p.starts_with("C:"));
        assert!(p.contains(&q.question));
        assert!(p.ends_with("A:"));
    }

    #[test]
    fn multi_turn_prompt_replays_history() {
        let bench = IndustrialBenchmark::generate(7);
        let q = &bench.questions[0];
        let p2 = q.followup_prompt("first answer text");
        assert!(p2.starts_with(&q.prompt()));
        assert!(p2.contains("first answer text;"));
        assert!(p2.contains(&q.followup_question));
        assert!(p2.ends_with("A:"));
    }

    #[test]
    fn multi_turn_fits_context_window() {
        let bench = IndustrialBenchmark::generate(7);
        for q in &bench.questions {
            // Budget the first answer at its golden length.
            let total = q.followup_prompt(&q.golden).len() + q.followup_golden.len() + 2;
            assert!(total <= 250, "multi-turn too long ({total}): {q:?}");
        }
    }

    #[test]
    fn deterministic_generation() {
        assert_eq!(
            IndustrialBenchmark::generate(1),
            IndustrialBenchmark::generate(1)
        );
    }
}
