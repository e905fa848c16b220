//! The IFEval-style benchmark (paper Table 3).
//!
//! 541 prompts — the size of the original IFEval — each carrying one or two
//! verifiable format directives over general (non-chip) content. Responses
//! are verified with `chipalign-eval`'s strict and loose checkers and
//! aggregated at prompt and instruction level.

use chipalign_eval::ifeval::Instruction;
use chipalign_tensor::rng::Pcg32;

use crate::corpus::{general_sentence, GENERAL_QA};
use crate::prompt::format_prompt;
use crate::tags::FormatTag;

/// Number of prompts, matching IFEval.
pub(crate) const NUM_PROMPTS: usize = 541;

/// Fraction of prompts carrying two directives instead of one.
const TWO_TAG_FRACTION: f32 = 0.2;

/// One benchmark prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct IfEvalPrompt {
    /// The rendered prompt.
    pub prompt: String,
    /// The format directives it carries (1 or 2).
    pub(crate) tags: Vec<FormatTag>,
    /// The corresponding verifiable checkers.
    pub instructions: Vec<Instruction>,
    /// A reference answer that satisfies all directives (not used for
    /// scoring — IFEval scores by checker — but useful for debugging).
    pub reference: String,
}

/// Generates the 541-prompt benchmark deterministically.
#[must_use]
pub fn generate(seed: u64) -> Vec<IfEvalPrompt> {
    let mut rng = Pcg32::seed(seed);
    let mut prompts = Vec::with_capacity(NUM_PROMPTS);
    for _ in 0..NUM_PROMPTS {
        let mut tags = vec![FormatTag::sample(&mut rng)];
        if rng.chance(TWO_TAG_FRACTION) {
            // Add a compatible second tag: one content tag plus one surface
            // tag, so both constraints are simultaneously satisfiable.
            let second = match tags[0] {
                // Surface first tag -> add a content tag.
                FormatTag::Upper | FormatTag::Lower | FormatTag::Quote => {
                    FormatTag::sample_content(&mut rng)
                }
                // Content first tag -> add a surface tag.
                _ => match rng.below(3) {
                    0 => FormatTag::Upper,
                    1 => FormatTag::Lower,
                    _ => FormatTag::Quote,
                },
            };
            tags.push(second);
        }
        // Canonical application order: content transforms before surface
        // transforms, so e.g. [UP][END] yields "... DONE".
        let mut ordered = tags.clone();
        ordered.sort_by_key(|t| match t {
            FormatTag::Pre | FormatTag::End | FormatTag::Key(_) => 0,
            _ => 1,
        });

        let (prompt, mut reference) = if rng.chance(0.5) {
            let sentence = general_sentence(&mut rng);
            (format_prompt(&sentence, "say it", &tags), sentence)
        } else {
            let (q, a) = rng.choose(GENERAL_QA);
            (format_prompt("", q, &tags), (*a).to_string())
        };
        for tag in &ordered {
            reference = tag.apply(&reference);
        }
        let instructions = tags.iter().map(FormatTag::instruction).collect();
        prompts.push(IfEvalPrompt {
            prompt,
            tags,
            instructions,
            reference,
        });
    }
    prompts
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_eval::ifeval::PromptVerdict;

    #[test]
    fn generates_541_prompts() {
        let prompts = generate(11);
        assert_eq!(prompts.len(), NUM_PROMPTS);
    }

    #[test]
    fn references_satisfy_all_instructions() {
        // The benchmark must be *satisfiable*: the reference answer passes
        // every checker on its prompt.
        for p in generate(11) {
            let verdict = PromptVerdict::of(&p.instructions, &p.reference);
            assert!(
                verdict.strict.iter().all(|&b| b),
                "reference violates instructions: {p:?} -> {verdict:?}"
            );
        }
    }

    #[test]
    fn tag_and_instruction_counts_match() {
        for p in generate(11) {
            assert_eq!(p.tags.len(), p.instructions.len());
            assert!((1..=2).contains(&p.tags.len()));
            for tag in &p.tags {
                assert!(p.prompt.contains(&tag.tag_str()));
            }
        }
    }

    #[test]
    fn roughly_one_fifth_have_two_tags() {
        let prompts = generate(11);
        let two = prompts.iter().filter(|p| p.tags.len() == 2).count();
        assert!(
            (70..=150).contains(&two),
            "two-tag share should be ~108/541, got {two}"
        );
    }

    #[test]
    fn two_tag_prompts_mix_content_and_surface() {
        for p in generate(11) {
            if p.tags.len() == 2 {
                let content = p
                    .tags
                    .iter()
                    .filter(|t| matches!(t, FormatTag::Pre | FormatTag::End | FormatTag::Key(_)))
                    .count();
                assert_eq!(content, 1, "exactly one content tag expected: {:?}", p.tags);
            }
        }
    }

    #[test]
    fn prompts_fit_context_window() {
        for p in generate(11) {
            let total = p.prompt.len() + p.reference.len() + 2;
            assert!(total <= 240, "prompt too long ({total}): {p:?}");
        }
    }

    #[test]
    fn deterministic_generation() {
        assert_eq!(generate(3), generate(3));
        assert_ne!(generate(3), generate(4));
    }
}
