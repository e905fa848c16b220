//! Supervised-finetuning (DAFT) datasets.
//!
//! Two finetunes define the capability split the paper merges back
//! together:
//!
//! * [`instruct_sft`] — the *instruction* dataset: general content (copy
//!   tasks and generic QA), always carrying a format tag the completion
//!   obeys. The specialist trained here follows directives but knows no
//!   chip facts.
//! * [`chip_sft`] — the *chip* dataset: retrieval-augmented triplets
//!   (fact document as context, fact question, plain answer) with **no
//!   tags**, mirroring the paper's retrieval-augmented DAFT. Finetuning the
//!   instruction model on this data erodes its tag-following — the
//!   instruction-alignment loss the paper observes in domain-adapted
//!   models.
//!
//! `tag_fraction` on [`chip_sft`] controls how much tagged data leaks into
//! the chip finetune (the paper notes ChipNeMo retained *some*
//! instructional knowledge from OASST data in its DAFT blend).

use chipalign_tensor::rng::Pcg32;

use crate::corpus::GENERAL_QA;
use crate::facts::Fact;
use crate::prompt::format_prompt;
use crate::tags::FormatTag;

/// One SFT pair in text form; the pipeline tokenizes it (prompt masked,
/// completion + `<eos>` trained).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SftPair {
    /// The full prompt, ending in the answer cue.
    pub prompt: String,
    /// The target completion (without `<eos>`; the tokenizer appends it).
    pub completion: String,
}

/// Fraction of instruction-SFT examples left untagged so the instruct
/// model keeps the base's plain-answer behaviour (real chat models answer
/// fine without explicit directives too).
const UNTAGGED_FRACTION: f32 = 0.25;

/// Generates the instruction-following SFT dataset.
///
/// Tagged examples (75%) span the three grammar modes — extraction QA,
/// context copy, and generic QA — with the completion obeying the tag.
/// The remaining 25% are the same modes untagged, which anchors the
/// instruct model to the base's behaviour (keeping its weight delta small;
/// see `chipalign_data::corpus::extraction_qa`).
#[must_use]
pub fn instruct_sft(n: usize, rng: &mut Pcg32) -> Vec<SftPair> {
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let tags: Vec<FormatTag> = if rng.chance(UNTAGGED_FRACTION) {
            Vec::new()
        } else {
            vec![FormatTag::sample(rng)]
        };
        let apply = |answer: &str| -> String {
            tags.iter().fold(answer.to_string(), |acc, t| t.apply(&acc))
        };
        let roll = rng.uniform();
        if roll < 0.4 {
            // Extraction QA with format: the benchmark condition.
            let (ctx, q, a) = crate::corpus::extraction_qa(rng);
            pairs.push(SftPair {
                prompt: format_prompt(&ctx, &q, &tags),
                completion: apply(&a),
            });
        } else if roll < 0.7 {
            // Copy-with-format: answer restates the context per the tag.
            let sentence = crate::corpus::copy_sentence(rng);
            pairs.push(SftPair {
                prompt: format_prompt(&sentence, "say it", &tags),
                completion: apply(&sentence),
            });
        } else {
            let (q, a) = rng.choose(GENERAL_QA);
            pairs.push(SftPair {
                prompt: format_prompt("", q, &tags),
                completion: apply(a),
            });
        }
    }
    pairs
}

/// Generates the chip DAFT dataset from a fact slice.
///
/// Each fact yields a retrieval-augmented example: the fact's documentation
/// sentence is the context and the plain answer the completion. A
/// `tag_fraction` of examples instead carries a format tag (with the
/// correspondingly formatted golden), modelling instruction data blended
/// into the chip finetune.
#[must_use]
pub fn chip_sft(facts: &[&Fact], n: usize, tag_fraction: f32, rng: &mut Pcg32) -> Vec<SftPair> {
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let fact = facts[rng.below(facts.len())];
        if rng.chance(tag_fraction) {
            let tag = FormatTag::sample(rng);
            pairs.push(SftPair {
                prompt: format_prompt(&fact.doc, &fact.question, std::slice::from_ref(&tag)),
                completion: tag.apply(&fact.answer),
            });
        } else {
            pairs.push(SftPair {
                prompt: format_prompt(&fact.doc, &fact.question, &[]),
                completion: fact.answer.clone(),
            });
        }
    }
    pairs
}

/// Generates a *contextless* chip SFT dataset (pure memorisation, used for
/// the DAPT-heavy "ChipNeMo"-style specialist that must answer without
/// retrieved context in the multi-choice benchmark).
#[must_use]
pub fn chip_sft_closed_book(facts: &[&Fact], n: usize, rng: &mut Pcg32) -> Vec<SftPair> {
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let fact = facts[rng.below(facts.len())];
        pairs.push(SftPair {
            prompt: format_prompt("", &fact.question, &[]),
            completion: fact.answer.clone(),
        });
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::openroad_facts;

    #[test]
    fn instruct_pairs_obey_their_tags() {
        let pairs = instruct_sft(200, &mut Pcg32::seed(1));
        assert_eq!(pairs.len(), 200);
        let mut tagged = 0usize;
        for p in &pairs {
            // Recover the tag from the prompt and verify the completion.
            let all = FormatTag::all();
            if let Some(tag) = all.iter().find(|t| p.prompt.contains(&t.tag_str())) {
                tagged += 1;
                assert!(
                    tag.instruction().check_strict(&p.completion),
                    "completion violates {tag:?}: {:?}",
                    p.completion
                );
            }
        }
        assert!(
            (120..=180).contains(&tagged),
            "expected ~75% tagged, got {tagged}/200"
        );
    }

    #[test]
    fn instruct_mixes_all_three_modes() {
        let pairs = instruct_sft(300, &mut Pcg32::seed(2));
        let copies = pairs
            .iter()
            .filter(|p| p.prompt.contains("Q:say it;"))
            .count();
        let extraction = pairs
            .iter()
            .filter(|p| p.prompt.starts_with("C:") && !p.prompt.contains("Q:say it;"))
            .count();
        let plain_qa = pairs.iter().filter(|p| p.prompt.starts_with("Q:")).count();
        assert!(copies > 50, "copy mode underrepresented: {copies}");
        assert!(
            extraction > 70,
            "extraction mode underrepresented: {extraction}"
        );
        assert!(plain_qa > 50, "generic QA underrepresented: {plain_qa}");
    }

    #[test]
    fn chip_pairs_are_grounded_and_untagged() {
        let facts = openroad_facts();
        let refs: Vec<&Fact> = facts.iter().collect();
        let pairs = chip_sft(&refs, 80, 0.0, &mut Pcg32::seed(3));
        use chipalign_eval::text::tokenize;
        for p in &pairs {
            assert!(p.prompt.starts_with("C:"), "context required: {}", p.prompt);
            assert!(!p.prompt.contains('['), "no tags expected: {}", p.prompt);
            // The completion's content is recoverable from the context
            // (docs are terse reference lines, answers assistant style).
            let prompt_tokens: std::collections::HashSet<String> =
                tokenize(&p.prompt).into_iter().collect();
            let completion_tokens = tokenize(&p.completion);
            let grounded = completion_tokens
                .iter()
                .filter(|t| prompt_tokens.contains(*t))
                .count();
            assert!(
                grounded * 10 >= completion_tokens.len() * 7,
                "answer poorly grounded: {p:?}"
            );
        }
    }

    #[test]
    fn tag_fraction_controls_tagged_share() {
        let facts = openroad_facts();
        let refs: Vec<&Fact> = facts.iter().collect();
        let pairs = chip_sft(&refs, 400, 0.25, &mut Pcg32::seed(4));
        let tagged = pairs.iter().filter(|p| p.prompt.contains('[')).count();
        assert!(
            (60..=140).contains(&tagged),
            "tagged share should be ~100/400, got {tagged}"
        );
    }

    #[test]
    fn closed_book_has_no_context() {
        let facts = openroad_facts();
        let refs: Vec<&Fact> = facts.iter().collect();
        let pairs = chip_sft_closed_book(&refs, 40, &mut Pcg32::seed(5));
        for p in &pairs {
            assert!(p.prompt.starts_with("Q:"));
            assert!(!p.prompt.contains("C:"));
        }
    }

    #[test]
    fn sequences_fit_the_pipeline_context() {
        // The pipeline architecture uses max_seq_len = 256: prompt +
        // completion + bos/eos must fit.
        let facts = openroad_facts();
        let refs: Vec<&Fact> = facts.iter().collect();
        let mut rng = Pcg32::seed(6);
        for p in instruct_sft(200, &mut rng)
            .into_iter()
            .chain(chip_sft(&refs, 200, 0.2, &mut rng))
        {
            let total = p.prompt.len() + p.completion.len() + 2;
            assert!(total <= 240, "sequence too long ({total}): {p:?}");
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = instruct_sft(30, &mut Pcg32::seed(7));
        let b = instruct_sft(30, &mut Pcg32::seed(7));
        assert_eq!(a, b);
    }
}
