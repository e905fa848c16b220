//! The multi-choice chip QA benchmark (paper Figure 7).
//!
//! ChipNeMo's in-house evaluation poses instruction-free multiple-choice
//! questions over three domains — EDA scripts, bugs, and circuits. Each
//! item here pairs a fact question with the true answer and three
//! same-domain distractors; models are scored by length-normalised answer
//! log-likelihood (`chipalign_nn::score::choose`).

use chipalign_tensor::rng::Pcg32;

use crate::facts::{openroad_facts, Domain};
use crate::prompt::format_prompt;

/// Domains evaluated in Figure 7.
pub const DOMAINS: [Domain; 3] = [Domain::EdaScripts, Domain::Bugs, Domain::Circuits];

/// One multiple-choice item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiChoiceItem {
    /// The fact domain.
    pub domain: Domain,
    /// The prompt (question only, no context, no directives).
    pub prompt: String,
    /// Four answer options.
    pub choices: Vec<String>,
    /// Index of the correct option.
    pub correct: usize,
}

/// Generates the benchmark: one item per fact in each Figure-7 domain.
#[must_use]
pub fn generate(seed: u64) -> Vec<MultiChoiceItem> {
    let facts = openroad_facts();
    let mut rng = Pcg32::seed(seed);
    let mut items = Vec::new();
    for domain in DOMAINS {
        let domain_facts: Vec<_> = facts.iter().filter(|f| f.domain == domain).collect();
        for (i, fact) in domain_facts.iter().enumerate() {
            // Three distinct same-domain distractors.
            let mut distractor_ids: Vec<usize> =
                (0..domain_facts.len()).filter(|&j| j != i).collect();
            rng.shuffle(&mut distractor_ids);
            let mut choices: Vec<String> = distractor_ids[..3]
                .iter()
                .map(|&j| domain_facts[j].answer.clone())
                .collect();
            let correct_pos = rng.below(4);
            choices.insert(correct_pos, fact.answer.clone());
            items.push(MultiChoiceItem {
                domain,
                prompt: format_prompt("", &fact.question, &[]),
                choices,
                correct: correct_pos,
            });
        }
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_item_per_fact_in_figure7_domains() {
        let items = generate(9);
        assert_eq!(items.len(), 16 + 12 + 12);
        for d in DOMAINS {
            assert!(items.iter().any(|i| i.domain == d));
        }
    }

    #[test]
    fn four_distinct_choices_with_correct_inside() {
        for item in generate(9) {
            assert_eq!(item.choices.len(), 4);
            assert!(item.correct < 4);
            let mut sorted = item.choices.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "choices must be distinct: {item:?}");
        }
    }

    #[test]
    fn correct_choice_answers_the_question() {
        let facts = openroad_facts();
        for item in generate(9) {
            let answer = &item.choices[item.correct];
            assert!(
                facts
                    .iter()
                    .any(|f| item.prompt.contains(&f.question) && &f.answer == answer),
                "correct option must be the fact's answer: {item:?}"
            );
        }
    }

    #[test]
    fn correct_positions_are_spread() {
        let items = generate(9);
        let mut counts = [0usize; 4];
        for item in &items {
            counts[item.correct] += 1;
        }
        for (pos, c) in counts.iter().enumerate() {
            assert!(*c > 0, "position {pos} never correct — scoring bias risk");
        }
    }

    #[test]
    fn prompts_are_contextless() {
        for item in generate(9) {
            assert!(item.prompt.starts_with("Q:"));
            assert!(!item.prompt.contains("C:"));
            assert!(!item.prompt.contains('['));
        }
    }

    #[test]
    fn deterministic_generation() {
        assert_eq!(generate(2), generate(2));
    }
}
