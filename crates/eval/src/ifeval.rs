//! IFEval-style verifiable instruction checking.
//!
//! IFEval's defining property is that every instruction is *checkable by
//! program*, not by a judge model. This module implements a battery of
//! instruction families covering the same categories as the benchmark
//! (length constraints, case constraints, keyword constraints, format and
//! structure constraints), each with:
//!
//! * a natural-language `Instruction::directive` that the data generator
//!   inserts into prompts, and
//! * strict ([`Instruction::check_strict`]) and loose
//!   (`Instruction::check_loose`) verification. The loose variant accepts
//!   a response if any of the benchmark's relaxations (markdown stripped,
//!   first/last line dropped) passes the strict check.
//!
//! Aggregation follows the paper's Table 3: prompt-level accuracy (all
//! instructions in a prompt followed) and instruction-level accuracy
//! (fraction of individual instructions followed), each in strict and loose
//! forms.

use std::fmt;

use crate::text::{loose_variants, split_sentences, word_count};

/// One verifiable instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Instruction {
    /// Respond in at most this many words.
    MaxWords(usize),
    /// Respond in at least this many words.
    MinWords(usize),
    /// Respond in at most this many sentences.
    MaxSentences(usize),
    /// The response must end with this exact phrase.
    EndsWith(String),
    /// The response must start with this exact phrase.
    StartsWith(String),
    /// The response must contain this keyword.
    IncludeKeyword(String),
    /// The response must not contain this keyword.
    ExcludeKeyword(String),
    /// The keyword must appear at least this many times.
    KeywordFrequency {
        /// The keyword to count (case-insensitive).
        keyword: String,
        /// Minimum number of occurrences.
        at_least: usize,
    },
    /// Entire response in uppercase.
    AllUppercase,
    /// Entire response in lowercase.
    AllLowercase,
    /// Exactly this many `- ` bullet items.
    NumBullets(usize),
    /// Exactly this many paragraphs (blank-line separated).
    NumParagraphs(usize),
    /// The response must be valid JSON-ish: starts with `{` and ends with
    /// `}`.
    JsonObject,
    /// The whole response wrapped in double quotes.
    QuotedResponse,
    /// No commas anywhere in the response.
    NoCommas,
    /// The response must contain at least one digit.
    ContainsNumber,
    /// The response must contain a postscript starting with `P.S.`.
    Postscript,
}

impl Instruction {
    /// The natural-language directive inserted into prompts, e.g.
    /// `"Answer in at most 12 words."`.
    #[must_use]
    pub(crate) fn directive(&self) -> String {
        match self {
            Instruction::MaxWords(n) => format!("Answer in at most {n} words."),
            Instruction::MinWords(n) => format!("Answer in at least {n} words."),
            Instruction::MaxSentences(n) => {
                format!("Use at most {n} sentences in your answer.")
            }
            Instruction::EndsWith(p) => {
                format!("End your answer with the exact phrase \"{p}\".")
            }
            Instruction::StartsWith(p) => {
                format!("Start your answer with the exact phrase \"{p}\".")
            }
            Instruction::IncludeKeyword(k) => {
                format!("Make sure the word \"{k}\" appears in your answer.")
            }
            Instruction::ExcludeKeyword(k) => {
                format!("Do not use the word \"{k}\" anywhere in your answer.")
            }
            Instruction::KeywordFrequency { keyword, at_least } => {
                format!("Use the word \"{keyword}\" at least {at_least} times in your answer.")
            }
            Instruction::AllUppercase => {
                "Write your entire answer in uppercase letters.".to_string()
            }
            Instruction::AllLowercase => {
                "Write your entire answer in lowercase letters.".to_string()
            }
            Instruction::NumBullets(n) => {
                format!("Format your answer as exactly {n} bullet points starting with '- '.")
            }
            Instruction::NumParagraphs(n) => format!(
                "Structure your answer into exactly {n} paragraphs separated by blank lines."
            ),
            Instruction::JsonObject => "Format your entire answer as a JSON object.".to_string(),
            Instruction::QuotedResponse => {
                "Wrap your entire answer in double quotation marks.".to_string()
            }
            Instruction::NoCommas => "Do not use any commas in your answer.".to_string(),
            Instruction::ContainsNumber => {
                "Include at least one number in your answer.".to_string()
            }
            Instruction::Postscript => {
                "Add a postscript starting with P.S. at the end of your answer.".to_string()
            }
        }
    }

    /// Strict verification against the raw response.
    #[must_use]
    pub fn check_strict(&self, response: &str) -> bool {
        let trimmed = response.trim();
        match self {
            Instruction::MaxWords(n) => word_count(trimmed) <= *n && !trimmed.is_empty(),
            Instruction::MinWords(n) => word_count(trimmed) >= *n,
            Instruction::MaxSentences(n) => {
                let count = split_sentences(trimmed).len();
                count > 0 && count <= *n
            }
            Instruction::EndsWith(p) => {
                let t = trimmed.trim_end_matches(['.', '!', '?', '"']);
                t.to_lowercase().ends_with(&p.to_lowercase())
            }
            Instruction::StartsWith(p) => trimmed
                .trim_start_matches('"')
                .to_lowercase()
                .starts_with(&p.to_lowercase()),
            Instruction::IncludeKeyword(k) => contains_word(trimmed, k),
            Instruction::ExcludeKeyword(k) => !contains_word(trimmed, k),
            Instruction::KeywordFrequency { keyword, at_least } => {
                word_frequency(trimmed, keyword) >= *at_least
            }
            Instruction::AllUppercase => {
                !trimmed.is_empty() && !trimmed.chars().any(|c| c.is_lowercase())
            }
            Instruction::AllLowercase => {
                !trimmed.is_empty() && !trimmed.chars().any(|c| c.is_uppercase())
            }
            Instruction::NumBullets(n) => {
                trimmed
                    .lines()
                    .filter(|l| l.trim_start().starts_with("- "))
                    .count()
                    == *n
            }
            Instruction::NumParagraphs(n) => {
                trimmed
                    .split("\n\n")
                    .filter(|p| !p.trim().is_empty())
                    .count()
                    == *n
            }
            Instruction::JsonObject => trimmed.starts_with('{') && trimmed.ends_with('}'),
            Instruction::QuotedResponse => {
                trimmed.len() >= 2 && trimmed.starts_with('"') && trimmed.ends_with('"')
            }
            Instruction::NoCommas => !trimmed.contains(','),
            Instruction::ContainsNumber => trimmed.chars().any(|c| c.is_ascii_digit()),
            Instruction::Postscript => trimmed.contains("P.S."),
        }
    }

    /// Loose verification: passes if any loose variant of the response
    /// passes the strict check.
    #[must_use]
    pub(crate) fn check_loose(&self, response: &str) -> bool {
        loose_variants(response)
            .iter()
            .any(|variant| self.check_strict(variant))
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.directive())
    }
}

/// Case-insensitive whole-word containment.
fn contains_word(text: &str, word: &str) -> bool {
    word_frequency(text, word) > 0
}

/// Case-insensitive whole-word occurrence count.
fn word_frequency(text: &str, word: &str) -> usize {
    let needle = word.to_lowercase();
    crate::text::tokenize(text)
        .iter()
        .filter(|t| **t == needle)
        .count()
}

/// The verification of one prompt: which of its instructions were followed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PromptVerdict {
    /// Strict pass/fail per instruction, in prompt order.
    pub strict: Vec<bool>,
    /// Loose pass/fail per instruction, in prompt order.
    pub(crate) loose: Vec<bool>,
}

impl PromptVerdict {
    /// Verifies one response against a prompt's instruction list.
    #[must_use]
    pub fn of(instructions: &[Instruction], response: &str) -> Self {
        PromptVerdict {
            strict: instructions
                .iter()
                .map(|i| i.check_strict(response))
                .collect(),
            loose: instructions
                .iter()
                .map(|i| i.check_loose(response))
                .collect(),
        }
    }
}

/// Aggregate IFEval accuracies (all in `[0, 1]`), matching the four columns
/// of the paper's Table 3.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IfEvalReport {
    /// Fraction of prompts whose instructions were *all* strictly followed.
    pub prompt_strict: f64,
    /// Prompt-level accuracy under loose checking.
    pub prompt_loose: f64,
    /// Fraction of individual instructions strictly followed.
    pub instruction_strict: f64,
    /// Instruction-level accuracy under loose checking.
    pub instruction_loose: f64,
    /// Number of prompts evaluated.
    pub n_prompts: usize,
    /// Total number of instructions evaluated.
    pub(crate) n_instructions: usize,
}

/// Aggregates per-prompt verdicts into the benchmark's four accuracies.
///
/// # Example
///
/// ```
/// use chipalign_eval::ifeval::{aggregate, Instruction, PromptVerdict};
///
/// let instructions = vec![Instruction::AllLowercase, Instruction::MaxWords(3)];
/// let verdict = PromptVerdict::of(&instructions, "ok fine");
/// let report = aggregate(&[verdict]);
/// assert_eq!(report.prompt_strict, 1.0);
/// ```
#[must_use]
pub fn aggregate(verdicts: &[PromptVerdict]) -> IfEvalReport {
    if verdicts.is_empty() {
        return IfEvalReport::default();
    }
    let mut prompt_strict = 0usize;
    let mut prompt_loose = 0usize;
    let mut inst_strict = 0usize;
    let mut inst_loose = 0usize;
    let mut inst_total = 0usize;
    for v in verdicts {
        if v.strict.iter().all(|&b| b) {
            prompt_strict += 1;
        }
        if v.loose.iter().all(|&b| b) {
            prompt_loose += 1;
        }
        inst_strict += v.strict.iter().filter(|&&b| b).count();
        inst_loose += v.loose.iter().filter(|&&b| b).count();
        inst_total += v.strict.len();
    }
    IfEvalReport {
        prompt_strict: prompt_strict as f64 / verdicts.len() as f64,
        prompt_loose: prompt_loose as f64 / verdicts.len() as f64,
        instruction_strict: inst_strict as f64 / inst_total.max(1) as f64,
        instruction_loose: inst_loose as f64 / inst_total.max(1) as f64,
        n_prompts: verdicts.len(),
        n_instructions: inst_total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_limits() {
        assert!(Instruction::MaxWords(3).check_strict("one two three"));
        assert!(!Instruction::MaxWords(2).check_strict("one two three"));
        assert!(Instruction::MinWords(2).check_strict("one two three"));
        assert!(!Instruction::MinWords(4).check_strict("one two three"));
        assert!(!Instruction::MaxWords(3).check_strict("   "));
    }

    #[test]
    fn sentence_limit() {
        assert!(Instruction::MaxSentences(2).check_strict("One. Two."));
        assert!(!Instruction::MaxSentences(1).check_strict("One. Two."));
        assert!(!Instruction::MaxSentences(2).check_strict(""));
    }

    #[test]
    fn phrase_anchors() {
        let ends = Instruction::EndsWith("that is all".into());
        assert!(ends.check_strict("Here it is. That is all."));
        assert!(!ends.check_strict("That is all I know, plus more."));
        let starts = Instruction::StartsWith("in summary".into());
        assert!(starts.check_strict("In summary, yes."));
        assert!(!starts.check_strict("So, in summary, yes."));
    }

    #[test]
    fn keyword_constraints() {
        let inc = Instruction::IncludeKeyword("timing".into());
        assert!(inc.check_strict("check the TIMING report"));
        assert!(
            !inc.check_strict("check the timings report"),
            "whole word only"
        );
        let exc = Instruction::ExcludeKeyword("gui".into());
        assert!(exc.check_strict("use the command line"));
        assert!(!exc.check_strict("open the GUI now"));
        let freq = Instruction::KeywordFrequency {
            keyword: "flow".into(),
            at_least: 2,
        };
        assert!(freq.check_strict("the flow runs the flow"));
        assert!(!freq.check_strict("the flow runs"));
    }

    #[test]
    fn case_constraints() {
        assert!(Instruction::AllUppercase.check_strict("ALL CAPS 42!"));
        assert!(!Instruction::AllUppercase.check_strict("Not Caps"));
        assert!(Instruction::AllLowercase.check_strict("quiet words"));
        assert!(!Instruction::AllLowercase.check_strict("Quiet words"));
        assert!(!Instruction::AllUppercase.check_strict(""));
    }

    #[test]
    fn structure_constraints() {
        let bullets = Instruction::NumBullets(2);
        assert!(bullets.check_strict("- one\n- two"));
        assert!(!bullets.check_strict("- one\n- two\n- three"));
        let paras = Instruction::NumParagraphs(2);
        assert!(paras.check_strict("first para\n\nsecond para"));
        assert!(!paras.check_strict("only one para"));
        assert!(Instruction::JsonObject.check_strict("{\"a\": 1}"));
        assert!(!Instruction::JsonObject.check_strict("plain text"));
        assert!(Instruction::QuotedResponse.check_strict("\"quoted\""));
        assert!(!Instruction::QuotedResponse.check_strict("\"unbalanced"));
    }

    #[test]
    fn misc_constraints() {
        assert!(Instruction::NoCommas.check_strict("no commas here"));
        assert!(!Instruction::NoCommas.check_strict("one, two"));
        assert!(Instruction::ContainsNumber.check_strict("use rank 8"));
        assert!(!Instruction::ContainsNumber.check_strict("no digits"));
        assert!(Instruction::Postscript.check_strict("Done.\nP.S. extra"));
        assert!(!Instruction::Postscript.check_strict("Done."));
    }

    #[test]
    fn loose_forgives_preamble_lines() {
        let inst = Instruction::JsonObject;
        let response = "Sure, here you go:\n{\"answer\": 42}";
        assert!(!inst.check_strict(response));
        assert!(inst.check_loose(response), "loose drops the first line");
        let inst2 = Instruction::AllLowercase;
        let cased = "Here you go:\nall lowercase now";
        assert!(!inst2.check_strict(cased));
        assert!(inst2.check_loose(cased));
    }

    #[test]
    fn directives_are_nonempty_and_displayable() {
        let all = vec![
            Instruction::MaxWords(5),
            Instruction::MinWords(5),
            Instruction::MaxSentences(2),
            Instruction::EndsWith("x".into()),
            Instruction::StartsWith("x".into()),
            Instruction::IncludeKeyword("x".into()),
            Instruction::ExcludeKeyword("x".into()),
            Instruction::KeywordFrequency {
                keyword: "x".into(),
                at_least: 2,
            },
            Instruction::AllUppercase,
            Instruction::AllLowercase,
            Instruction::NumBullets(3),
            Instruction::NumParagraphs(2),
            Instruction::JsonObject,
            Instruction::QuotedResponse,
            Instruction::NoCommas,
            Instruction::ContainsNumber,
            Instruction::Postscript,
        ];
        for inst in all {
            assert!(!inst.directive().is_empty());
            assert_eq!(inst.to_string(), inst.directive());
        }
    }

    #[test]
    fn aggregate_accounting() {
        let i1 = vec![Instruction::AllLowercase, Instruction::MaxWords(2)];
        let i2 = vec![Instruction::ContainsNumber];
        let v1 = PromptVerdict::of(&i1, "ok fine"); // both pass
        let v2 = PromptVerdict::of(&i2, "no digits"); // fails
        let report = aggregate(&[v1, v2]);
        assert!((report.prompt_strict - 0.5).abs() < 1e-12);
        assert!((report.instruction_strict - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.n_prompts, 2);
        assert_eq!(report.n_instructions, 3);
    }

    #[test]
    fn aggregate_empty_is_zero() {
        let r = aggregate(&[]);
        assert_eq!(r.prompt_strict, 0.0);
        assert_eq!(r.n_prompts, 0);
    }

    #[test]
    fn loose_is_never_stricter_than_strict() {
        let instructions = vec![
            Instruction::MaxWords(4),
            Instruction::AllLowercase,
            Instruction::IncludeKeyword("chip".into()),
        ];
        let responses = [
            "the chip works",
            "*THE CHIP*",
            "preamble\nthe chip works fine today ok",
        ];
        for r in responses {
            let v = PromptVerdict::of(&instructions, r);
            for (s, l) in v.strict.iter().zip(&v.loose) {
                assert!(!s || *l, "strict pass implies loose pass for {r:?}");
            }
        }
    }
}
