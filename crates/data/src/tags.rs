//! Format tags: compact in-prompt instruction directives.
//!
//! Real IFEval instructions are sentences ("Write your entire answer in
//! uppercase letters."); a character-level model with a ~250-character
//! context cannot afford them, so each instruction family is encoded as a
//! short bracketed tag the models learn to condition on. Each tag knows:
//!
//! * its prompt encoding ([`FormatTag::tag_str`]),
//! * the golden-answer transformation ([`FormatTag::apply`]), and
//! * the verifiable checker it corresponds to
//!   ([`FormatTag::instruction`]), so IFEval-style accounting reuses
//!   `chipalign-eval` unchanged.
//!
//! Tags split into two groups: *content tags* (`Pre`, `End`, `Key`) change
//! the token sequence and are therefore visible to ROUGE-L (used in the QA
//! benchmarks), while *surface tags* (`Upper`, `Lower`, `Quote`) change
//! only case/punctuation and are exercised by the IFEval benchmark.

use chipalign_eval::ifeval::Instruction;
use chipalign_tensor::rng::Pcg32;

/// Keywords the `Key` tag can demand; short, common, and in-vocabulary.
pub(crate) const KEYWORDS: &[&str] = &["note", "check", "flow", "ref"];

/// One format directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatTag {
    /// `[UP]` — answer entirely in uppercase.
    Upper,
    /// `[LOW]` — answer entirely in lowercase.
    Lower,
    /// `[QUO]` — wrap the whole answer in double quotes.
    Quote,
    /// `[PRE]` — start the answer with `ans:`.
    Pre,
    /// `[END]` — end the answer with the word `done`.
    End,
    /// `[KEY w]` — include the keyword `w` (appended as `(w)`).
    Key(String),
}

impl FormatTag {
    /// All surface+content tag families with a representative keyword.
    #[must_use]
    pub fn all() -> Vec<FormatTag> {
        let mut tags = vec![
            FormatTag::Upper,
            FormatTag::Lower,
            FormatTag::Quote,
            FormatTag::Pre,
            FormatTag::End,
        ];
        tags.extend(KEYWORDS.iter().map(|k| FormatTag::Key((*k).to_string())));
        tags
    }

    /// The content-affecting tags used by the ROUGE-scored QA benchmarks.
    #[must_use]
    pub(crate) fn content_tags() -> Vec<FormatTag> {
        let mut tags = vec![FormatTag::Pre, FormatTag::End];
        tags.extend(KEYWORDS.iter().map(|k| FormatTag::Key((*k).to_string())));
        tags
    }

    /// Samples a tag uniformly from [`FormatTag::all`].
    #[must_use]
    pub(crate) fn sample(rng: &mut Pcg32) -> FormatTag {
        let all = FormatTag::all();
        all[rng.below(all.len())].clone()
    }

    /// Samples a content tag uniformly.
    #[must_use]
    pub(crate) fn sample_content(rng: &mut Pcg32) -> FormatTag {
        let tags = FormatTag::content_tags();
        tags[rng.below(tags.len())].clone()
    }

    /// The prompt encoding, e.g. `"[UP]"`.
    #[must_use]
    pub fn tag_str(&self) -> String {
        match self {
            FormatTag::Upper => "[UP]".to_string(),
            FormatTag::Lower => "[LOW]".to_string(),
            FormatTag::Quote => "[QUO]".to_string(),
            FormatTag::Pre => "[PRE]".to_string(),
            FormatTag::End => "[END]".to_string(),
            FormatTag::Key(k) => format!("[KEY {k}]"),
        }
    }

    /// Applies the directive to a plain answer, producing the golden
    /// formatted answer.
    #[must_use]
    pub fn apply(&self, answer: &str) -> String {
        match self {
            FormatTag::Upper => answer.to_uppercase(),
            FormatTag::Lower => answer.to_lowercase(),
            FormatTag::Quote => format!("\"{answer}\""),
            FormatTag::Pre => format!("ans: {answer}"),
            FormatTag::End => format!("{answer} done"),
            FormatTag::Key(k) => format!("{answer} ({k})"),
        }
    }

    /// The verifiable checker for this directive.
    #[must_use]
    pub fn instruction(&self) -> Instruction {
        match self {
            FormatTag::Upper => Instruction::AllUppercase,
            FormatTag::Lower => Instruction::AllLowercase,
            FormatTag::Quote => Instruction::QuotedResponse,
            FormatTag::Pre => Instruction::StartsWith("ans:".to_string()),
            FormatTag::End => Instruction::EndsWith("done".to_string()),
            FormatTag::Key(k) => Instruction::IncludeKeyword(k.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn applied_answers_pass_their_own_checkers() {
        // The defining invariant: golden answers must verify.
        let answer = "the gpl cmd runs global placement";
        for tag in FormatTag::all() {
            let golden = tag.apply(answer);
            assert!(
                tag.instruction().check_strict(&golden),
                "golden for {tag:?} fails its checker: {golden:?}"
            );
        }
    }

    #[test]
    fn plain_answers_fail_most_checkers() {
        // An untagged (plain lowercase) answer must violate every
        // *content/surface-changing* checker except [LOW]: that is what
        // makes ignoring the directive measurable.
        let answer = "the gpl cmd runs global placement";
        for tag in FormatTag::all() {
            let expected_pass = matches!(tag, FormatTag::Lower);
            assert_eq!(
                tag.instruction().check_strict(answer),
                expected_pass,
                "plain answer vs {tag:?}"
            );
        }
    }

    #[test]
    fn tag_strings_are_compact_and_unique() {
        let all = FormatTag::all();
        let mut strs: Vec<String> = all.iter().map(FormatTag::tag_str).collect();
        for s in &strs {
            assert!(s.len() <= 11, "tag too long: {s}");
            assert!(s.starts_with('[') && s.ends_with(']'));
        }
        strs.sort();
        strs.dedup();
        assert_eq!(strs.len(), all.len());
    }

    #[test]
    fn content_tags_change_token_content() {
        // Content tags must alter the word sequence as seen by ROUGE.
        use chipalign_eval::text::tokenize;
        let answer = "the gpl cmd runs global placement";
        for tag in FormatTag::content_tags() {
            let golden = tag.apply(answer);
            assert_ne!(
                tokenize(&golden),
                tokenize(answer),
                "{tag:?} must be ROUGE-visible"
            );
        }
    }

    #[test]
    fn sampling_is_deterministic() {
        let mut a = Pcg32::seed(3);
        let mut b = Pcg32::seed(3);
        for _ in 0..20 {
            assert_eq!(FormatTag::sample(&mut a), FormatTag::sample(&mut b));
        }
    }

    #[test]
    fn sample_content_only_yields_content_tags() {
        let mut rng = Pcg32::seed(4);
        let content = FormatTag::content_tags();
        for _ in 0..50 {
            let t = FormatTag::sample_content(&mut rng);
            assert!(content.contains(&t), "{t:?} is not a content tag");
        }
    }
}
