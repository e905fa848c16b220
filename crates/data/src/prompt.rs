//! The shared prompt grammar.
//!
//! Training data and benchmarks must agree exactly on prompt layout or the
//! models cannot transfer; this module is the single source of truth:
//!
//! ```text
//! [context?]  C:<context>;
//! [question]  Q:<question>;
//! [tags?]     [UP][KEY ref]...
//! [cue]       A:
//! ```
//!
//! Multi-turn conversations repeat the `Q:...;A:...` block with the answer
//! text inline, then open a new cue.

use crate::tags::FormatTag;

/// The answer cue every prompt ends with.
pub(crate) const ANSWER_CUE: &str = "A:";

/// Formats a single-turn prompt.
///
/// `context` may be empty (no-context QA, e.g. the multi-choice benchmark).
#[must_use]
pub fn format_prompt(context: &str, question: &str, tags: &[FormatTag]) -> String {
    let mut out = String::new();
    if !context.trim().is_empty() {
        out.push_str("C:");
        out.push_str(context.trim());
        if !out.ends_with('.') {
            out.push('.');
        }
        out.push(';');
    }
    out.push_str("Q:");
    out.push_str(question.trim());
    out.push(';');
    for tag in tags {
        out.push_str(&tag.tag_str());
    }
    out.push_str(ANSWER_CUE);
    out
}

/// Formats a follow-up turn appended to a finished first turn.
///
/// The first turn's prompt and answer are replayed verbatim (the standard
/// chat-history encoding), then the follow-up question opens a new cue.
#[must_use]
pub(crate) fn format_followup(
    first_prompt: &str,
    first_answer: &str,
    question: &str,
    tags: &[FormatTag],
) -> String {
    let mut out =
        String::with_capacity(first_prompt.len() + first_answer.len() + question.len() + 16);
    out.push_str(first_prompt);
    out.push_str(first_answer);
    out.push(';');
    out.push_str("Q:");
    out.push_str(question.trim());
    out.push(';');
    for tag in tags {
        out.push_str(&tag.tag_str());
    }
    out.push_str(ANSWER_CUE);
    out
}

/// Cleans a raw model generation into an answer string: cut at the first
/// `;` (the grammar's turn separator) and trim.
#[must_use]
pub fn extract_answer(generated: &str) -> String {
    let cut = generated.split(';').next().unwrap_or("");
    cut.trim().to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prompt_layout() {
        let p = format_prompt(
            "the gpl cmd runs global placement.",
            "what does the gpl cmd do?",
            &[FormatTag::Upper],
        );
        assert_eq!(
            p,
            "C:the gpl cmd runs global placement.;Q:what does the gpl cmd do?;[UP]A:"
        );
    }

    #[test]
    fn contextless_prompt_omits_context_block() {
        let p = format_prompt("", "what does the gpl cmd do?", &[]);
        assert_eq!(p, "Q:what does the gpl cmd do?;A:");
        assert!(!p.contains("C:"));
    }

    #[test]
    fn context_gets_terminal_period() {
        let p = format_prompt("fact without period", "q?", &[]);
        assert!(p.starts_with("C:fact without period.;"));
    }

    #[test]
    fn multiple_tags_concatenate() {
        let p = format_prompt("", "q?", &[FormatTag::Pre, FormatTag::End]);
        assert!(p.contains("[PRE][END]A:"));
    }

    #[test]
    fn followup_replays_history() {
        let first = format_prompt("ctx.", "q1?", &[]);
        let two = format_followup(&first, "a1", "q2?", &[FormatTag::End]);
        assert!(two.starts_with(&first));
        assert!(two.contains("a1;Q:q2?;[END]A:"));
    }

    #[test]
    fn extract_answer_cuts_at_separator() {
        assert_eq!(extract_answer("the answer ;Q:junk"), "the answer");
        assert_eq!(extract_answer("  plain  "), "plain");
        assert_eq!(extract_answer(""), "");
    }
}
