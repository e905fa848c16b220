//! Shared text utilities: tokenization, normalization, LCS.

/// Splits text into lowercase word tokens (alphanumeric runs; everything
/// else separates).
///
/// This is ROUGE-L's tokenization, mirroring the whitespace-and-punctuation
/// handling of the reference implementation.
///
/// # Example
///
/// ```
/// use chipalign_eval::text::tokenize;
///
/// assert_eq!(tokenize("Click 'Timing' -> Update!"), vec!["click", "timing", "update"]);
/// ```
#[must_use]
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_alphanumeric() || c == '_' {
            current.extend(c.to_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Splits text into sentences on `.`, `!`, `?` boundaries, dropping empty
/// fragments.
#[must_use]
pub(crate) fn split_sentences(text: &str) -> Vec<&str> {
    text.split(['.', '!', '?'])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Counts whitespace-separated words.
#[must_use]
pub(crate) fn word_count(text: &str) -> usize {
    text.split_whitespace().count()
}

/// Length of the longest common subsequence of two token slices.
///
/// `O(len(a) · len(b))` dynamic program with a rolling row, which is the
/// whole cost model of corpus-scale ROUGE-L.
#[must_use]
pub(crate) fn lcs_length<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() || b.is_empty() {
        return 0;
    }
    let mut prev = vec![0usize; b.len() + 1];
    let mut curr = vec![0usize; b.len() + 1];
    for x in a {
        for (j, y) in b.iter().enumerate() {
            curr[j + 1] = if x == y {
                prev[j] + 1
            } else {
                prev[j + 1].max(curr[j])
            };
        }
        std::mem::swap(&mut prev, &mut curr);
    }
    prev[b.len()]
}

/// The "loose" response normalizations of the IFEval benchmark: the
/// original text plus variants with markdown emphasis stripped and with the
/// first/last line removed. A loose check passes if *any* variant passes.
#[must_use]
pub(crate) fn loose_variants(text: &str) -> Vec<String> {
    let mut variants = vec![text.to_string()];
    let stripped: String = text.replace(['*', '_'], "");
    if stripped != text {
        variants.push(stripped.clone());
    }
    let lines: Vec<&str> = text.lines().collect();
    if lines.len() > 1 {
        variants.push(lines[1..].join("\n"));
        variants.push(lines[..lines.len() - 1].join("\n"));
    }
    let strip_lines: Vec<&str> = stripped.lines().collect();
    if strip_lines.len() > 1 {
        variants.push(strip_lines[1..].join("\n"));
        variants.push(strip_lines[..strip_lines.len() - 1].join("\n"));
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_lowercases_and_splits() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("a_b c-d"), vec!["a_b", "c", "d"]);
        assert!(tokenize("...").is_empty());
        assert!(tokenize("").is_empty());
    }

    #[test]
    fn sentences_split_on_terminators() {
        let s = split_sentences("First. Second! Third? ");
        assert_eq!(s, vec!["First", "Second", "Third"]);
        assert!(split_sentences("").is_empty());
    }

    #[test]
    fn word_count_basic() {
        assert_eq!(word_count("one  two\tthree"), 3);
        assert_eq!(word_count(""), 0);
    }

    #[test]
    fn lcs_known_cases() {
        let a = ["a", "b", "c", "d"];
        let b = ["b", "d"];
        assert_eq!(lcs_length(&a, &b), 2);
        assert_eq!(lcs_length(&a, &a), 4);
        assert_eq!(lcs_length::<&str>(&[], &b), 0);
        let c = ["x", "y"];
        assert_eq!(lcs_length(&a, &c), 0);
    }

    #[test]
    fn lcs_is_symmetric() {
        let a: Vec<String> = tokenize("the quick brown fox jumps");
        let b: Vec<String> = tokenize("the brown dog jumps high");
        assert_eq!(lcs_length(&a, &b), lcs_length(&b, &a));
    }

    #[test]
    fn loose_variants_include_stripped_and_trimmed() {
        let text = "*Title*\nbody line\nlast line";
        let variants = loose_variants(text);
        assert!(variants
            .iter()
            .any(|v| v.contains("Title") && !v.contains('*')));
        assert!(variants.iter().any(|v| !v.contains("Title")));
        assert!(variants.iter().any(|v| !v.contains("last line")));
        // Single-line plain text yields just itself.
        assert_eq!(loose_variants("plain"), vec!["plain".to_string()]);
    }
}
