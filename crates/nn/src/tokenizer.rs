//! Character-level tokenizer.
//!
//! The reproduction operates on synthetic English/EDA text, so a printable
//! ASCII character vocabulary is lossless for the corpora involved while
//! keeping the embedding table tiny. Vocabulary layout:
//!
//! | id      | token                 |
//! |---------|-----------------------|
//! | 0       | `<pad>`               |
//! | 1       | `<bos>`               |
//! | 2       | `<eos>`               |
//! | 3       | `<unk>`               |
//! | 4..=98  | ASCII `' '` .. `'~'`  |

/// A deterministic character-level tokenizer over printable ASCII.
///
/// # Example
///
/// ```
/// use chipalign_nn::CharTokenizer;
///
/// let tok = CharTokenizer::new();
/// let ids = tok.encode("Hi!");
/// assert_eq!(tok.decode(&ids), "Hi!");
/// assert_eq!(tok.vocab_size(), 99);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CharTokenizer {
    _private: (),
}

/// Padding token id.
pub(crate) const PAD: u32 = 0;
/// Beginning-of-sequence token id.
pub const BOS: u32 = 1;
/// End-of-sequence token id.
pub const EOS: u32 = 2;
/// Unknown-character token id.
pub(crate) const UNK: u32 = 3;

const FIRST_CHAR: u8 = b' ';
const LAST_CHAR: u8 = b'~';
const CHAR_BASE: u32 = 4;

impl CharTokenizer {
    /// Creates the tokenizer.
    #[must_use]
    pub fn new() -> Self {
        CharTokenizer { _private: () }
    }

    /// Total vocabulary size (specials + printable ASCII).
    #[must_use]
    pub fn vocab_size(&self) -> usize {
        CHAR_BASE as usize + usize::from(LAST_CHAR - FIRST_CHAR) + 1
    }

    /// Encodes text, mapping characters outside printable ASCII to `<unk>`.
    ///
    /// No `<bos>`/`<eos>` markers are added.
    #[must_use]
    pub fn encode(&self, text: &str) -> Vec<u32> {
        text.chars().map(|c| self.char_to_id(c)).collect()
    }

    /// Decodes ids back to text. Special tokens decode to nothing except
    /// `<unk>`, which becomes `\u{FFFD}` so information loss stays visible.
    #[must_use]
    pub fn decode(&self, ids: &[u32]) -> String {
        ids.iter().filter_map(|&id| self.id_to_char(id)).collect()
    }

    /// Maps one character to its token id.
    #[must_use]
    pub(crate) fn char_to_id(&self, c: char) -> u32 {
        if c.is_ascii() {
            let b = c as u8;
            if (FIRST_CHAR..=LAST_CHAR).contains(&b) {
                return CHAR_BASE + u32::from(b - FIRST_CHAR);
            }
            if c == '\n' || c == '\t' {
                // Whitespace folds to space rather than <unk>: the corpora
                // use newlines as soft separators.
                return CHAR_BASE;
            }
        }
        UNK
    }

    /// Maps a token id back to its character, or `None` for pure-control
    /// specials.
    #[must_use]
    pub(crate) fn id_to_char(&self, id: u32) -> Option<char> {
        match id {
            PAD | BOS | EOS => None,
            UNK => Some('\u{FFFD}'),
            _ => {
                let offset = id.checked_sub(CHAR_BASE)?;
                let b = FIRST_CHAR.checked_add(u8::try_from(offset).ok()?)?;
                (b <= LAST_CHAR).then(|| char::from(b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_printable_ascii() {
        let tok = CharTokenizer::new();
        let text = "The ZZZ -build XXX command! @#$ 0..9";
        assert_eq!(tok.decode(&tok.encode(text)), text);
    }

    #[test]
    fn vocab_size_is_99() {
        assert_eq!(CharTokenizer::new().vocab_size(), 99);
    }

    #[test]
    fn specials_wrap_sequence() {
        let tok = CharTokenizer::new();
        let mut ids = vec![BOS];
        ids.extend(tok.encode("ab"));
        ids.push(EOS);
        assert_eq!(tok.decode(&ids), "ab");
    }

    #[test]
    fn non_ascii_becomes_unk() {
        let tok = CharTokenizer::new();
        let ids = tok.encode("αβ");
        assert_eq!(ids, vec![UNK, UNK]);
        assert_eq!(tok.decode(&ids), "\u{FFFD}\u{FFFD}");
    }

    #[test]
    fn newline_and_tab_fold_to_space() {
        let tok = CharTokenizer::new();
        assert_eq!(tok.decode(&tok.encode("a\nb\tc")), "a b c");
    }

    #[test]
    fn every_id_round_trips_or_is_special() {
        let tok = CharTokenizer::new();
        for id in 0..tok.vocab_size() as u32 {
            if let Some(c) = tok.id_to_char(id) {
                if c != '\u{FFFD}' {
                    assert_eq!(tok.char_to_id(c), id, "char {c:?} should map back");
                }
            }
        }
    }

    #[test]
    fn out_of_range_ids_decode_to_nothing() {
        let tok = CharTokenizer::new();
        assert_eq!(tok.id_to_char(999), None);
    }
}
