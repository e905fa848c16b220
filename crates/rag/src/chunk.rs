//! Documents and chunking.

/// A source document (a section of the synthetic EDA documentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// Stable document id.
    pub(crate) id: usize,
    /// Short title (used in chunk provenance).
    pub(crate) title: String,
    /// Full text.
    pub text: String,
}

impl Document {
    /// Creates a document.
    #[must_use]
    pub fn new(id: usize, title: &str, text: &str) -> Self {
        Document {
            id,
            title: title.to_string(),
            text: text.to_string(),
        }
    }
}

/// A retrievable chunk of a document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentChunk {
    /// Id of the source document.
    pub(crate) doc_id: usize,
    /// Title of the source document.
    pub(crate) title: String,
    /// Chunk text.
    pub(crate) text: String,
}

/// Overlapping word-window chunker.
///
/// # Example
///
/// ```
/// use chipalign_rag::{Chunker, Document};
///
/// let doc = Document::new(0, "t", "one two three four five six seven eight");
/// let chunks = Chunker::default().chunk_all(&[doc]);
/// assert_eq!(chunks.len(), 1, "eight words fit one default window");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chunker {
    /// Maximum words per chunk.
    pub(crate) max_words: usize,
    /// Words of overlap between consecutive chunks.
    pub(crate) overlap: usize,
}

impl Default for Chunker {
    fn default() -> Self {
        Chunker {
            max_words: 48,
            overlap: 8,
        }
    }
}

impl Chunker {
    /// Splits one document into chunks.
    ///
    /// # Panics
    ///
    /// Panics if `overlap >= max_words` (the window would not advance).
    #[must_use]
    pub(crate) fn chunk(&self, doc: &Document) -> Vec<DocumentChunk> {
        assert!(
            self.overlap < self.max_words,
            "chunk overlap must be smaller than the window"
        );
        let words: Vec<&str> = doc.text.split_whitespace().collect();
        if words.is_empty() {
            return Vec::new();
        }
        let stride = self.max_words - self.overlap;
        let mut chunks = Vec::new();
        let mut start = 0usize;
        loop {
            let end = (start + self.max_words).min(words.len());
            chunks.push(DocumentChunk {
                doc_id: doc.id,
                title: doc.title.clone(),
                text: words[start..end].join(" "),
            });
            if end == words.len() {
                break;
            }
            start += stride;
        }
        chunks
    }

    /// Chunks a whole corpus, preserving document order.
    #[must_use]
    pub fn chunk_all(&self, docs: &[Document]) -> Vec<DocumentChunk> {
        docs.iter().flat_map(|d| self.chunk(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_document_is_one_chunk() {
        let doc = Document::new(3, "t", "just a few words");
        let chunks = Chunker::default().chunk(&doc);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].doc_id, 3);
        assert_eq!(chunks[0].text, "just a few words");
    }

    #[test]
    fn empty_document_yields_nothing() {
        let doc = Document::new(0, "t", "   ");
        assert!(Chunker::default().chunk(&doc).is_empty());
    }

    #[test]
    fn chunks_overlap_and_cover() {
        let words: Vec<String> = (0..20).map(|i| format!("w{i}")).collect();
        let doc = Document::new(0, "t", &words.join(" "));
        let chunker = Chunker {
            max_words: 8,
            overlap: 2,
        };
        let chunks = chunker.chunk(&doc);
        // Every word appears in some chunk.
        for w in &words {
            assert!(
                chunks
                    .iter()
                    .any(|c| c.text.split_whitespace().any(|x| x == w)),
                "word {w} lost"
            );
        }
        // Consecutive chunks share the overlap words.
        let first: Vec<&str> = chunks[0].text.split_whitespace().collect();
        let second: Vec<&str> = chunks[1].text.split_whitespace().collect();
        assert_eq!(&first[first.len() - 2..], &second[..2]);
    }

    #[test]
    #[should_panic(expected = "overlap must be smaller")]
    fn degenerate_overlap_panics() {
        let doc = Document::new(0, "t", "a b c");
        let _ = Chunker {
            max_words: 4,
            overlap: 4,
        }
        .chunk(&doc);
    }

    #[test]
    fn chunk_all_concatenates() {
        let docs = vec![
            Document::new(0, "a", "first doc"),
            Document::new(1, "b", "second doc"),
        ];
        let chunks = Chunker::default().chunk_all(&docs);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[1].title, "b");
    }
}
