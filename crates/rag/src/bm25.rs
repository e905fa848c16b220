//! Okapi BM25 lexical retrieval.

use std::collections::HashMap;

use chipalign_eval::text::tokenize;

use crate::chunk::DocumentChunk;

const K1: f64 = 1.2;
const B: f64 = 0.75;

/// An inverted-index BM25 scorer over a fixed chunk set.
#[derive(Debug, Clone)]
pub(crate) struct Bm25Index {
    /// term -> (chunk index, term frequency) postings.
    postings: HashMap<String, Vec<(usize, usize)>>,
    /// Words per chunk.
    doc_lens: Vec<usize>,
    avg_len: f64,
}

impl Bm25Index {
    /// Builds the index over a chunk corpus.
    #[must_use]
    pub(crate) fn build(chunks: &[DocumentChunk]) -> Self {
        let mut postings: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
        let mut doc_lens = Vec::with_capacity(chunks.len());
        for (i, chunk) in chunks.iter().enumerate() {
            let tokens = tokenize(&chunk.text);
            doc_lens.push(tokens.len());
            let mut tf: HashMap<String, usize> = HashMap::new();
            for t in tokens {
                *tf.entry(t).or_insert(0) += 1;
            }
            for (term, count) in tf {
                postings.entry(term).or_default().push((i, count));
            }
        }
        let avg_len = if doc_lens.is_empty() {
            0.0
        } else {
            doc_lens.iter().sum::<usize>() as f64 / doc_lens.len() as f64
        };
        Bm25Index {
            postings,
            doc_lens,
            avg_len,
        }
    }

    /// Scores all chunks against a query and returns the `top_k` as
    /// `(chunk_index, score)` in descending score order (ties broken by
    /// index for determinism). Chunks with zero score are omitted.
    #[must_use]
    pub(crate) fn query(&self, query: &str, top_k: usize) -> Vec<(usize, f64)> {
        let n = self.doc_lens.len();
        if n == 0 || top_k == 0 {
            return Vec::new();
        }
        let mut scores = vec![0.0f64; n];
        for term in tokenize(query) {
            let Some(posting) = self.postings.get(&term) else {
                continue;
            };
            let df = posting.len() as f64;
            // BM25+-style floor keeps idf positive for very common terms.
            let idf = (((n as f64 - df + 0.5) / (df + 0.5)) + 1.0).ln();
            for &(chunk_idx, tf) in posting {
                let tf = tf as f64;
                let len_norm = 1.0 - B + B * self.doc_lens[chunk_idx] as f64 / self.avg_len;
                scores[chunk_idx] += idf * tf * (K1 + 1.0) / (tf + K1 * len_norm);
            }
        }
        let mut ranked: Vec<(usize, f64)> = scores
            .into_iter()
            .enumerate()
            .filter(|(_, s)| *s > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(top_k);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(doc_id: usize, text: &str) -> DocumentChunk {
        DocumentChunk {
            doc_id,
            title: format!("doc{doc_id}"),
            text: text.to_string(),
        }
    }

    fn corpus() -> Vec<DocumentChunk> {
        vec![
            chunk(
                0,
                "global placement optimizes the wirelength of standard cells",
            ),
            chunk(
                1,
                "clock tree synthesis balances skew across the clock network",
            ),
            chunk(
                2,
                "detailed routing resolves design rule violations after track assignment",
            ),
            chunk(
                3,
                "the timing report window shows setup and hold slack per path",
            ),
        ]
    }

    #[test]
    fn finds_relevant_chunk() {
        let chunks = corpus();
        let index = Bm25Index::build(&chunks);
        let hits = index.query("how is clock skew balanced?", 2);
        assert_eq!(hits[0].0, 1);
        let hits = index.query("setup and hold slack", 2);
        assert_eq!(hits[0].0, 3);
    }

    #[test]
    fn rare_terms_outweigh_common_ones() {
        // "the" occurs in both documents (df = 2, low idf); "wirelength"
        // only in the second (df = 1, high idf).
        let chunks = vec![
            chunk(0, "the the the the common words"),
            chunk(1, "the wirelength optimization"),
        ];
        let index = Bm25Index::build(&chunks);
        let hits = index.query("the wirelength", 2);
        assert_eq!(hits[0].0, 1, "idf must favour the rare term");
    }

    #[test]
    fn no_match_returns_empty() {
        let index = Bm25Index::build(&corpus());
        assert!(index.query("zebra xylophone", 5).is_empty());
        assert!(index.query("clock", 0).is_empty());
    }

    #[test]
    fn empty_index_is_safe() {
        let index = Bm25Index::build(&[]);
        assert!(index.doc_lens.is_empty());
        assert!(index.query("anything", 3).is_empty());
    }

    #[test]
    fn scores_descend_and_truncate() {
        let index = Bm25Index::build(&corpus());
        let hits = index.query("the clock timing report", 3);
        assert!(hits.len() <= 3);
        for w in hits.windows(2) {
            assert!(w[0].1 >= w[1].1);
        }
    }

    #[test]
    fn deterministic_tiebreak() {
        let chunks = vec![chunk(0, "same words here"), chunk(1, "same words here")];
        let index = Bm25Index::build(&chunks);
        let hits = index.query("same words", 2);
        assert_eq!(hits[0].0, 0, "ties break toward the lower index");
    }
}
