//! The full retrieval pipeline: BM25 + embeddings fused by reciprocal-rank
//! fusion (the re-ranking stage of the paper's RAG setup).

use crate::bm25::Bm25Index;
use crate::chunk::DocumentChunk;
use crate::embed::EmbeddingIndex;

/// Reciprocal-rank-fusion constant (standard value from the RRF paper).
const RRF_K: f64 = 60.0;

/// How many candidates each first-stage retriever contributes to fusion.
const CANDIDATES_PER_STAGE: usize = 20;

/// A retrieved chunk with its fused score.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ScoredChunk {
    /// Index into the retriever's chunk corpus.
    pub(crate) chunk_index: usize,
    /// Source document id.
    pub(crate) doc_id: usize,
    /// Source document title.
    pub(crate) title: String,
    /// Chunk text.
    pub(crate) text: String,
    /// Fused RRF score.
    pub(crate) score: f64,
}

/// The two-stage retrieval pipeline.
///
/// # Example
///
/// ```
/// use chipalign_rag::{Chunker, Document, Retriever};
///
/// let docs = vec![
///     Document::new(0, "place", "global placement optimizes wirelength"),
///     Document::new(1, "cts", "clock tree synthesis balances skew"),
/// ];
/// let retriever = Retriever::build(Chunker::default().chunk_all(&docs));
/// let context = retriever.retrieve_context("what optimizes wirelength?", 1);
/// assert!(context.contains("global placement"));
/// ```
#[derive(Debug, Clone)]
pub struct Retriever {
    chunks: Vec<DocumentChunk>,
    bm25: Bm25Index,
    embeddings: EmbeddingIndex,
}

impl Retriever {
    /// Builds both indexes over the chunk corpus.
    #[must_use]
    pub fn build(chunks: Vec<DocumentChunk>) -> Self {
        let bm25 = Bm25Index::build(&chunks);
        let embeddings = EmbeddingIndex::build(&chunks);
        Retriever {
            chunks,
            bm25,
            embeddings,
        }
    }

    /// The underlying chunk corpus.
    #[must_use]
    pub fn chunks(&self) -> &[DocumentChunk] {
        &self.chunks
    }

    /// Retrieves the `top_k` chunks for a query by fusing BM25 and
    /// embedding rankings with RRF.
    #[must_use]
    pub(crate) fn retrieve(&self, query: &str, top_k: usize) -> Vec<ScoredChunk> {
        if top_k == 0 || self.chunks.is_empty() {
            return Vec::new();
        }
        let lexical = self.bm25.query(query, CANDIDATES_PER_STAGE);
        let dense = self.embeddings.query(query, CANDIDATES_PER_STAGE);
        let mut fused: std::collections::HashMap<usize, f64> = std::collections::HashMap::new();
        for (rank, (idx, _)) in lexical.iter().enumerate() {
            *fused.entry(*idx).or_insert(0.0) += 1.0 / (RRF_K + rank as f64 + 1.0);
        }
        for (rank, (idx, _)) in dense.iter().enumerate() {
            *fused.entry(*idx).or_insert(0.0) += 1.0 / (RRF_K + rank as f64 + 1.0);
        }
        let mut ranked: Vec<(usize, f64)> = fused.into_iter().collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(top_k);
        ranked
            .into_iter()
            .map(|(idx, score)| {
                let c = &self.chunks[idx];
                ScoredChunk {
                    chunk_index: idx,
                    doc_id: c.doc_id,
                    title: c.title.clone(),
                    text: c.text.clone(),
                    score,
                }
            })
            .collect()
    }

    /// Retrieves and concatenates chunk texts into a single context string
    /// (the "RAG context" fed to models in Table 1).
    #[must_use]
    pub fn retrieve_context(&self, query: &str, top_k: usize) -> String {
        self.retrieve(query, top_k)
            .iter()
            .map(|c| c.text.as_str())
            .collect::<Vec<_>>()
            .join("\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{Chunker, Document};

    fn retriever() -> Retriever {
        let docs = vec![
            Document::new(
                0,
                "placement",
                "global placement optimizes the wirelength of standard cells across the die",
            ),
            Document::new(
                1,
                "cts",
                "clock tree synthesis balances skew across the clock distribution network",
            ),
            Document::new(
                2,
                "routing",
                "detailed routing resolves design rule violations after track assignment",
            ),
            Document::new(
                3,
                "timing",
                "the timing report window shows setup and hold slack for each path group",
            ),
        ];
        Retriever::build(Chunker::default().chunk_all(&docs))
    }

    #[test]
    fn fused_retrieval_finds_relevant_doc() {
        let r = retriever();
        assert_eq!(
            r.retrieve("how to view setup and hold slack", 1)[0].doc_id,
            3
        );
        assert_eq!(r.retrieve("balancing clock skew", 1)[0].doc_id, 1);
    }

    #[test]
    fn agreement_between_stages_boosts_rank() {
        // A chunk ranked #1 by both stages must beat one ranked #1 by only
        // one stage.
        let r = retriever();
        // Terms chosen to touch several documents so more than one chunk
        // scores, but the timing document dominates both stages.
        let hits = r.retrieve("the clock timing report shows slack across each path", 4);
        assert_eq!(hits[0].doc_id, 3);
        assert!(hits.len() >= 2, "query should touch multiple docs");
        assert!(hits[0].score > hits[1].score);
    }

    #[test]
    fn top_k_zero_and_empty_corpus() {
        let r = retriever();
        assert!(r.retrieve("anything", 0).is_empty());
        let empty = Retriever::build(Vec::new());
        assert!(empty.retrieve("anything", 5).is_empty());
    }

    #[test]
    fn context_concatenation() {
        let r = retriever();
        let ctx = r.retrieve_context("clock skew", 2);
        assert!(ctx.contains("skew"));
        assert!(ctx.lines().count() <= 2);
    }

    #[test]
    fn retrieval_is_deterministic() {
        let r = retriever();
        let a = r.retrieve("routing violations", 3);
        let b = r.retrieve("routing violations", 3);
        assert_eq!(a, b);
    }
}
