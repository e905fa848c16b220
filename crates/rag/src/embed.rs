//! Hashed TF-IDF embeddings with cosine retrieval — the deterministic
//! stand-in for the paper's *bge-large-en-v1.5* dense encoder.
//!
//! Each token hashes (FNV-1a) to one of `DIM` buckets with a ±1 sign bit,
//! weighted by `tf · idf`; vectors are L2-normalised so dot product equals
//! cosine similarity. This is the classic "hashing trick" encoder: far
//! weaker than a learned model, but monotone in lexical-semantic overlap on
//! the synthetic corpus, which is what the golden-vs-RAG-context comparison
//! needs.

use std::collections::HashMap;

use chipalign_eval::text::tokenize;

use crate::chunk::DocumentChunk;

/// Embedding dimensionality.
const DIM: usize = 256;

/// A cosine-similarity index over hashed TF-IDF chunk embeddings.
#[derive(Debug, Clone)]
pub(crate) struct EmbeddingIndex {
    vectors: Vec<[f32; DIM]>,
    idf: HashMap<String, f64>,
}

impl EmbeddingIndex {
    /// Builds the index over a chunk corpus.
    #[must_use]
    pub(crate) fn build(chunks: &[DocumentChunk]) -> Self {
        let n_docs = chunks.len();
        let mut df: HashMap<String, usize> = HashMap::new();
        let tokenized: Vec<Vec<String>> = chunks.iter().map(|c| tokenize(&c.text)).collect();
        for tokens in &tokenized {
            let mut seen: Vec<&String> = tokens.iter().collect();
            seen.sort_unstable();
            seen.dedup();
            for t in seen {
                *df.entry(t.clone()).or_insert(0) += 1;
            }
        }
        let idf: HashMap<String, f64> = df
            .into_iter()
            .map(|(t, d)| {
                let idf = ((n_docs as f64 + 1.0) / (d as f64 + 1.0)).ln() + 1.0;
                (t, idf)
            })
            .collect();
        let vectors = tokenized
            .iter()
            .map(|tokens| embed_tokens(tokens, &idf))
            .collect();
        EmbeddingIndex { vectors, idf }
    }

    /// Embeds arbitrary text with the corpus IDF table.
    #[must_use]
    pub(crate) fn embed(&self, text: &str) -> [f32; DIM] {
        embed_tokens(&tokenize(text), &self.idf)
    }

    /// Returns the `top_k` chunks by cosine similarity as
    /// `(chunk_index, similarity)`, descending, ties toward lower index.
    /// Zero-similarity chunks are omitted.
    #[must_use]
    pub(crate) fn query(&self, query: &str, top_k: usize) -> Vec<(usize, f64)> {
        if top_k == 0 {
            return Vec::new();
        }
        let q = self.embed(query);
        let mut ranked: Vec<(usize, f64)> = self
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let dot: f32 = q.iter().zip(v.iter()).map(|(a, b)| a * b).sum();
                (i, f64::from(dot))
            })
            .filter(|(_, s)| *s > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(top_k);
        ranked
    }
}

/// Hash a token to `(bucket, sign)`.
fn hash_token(token: &str) -> (usize, f32) {
    let mut hash = 0xcbf29ce484222325u64;
    for b in token.bytes() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    let bucket = (hash % DIM as u64) as usize;
    let sign = if (hash >> 32) & 1 == 0 { 1.0 } else { -1.0 };
    (bucket, sign)
}

fn embed_tokens(tokens: &[String], idf: &HashMap<String, f64>) -> [f32; DIM] {
    let mut v = [0.0f32; DIM];
    let mut tf: HashMap<&String, usize> = HashMap::new();
    for t in tokens {
        *tf.entry(t).or_insert(0) += 1;
    }
    for (t, count) in tf {
        let (bucket, sign) = hash_token(t);
        let weight = idf.get(t).copied().unwrap_or(1.0);
        v[bucket] += sign * (count as f64 * weight) as f32;
    }
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in &mut v {
            *x /= norm;
        }
    }
    v
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

    #[test]
    fn identical_text_has_cosine_one() {
        let chunks = vec![chunk(0, "timing report setup slack")];
        let index = EmbeddingIndex::build(&chunks);
        let hits = index.query("timing report setup slack", 1);
        assert!((hits[0].1 - 1.0).abs() < 1e-5);
    }

    #[test]
    fn retrieves_most_similar() {
        let chunks = vec![
            chunk(0, "global placement optimizes wirelength of cells"),
            chunk(1, "clock tree synthesis balances skew"),
            chunk(2, "routing resolves design rule violations"),
        ];
        let index = EmbeddingIndex::build(&chunks);
        let hits = index.query("balancing clock skew", 1);
        assert_eq!(hits[0].0, 1);
    }

    #[test]
    fn embeddings_are_unit_norm() {
        let chunks = vec![chunk(0, "some words to embed here")];
        let index = EmbeddingIndex::build(&chunks);
        let v = index.embed("other words entirely different");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn empty_query_embeds_to_zero() {
        let index = EmbeddingIndex::build(&[chunk(0, "words")]);
        let v = index.embed("");
        assert!(v.iter().all(|&x| x == 0.0));
        assert!(index.query("", 3).is_empty());
    }

    #[test]
    fn empty_index_is_safe() {
        let index = EmbeddingIndex::build(&[]);
        assert!(index.vectors.is_empty());
        assert!(index.query("anything", 3).is_empty());
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_token("wirelength"), hash_token("wirelength"));
        let chunks = vec![chunk(0, "alpha beta"), chunk(1, "gamma delta")];
        let a = EmbeddingIndex::build(&chunks).query("alpha", 2);
        let b = EmbeddingIndex::build(&chunks).query("alpha", 2);
        assert_eq!(a, b);
    }
}
