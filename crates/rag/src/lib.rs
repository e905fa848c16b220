//! Retrieval-augmented generation substrate.
//!
//! The paper's OpenROAD QA pipeline retrieves context with
//! *bge-large-en-v1.5* dense embeddings, *BM25* lexical retrieval, and a
//! *bge-reranker-large* re-ranking stage. The equivalent stack here:
//!
//! * [`Chunker`] — splits documents into overlapping word-window chunks.
//! * `Bm25Index` — Okapi BM25 lexical retrieval (`k1 = 1.2`, `b = 0.75`).
//! * `EmbeddingIndex` — hashed TF-IDF embeddings with cosine similarity,
//!   the deterministic stand-in for the dense bge encoder.
//! * [`Retriever`] — runs both retrievers and fuses their rankings with
//!   reciprocal-rank fusion (the re-ranking stage).
//!
//! # Example
//!
//! ```
//! use chipalign_rag::{Chunker, Document, Retriever};
//!
//! let docs = vec![
//!     Document::new(0, "timing", "Click the Timing icon to open the timing report."),
//!     Document::new(1, "power", "The power report shows switching activity."),
//! ];
//! let chunks = Chunker::default().chunk_all(&docs);
//! let retriever = Retriever::build(chunks);
//! let context = retriever.retrieve_context("how do I open the timing report?", 1);
//! assert!(context.contains("Timing icon"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bm25;
mod chunk;
mod embed;
mod fuse;

pub use chunk::{Chunker, Document};
pub use fuse::Retriever;
