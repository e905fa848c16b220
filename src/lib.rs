//! # ChipAlign — a full-stack Rust reproduction
//!
//! Reproduction of *ChipAlign: Instruction Alignment in Large Language
//! Models for Chip Design via Geodesic Interpolation* (DAC 2025), including
//! every substrate the paper depends on, built from scratch:
//!
//! * [`tensor`] — dense matrix math, deterministic RNG.
//! * [`nn`] — a tiny LLaMA-style transformer with manual backprop, Adam,
//!   LoRA, KV-cached decoding, and likelihood scoring.
//! * [`model`] — named-tensor checkpoints and a binary checkpoint format.
//! * [`merge`] — **the paper's contribution**: geodesic (SLERP-on-the-
//!   Frobenius-sphere) weight interpolation, plus the Model Soup, Task
//!   Arithmetic, TIES, and DELLA baselines.
//! * [`eval`] — ROUGE-L, IFEval-style verifiable instruction
//!   checking, and a deterministic rubric grader.
//! * [`rag`] — BM25 + hashed-TF-IDF retrieval with reciprocal-rank fusion.
//! * [`data`] — synthetic EDA corpora and the four benchmarks (OpenROAD
//!   QA, industrial chip QA, IFEval, multi-choice chip QA).
//! * [`pipeline`] — the model zoo and one experiment runner per paper
//!   table/figure.
//! * [`serve`] — a continuous-batching TCP inference server with
//!   hot-swappable geodesic merges (`merge:<chip>+<instruct>@<λ>` specs),
//!   admission control, and wire-queryable metrics.
//!
//! # Quickstart
//!
//! ```
//! use chipalign::merge::{GeodesicMerge, Merger};
//! use chipalign::model::{ArchSpec, Checkpoint};
//! use chipalign::tensor::rng::Pcg32;
//!
//! # fn main() -> Result<(), chipalign::merge::MergeError> {
//! let arch = ArchSpec::tiny("demo");
//! let chip = Checkpoint::random(&arch, &mut Pcg32::seed(1));
//! let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(2));
//! let merged = GeodesicMerge::new(0.6)?.merge_pair(&chip, &instruct)?;
//! assert!(merged.all_finite());
//! # Ok(())
//! # }
//! ```
//!
//! See `README.md` for the experiment index and
//! `cargo run --release -p chipalign-bench --bin table1_openroad_qa` (and
//! siblings) for regenerating the paper's tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use chipalign_data as data;
pub use chipalign_eval as eval;
pub use chipalign_merge as merge;
pub use chipalign_model as model;
pub use chipalign_nn as nn;
pub use chipalign_pipeline as pipeline;
pub use chipalign_rag as rag;
pub use chipalign_serve as serve;
pub use chipalign_tensor as tensor;
