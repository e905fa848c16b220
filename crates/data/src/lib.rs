//! Synthetic corpora and benchmarks for the ChipAlign reproduction.
//!
//! The paper's data is unavailable (proprietary NVIDIA chip QA, OpenROAD
//! documentation QA, IFEval): this crate generates deterministic synthetic
//! equivalents that preserve the *structure* each experiment needs, scaled
//! to the character-level models of `chipalign-nn`.
//!
//! The synthetic world is built from three pieces:
//!
//! * [`facts`] — a compositional fact base of EDA commands, bugs, circuit
//!   cells, flow stages, and GUI actions (the "OpenROAD world"), plus a
//!   redacted-style internal fact base (ARCH/BUILD/LSF/TESTGEN — the
//!   "industrial world").
//! * [`tags`] — compact, in-prompt *format directives* (`[UP]`, `[PRE]`,
//!   `[END]`, ...). Each tag maps to a golden-answer transformation and to
//!   a verifiable [`chipalign_eval::ifeval::Instruction`], which is how
//!   instruction alignment stays measurable at character scale.
//! * [`prompt`] — the shared prompt grammar (`C:<context>;Q:<question>;
//!   [TAGS]A:`) used identically by training data and benchmarks.
//!
//! On top of those:
//!
//! * [`corpus`] — DAPT corpora (general text, chip documentation).
//! * [`sft`] — DAFT datasets: instruction SFT (format-tagged, general
//!   content) and chip SFT (context-grounded, untagged — which is exactly
//!   what makes the chip specialist *lose* instruction alignment, as the
//!   paper observes of ChipNeMo).
//! * [`openroad`] — the 90-triplet OpenROAD-QA-style benchmark with the
//!   paper's category split (Functionality / VLSI Flow / GUI & Install &
//!   Test) and golden-vs-RAG context modes (Table 1, Figure 8).
//! * [`industrial`] — the 39-question industrial chip QA benchmark with
//!   ARCH/BUILD/LSF/TESTGEN categories and single/multi-turn settings
//!   (Table 2).
//! * [`ifeval_bench`] — 541 verifiable-instruction prompts (Table 3).
//! * [`multichoice`] — multi-choice chip QA over the three ChipNeMo domains
//!   (Figure 7).
//!
//! Everything is seeded and bit-reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod corpus;
pub mod facts;
pub mod ifeval_bench;
pub mod industrial;
pub mod multichoice;
pub mod openroad;
pub mod prompt;
pub mod sft;
pub mod tags;
