//! Evaluation metrics and graders for the ChipAlign reproduction.
//!
//! The paper scores the OpenROAD QA, industrial QA and IFEval benchmarks
//! three ways; each has a counterpart here:
//!
//! * **ROUGE-L** ([`rouge`]) — the OpenROAD QA metric (Table 1, Figure 8):
//!   longest-common-subsequence precision/recall/F1 between a generated
//!   response and the golden answer.
//! * **IFEval-style instruction checking** ([`ifeval`]) — a battery of
//!   *verifiable* instructions (length, casing, keywords, structure, ...)
//!   with the benchmark's strict/loose and prompt/instruction-level
//!   accounting (Table 3).
//! * **Rubric grading** ([`grader`]) — a deterministic stand-in for the
//!   paper's GPT-4 grader on the industrial chip QA benchmark (Table 2),
//!   scoring answers in `{0, 25, 50, 75, 100}` from content fidelity,
//!   grounding in the provided context, and instruction compliance.
//!
//! # Example
//!
//! ```
//! use chipalign_eval::rouge;
//!
//! let score = rouge::rouge_l(
//!     "click the timing icon in the toolbar",
//!     "click on the timing icon in the gui toolbar",
//! );
//! assert!(score.f1 > 0.7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod grader;
pub mod ifeval;
pub mod rouge;
pub mod significance;
pub mod text;
