//! Experiment pipeline: the model zoo and one runner per paper table and
//! figure.
//!
//! This crate glues the substrates together the way Figure 4 of the paper
//! describes:
//!
//! 1. [`zoo`] trains (and caches) every model the experiments need — bases,
//!    instruction specialists, EDA specialists (LoRA DAFT), the
//!    ChipNeMo-style large model (DAPT + DAFT), and the general-strong /
//!    customized baselines standing in for GPT-4 Turbo and RAG-EDA.
//! 2. [`evalkit`] provides the shared inference helpers: tokenize a
//!    benchmark prompt, decode a response at temperature 0, and score it.
//! 3. [`experiments`] contains one runner per experiment: Table 1
//!    (OpenROAD QA), Table 2 (industrial chip QA), Table 3 (IFEval),
//!    Figure 2 (radar overview), Figure 7 (multi-choice chip QA), Figure 8
//!    (λ sensitivity), and the qualitative Figures 5/6.
//! 4. [`report`] renders paper-style text tables and JSON artifacts.
//!
//! # Example
//!
//! ```no_run
//! use chipalign_pipeline::zoo::{Quality, Zoo, ZooConfig, ZooModel, Backbone};
//!
//! # fn main() -> Result<(), chipalign_pipeline::PipelineError> {
//! let zoo = Zoo::new(ZooConfig { quality: Quality::Smoke, seed: 1, cache_dir: None })?;
//! let instruct = zoo.model(ZooModel::Instruct(Backbone::LlamaTiny))?;
//! assert!(instruct.arch().d_model > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
pub mod evalkit;
pub mod experiments;
pub mod report;
pub mod zoo;

pub use error::PipelineError;
