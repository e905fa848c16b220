//! Checkpoint representation for the ChipAlign reproduction.
//!
//! The ChipAlign merge (and every baseline merger) operates on *checkpoints*:
//! ordered maps from parameter names to weight matrices, tagged with the
//! architecture they instantiate. This crate provides:
//!
//! * [`ArchSpec`] — a LLaMA-style decoder-only transformer architecture
//!   description that enumerates every parameter name and its shape
//!   (embedding, per-layer attention/MLP projections, RMSNorm gains, LM
//!   head). The paper's "conformable for merging" precondition is checked
//!   against this spec.
//! * [`Checkpoint`] — the named-tensor map itself, with validation,
//!   conformability checks, and whole-model statistics.
//! * [`format`](mod@format) — a compact binary serialization ("safetensors-lite": magic,
//!   version 3 header, name/shape directory, little-endian `f32` payload,
//!   XXH64 checksums) standing in for the safetensors files real LLM
//!   checkpoints ship as. A file of any other version is refused.
//! * [`checksum`] — the streaming XXH64 both formats checksum with.
//! * [`qformat`](mod@qformat) — the int8 sibling format ("CALQ", version 2
//!   only): [`QuantCheckpoint`] stores projection weights as per-row-scaled
//!   int8 (norms and the embedding stay f32), quartering weight bytes.
//! * [`json`] — the text codec beside the binary ones: a strict JSON
//!   parser, compact and pretty printers, and the field-table macros the
//!   wire protocol, metrics snapshots and report files are declared with.
//!
//! # Example
//!
//! ```
//! use chipalign_model::{ArchSpec, Checkpoint};
//! use chipalign_tensor::rng::Pcg32;
//!
//! # fn main() -> Result<(), chipalign_model::ModelError> {
//! let arch = ArchSpec::tiny("demo");
//! let mut rng = Pcg32::seed(1);
//! let ckpt = Checkpoint::random(&arch, &mut rng);
//! ckpt.validate()?;
//! assert!(ckpt.conformable_with(&ckpt));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod arch;
mod checkpoint;
pub mod checksum;
pub mod diff;
mod error;
pub mod format;
pub mod json;
pub mod qformat;

pub use arch::{ArchSpec, ParamKind};
pub use checkpoint::Checkpoint;
pub use error::ModelError;
pub use qformat::QuantCheckpoint;
