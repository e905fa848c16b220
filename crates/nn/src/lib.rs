//! A tiny, fully trainable LLaMA-style transformer, built from scratch.
//!
//! The ChipAlign paper merges multi-billion-parameter LLMs. Reproducing the
//! *mechanism* — an instruction-tuned and a domain-tuned specialist, both
//! finetuned from one base model, recombined in weight space — does not
//! require billions of parameters, but it does require real models trained
//! with real gradients. This crate is that substrate:
//!
//! * [`TinyLm`] — a decoder-only transformer with the LLaMA layer recipe
//!   (pre-RMSNorm, rotary-position attention, SwiGLU feed-forward, untied
//!   LM head), implemented with an explicit forward pass *and a complete
//!   manual backward pass* (no autograd dependency).
//! * [`CharTokenizer`] — a deterministic character-level tokenizer over
//!   printable ASCII plus `<pad>/<bos>/<eos>/<unk>`.
//! * [`loss`] — prompt-masked causal cross-entropy, so SFT examples only
//!   train on completion tokens (the paper's DAFT objective).
//! * [`Adam`] — the optimizer used for both pretraining and finetuning.
//! * [`LoraModel`] — low-rank adaptation of the frozen base (the paper's
//!   retrieval-augmented DAFT uses LoRA with rank 8, alpha 16).
//! * [`generate`]/[`score`] — greedy and temperature decoding, and the
//!   length-normalised answer log-likelihood used by the multi-choice chip
//!   QA benchmark (Figure 7).
//! * [`KvCache`] — incremental decoding over a shared (`Arc`) model, one
//!   cache per session, with [`KvCache::decode_batch`] advancing many
//!   sessions through one GEMM per projection — bit-identical to stepping
//!   each session alone, which is what lets the serving scheduler batch
//!   without changing a single output byte.
//! * `QuantParamSet` — optional per-row-scaled int8 copies of the decode
//!   projections (built by [`TinyLm::quantize`]); when attached, KV-cached
//!   decode streams int8 weights through the quantized kernels while
//!   training and the full f32 forward pass stay untouched.
//! * `kvpool` — the paged KV allocator behind every cache: fixed-size
//!   token blocks, per-cache block tables, refcounted prefix aliasing with
//!   copy-on-write, so a prefix fork costs O(blocks) pointer clones instead
//!   of O(bytes). Decode is bit-identical at every block size, down to the
//!   one-token blocks of a private [`KvCache::new`] pool. Pools built with
//!   [`KvDtype::Int8`] additionally quantize each block to per-head-scaled
//!   i8 codes as it fills, shrinking resident KV bytes ~4× while pinning
//!   logits within [`KV8_LOGIT_TOL`] of the f32 oracle.
//! * `spec` — speculative decoding: a [`SpecDecoder`] wraps a target
//!   [`StepDecoder`] and a cheap draft model (a merge-family sibling, or a
//!   truncated-layer self-draft from [`TinyLm::truncate_layers`]), verifies
//!   drafted tokens in one batched forward via `KvCache::verify_chunk`,
//!   and accepts the longest agreeing prefix — greedy output byte-identical
//!   to plain decoding by construction, with panic-isolated drafts.
//!
//! Models convert losslessly to and from [`chipalign_model::Checkpoint`],
//! which is what the merge crate operates on.
//!
//! # Example
//!
//! ```
//! use chipalign_model::ArchSpec;
//! use chipalign_nn::{CharTokenizer, TinyLm};
//! use chipalign_tensor::rng::Pcg32;
//!
//! # fn main() -> Result<(), chipalign_nn::NnError> {
//! let tok = CharTokenizer::new();
//! let mut arch = ArchSpec::tiny("demo");
//! arch.vocab_size = tok.vocab_size();
//! let model = TinyLm::new(&arch, &mut Pcg32::seed(1))?;
//! let ids = tok.encode("hello");
//! let logits = model.logits(&ids)?;
//! assert_eq!(logits.shape(), (ids.len(), tok.vocab_size()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
pub mod generate;
mod kv;
pub(crate) mod kvpool;
mod lora;
pub mod loss;
mod model;
mod optim;
mod params;
mod quant;
pub mod score;
pub(crate) mod spec;
mod tokenizer;
pub mod train;

pub use error::NnError;
pub use generate::{GenerateConfig, StepDecoder};
pub use kv::{KvCache, KV8_LOGIT_TOL};
pub use kvpool::{KvDtype, KvPool, KvPoolConfig};
pub use lora::{LoraConfig, LoraModel};
pub use model::TinyLm;
pub use optim::{Adam, AdamConfig, Tensors};
pub(crate) use params::ParamSet;
pub use spec::{SpecDecoder, SPEC_K_MAX};
pub use tokenizer::{CharTokenizer, BOS, EOS};
