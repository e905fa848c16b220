//! Architecture specification for LLaMA-style decoder-only transformers.
//!
//! The spec is the single source of truth for which parameters a model has
//! and what shape each one takes. Both the training substrate
//! (`chipalign-nn`) and the merging engine (`chipalign-merge`) derive their
//! parameter enumeration from here, which is what makes "the input models
//! share the same architecture" a checkable precondition rather than an
//! assumption.

use std::fmt;

/// The role a named parameter plays inside the transformer.
///
/// Merge policies can treat kinds differently (e.g. excluding norm gains
/// from sparsification), so the kind is recoverable from every parameter
/// name via [`ArchSpec::kind_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ParamKind {
    /// Token embedding table (`vocab × d_model`).
    Embedding,
    /// Attention query projection.
    AttnQ,
    /// Attention key projection.
    AttnK,
    /// Attention value projection.
    AttnV,
    /// Attention output projection.
    AttnO,
    /// SwiGLU gate projection.
    MlpGate,
    /// SwiGLU up projection.
    MlpUp,
    /// SwiGLU down projection.
    MlpDown,
    /// RMSNorm gain preceding attention.
    InputNorm,
    /// RMSNorm gain preceding the MLP.
    PostAttnNorm,
    /// Final RMSNorm gain before the LM head.
    FinalNorm,
    /// LM head (`vocab × d_model`).
    LmHead,
}

impl ParamKind {
    /// Whether this parameter is a 1-D RMSNorm gain (stored as `1 × d_model`).
    #[must_use]
    pub fn is_norm(self) -> bool {
        matches!(
            self,
            ParamKind::InputNorm | ParamKind::PostAttnNorm | ParamKind::FinalNorm
        )
    }
}

impl fmt::Display for ParamKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ParamKind::Embedding => "embedding",
            ParamKind::AttnQ => "attn_q",
            ParamKind::AttnK => "attn_k",
            ParamKind::AttnV => "attn_v",
            ParamKind::AttnO => "attn_o",
            ParamKind::MlpGate => "mlp_gate",
            ParamKind::MlpUp => "mlp_up",
            ParamKind::MlpDown => "mlp_down",
            ParamKind::InputNorm => "input_norm",
            ParamKind::PostAttnNorm => "post_attn_norm",
            ParamKind::FinalNorm => "final_norm",
            ParamKind::LmHead => "lm_head",
        };
        f.write_str(s)
    }
}

/// A LLaMA-style decoder-only transformer architecture.
///
/// Parameter naming follows the HuggingFace LLaMA convention
/// (`model.embed_tokens.weight`, `model.layers.N.self_attn.q_proj.weight`,
/// ...), so real checkpoints map onto this spec one-to-one.
///
/// # Example
///
/// ```
/// use chipalign_model::ArchSpec;
///
/// let arch = ArchSpec::tiny("demo");
/// let names = arch.param_names();
/// assert!(names.contains(&"model.embed_tokens.weight".to_string()));
/// assert_eq!(names.len(), arch.param_count());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArchSpec {
    /// Human-readable backbone name (e.g. `"llama-tiny"`).
    pub name: String,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Model (residual stream) width.
    pub d_model: usize,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Number of attention heads; must divide `d_model`.
    pub n_heads: usize,
    /// Hidden width of the SwiGLU feed-forward block.
    pub d_ff: usize,
    /// Maximum sequence length supported by the rotary cache.
    pub max_seq_len: usize,
}

impl ArchSpec {
    /// A minimal architecture used throughout unit tests and doc examples.
    #[must_use]
    pub fn tiny(name: &str) -> Self {
        ArchSpec {
            name: name.to_string(),
            vocab_size: 64,
            d_model: 16,
            n_layers: 2,
            n_heads: 2,
            d_ff: 32,
            max_seq_len: 32,
        }
    }

    /// Per-head dimension (`d_model / n_heads`).
    ///
    /// # Panics
    ///
    /// Panics if `n_heads` is zero or does not divide `d_model`; such a spec
    /// is invalid and rejected by [`ArchSpec::check`].
    #[must_use]
    pub fn head_dim(&self) -> usize {
        assert!(
            self.n_heads > 0 && self.d_model.is_multiple_of(self.n_heads),
            "invalid architecture: d_model={} n_heads={}",
            self.d_model,
            self.n_heads
        );
        self.d_model / self.n_heads
    }

    /// Validates the internal consistency of the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found (zero
    /// dimensions, head mismatch, or even head dimension required by RoPE).
    pub fn check(&self) -> Result<(), String> {
        if self.vocab_size == 0
            || self.d_model == 0
            || self.n_layers == 0
            || self.n_heads == 0
            || self.d_ff == 0
            || self.max_seq_len == 0
        {
            return Err(format!("architecture `{}` has a zero dimension", self.name));
        }
        if !self.d_model.is_multiple_of(self.n_heads) {
            return Err(format!(
                "d_model {} is not divisible by n_heads {}",
                self.d_model, self.n_heads
            ));
        }
        if !(self.d_model / self.n_heads).is_multiple_of(2) {
            return Err(format!(
                "head_dim {} must be even for rotary embeddings",
                self.d_model / self.n_heads
            ));
        }
        Ok(())
    }

    /// All parameter names in canonical (deterministic) order.
    #[must_use]
    pub fn param_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.param_count());
        names.push("model.embed_tokens.weight".to_string());
        for l in 0..self.n_layers {
            names.push(format!("model.layers.{l}.input_layernorm.weight"));
            names.push(format!("model.layers.{l}.self_attn.q_proj.weight"));
            names.push(format!("model.layers.{l}.self_attn.k_proj.weight"));
            names.push(format!("model.layers.{l}.self_attn.v_proj.weight"));
            names.push(format!("model.layers.{l}.self_attn.o_proj.weight"));
            names.push(format!("model.layers.{l}.post_attention_layernorm.weight"));
            names.push(format!("model.layers.{l}.mlp.gate_proj.weight"));
            names.push(format!("model.layers.{l}.mlp.up_proj.weight"));
            names.push(format!("model.layers.{l}.mlp.down_proj.weight"));
        }
        names.push("model.norm.weight".to_string());
        names.push("lm_head.weight".to_string());
        names
    }

    /// Number of named parameters (not scalar count; see
    /// [`ArchSpec::scalar_count`]).
    #[must_use]
    pub fn param_count(&self) -> usize {
        3 + 9 * self.n_layers
    }

    /// Total number of scalar weights in the architecture.
    #[must_use]
    pub fn scalar_count(&self) -> usize {
        self.param_names()
            .iter()
            .map(|n| {
                let (r, c) = self.shape_of(n).expect("own names are valid");
                r * c
            })
            .sum()
    }

    /// The `(rows, cols)` shape required for a named parameter, or `None` if
    /// the name does not belong to this architecture.
    ///
    /// Linear projections are stored as `out_features × in_features`
    /// (matching PyTorch's `nn.Linear.weight`), and 1-D norm gains as
    /// `1 × d_model`.
    #[must_use]
    pub fn shape_of(&self, name: &str) -> Option<(usize, usize)> {
        let kind = self.kind_of(name)?;
        Some(match kind {
            ParamKind::Embedding | ParamKind::LmHead => (self.vocab_size, self.d_model),
            ParamKind::AttnQ | ParamKind::AttnK | ParamKind::AttnV | ParamKind::AttnO => {
                (self.d_model, self.d_model)
            }
            ParamKind::MlpGate | ParamKind::MlpUp => (self.d_ff, self.d_model),
            ParamKind::MlpDown => (self.d_model, self.d_ff),
            ParamKind::InputNorm | ParamKind::PostAttnNorm | ParamKind::FinalNorm => {
                (1, self.d_model)
            }
        })
    }

    /// Classifies a parameter name, or returns `None` if the name is not
    /// part of this architecture (wrong pattern or layer index too large).
    #[must_use]
    pub fn kind_of(&self, name: &str) -> Option<ParamKind> {
        match name {
            "model.embed_tokens.weight" => return Some(ParamKind::Embedding),
            "model.norm.weight" => return Some(ParamKind::FinalNorm),
            "lm_head.weight" => return Some(ParamKind::LmHead),
            _ => {}
        }
        let rest = name.strip_prefix("model.layers.")?;
        let dot = rest.find('.')?;
        let layer: usize = rest[..dot].parse().ok()?;
        if layer >= self.n_layers {
            return None;
        }
        match &rest[dot + 1..] {
            "input_layernorm.weight" => Some(ParamKind::InputNorm),
            "self_attn.q_proj.weight" => Some(ParamKind::AttnQ),
            "self_attn.k_proj.weight" => Some(ParamKind::AttnK),
            "self_attn.v_proj.weight" => Some(ParamKind::AttnV),
            "self_attn.o_proj.weight" => Some(ParamKind::AttnO),
            "post_attention_layernorm.weight" => Some(ParamKind::PostAttnNorm),
            "mlp.gate_proj.weight" => Some(ParamKind::MlpGate),
            "mlp.up_proj.weight" => Some(ParamKind::MlpUp),
            "mlp.down_proj.weight" => Some(ParamKind::MlpDown),
            _ => None,
        }
    }
}

impl fmt::Display for ArchSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (vocab={}, d_model={}, layers={}, heads={}, d_ff={}, ctx={})",
            self.name,
            self.vocab_size,
            self.d_model,
            self.n_layers,
            self.n_heads,
            self.d_ff,
            self.max_seq_len
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_spec_is_valid() {
        let arch = ArchSpec::tiny("t");
        arch.check().expect("tiny spec must be self-consistent");
        assert_eq!(arch.head_dim(), 8);
    }

    #[test]
    fn param_names_count_matches() {
        let arch = ArchSpec::tiny("t");
        assert_eq!(arch.param_names().len(), arch.param_count());
        assert_eq!(arch.param_count(), 3 + 9 * 2);
    }

    #[test]
    fn every_name_has_shape_and_kind() {
        let arch = ArchSpec::tiny("t");
        for name in arch.param_names() {
            assert!(arch.kind_of(&name).is_some(), "kind missing for {name}");
            assert!(arch.shape_of(&name).is_some(), "shape missing for {name}");
        }
    }

    #[test]
    fn shapes_follow_convention() {
        let arch = ArchSpec::tiny("t");
        assert_eq!(arch.shape_of("model.embed_tokens.weight"), Some((64, 16)));
        assert_eq!(
            arch.shape_of("model.layers.0.mlp.gate_proj.weight"),
            Some((32, 16))
        );
        assert_eq!(
            arch.shape_of("model.layers.1.mlp.down_proj.weight"),
            Some((16, 32))
        );
        assert_eq!(arch.shape_of("model.norm.weight"), Some((1, 16)));
    }

    #[test]
    fn unknown_names_rejected() {
        let arch = ArchSpec::tiny("t");
        assert_eq!(arch.kind_of("model.layers.2.self_attn.q_proj.weight"), None);
        assert_eq!(arch.kind_of("model.layers.x.self_attn.q_proj.weight"), None);
        assert_eq!(arch.kind_of("garbage"), None);
        assert_eq!(arch.shape_of("garbage"), None);
    }

    #[test]
    fn check_rejects_bad_specs() {
        let mut arch = ArchSpec::tiny("t");
        arch.n_heads = 3;
        assert!(arch.check().is_err(), "non-dividing heads must fail");
        let mut arch2 = ArchSpec::tiny("t");
        arch2.d_model = 0;
        assert!(arch2.check().is_err(), "zero dims must fail");
        let mut arch3 = ArchSpec::tiny("t");
        arch3.d_model = 6;
        arch3.n_heads = 2; // head_dim 3 is odd -> RoPE impossible
        assert!(arch3.check().is_err());
    }

    #[test]
    fn scalar_count_adds_up() {
        let arch = ArchSpec::tiny("t");
        // embed + lm_head: 2 * 64*16; per layer: 4 attn (16*16) + gate/up
        // (32*16 each) + down (16*32) + 2 norms (16); final norm 16.
        let per_layer = 4 * 16 * 16 + 3 * 32 * 16 + 2 * 16;
        assert_eq!(arch.scalar_count(), 2 * 64 * 16 + 2 * per_layer + 16);
    }

    #[test]
    fn norm_kinds_flagged() {
        assert!(ParamKind::InputNorm.is_norm());
        assert!(ParamKind::FinalNorm.is_norm());
        assert!(!ParamKind::AttnQ.is_norm());
    }

    #[test]
    fn display_mentions_dims() {
        let s = ArchSpec::tiny("demo").to_string();
        assert!(s.contains("demo") && s.contains("d_model=16"));
    }
}
