//! The decoder-only transformer: forward pass with activation caching and a
//! complete manual backward pass.
//!
//! Layer recipe (LLaMA): pre-RMSNorm → rotary multi-head self-attention →
//! residual → pre-RMSNorm → SwiGLU MLP → residual; final RMSNorm and an
//! untied LM head. Everything is `f32`; matrices are `(seq × features)`
//! activations against `(out × in)` weights, so projections are
//! `x · Wᵀ` ([`Matrix::matmul_bt`]). Single-token sequences (`seq == 1`)
//! automatically take the kernel's matvec fast path via its `m == 1`
//! dispatch, with the same accumulation order as the KV-cached decode in
//! [`crate::KvCache`], so the two paths agree numerically.

use chipalign_model::{ArchSpec, Checkpoint, ModelError};
use chipalign_tensor::ops;
use chipalign_tensor::rng::Pcg32;
use chipalign_tensor::Matrix;

use crate::params::{LayerParams, ParamSet};
use crate::quant::QuantParamSet;
use crate::NnError;

const RMS_EPS: f32 = 1e-5;
const ROPE_BASE: f32 = 10_000.0;

/// A tiny LLaMA-style causal language model.
///
/// # Example
///
/// ```
/// use chipalign_model::ArchSpec;
/// use chipalign_nn::TinyLm;
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_nn::NnError> {
/// let mut arch = ArchSpec::tiny("demo");
/// arch.vocab_size = 99;
/// let model = TinyLm::new(&arch, &mut Pcg32::seed(7))?;
/// let logits = model.logits(&[1, 5, 9])?;
/// assert_eq!(logits.shape(), (3, 99));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TinyLm {
    arch: ArchSpec,
    params: ParamSet,
    /// Optional int8 sidecar for the decode projections. `None` for f32
    /// models; populated by [`TinyLm::quantize`] or a quantized checkpoint
    /// load, and dropped whenever the f32 weights are mutated.
    quant: Option<QuantParamSet>,
}

/// Cached activations from one forward pass, consumed by
/// [`TinyLm::backward`].
#[derive(Debug, Clone)]
pub struct ForwardCache {
    tokens: Vec<u32>,
    layers: Vec<LayerCache>,
    final_rms: Vec<f32>,
    h_final_in: Matrix,
    h_final: Matrix,
}

#[derive(Debug, Clone)]
struct LayerCache {
    h_in: Matrix,
    norm1_rms: Vec<f32>,
    h_norm1: Matrix,
    q_rot: Matrix,
    k_rot: Matrix,
    v: Matrix,
    probs: Vec<Matrix>,
    ctx: Matrix,
    h_mid: Matrix,
    norm2_rms: Vec<f32>,
    h_norm2: Matrix,
    gate: Matrix,
    up: Matrix,
    act: Matrix,
}

impl TinyLm {
    /// Creates a randomly initialised model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the architecture is internally
    /// inconsistent (see [`ArchSpec::check`]).
    pub fn new(arch: &ArchSpec, rng: &mut Pcg32) -> Result<Self, NnError> {
        arch.check()
            .map_err(|detail| NnError::BadConfig { detail })?;
        Ok(TinyLm {
            arch: arch.clone(),
            params: ParamSet::init(arch, rng),
            quant: None,
        })
    }

    /// Reconstructs a model from a checkpoint, copying its tensors; an
    /// owner that is done with the checkpoint moves it in with
    /// `TinyLm::try_from` instead.
    ///
    /// # Errors
    ///
    /// Returns the underlying validation error if the checkpoint does not
    /// instantiate its architecture.
    pub fn from_checkpoint(ckpt: &Checkpoint) -> Result<Self, NnError> {
        Self::try_from(ckpt.clone())
    }

    /// Attaches (or refreshes) the int8 decode sidecar, quantizing every
    /// projection weight at per-row scale. Idempotent; cheap relative to a
    /// checkpoint load.
    pub fn quantize(&mut self) {
        self.quant = Some(QuantParamSet::quantize(&self.params));
    }

    /// The dtype decode streams for projection weights: `"int8"` when the
    /// sidecar is attached, `"f32"` otherwise.
    #[must_use]
    pub fn dtype(&self) -> &'static str {
        if self.quant.is_some() {
            "int8"
        } else {
            "f32"
        }
    }

    /// The int8 decode sidecar, if attached.
    #[must_use]
    pub(crate) fn quant(&self) -> Option<&QuantParamSet> {
        self.quant.as_ref()
    }

    /// The model's weight footprint in bytes at its decode dtype: int8
    /// projections plus f32 norms and embedding when quantized,
    /// `4 × scalar_count` otherwise.
    #[must_use]
    pub fn weights_bytes(&self) -> u64 {
        match &self.quant {
            Some(q) => {
                let quantized: u64 = q.weights_bytes();
                let f32_rest: u64 = self
                    .params
                    .layers
                    .iter()
                    .map(|l| 4 * (l.norm1.len() + l.norm2.len()) as u64)
                    .sum::<u64>()
                    + 4 * (self.params.embed.len() + self.params.final_norm.len()) as u64;
                quantized + f32_rest
            }
            None => 4 * self.params.scalar_count() as u64,
        }
    }

    /// Exports the weights as a checkpoint.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint validation failures (impossible for a model
    /// constructed through this API).
    pub fn to_checkpoint(&self) -> Result<Checkpoint, ModelError> {
        self.params.to_checkpoint(&self.arch)
    }

    /// Returns a clone of this model keeping only its first `n_layers`
    /// transformer layers (embedding, final norm, and LM head are shared
    /// unchanged). This is the cheapest self-draft for speculative
    /// decoding: the truncated model reads the same vocabulary and often
    /// agrees with the full stack on easy tokens at a fraction of the
    /// per-token cost. If this model carries an int8 sidecar, the truncated
    /// clone is re-quantized so its decode dtype matches.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] when `n_layers` is zero or exceeds
    /// the model's layer count.
    pub fn truncate_layers(&self, n_layers: usize) -> Result<TinyLm, NnError> {
        if n_layers == 0 || n_layers > self.arch.n_layers {
            return Err(NnError::BadConfig {
                detail: format!(
                    "truncate_layers: n_layers must lie in [1, {}], got {n_layers}",
                    self.arch.n_layers
                ),
            });
        }
        let mut arch = self.arch.clone();
        arch.n_layers = n_layers;
        let mut params = self.params.clone();
        params.layers.truncate(n_layers);
        let mut model = TinyLm {
            arch,
            params,
            quant: None,
        };
        if self.quant.is_some() {
            model.quantize();
        }
        Ok(model)
    }

    /// The model's architecture.
    #[must_use]
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// Immutable access to the parameters.
    #[must_use]
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable access to the parameters (used by the optimizer).
    ///
    /// Drops any attached int8 sidecar: once the f32 weights can change,
    /// previously quantized codes would silently go stale. Re-call
    /// [`TinyLm::quantize`] after mutating.
    pub fn params_mut(&mut self) -> &mut ParamSet {
        self.quant = None;
        &mut self.params
    }

    /// Validates a token sequence against vocabulary and context limits.
    fn check_tokens(&self, tokens: &[u32]) -> Result<(), NnError> {
        if tokens.is_empty() {
            return Err(NnError::BadSequence {
                detail: "empty token sequence".into(),
            });
        }
        if tokens.len() > self.arch.max_seq_len {
            return Err(NnError::BadSequence {
                detail: format!(
                    "sequence of {} tokens exceeds max_seq_len {}",
                    tokens.len(),
                    self.arch.max_seq_len
                ),
            });
        }
        for &t in tokens {
            if t as usize >= self.arch.vocab_size {
                return Err(NnError::BadToken {
                    id: t,
                    vocab: self.arch.vocab_size,
                });
            }
        }
        Ok(())
    }

    /// Runs the forward pass, returning `(seq × vocab)` logits and the
    /// activation cache needed for [`TinyLm::backward`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadSequence`]/[`NnError::BadToken`] for invalid
    /// input.
    pub fn forward(&self, tokens: &[u32]) -> Result<(Matrix, ForwardCache), NnError> {
        self.check_tokens(tokens)?;
        let seq = tokens.len();
        let d = self.arch.d_model;
        let n_heads = self.arch.n_heads;
        let head_dim = self.arch.head_dim();

        // Token embedding.
        let mut h = Matrix::zeros(seq, d);
        for (t, &tok) in tokens.iter().enumerate() {
            h.row_mut(t)
                .copy_from_slice(self.params.embed.row(tok as usize));
        }

        let mut layer_caches = Vec::with_capacity(self.arch.n_layers);
        for layer in &self.params.layers {
            let h_in = h.clone();

            // --- attention block ---
            let (h_norm1, norm1_rms) = rmsnorm_forward(&h_in, &layer.norm1);
            let mut q = h_norm1.matmul_bt(&layer.wq)?;
            let mut k = h_norm1.matmul_bt(&layer.wk)?;
            let v = h_norm1.matmul_bt(&layer.wv)?;
            rope_inplace(&mut q, n_heads, head_dim, 1.0);
            rope_inplace(&mut k, n_heads, head_dim, 1.0);

            let mut ctx = Matrix::zeros(seq, d);
            let mut probs_all = Vec::with_capacity(n_heads);
            let scale = 1.0 / (head_dim as f32).sqrt();
            for hh in 0..n_heads {
                let start = hh * head_dim;
                let q_h = col_block(&q, start, head_dim);
                let k_h = col_block(&k, start, head_dim);
                let v_h = col_block(&v, start, head_dim);
                let mut scores = q_h.matmul_bt(&k_h)?;
                scores.scale_inplace(scale);
                apply_causal_mask(&mut scores);
                for r in 0..seq {
                    ops::softmax_inplace(scores.row_mut(r));
                }
                let ctx_h = scores.matmul(&v_h)?;
                set_col_block(&mut ctx, start, &ctx_h);
                probs_all.push(scores);
            }
            let attn_out = ctx.matmul_bt(&layer.wo)?;
            let h_mid = h_in.add(&attn_out)?;

            // --- MLP block ---
            let (h_norm2, norm2_rms) = rmsnorm_forward(&h_mid, &layer.norm2);
            let gate = h_norm2.matmul_bt(&layer.wg)?;
            let up = h_norm2.matmul_bt(&layer.wu)?;
            let act = gate.zip_map(&up, |g, u| ops::silu(g) * u)?;
            let mlp_out = act.matmul_bt(&layer.wd)?;
            h = h_mid.add(&mlp_out)?;

            layer_caches.push(LayerCache {
                h_in,
                norm1_rms,
                h_norm1,
                q_rot: q,
                k_rot: k,
                v,
                probs: probs_all,
                ctx,
                h_mid,
                norm2_rms,
                h_norm2,
                gate,
                up,
                act,
            });
        }

        let h_final_in = h.clone();
        let (h_final, final_rms) = rmsnorm_forward(&h_final_in, &self.params.final_norm);
        let logits = h_final.matmul_bt(&self.params.lm_head)?;

        let cache = ForwardCache {
            tokens: tokens.to_vec(),
            layers: layer_caches,
            final_rms,
            h_final_in,
            h_final,
        };
        Ok((logits, cache))
    }

    /// Forward pass without keeping the cache.
    ///
    /// # Errors
    ///
    /// Same contract as [`TinyLm::forward`].
    pub fn logits(&self, tokens: &[u32]) -> Result<Matrix, NnError> {
        self.forward(tokens).map(|(logits, _)| logits)
    }

    /// Backpropagates `dlogits` (gradient of the loss w.r.t. the logits)
    /// through the cached forward pass, returning gradients for every
    /// parameter.
    ///
    /// # Errors
    ///
    /// Returns a tensor error if `dlogits` does not match the cached
    /// sequence's `(seq × vocab)` shape.
    pub fn backward(&self, cache: &ForwardCache, dlogits: &Matrix) -> Result<ParamSet, NnError> {
        let seq = cache.tokens.len();
        let n_heads = self.arch.n_heads;
        let head_dim = self.arch.head_dim();
        let mut grads = self.params.zeros_like();

        // LM head.
        grads.lm_head = dlogits.matmul_at_checked(&cache.h_final)?;
        let dh_final = dlogits.matmul(&self.params.lm_head)?;

        // Final RMSNorm.
        let (mut dh, dg_final) = rmsnorm_backward(
            &cache.h_final_in,
            &self.params.final_norm,
            &cache.final_rms,
            &dh_final,
        )?;
        grads.final_norm = dg_final;

        // Layers in reverse.
        for (layer, lcache, lgrads) in
            itertools_rev(&self.params.layers, &cache.layers, &mut grads.layers)
        {
            // --- MLP block backward ---
            // h_out = h_mid + act · Wdᵀ
            let dmlp_out = dh.clone();
            lgrads.wd = dmlp_out.matmul_at_checked(&lcache.act)?;
            let dact = dmlp_out.matmul(&layer.wd)?;
            // act = silu(gate) ⊙ up
            let dup = dact.zip_map(&lcache.gate, |da, g| da * ops::silu(g))?;
            let dgate = dact
                .zip_map(&lcache.up, |da, u| da * u)?
                .zip_map(&lcache.gate, |dau, g| dau * ops::silu_grad(g))?;
            lgrads.wg = dgate.matmul_at_checked(&lcache.h_norm2)?;
            lgrads.wu = dup.matmul_at_checked(&lcache.h_norm2)?;
            let mut dh_norm2 = dgate.matmul(&layer.wg)?;
            dh_norm2.add_assign(&dup.matmul(&layer.wu)?)?;
            // RMSNorm 2.
            let (dh_mid_from_norm, dg2) =
                rmsnorm_backward(&lcache.h_mid, &layer.norm2, &lcache.norm2_rms, &dh_norm2)?;
            lgrads.norm2 = dg2;
            let mut dh_mid = dh; // residual path
            dh_mid.add_assign(&dh_mid_from_norm)?;

            // --- attention block backward ---
            // h_mid = h_in + ctx · Woᵀ
            let dattn_out = dh_mid.clone();
            lgrads.wo = dattn_out.matmul_at_checked(&lcache.ctx)?;
            let dctx = dattn_out.matmul(&layer.wo)?;

            let d = self.arch.d_model;
            let mut dq = Matrix::zeros(seq, d);
            let mut dk = Matrix::zeros(seq, d);
            let mut dv = Matrix::zeros(seq, d);
            let scale = 1.0 / (head_dim as f32).sqrt();
            for hh in 0..n_heads {
                let start = hh * head_dim;
                let dctx_h = col_block(&dctx, start, head_dim);
                let probs = &lcache.probs[hh];
                let q_h = col_block(&lcache.q_rot, start, head_dim);
                let k_h = col_block(&lcache.k_rot, start, head_dim);
                let v_h = col_block(&lcache.v, start, head_dim);

                // ctx_h = probs · v_h
                let dv_h = probs.matmul_at(&dctx_h)?;
                let dprobs = dctx_h.matmul_bt(&v_h)?;
                // softmax backward, row-wise.
                let dscores = softmax_backward_rows(probs, &dprobs);
                // scores = scale · q_h · k_hᵀ
                let mut dq_h = dscores.matmul(&k_h)?;
                dq_h.scale_inplace(scale);
                let mut dk_h = dscores.matmul_at(&q_h)?;
                dk_h.scale_inplace(scale);

                set_col_block(&mut dq, start, &dq_h);
                set_col_block(&mut dk, start, &dk_h);
                set_col_block(&mut dv, start, &dv_h);
            }
            // Undo the rotary rotation (orthogonal, so transpose = -angle).
            rope_inplace(&mut dq, n_heads, head_dim, -1.0);
            rope_inplace(&mut dk, n_heads, head_dim, -1.0);

            lgrads.wq = dq.matmul_at_checked(&lcache.h_norm1)?;
            lgrads.wk = dk.matmul_at_checked(&lcache.h_norm1)?;
            lgrads.wv = dv.matmul_at_checked(&lcache.h_norm1)?;
            let mut dh_norm1 = dq.matmul(&layer.wq)?;
            dh_norm1.add_assign(&dk.matmul(&layer.wk)?)?;
            dh_norm1.add_assign(&dv.matmul(&layer.wv)?)?;

            // RMSNorm 1.
            let (dh_in_from_norm, dg1) =
                rmsnorm_backward(&lcache.h_in, &layer.norm1, &lcache.norm1_rms, &dh_norm1)?;
            lgrads.norm1 = dg1;
            let mut dh_in = dh_mid; // residual path
            dh_in.add_assign(&dh_in_from_norm)?;
            dh = dh_in;
        }

        // Embedding rows.
        for (t, &tok) in cache.tokens.iter().enumerate() {
            let grad_row = dh.row(t).to_vec();
            let dst = grads.embed.row_mut(tok as usize);
            for (g, v) in dst.iter_mut().zip(grad_row) {
                *g += v;
            }
        }
        Ok(grads)
    }
}

/// Pairs layers, caches, and gradient slots in reverse order.
fn itertools_rev<'a>(
    layers: &'a [LayerParams],
    caches: &'a [LayerCache],
    grads: &'a mut [LayerParams],
) -> impl Iterator<Item = (&'a LayerParams, &'a LayerCache, &'a mut LayerParams)> {
    layers
        .iter()
        .rev()
        .zip(caches.iter().rev())
        .zip(grads.iter_mut().rev())
        .map(|((l, c), g)| (l, c, g))
}

/// RMSNorm of one row, the one every forward runs: writes
/// `y = g ⊙ x / rms` into `y` and returns `rms = sqrt(mean(x²) + ε)`.
pub(crate) fn rmsnorm_row(x: &[f32], gain: &[f32], y: &mut [f32]) -> f32 {
    let ms = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
    let rms = (ms + RMS_EPS).sqrt();
    for ((y, &v), &g) in y.iter_mut().zip(x).zip(gain) {
        *y = g * v / rms;
    }
    rms
}

/// RMSNorm forward over every row of `x`. Returns the output and per-row
/// rms values.
fn rmsnorm_forward(x: &Matrix, gain: &Matrix) -> (Matrix, Vec<f32>) {
    let (rows, cols) = x.shape();
    let mut y = Matrix::zeros(rows, cols);
    let rms = (0..rows)
        .map(|r| rmsnorm_row(x.row(r), gain.data(), y.row_mut(r)))
        .collect();
    (y, rms)
}

/// RMSNorm backward. Returns `(dx, dgain)`.
fn rmsnorm_backward(
    x: &Matrix,
    gain: &Matrix,
    rms: &[f32],
    dy: &Matrix,
) -> Result<(Matrix, Matrix), NnError> {
    let (rows, cols) = x.shape();
    let mut dx = Matrix::zeros(rows, cols);
    let mut dgain = Matrix::zeros(1, cols);
    let g = gain.data();
    for (r, &rr) in rms.iter().enumerate().take(rows) {
        let xr = x.row(r);
        let dyr = dy.row(r);
        // S = Σ_i dy_i g_i x_i
        let s: f32 = (0..cols).map(|c| dyr[c] * g[c] * xr[c]).sum();
        let dxr = dx.row_mut(r);
        let factor = s / (cols as f32 * rr * rr * rr);
        for c in 0..cols {
            dxr[c] = g[c] * dyr[c] / rr - xr[c] * factor;
        }
        let dgr = dgain.data_mut();
        for c in 0..cols {
            dgr[c] += dyr[c] * xr[c] / rr;
        }
    }
    Ok((dx, dgain))
}

/// Applies (or inverts, with `sign = -1`) rotary position embeddings to a
/// `(seq × d_model)` activation, head by head, on adjacent element pairs.
fn rope_inplace(m: &mut Matrix, n_heads: usize, head_dim: usize, sign: f32) {
    let mut sin_cos = Vec::with_capacity(head_dim / 2);
    for t in 0..m.rows() {
        sin_cos.clear();
        rope_sin_cos(t, head_dim, sign, &mut sin_cos);
        rope_rotate(m.row_mut(t), n_heads, head_dim, &sin_cos);
    }
}

/// Appends the `head_dim / 2` rotary `(sin, cos)` pairs of position `pos`
/// to `out`. They depend on neither head, layer nor q-versus-k, so a
/// forward evaluates the `powf` / `sin_cos` once per position and rotates
/// everything with [`rope_rotate`]; the KV-cached path shares this helper,
/// which is what keeps its angles those of the full forward.
pub(crate) fn rope_sin_cos(pos: usize, head_dim: usize, sign: f32, out: &mut Vec<(f32, f32)>) {
    out.extend((0..head_dim / 2).map(|i| {
        let theta = pos as f32 * ROPE_BASE.powf(-2.0 * i as f32 / head_dim as f32);
        (sign * theta).sin_cos()
    }));
}

/// Rotates adjacent element pairs of every head of one `d_model`-wide row
/// by the position's [`rope_sin_cos`] pairs.
pub(crate) fn rope_rotate(
    row: &mut [f32],
    n_heads: usize,
    head_dim: usize,
    sin_cos: &[(f32, f32)],
) {
    for hh in 0..n_heads {
        let base = hh * head_dim;
        for (i, &(sin, cos)) in sin_cos.iter().enumerate() {
            let a = row[base + 2 * i];
            let b = row[base + 2 * i + 1];
            row[base + 2 * i] = a * cos - b * sin;
            row[base + 2 * i + 1] = a * sin + b * cos;
        }
    }
}

/// Sets `scores[i][j] = -inf` for all `j > i` (causal attention).
fn apply_causal_mask(scores: &mut Matrix) {
    let rows = scores.rows();
    for r in 0..rows {
        let row = scores.row_mut(r);
        for v in row.iter_mut().skip(r + 1) {
            *v = f32::NEG_INFINITY;
        }
    }
}

/// Row-wise softmax Jacobian-vector product:
/// `ds_ij = p_ij (dp_ij − Σ_k dp_ik p_ik)`.
fn softmax_backward_rows(probs: &Matrix, dprobs: &Matrix) -> Matrix {
    let (rows, cols) = probs.shape();
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        let p = probs.row(r);
        let dp = dprobs.row(r);
        let inner: f32 = p.iter().zip(dp).map(|(&pi, &di)| pi * di).sum();
        let o = out.row_mut(r);
        for c in 0..cols {
            o[c] = p[c] * (dp[c] - inner);
        }
    }
    out
}

impl TryFrom<Checkpoint> for TinyLm {
    type Error = NnError;

    /// Reconstructs a model from a checkpoint, moving its tensors into the
    /// model's parameters instead of copying them.
    fn try_from(ckpt: Checkpoint) -> Result<Self, NnError> {
        ckpt.arch()
            .check()
            .map_err(|detail| NnError::BadConfig { detail })?;
        Ok(TinyLm {
            arch: ckpt.arch().clone(),
            params: ParamSet::try_from(ckpt)?,
            quant: None,
        })
    }
}

/// Extracts a contiguous block of columns as its own matrix.
fn col_block(m: &Matrix, start: usize, width: usize) -> Matrix {
    let rows = m.rows();
    Matrix::from_fn(rows, width, |r, c| m.row(r)[start + c])
}

/// Writes a column block back into a larger matrix.
fn set_col_block(dst: &mut Matrix, start: usize, src: &Matrix) {
    for r in 0..src.rows() {
        let src_row = src.row(r).to_vec();
        let dst_row = dst.row_mut(r);
        dst_row[start..start + src_row.len()].copy_from_slice(&src_row);
    }
}

/// Extension trait alias: `a.matmul_at_checked(b)` is `aᵀ·b` with the `?`
/// error type of this crate.
trait MatmulAtExt {
    fn matmul_at_checked(&self, other: &Matrix) -> Result<Matrix, NnError>;
}

impl MatmulAtExt for Matrix {
    fn matmul_at_checked(&self, other: &Matrix) -> Result<Matrix, NnError> {
        Ok(self.matmul_at(other)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::tiny("model");
        a.vocab_size = 99;
        a
    }

    fn model(seed: u64) -> TinyLm {
        TinyLm::new(&arch(), &mut Pcg32::seed(seed)).expect("valid arch")
    }

    #[test]
    fn forward_shapes() {
        let m = model(1);
        let (logits, cache) = m.forward(&[1, 4, 9, 2]).expect("ok");
        assert_eq!(logits.shape(), (4, 99));
        assert_eq!(cache.layers.len(), 2);
        assert!(logits.all_finite());
    }

    #[test]
    fn quantize_attaches_and_mutation_drops_the_sidecar() {
        let mut m = model(1);
        assert_eq!(m.dtype(), "f32");
        assert_eq!(m.dtype(), "f32");
        let f32_bytes = m.weights_bytes();
        m.quantize();
        assert_eq!(m.dtype(), "int8");
        assert_eq!(m.dtype(), "int8");
        assert!(
            m.weights_bytes() < f32_bytes,
            "int8 decode must stream fewer bytes than f32"
        );
        // Touching the f32 weights invalidates the quantized codes.
        let _ = m.params_mut();
        assert_eq!(m.dtype(), "f32");
        assert_eq!(m.weights_bytes(), f32_bytes);
    }

    #[test]
    fn truncate_layers_keeps_prefix_and_revalidates() {
        let mut m = model(3);
        let half = m.truncate_layers(1).expect("ok");
        assert_eq!(half.arch().n_layers, 1);
        assert_eq!(half.arch().vocab_size, m.arch().vocab_size);
        assert_eq!(half.params().layers.len(), 1);
        assert_eq!(half.params().layers[0], m.params().layers[0]);
        assert_eq!(half.params().embed, m.params().embed);
        assert_eq!(half.params().lm_head, m.params().lm_head);
        assert_eq!(half.dtype(), "f32");
        // The truncated clone still runs a valid forward pass.
        let logits = half.logits(&[1, 4, 9]).expect("ok");
        assert_eq!(logits.shape(), (3, 99));
        assert!(logits.all_finite());
        // Full truncation is the identity (modulo the sidecar).
        let full = m.truncate_layers(2).expect("ok");
        assert_eq!(full.params(), m.params());
        // A quantized source yields a quantized draft.
        m.quantize();
        let qhalf = m.truncate_layers(1).expect("ok");
        assert_eq!(qhalf.dtype(), "int8");
        // Bounds are enforced.
        assert!(matches!(
            m.truncate_layers(0),
            Err(NnError::BadConfig { .. })
        ));
        assert!(matches!(
            m.truncate_layers(3),
            Err(NnError::BadConfig { .. })
        ));
    }

    #[test]
    fn forward_rejects_bad_input() {
        let m = model(1);
        assert!(matches!(m.forward(&[]), Err(NnError::BadSequence { .. })));
        assert!(matches!(m.forward(&[999]), Err(NnError::BadToken { .. })));
        let too_long = vec![1u32; 33];
        assert!(matches!(
            m.forward(&too_long),
            Err(NnError::BadSequence { .. })
        ));
    }

    #[test]
    fn causality_prefix_invariance() {
        // Logits at position t must not depend on tokens after t.
        let m = model(2);
        let full = m.logits(&[5, 6, 7, 8, 9]).expect("ok");
        let prefix = m.logits(&[5, 6, 7]).expect("ok");
        for t in 0..3 {
            for v in 0..99 {
                let a = full.get(t, v).expect("in range");
                let b = prefix.get(t, v).expect("in range");
                assert!(
                    (a - b).abs() < 1e-4,
                    "position {t} vocab {v}: {a} vs {b} — causality violated"
                );
            }
        }
    }

    #[test]
    fn rope_positions_matter() {
        // Without positional information, causal attention over a permuted
        // prefix would mix exactly the same value vectors with the same
        // per-token weights, so the last-position logits for [5,6,7] and
        // [6,5,7] would coincide. RoPE must break that symmetry.
        let m = model(3);
        let a = m.logits(&[5, 6, 7]).expect("ok");
        let b = m.logits(&[6, 5, 7]).expect("ok");
        let last_a: Vec<f32> = a.row(2).to_vec();
        let last_b: Vec<f32> = b.row(2).to_vec();
        let diff: f32 = last_a.iter().zip(&last_b).map(|(x, y)| (x - y).abs()).sum();
        assert!(diff > 1e-4, "prefix order was invisible: RoPE inert");
    }

    #[test]
    fn rope_inverse_restores_input() {
        let mut rng = Pcg32::seed(4);
        let orig = Matrix::randn(6, 16, 1.0, &mut rng);
        let mut m = orig.clone();
        rope_inplace(&mut m, 2, 8, 1.0);
        assert!(!m.approx_eq(&orig, 1e-4), "rotation must change values");
        rope_inplace(&mut m, 2, 8, -1.0);
        assert!(m.approx_eq(&orig, 1e-5), "inverse rotation must restore");
    }

    #[test]
    fn rmsnorm_forward_normalizes() {
        let mut rng = Pcg32::seed(5);
        let x = Matrix::randn(3, 8, 2.0, &mut rng);
        let gain = Matrix::ones(1, 8);
        let (y, rms) = rmsnorm_forward(&x, &gain);
        assert_eq!(rms.len(), 3);
        for (r, &row_rms) in rms.iter().enumerate() {
            let ms: f32 = y.row(r).iter().map(|v| v * v).sum::<f32>() / 8.0;
            assert!((ms - 1.0).abs() < 1e-3, "row {r} mean-square {ms}");
            assert!(row_rms > 0.0);
        }
    }

    #[test]
    fn rmsnorm_backward_matches_finite_difference() {
        let mut rng = Pcg32::seed(6);
        let x = Matrix::randn(2, 6, 1.0, &mut rng);
        let gain = Matrix::randn(1, 6, 1.0, &mut rng).map(|v| v + 1.5);
        let dy = Matrix::randn(2, 6, 1.0, &mut rng);
        let (_, rms) = rmsnorm_forward(&x, &gain);
        let (dx, dgain) = rmsnorm_backward(&x, &gain, &rms, &dy).expect("ok");

        let loss = |x: &Matrix, g: &Matrix| -> f32 {
            let (y, _) = rmsnorm_forward(x, g);
            y.frobenius_dot(&dy).expect("same shape") as f32
        };
        let h = 1e-3;
        for r in 0..2 {
            for c in 0..6 {
                let mut xp = x.clone();
                let mut xm = x.clone();
                xp.row_mut(r)[c] += h;
                xm.row_mut(r)[c] -= h;
                let fd = (loss(&xp, &gain) - loss(&xm, &gain)) / (2.0 * h);
                let an = dx.get(r, c).expect("in range");
                assert!(
                    (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                    "dx[{r}][{c}]: fd {fd} vs analytic {an}"
                );
            }
        }
        for c in 0..6 {
            let mut gp = gain.clone();
            let mut gm = gain.clone();
            gp.data_mut()[c] += h;
            gm.data_mut()[c] -= h;
            let fd = (loss(&x, &gp) - loss(&x, &gm)) / (2.0 * h);
            let an = dgain.data()[c];
            assert!(
                (fd - an).abs() < 2e-2 * (1.0 + fd.abs()),
                "dgain[{c}]: fd {fd} vs analytic {an}"
            );
        }
    }

    #[test]
    fn softmax_backward_rows_matches_finite_difference() {
        let mut rng = Pcg32::seed(7);
        let logits = Matrix::randn(1, 5, 1.0, &mut rng);
        let dprobs = Matrix::randn(1, 5, 1.0, &mut rng);
        let softmax = |m: &Matrix| -> Matrix {
            let mut s = m.clone();
            for r in 0..s.rows() {
                ops::softmax_inplace(s.row_mut(r));
            }
            s
        };
        let probs = softmax(&logits);
        let ds = softmax_backward_rows(&probs, &dprobs);
        let h = 1e-3;
        for c in 0..5 {
            let mut lp = logits.clone();
            let mut lm = logits.clone();
            lp.row_mut(0)[c] += h;
            lm.row_mut(0)[c] -= h;
            let f = |l: &Matrix| softmax(l).frobenius_dot(&dprobs).expect("ok") as f32;
            let fd = (f(&lp) - f(&lm)) / (2.0 * h);
            let an = ds.get(0, c).expect("in range");
            assert!((fd - an).abs() < 1e-2, "ds[{c}]: fd {fd} vs analytic {an}");
        }
    }

    #[test]
    fn col_block_round_trip() {
        let m = Matrix::from_fn(3, 8, |r, c| (r * 8 + c) as f32);
        let block = col_block(&m, 2, 4);
        assert_eq!(block.shape(), (3, 4));
        assert_eq!(block.get(1, 0), Some(10.0));
        let mut dst = Matrix::zeros(3, 8);
        set_col_block(&mut dst, 2, &block);
        assert_eq!(dst.get(1, 2), Some(10.0));
        assert_eq!(dst.get(1, 0), Some(0.0));
    }

    #[test]
    fn checkpoint_round_trip_preserves_logits() {
        let m = model(8);
        let ckpt = m.to_checkpoint().expect("ok");
        let m2 = TinyLm::from_checkpoint(&ckpt).expect("ok");
        let a = m.logits(&[3, 7, 11]).expect("ok");
        let b = m2.logits(&[3, 7, 11]).expect("ok");
        assert!(a.approx_eq(&b, 0.0));
    }

    #[test]
    fn moving_a_checkpoint_in_equals_copying_it() {
        let ckpt = model(8).to_checkpoint().expect("ok");
        let copied = TinyLm::from_checkpoint(&ckpt).expect("ok");
        let moved = TinyLm::try_from(ckpt).expect("ok");
        let bits = |m: &TinyLm| -> Vec<u32> {
            m.params()
                .tensors()
                .iter()
                .flat_map(|t| t.data().iter().map(|x| x.to_bits()))
                .collect()
        };
        assert_eq!(bits(&moved), bits(&copied));
        assert_eq!(moved.arch(), copied.arch());
    }

    #[test]
    fn backward_produces_full_gradients() {
        let m = model(9);
        let tokens = [1u32, 5, 9, 13];
        let (logits, cache) = m.forward(&tokens).expect("ok");
        let mut rng = Pcg32::seed(10);
        let dlogits = Matrix::randn(logits.rows(), logits.cols(), 0.1, &mut rng);
        let grads = m.backward(&cache, &dlogits).expect("ok");
        assert_eq!(grads.scalar_count(), m.params().scalar_count());
        // Every weight matrix the forward pass touches must receive some
        // gradient signal.
        assert!(grads.lm_head.frobenius_norm() > 0.0);
        assert!(grads.final_norm.frobenius_norm() > 0.0);
        for (i, l) in grads.layers.iter().enumerate() {
            for (name, t) in [
                ("wq", &l.wq),
                ("wk", &l.wk),
                ("wv", &l.wv),
                ("wo", &l.wo),
                ("wg", &l.wg),
                ("wu", &l.wu),
                ("wd", &l.wd),
                ("norm1", &l.norm1),
                ("norm2", &l.norm2),
            ] {
                assert!(
                    t.frobenius_norm() > 0.0,
                    "layer {i} {name} received no gradient"
                );
            }
        }
        // Only rows of the embedding for seen tokens get gradients.
        for tok in 0..99usize {
            let row_norm: f32 = grads.embed.row(tok).iter().map(|v| v * v).sum();
            let seen = tokens.contains(&(tok as u32));
            assert_eq!(
                row_norm > 0.0,
                seen,
                "embedding row {tok} gradient presence mismatch"
            );
        }
    }
}
