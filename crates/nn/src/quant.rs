//! Int8 decode weights: the quantized twin of [`ParamSet`]'s projections.
//!
//! A [`QuantParamSet`] holds per-row-scaled int8 copies of exactly the
//! tensors the [`should_quantize`](chipalign_model::qformat::should_quantize)
//! policy covers — the seven projection matrices of every layer plus the LM
//! head. Norm gains and the embedding table are *not* duplicated here: the
//! decode path keeps reading those from the f32 [`ParamSet`], because they
//! are either numerically sensitive (norms) or a per-token row lookup that
//! saves no bandwidth when quantized (embedding).
//!
//! The set is attached to a [`crate::TinyLm`] as an optional sidecar;
//! when present, [`crate::KvCache`] decode routes every projection through
//! the int8 kernels while training and the full f32 forward pass stay
//! untouched.

use chipalign_tensor::QuantizedMatrix;

use crate::params::{LayerParams, ParamSet};

/// Int8 projections of one transformer block (same shapes as the
/// corresponding [`LayerParams`] fields).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantLayer {
    /// Query projection.
    pub(crate) wq: QuantizedMatrix,
    /// Key projection.
    pub(crate) wk: QuantizedMatrix,
    /// Value projection.
    pub(crate) wv: QuantizedMatrix,
    /// Output projection.
    pub(crate) wo: QuantizedMatrix,
    /// SwiGLU gate projection.
    pub(crate) wg: QuantizedMatrix,
    /// SwiGLU up projection.
    pub(crate) wu: QuantizedMatrix,
    /// SwiGLU down projection.
    pub(crate) wd: QuantizedMatrix,
}

impl QuantLayer {
    fn quantize(layer: &LayerParams) -> Self {
        QuantLayer {
            wq: QuantizedMatrix::quantize(&layer.wq),
            wk: QuantizedMatrix::quantize(&layer.wk),
            wv: QuantizedMatrix::quantize(&layer.wv),
            wo: QuantizedMatrix::quantize(&layer.wo),
            wg: QuantizedMatrix::quantize(&layer.wg),
            wu: QuantizedMatrix::quantize(&layer.wu),
            wd: QuantizedMatrix::quantize(&layer.wd),
        }
    }

    fn weights_bytes(&self) -> u64 {
        [
            &self.wq, &self.wk, &self.wv, &self.wo, &self.wg, &self.wu, &self.wd,
        ]
        .iter()
        .map(|q| q.weights_bytes())
        .sum()
    }
}

/// All int8 decode weights of a model: one [`QuantLayer`] per transformer
/// block plus the quantized LM head.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct QuantParamSet {
    /// Per-block int8 projections, index-aligned with [`ParamSet::layers`].
    pub(crate) layers: Vec<QuantLayer>,
    /// Quantized LM head (`vocab × d_model`).
    pub(crate) lm_head: QuantizedMatrix,
}

impl QuantParamSet {
    /// Quantizes the projection weights of an f32 parameter set.
    #[must_use]
    pub(crate) fn quantize(params: &ParamSet) -> Self {
        QuantParamSet {
            layers: params.layers.iter().map(QuantLayer::quantize).collect(),
            lm_head: QuantizedMatrix::quantize(&params.lm_head),
        }
    }

    /// Bytes the int8 projections stream from memory per decoded token.
    #[must_use]
    pub(crate) fn weights_bytes(&self) -> u64 {
        self.layers
            .iter()
            .map(QuantLayer::weights_bytes)
            .sum::<u64>()
            + self.lm_head.weights_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::tiny("quant");
        a.vocab_size = 99;
        a
    }

    #[test]
    fn quantize_covers_every_projection() {
        let a = arch();
        let p = ParamSet::init(&a, &mut Pcg32::seed(1));
        let q = QuantParamSet::quantize(&p);
        assert_eq!(q.layers.len(), a.n_layers);
        for (ql, fl) in q.layers.iter().zip(&p.layers) {
            assert_eq!(ql.wq.shape(), fl.wq.shape());
            assert_eq!(ql.wd.shape(), fl.wd.shape());
        }
        assert_eq!(q.lm_head.shape(), p.lm_head.shape());
    }

    #[test]
    fn weights_bytes_beat_f32_projections() {
        let a = arch();
        let p = ParamSet::init(&a, &mut Pcg32::seed(2));
        let q = QuantParamSet::quantize(&p);
        let f32_proj_bytes: u64 = p
            .layers
            .iter()
            .map(|l| {
                4 * [&l.wq, &l.wk, &l.wv, &l.wo, &l.wg, &l.wu, &l.wd]
                    .iter()
                    .map(|m| m.len() as u64)
                    .sum::<u64>()
            })
            .sum::<u64>()
            + 4 * p.lm_head.len() as u64;
        assert!(
            q.weights_bytes() < f32_proj_bytes / 2,
            "int8 projections must stream under half the f32 bytes"
        );
    }
}
