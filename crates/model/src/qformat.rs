//! Quantized checkpoints: per-row-scaled int8 weights with mixed-dtype
//! persistence.
//!
//! [`QuantCheckpoint`] is the int8 sibling of [`Checkpoint`]: the same
//! named-tensor map, but projection weights (attention, MLP, LM head) are
//! stored as [`QuantizedMatrix`] — `i8` codes plus one `f32` scale per row —
//! while RMSNorm gains and the token embedding stay `f32`. Norm gains are
//! tiny and numerically sensitive; the embedding is a per-token row lookup
//! that streams one row per token either way, so quantizing it saves no
//! decode bandwidth. The policy is a pure function of [`ParamKind`]
//! (`should_quantize`), so every layer of the stack — model, nn decode,
//! serve registry — agrees on which tensors are int8.
//!
//! On-disk layout mirrors the f32 format (`format`) with a new magic and a
//! per-tensor dtype tag (all integers little-endian):
//!
//! ```text
//! magic   b"CALQ"
//! version u32 (2, the only version written or read)
//! arch    name:str vocab:u64 d_model:u64 n_layers:u64 n_heads:u64 d_ff:u64 max_seq:u64
//! meta    count:u32 { key:str value:str }*
//! tensors count:u32 { name:str dtype:u8 rows:u64 cols:u64 payload tcrc:u64 }*
//!         dtype 0 payload: [f32]*                      (rows·cols values)
//!         dtype 1 payload: scales:[f32]* codes:[i8]*   (rows, then rows·cols)
//! crc     u64  checksum over everything before it
//! ```
//!
//! `tcrc` and `crc` are XXH64 ([`crate::checksum`]), as in the f32 format,
//! and a file of any other version fails with `unsupported version N`.
//!
//! Loads rebuild each int8 tensor from its stored codes and scales
//! ([`QuantizedMatrix::from_parts`]) — never by re-quantizing a dequantized
//! matrix — so a persisted artifact loads back bit-identical, byte-for-byte
//! re-encodable, and the greedy transcripts it produces are exactly those
//! of the in-memory quantized model that was saved.

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::path::Path;

use chipalign_tensor::{Matrix, QuantizedMatrix};

use crate::format::{corrupt, read_bytes, read_file, Layout, Sink, Source};
use crate::{ArchSpec, Checkpoint, ModelError, ParamKind};

const MAGIC: &[u8; 4] = b"CALQ";
/// The on-disk version: the only one [`encode`] writes and [`decode`]
/// reads.
const VERSION: u32 = 2;
const LAYOUT: Layout = Layout {
    magic: MAGIC,
    version: VERSION,
};

const DTYPE_F32: u8 = 0;
const DTYPE_INT8: u8 = 1;

/// Whether a parameter of this kind is stored as int8 in a quantized
/// checkpoint. Projections (attention, MLP, LM head) quantize; norm gains
/// and the embedding table stay f32.
#[must_use]
pub(crate) fn should_quantize(kind: ParamKind) -> bool {
    !(kind.is_norm() || kind == ParamKind::Embedding)
}

/// One tensor of a quantized checkpoint: either a dense `f32` matrix or a
/// per-row-scaled int8 matrix.
#[derive(Debug, Clone, PartialEq)]
pub enum QuantTensor {
    /// Kept at full precision (norm gains, embedding table).
    F32(Matrix),
    /// Per-row-scaled int8 (all projection weights).
    Int8(QuantizedMatrix),
}

impl QuantTensor {
    /// `(rows, cols)` of the logical matrix.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        match self {
            QuantTensor::F32(m) => m.shape(),
            QuantTensor::Int8(q) => q.shape(),
        }
    }

    /// Bytes this tensor streams from memory per full pass.
    #[must_use]
    pub fn weights_bytes(&self) -> u64 {
        match self {
            QuantTensor::F32(m) => 4 * m.data().len() as u64,
            QuantTensor::Int8(q) => q.weights_bytes(),
        }
    }

    /// A dense `f32` view (dequantized for int8 tensors).
    #[must_use]
    pub(crate) fn to_f32(&self) -> Matrix {
        match self {
            QuantTensor::F32(m) => m.clone(),
            QuantTensor::Int8(q) => q.dequantize(),
        }
    }
}

/// A mixed-dtype checkpoint: the architecture and metadata of a
/// [`Checkpoint`], with projection weights quantized to per-row-scaled
/// int8.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantCheckpoint {
    arch: ArchSpec,
    tensors: BTreeMap<String, QuantTensor>,
    metadata: BTreeMap<String, String>,
}

impl QuantCheckpoint {
    /// Quantizes a validated f32 checkpoint under the `should_quantize`
    /// policy. Parameters whose kind the architecture cannot classify stay
    /// f32 (a validated checkpoint has none, but the conversion must not
    /// silently degrade an unknown tensor).
    #[must_use]
    pub fn quantize(ckpt: &Checkpoint) -> Self {
        let arch = ckpt.arch().clone();
        let tensors = ckpt
            .iter()
            .map(|(name, tensor)| {
                let int8 = arch.kind_of(name).is_some_and(should_quantize);
                let qt = if int8 {
                    QuantTensor::Int8(QuantizedMatrix::quantize(tensor))
                } else {
                    QuantTensor::F32(tensor.clone())
                };
                (name.to_string(), qt)
            })
            .collect();
        QuantCheckpoint {
            arch,
            tensors,
            metadata: ckpt.metadata().clone(),
        }
    }

    /// The architecture this checkpoint instantiates.
    #[must_use]
    pub fn arch(&self) -> &ArchSpec {
        &self.arch
    }

    /// The metadata map.
    #[must_use]
    pub fn metadata(&self) -> &BTreeMap<String, String> {
        &self.metadata
    }

    /// Looks up a tensor by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&QuantTensor> {
        self.tensors.get(name)
    }

    /// Iterates over `(name, tensor)` pairs in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &QuantTensor)> {
        self.tensors.iter()
    }

    /// Number of named tensors.
    #[must_use]
    pub(crate) fn param_count(&self) -> usize {
        self.tensors.len()
    }

    /// Total weight bytes streamed per full pass over the model —
    /// the quantity the int8 format exists to shrink (f32 checkpoints
    /// stream `4 × scalar_count`).
    #[must_use]
    pub fn weights_bytes(&self) -> u64 {
        self.tensors.values().map(QuantTensor::weights_bytes).sum()
    }

    /// Expands back to a dense f32 [`Checkpoint`] (the differential-test
    /// oracle path; also how f32-only consumers can read a quantized
    /// artifact).
    ///
    /// # Errors
    ///
    /// Returns the usual validation errors if the tensors do not
    /// instantiate the architecture (impossible for a checkpoint built by
    /// [`QuantCheckpoint::quantize`]).
    pub fn dequantize(&self) -> Result<Checkpoint, ModelError> {
        let tensors = self
            .tensors
            .iter()
            .map(|(name, t)| (name.clone(), t.to_f32()))
            .collect();
        Checkpoint::from_parts(self.arch.clone(), tensors, self.metadata.clone())
    }
}

/// Serializes a quantized checkpoint to its binary representation, the
/// bytes [`load`] reads back.
#[must_use]
pub fn encode(ckpt: &QuantCheckpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + ckpt.weights_bytes() as usize);
    write_quant(ckpt, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

fn write_quant(ckpt: &QuantCheckpoint, out: &mut impl Write) -> io::Result<()> {
    let mut sink = Sink::new(out);
    sink.bytes(MAGIC)?;
    sink.u32(VERSION)?;
    sink.arch_and_metadata(ckpt.arch(), ckpt.metadata())?;
    sink.u32(ckpt.param_count() as u32)?;
    for (name, tensor) in ckpt.iter() {
        sink.str(name)?;
        let (rows, cols) = tensor.shape();
        sink.bytes(&[match tensor {
            QuantTensor::F32(_) => DTYPE_F32,
            QuantTensor::Int8(_) => DTYPE_INT8,
        }])?;
        sink.u64(rows as u64)?;
        sink.u64(cols as u64)?;
        sink.begin_payload();
        match tensor {
            QuantTensor::F32(m) => sink.f32s(m.data())?,
            QuantTensor::Int8(q) => {
                sink.f32s(q.scales())?;
                sink.i8s(q.data())?;
            }
        }
        sink.end_payload()?;
    }
    sink.finish()
}

/// Deserializes a quantized checkpoint from bytes produced by [`encode`].
///
/// Int8 tensors are rebuilt from their stored codes and scales, so decode ∘
/// encode is the identity (and re-encoding reproduces the input bytes).
///
/// # Errors
///
/// Returns [`ModelError::Corrupt`] for truncated data, a bad
/// magic/version/dtype, a whole-file checksum mismatch, or invalid UTF-8;
/// [`ModelError::ChecksumMismatch`] when a tensor fails its embedded
/// checksum; and [`ModelError::NonFinite`] when an f32 tensor or an int8
/// tensor's scales hold NaN or infinite values.
pub fn decode(data: &[u8]) -> Result<QuantCheckpoint, ModelError> {
    read_bytes(data, &LAYOUT, parse_quant)
}

fn parse_quant(src: &mut Source<impl Read>) -> Result<QuantCheckpoint, ModelError> {
    let (arch, metadata) = src.arch_and_metadata()?;

    let tensor_count = src.u32()?;
    let mut tensors = BTreeMap::new();
    for _ in 0..tensor_count {
        let tname = src.str()?;
        let dtype = src.u8()?;
        let rows = usize::try_from(src.u64()?).map_err(|_| corrupt("rows overflow"))?;
        let cols = usize::try_from(src.u64()?).map_err(|_| corrupt("cols overflow"))?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("tensor size overflow"))?;
        match dtype {
            DTYPE_F32 => n.checked_mul(4),
            DTYPE_INT8 => rows.checked_mul(4).and_then(|s| s.checked_add(n)),
            _ => return Err(corrupt(&format!("unknown dtype {dtype}"))),
        }
        .ok_or_else(|| corrupt("tensor byte size overflow"))?;
        src.begin_payload();
        let tensor = if dtype == DTYPE_F32 {
            let values = src.f32s(n)?;
            if src.payload_crc() != src.u64()? {
                return Err(ModelError::ChecksumMismatch { tensor: tname });
            }
            if values.iter().any(|v| !v.is_finite()) {
                return Err(ModelError::NonFinite { tensor: tname });
            }
            QuantTensor::F32(Matrix::from_vec(rows, cols, values)?)
        } else {
            let scales = src.f32s(rows)?;
            let codes = src.i8s(n)?;
            if src.payload_crc() != src.u64()? {
                return Err(ModelError::ChecksumMismatch { tensor: tname });
            }
            if scales.iter().any(|s| !s.is_finite()) {
                return Err(ModelError::NonFinite { tensor: tname });
            }
            QuantTensor::Int8(QuantizedMatrix::from_parts(rows, cols, codes, scales)?)
        };
        tensors.insert(tname, tensor);
    }
    src.finish()?;
    Ok(QuantCheckpoint {
        arch,
        tensors,
        metadata,
    })
}

/// Reads a quantized checkpoint from a file holding [`encode`]'s bytes, streaming
/// (checksum pass, then parse).
///
/// # Errors
///
/// Returns [`ModelError::Io`] on filesystem failures and the [`decode`]
/// errors on malformed content.
pub fn load(path: impl AsRef<Path>) -> Result<QuantCheckpoint, ModelError> {
    read_file(path.as_ref(), &LAYOUT, parse_quant)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::xxh64;
    use chipalign_tensor::rng::Pcg32;

    fn sample() -> QuantCheckpoint {
        let mut ckpt = Checkpoint::random(&ArchSpec::tiny("qfmt"), &mut Pcg32::seed(11));
        ckpt.set_metadata("origin", "qformat-test");
        QuantCheckpoint::quantize(&ckpt)
    }

    fn refit_file_crc(data: &mut [u8]) {
        let body_len = data.len() - 8;
        let crc = xxh64(&data[..body_len]);
        data[body_len..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn policy_quantizes_projections_only() {
        assert!(should_quantize(ParamKind::AttnQ));
        assert!(should_quantize(ParamKind::MlpDown));
        assert!(should_quantize(ParamKind::LmHead));
        assert!(!should_quantize(ParamKind::Embedding));
        assert!(!should_quantize(ParamKind::InputNorm));
        assert!(!should_quantize(ParamKind::FinalNorm));
    }

    #[test]
    fn quantize_applies_policy_per_tensor() {
        let q = sample();
        assert!(matches!(
            q.get("model.embed_tokens.weight"),
            Some(QuantTensor::F32(_))
        ));
        assert!(matches!(
            q.get("model.norm.weight"),
            Some(QuantTensor::F32(_))
        ));
        assert!(matches!(
            q.get("lm_head.weight"),
            Some(QuantTensor::Int8(_))
        ));
        assert!(matches!(
            q.get("model.layers.0.self_attn.q_proj.weight"),
            Some(QuantTensor::Int8(_))
        ));
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let q = sample();
        let bytes = encode(&q);
        let back = decode(&bytes).expect("round trip");
        assert_eq!(back, q);
        assert_eq!(encode(&back), bytes, "re-encode must reproduce the bytes");
    }

    #[test]
    fn weights_bytes_beat_f32() {
        let arch = ArchSpec::tiny("qfmt");
        let ckpt = Checkpoint::random(&arch, &mut Pcg32::seed(12));
        let q = QuantCheckpoint::quantize(&ckpt);
        let f32_bytes = 4 * arch.scalar_count() as u64;
        assert!(
            q.weights_bytes() < f32_bytes / 2,
            "int8 model must stream under half the f32 bytes: {} vs {}",
            q.weights_bytes(),
            f32_bytes
        );
    }

    #[test]
    fn dequantize_tracks_source_within_half_step() {
        let ckpt = Checkpoint::random(&ArchSpec::tiny("qfmt"), &mut Pcg32::seed(13));
        let deq = QuantCheckpoint::quantize(&ckpt)
            .dequantize()
            .expect("valid");
        deq.validate().expect("dequantized checkpoint validates");
        // Norms and embedding are bit-exact; projections within half a step.
        assert_eq!(deq.get("model.norm.weight"), ckpt.get("model.norm.weight"));
        let name = "model.layers.1.mlp.up_proj.weight";
        let (orig, got) = (ckpt.get(name).unwrap(), deq.get(name).unwrap());
        for r in 0..orig.rows() {
            let max_abs = orig.row(r).iter().fold(0.0f32, |a, &x| a.max(x.abs()));
            let half_step = max_abs / 254.0 + 1e-12;
            for (a, b) in orig.row(r).iter().zip(got.row(r)) {
                assert!((a - b).abs() <= half_step);
            }
        }
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("chipalign-qfmt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.calq");
        let q = sample();
        std::fs::write(&path, encode(&q)).expect("write");
        let back = load(&path).expect("load");
        assert_eq!(back, q);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn detects_bit_flip_and_truncation() {
        let data = encode(&sample());
        let mut flipped = data.to_vec();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(decode(&flipped), Err(ModelError::Corrupt { .. })));
        for cut in [0, 3, 10, data.len() - 1] {
            assert!(matches!(
                decode(&data[..cut]),
                Err(ModelError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn per_tensor_checksum_names_the_damaged_tensor() {
        // Tail layout: ... codes | tcrc(8) | file-crc(8) — flip the last
        // code byte of the last tensor and refit the outer CRC.
        let mut data = encode(&sample()).to_vec();
        let idx = data.len() - 17;
        data[idx] ^= 0xFF;
        refit_file_crc(&mut data);
        match decode(&data) {
            Err(ModelError::ChecksumMismatch { tensor }) => {
                assert!(!tensor.is_empty());
            }
            other => panic!("expected per-tensor checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn detects_bad_magic_and_version() {
        let mut data = encode(&sample()).to_vec();
        data[0] = b'X';
        refit_file_crc(&mut data);
        assert!(matches!(decode(&data), Err(ModelError::Corrupt { .. })));
        for version in [1u8, 99] {
            let mut data = encode(&sample()).to_vec();
            data[4] = version;
            refit_file_crc(&mut data);
            match decode(&data) {
                Err(ModelError::Corrupt { detail }) => {
                    assert_eq!(detail, format!("unsupported version {version}"));
                }
                other => panic!("expected corrupt-version, got {other:?}"),
            }
        }
    }

    #[test]
    fn f32_format_rejects_quantized_bytes() {
        // A CALQ file must not half-parse as CALT (and vice versa).
        let data = encode(&sample());
        assert!(crate::format::decode(&data).is_err());
    }

    #[test]
    fn encoding_is_deterministic() {
        let q = sample();
        assert_eq!(encode(&q), encode(&q));
    }
}
