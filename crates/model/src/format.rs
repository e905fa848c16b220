//! "Safetensors-lite": a compact binary checkpoint format.
//!
//! Real LLM checkpoints ship as safetensors files; this module provides the
//! workspace's equivalent so that trained specialists and merged models can
//! be cached on disk and exchanged between pipeline stages.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   b"CALT"
//! version u32 (currently 2; version-1 files remain readable)
//! arch    name:str vocab:u64 d_model:u64 n_layers:u64 n_heads:u64 d_ff:u64 max_seq:u64
//! meta    count:u32 { key:str value:str }*
//! tensors count:u32 { name:str rows:u64 cols:u64 data:[f32]* tcrc:u64 }*
//! crc     u64  FNV-1a over everything before it
//! str     len:u32 utf8-bytes
//! ```
//!
//! Version 2 embeds a per-tensor FNV-1a checksum (`tcrc`) over each tensor's
//! payload bytes, so a load failure names the damaged tensor instead of just
//! "file corrupt"; version-1 files (no `tcrc`) still decode. Loads also
//! reject non-finite weights — a checkpoint with NaN/Inf can only produce
//! garbage generations, so it is refused up front with
//! [`ModelError::NonFinite`].
//!
//! [`save`] is crash-safe: bytes are written to a temporary sibling file,
//! fsynced, and renamed into place, so a crash or torn write mid-save can
//! never leave a half-written checkpoint at the destination path.
//!
//! # Example
//!
//! ```
//! use chipalign_model::{ArchSpec, Checkpoint, format};
//! use chipalign_tensor::rng::Pcg32;
//!
//! # fn main() -> Result<(), chipalign_model::ModelError> {
//! let ckpt = Checkpoint::random(&ArchSpec::tiny("demo"), &mut Pcg32::seed(1));
//! let bytes = format::encode(&ckpt);
//! let back = format::decode(&bytes)?;
//! assert!(ckpt.approx_eq(&back, 0.0));
//! # Ok(())
//! # }
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use chipalign_tensor::Matrix;

use crate::{ArchSpec, Checkpoint, ModelError};

const MAGIC: &[u8; 4] = b"CALT";
/// Current on-disk version. Version 1 (no per-tensor checksums) is still
/// accepted by [`decode`].
const VERSION: u32 = 2;
/// Oldest version [`decode`] accepts.
const MIN_VERSION: u32 = 1;

/// Serializes a checkpoint to its binary representation (version 2).
#[must_use]
pub fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    encode_with_version(ckpt, VERSION)
}

fn encode_with_version(ckpt: &Checkpoint, version: u32) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + ckpt.scalar_count() * 4);
    buf.extend_from_slice(MAGIC);
    put_u32(&mut buf, version);
    let arch = ckpt.arch();
    put_str(&mut buf, &arch.name);
    for dim in [
        arch.vocab_size,
        arch.d_model,
        arch.n_layers,
        arch.n_heads,
        arch.d_ff,
        arch.max_seq_len,
    ] {
        put_u64(&mut buf, dim as u64);
    }
    put_u32(&mut buf, ckpt.metadata().len() as u32);
    for (k, v) in ckpt.metadata() {
        put_str(&mut buf, k);
        put_str(&mut buf, v);
    }
    put_u32(&mut buf, ckpt.param_count() as u32);
    for (name, tensor) in ckpt.iter() {
        put_str(&mut buf, name);
        put_u64(&mut buf, tensor.rows() as u64);
        put_u64(&mut buf, tensor.cols() as u64);
        let data_start = buf.len();
        put_f32s(&mut buf, tensor.data());
        if version >= 2 {
            let tcrc = fnv1a(&buf[data_start..]);
            put_u64(&mut buf, tcrc);
        }
    }
    let crc = fnv1a(&buf);
    put_u64(&mut buf, crc);
    buf
}

/// Deserializes a checkpoint from bytes produced by [`encode`] (either
/// format version).
///
/// # Errors
///
/// Returns [`ModelError::Corrupt`] for truncated data, a bad magic/version,
/// a whole-file checksum mismatch, or invalid UTF-8;
/// [`ModelError::ChecksumMismatch`] when a version-2 tensor fails its
/// embedded checksum; [`ModelError::NonFinite`] when a tensor holds NaN or
/// infinite weights; and the usual validation errors if the decoded tensors
/// do not instantiate the decoded architecture.
pub fn decode(data: &[u8]) -> Result<Checkpoint, ModelError> {
    if data.len() < MAGIC.len() + 4 + 8 {
        return Err(corrupt("shorter than minimum header"));
    }
    let (body, crc_bytes) = data.split_at(data.len() - 8);
    let stored_crc = u64::from_le_bytes(crc_bytes.try_into().expect("8 bytes"));
    if fnv1a(body) != stored_crc {
        return Err(corrupt("checksum mismatch"));
    }

    let mut buf = body;
    if take(&mut buf, 4)? != MAGIC {
        return Err(corrupt("bad magic"));
    }
    let version = get_u32(&mut buf)?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(corrupt(&format!("unsupported version {version}")));
    }

    let name = get_str(&mut buf)?;
    let mut dims = [0usize; 6];
    for d in &mut dims {
        *d = usize::try_from(get_u64(&mut buf)?)
            .map_err(|_| corrupt("dimension overflows usize"))?;
    }
    let arch = ArchSpec {
        name,
        vocab_size: dims[0],
        d_model: dims[1],
        n_layers: dims[2],
        n_heads: dims[3],
        d_ff: dims[4],
        max_seq_len: dims[5],
    };

    let meta_count = get_u32(&mut buf)?;
    let mut metadata = BTreeMap::new();
    for _ in 0..meta_count {
        let k = get_str(&mut buf)?;
        let v = get_str(&mut buf)?;
        metadata.insert(k, v);
    }

    let tensor_count = get_u32(&mut buf)?;
    let mut tensors = BTreeMap::new();
    for _ in 0..tensor_count {
        let tname = get_str(&mut buf)?;
        let rows = usize::try_from(get_u64(&mut buf)?).map_err(|_| corrupt("rows overflow"))?;
        let cols = usize::try_from(get_u64(&mut buf)?).map_err(|_| corrupt("cols overflow"))?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("tensor size overflow"))?;
        let byte_len = n
            .checked_mul(4)
            .ok_or_else(|| corrupt("tensor byte size overflow"))?;
        let payload_bytes = take(&mut buf, byte_len)?;
        if version >= 2 {
            let stored_tcrc = get_u64(&mut buf)?;
            if fnv1a(payload_bytes) != stored_tcrc {
                return Err(ModelError::ChecksumMismatch { tensor: tname });
            }
        }
        let values = get_f32s(payload_bytes);
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFinite { tensor: tname });
        }
        let m = Matrix::from_vec(rows, cols, values)?;
        tensors.insert(tname, m);
    }
    if !buf.is_empty() {
        return Err(corrupt("trailing bytes after last tensor"));
    }
    Checkpoint::from_parts(arch, tensors, metadata)
}

/// Writes a checkpoint to a file, crash-safely: the bytes land in a
/// temporary sibling (`<name>.<pid>.tmp`), are fsynced, and are renamed
/// into place, so a crash mid-save never leaves a torn file at `path`.
///
/// # Errors
///
/// Returns [`ModelError::Io`] on filesystem failures; the temporary file is
/// removed on any failure.
pub fn save(ckpt: &Checkpoint, path: impl AsRef<Path>) -> Result<(), ModelError> {
    let path = path.as_ref();
    let tmp = tmp_sibling(path);
    let result = (|| -> Result<(), ModelError> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(&encode(ckpt))?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Reads a checkpoint from a file written by [`save`].
///
/// # Errors
///
/// Returns [`ModelError::Io`] on filesystem failures and the [`decode`]
/// errors on malformed content.
pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, ModelError> {
    let data = fs::read(path)?;
    decode(&data)
}

/// The temporary sibling a [`save`] to `path` stages its bytes in. The pid
/// suffix keeps concurrent saves from different processes from clobbering
/// each other's staging file.
pub(crate) fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("ckpt"), |n| n.to_os_string());
    name.push(format!(".{}.tmp", std::process::id()));
    path.with_file_name(name)
}

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_f32s(buf: &mut Vec<u8>, values: &[f32]) {
    for &x in values {
        buf.extend_from_slice(&x.to_le_bytes());
    }
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

pub(crate) fn get_u32(buf: &mut &[u8]) -> Result<u32, ModelError> {
    let raw = take(buf, 4)?.try_into().expect("take returned 4 bytes");
    Ok(u32::from_le_bytes(raw))
}

pub(crate) fn get_u64(buf: &mut &[u8]) -> Result<u64, ModelError> {
    let raw = take(buf, 8)?.try_into().expect("take returned 8 bytes");
    Ok(u64::from_le_bytes(raw))
}

/// Decodes a run of little-endian `f32`s; `bytes.len()` must be a multiple
/// of 4 (callers size it as `n * 4` before calling [`take`]).
pub(crate) fn get_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("chunks_exact(4)")))
        .collect()
}

pub(crate) fn get_str(buf: &mut &[u8]) -> Result<String, ModelError> {
    let len = get_u32(buf)? as usize;
    let bytes = take(buf, len)?.to_vec();
    String::from_utf8(bytes).map_err(|_| corrupt("invalid utf-8 in string"))
}

/// Splits `n` bytes off the front of `buf`, failing on underrun.
pub(crate) fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], ModelError> {
    if buf.len() < n {
        return Err(corrupt("unexpected end of data"));
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

pub(crate) fn corrupt(detail: &str) -> ModelError {
    ModelError::Corrupt {
        detail: detail.to_string(),
    }
}

/// FNV-1a 64-bit hash.
pub(crate) fn fnv1a(data: &[u8]) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for &b in data {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_tensor::rng::Pcg32;

    fn sample() -> Checkpoint {
        let mut ckpt = Checkpoint::random(&ArchSpec::tiny("fmt"), &mut Pcg32::seed(7));
        ckpt.set_metadata("origin", "unit-test");
        ckpt
    }

    /// Refits the trailing whole-file CRC so targeted per-tensor damage is
    /// not masked by the outer checksum.
    fn refit_file_crc(data: &mut [u8]) {
        let body_len = data.len() - 8;
        let crc = fnv1a(&data[..body_len]);
        data[body_len..].copy_from_slice(&crc.to_le_bytes());
    }

    #[test]
    fn round_trip_exact() {
        let ckpt = sample();
        let back = decode(&encode(&ckpt)).expect("round trip");
        assert!(ckpt.approx_eq(&back, 0.0));
        assert_eq!(
            back.metadata().get("origin").map(String::as_str),
            Some("unit-test")
        );
        assert_eq!(back.arch(), ckpt.arch());
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("chipalign-fmt-test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("ckpt.calt");
        let ckpt = sample();
        save(&ckpt, &path).expect("save");
        let back = load(&path).expect("load");
        assert!(ckpt.approx_eq(&back, 0.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_leaves_no_temporary_behind() {
        let dir = std::env::temp_dir().join("chipalign-fmt-atomic");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("atomic.calt");
        save(&sample(), &path).expect("save");
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "staging file must be renamed away");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn save_into_missing_directory_is_a_clean_io_error() {
        let path = std::env::temp_dir()
            .join("chipalign-no-such-dir")
            .join("x.calt");
        assert!(matches!(save(&sample(), &path), Err(ModelError::Io(_))));
    }

    #[test]
    fn detects_bit_flip() {
        let mut data = encode(&sample()).to_vec();
        let mid = data.len() / 2;
        data[mid] ^= 0xFF;
        assert!(matches!(decode(&data), Err(ModelError::Corrupt { .. })));
    }

    #[test]
    fn detects_truncation() {
        let data = encode(&sample());
        for cut in [0, 3, 10, data.len() - 1] {
            assert!(
                matches!(decode(&data[..cut]), Err(ModelError::Corrupt { .. })),
                "cut at {cut} must be detected"
            );
        }
    }

    #[test]
    fn per_tensor_checksum_names_the_damaged_tensor() {
        // Flip a byte in the last tensor's payload and refit the outer CRC,
        // so only the embedded per-tensor checksum can catch it. Layout
        // tail: ... data | tcrc(8) | file-crc(8).
        let mut data = encode(&sample()).to_vec();
        let idx = data.len() - 17; // last payload byte of the last tensor
        data[idx] ^= 0xFF;
        refit_file_crc(&mut data);
        match decode(&data) {
            Err(ModelError::ChecksumMismatch { tensor }) => {
                assert!(!tensor.is_empty(), "mismatch must name a tensor");
            }
            other => panic!("expected per-tensor checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn old_version_1_files_still_load() {
        let ckpt = sample();
        let v1 = encode_with_version(&ckpt, 1);
        assert_ne!(v1.len(), encode(&ckpt).len(), "v1 carries no tensor crcs");
        let back = decode(&v1).expect("v1 decode");
        assert!(ckpt.approx_eq(&back, 0.0));
    }

    #[test]
    fn non_finite_weights_are_rejected_at_load() {
        let mut ckpt = sample();
        ckpt.get_mut("model.norm.weight")
            .expect("present")
            .data_mut()[0] = f32::NAN;
        let data = encode(&ckpt);
        match decode(&data) {
            Err(ModelError::NonFinite { tensor }) => {
                assert_eq!(tensor, "model.norm.weight");
            }
            other => panic!("expected non-finite rejection, got {other:?}"),
        }
    }

    #[test]
    fn detects_bad_magic() {
        let mut data = encode(&sample()).to_vec();
        data[0] = b'X';
        // Fix up the checksum so only the magic is wrong.
        refit_file_crc(&mut data);
        let err = decode(&data);
        assert!(matches!(err, Err(ModelError::Corrupt { .. })));
    }

    #[test]
    fn detects_bad_version() {
        let mut data = encode(&sample()).to_vec();
        data[4] = 99;
        refit_file_crc(&mut data);
        match decode(&data) {
            Err(ModelError::Corrupt { detail }) => assert!(detail.contains("version")),
            other => panic!("expected corrupt-version, got {other:?}"),
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert!(matches!(decode(&[]), Err(ModelError::Corrupt { .. })));
    }

    #[test]
    fn fnv_known_vector() {
        // FNV-1a("") is the offset basis; FNV-1a("a") is a published vector.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn encoding_is_deterministic() {
        let ckpt = sample();
        assert_eq!(encode(&ckpt), encode(&ckpt));
    }
}
