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
//! version u32 (3, the only version written or read)
//! arch    name:str vocab:u64 d_model:u64 n_layers:u64 n_heads:u64 d_ff:u64 max_seq:u64
//! meta    count:u32 { key:str value:str }*
//! tensors count:u32 { name:str rows:u64 cols:u64 data:[f32]* tcrc:u64 }*
//! crc     u64  checksum over everything before it
//! str     len:u32 utf8-bytes
//! ```
//!
//! Every tensor carries a checksum (`tcrc`) over its payload bytes, so a
//! load failure names the damaged tensor instead of just "file corrupt".
//! `tcrc` and `crc` are XXH64 ([`crate::checksum`]), a word-parallel hash
//! that runs at memory speed. The checksum pass reads the 8-byte header
//! first, so a file of any other version fails with `unsupported version
//! N` before its body is hashed. Loads also reject non-finite weights — a
//! checkpoint with NaN/Inf can only produce garbage generations, so it is
//! refused up front with [`ModelError::NonFinite`].
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
use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use chipalign_tensor::Matrix;

use crate::checksum::Xxh64;
use crate::{ArchSpec, Checkpoint, ModelError};

const MAGIC: &[u8; 4] = b"CALT";
/// The on-disk version: the only one [`encode`] writes and [`decode`]
/// reads.
const VERSION: u32 = 3;
const LAYOUT: Layout = Layout {
    magic: MAGIC,
    version: VERSION,
};
/// Magic, version and trailing checksum: no file of this format or of
/// `qformat` is shorter.
const MIN_FILE_LEN: u64 = 4 + 4 + 8;
/// Bytes per read, write and checksum step when streaming. Large enough
/// that a system call moves a useful amount, small next to any tensor.
const CHUNK: usize = 1 << 16;

/// Serializes a checkpoint to its binary representation (version 3): the
/// bytes [`save`] writes to disk.
#[must_use]
pub fn encode(ckpt: &Checkpoint) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + ckpt.scalar_count() * 4);
    write_checkpoint(ckpt, &mut buf).expect("writing to a Vec cannot fail");
    buf
}

/// The one encoder: [`encode`] runs it into a `Vec`, [`save`] into a
/// buffered file.
fn write_checkpoint(ckpt: &Checkpoint, out: &mut impl Write) -> io::Result<()> {
    let mut sink = Sink::new(out);
    sink.bytes(MAGIC)?;
    sink.u32(VERSION)?;
    sink.arch_and_metadata(ckpt.arch(), ckpt.metadata())?;
    sink.u32(ckpt.param_count() as u32)?;
    for (name, tensor) in ckpt.iter() {
        sink.str(name)?;
        sink.u64(tensor.rows() as u64)?;
        sink.u64(tensor.cols() as u64)?;
        sink.begin_payload();
        sink.f32s(tensor.data())?;
        sink.end_payload()?;
    }
    sink.finish()
}

/// Deserializes a checkpoint from bytes produced by [`encode`].
///
/// # Errors
///
/// Returns [`ModelError::Corrupt`] for truncated data, a bad magic/version,
/// a whole-file checksum mismatch, or invalid UTF-8;
/// [`ModelError::ChecksumMismatch`] when a tensor fails its embedded
/// checksum; [`ModelError::NonFinite`] when a tensor holds NaN or
/// infinite weights; and the usual validation errors if the decoded tensors
/// do not instantiate the decoded architecture.
pub fn decode(data: &[u8]) -> Result<Checkpoint, ModelError> {
    read_bytes(data, &LAYOUT, parse_checkpoint)
}

/// The one decoder: [`decode`] runs it over a byte slice, [`load`] over a
/// buffered file, both after the header and the whole-file checksum have
/// passed.
fn parse_checkpoint(src: &mut Source<impl Read>) -> Result<Checkpoint, ModelError> {
    let (arch, metadata) = src.arch_and_metadata()?;

    let tensor_count = src.u32()?;
    let mut tensors = BTreeMap::new();
    for _ in 0..tensor_count {
        let tname = src.str()?;
        let rows = usize::try_from(src.u64()?).map_err(|_| corrupt("rows overflow"))?;
        let cols = usize::try_from(src.u64()?).map_err(|_| corrupt("cols overflow"))?;
        let n = rows
            .checked_mul(cols)
            .ok_or_else(|| corrupt("tensor size overflow"))?;
        src.begin_payload();
        let values = src.f32s(n)?;
        if src.payload_crc() != src.u64()? {
            return Err(ModelError::ChecksumMismatch { tensor: tname });
        }
        if values.iter().any(|v| !v.is_finite()) {
            return Err(ModelError::NonFinite { tensor: tname });
        }
        let m = Matrix::from_vec(rows, cols, values)?;
        tensors.insert(tname, m);
    }
    src.finish()?;
    Checkpoint::from_parts(arch, tensors, metadata)
}

/// Writes a checkpoint to a file, crash-safely: the bytes stream into a
/// temporary sibling (`<name>.<pid>.<seq>.tmp`), are fsynced, and are
/// renamed into place, so a crash mid-save never leaves a torn file at
/// `path`. The file holds exactly the bytes of [`encode`], which is never
/// materialised.
///
/// # Errors
///
/// Returns [`ModelError::Io`] on filesystem failures; the temporary file is
/// removed on any failure.
pub fn save(ckpt: &Checkpoint, path: impl AsRef<Path>) -> Result<(), ModelError> {
    write_file(path.as_ref(), |out| write_checkpoint(ckpt, out))
}

/// Reads a checkpoint from a file written by [`save`], streaming: one pass
/// verifies the whole-file checksum, a second parses, so memory holds the
/// checkpoint plus a fixed-size buffer, never the file's bytes.
///
/// # Errors
///
/// Returns [`ModelError::Io`] on filesystem failures and exactly the
/// [`decode`] errors on malformed content.
pub fn load(path: impl AsRef<Path>) -> Result<Checkpoint, ModelError> {
    read_file(path.as_ref(), &LAYOUT, parse_checkpoint)
}

/// The temporary sibling a [`save`] to `path` stages its bytes in. The pid
/// keeps saves from different processes apart, and a process-wide sequence
/// number keeps apart concurrent saves from threads of one process, which
/// would otherwise truncate and rename each other's staging file.
fn tmp_sibling(path: &Path) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let mut name = path
        .file_name()
        .map_or_else(|| std::ffi::OsString::from("ckpt"), |n| n.to_os_string());
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".{}.{seq}.tmp", std::process::id()));
    path.with_file_name(name)
}

/// Stages `write`'s bytes in [`tmp_sibling`], fsyncs them, renames them
/// onto `path` and fsyncs the directory; on failure removes the staging
/// file.
pub(crate) fn write_file(
    path: &Path,
    write: impl FnOnce(&mut BufWriter<File>) -> io::Result<()>,
) -> Result<(), ModelError> {
    let tmp = tmp_sibling(path);
    let result = (|| -> Result<(), ModelError> {
        let mut out = BufWriter::with_capacity(CHUNK, File::create(&tmp)?);
        write(&mut out)?;
        let file = out.into_inner().map_err(io::IntoInnerError::into_error)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        #[cfg(unix)]
        {
            let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
            File::open(dir.unwrap_or(Path::new(".")))?.sync_all()?;
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A format's magic and the one version its reader accepts.
pub(crate) struct Layout {
    pub(crate) magic: &'static [u8; 4],
    pub(crate) version: u32,
}

impl Layout {
    /// Checks the 8-byte `magic version` header.
    fn check_header(&self, bytes: [u8; 8]) -> Result<(), ModelError> {
        let (magic, version) = bytes.split_at(4);
        if magic != self.magic {
            return Err(corrupt("bad magic"));
        }
        let version = u32::from_le_bytes(version.try_into().expect("four bytes"));
        if version != self.version {
            return Err(corrupt(&format!("unsupported version {version}")));
        }
        Ok(())
    }
}

/// Checks the header and whole-file checksum of `data`, then runs `parse`
/// over the rest of its body.
pub(crate) fn read_bytes<'d, T>(
    data: &'d [u8],
    layout: &Layout,
    parse: impl FnOnce(&mut Source<&'d [u8]>) -> Result<T, ModelError>,
) -> Result<T, ModelError> {
    let body_len = verify_file(data, data.len() as u64, layout)?;
    parse(&mut Source::new(&data[8..], body_len - 8))
}

/// [`read_bytes`] for a file: the checksum pass streams the file from its
/// start, the parse from just past the header.
pub(crate) fn read_file<T>(
    path: &Path,
    layout: &Layout,
    parse: impl FnOnce(&mut Source<BufReader<File>>) -> Result<T, ModelError>,
) -> Result<T, ModelError> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let body_len = verify_file(&file, len, layout)?;
    file.seek(SeekFrom::Start(8))?;
    parse(&mut Source::new(
        BufReader::with_capacity(CHUNK, file),
        body_len - 8,
    ))
}

/// Checks the header of a `len`-byte file, streams its `len - 8` body
/// bytes through XXH64, and compares the result with the trailing 8;
/// returns the body length.
fn verify_file(mut input: impl Read, len: u64, layout: &Layout) -> Result<u64, ModelError> {
    if len < MIN_FILE_LEN {
        return Err(corrupt("shorter than minimum header"));
    }
    let mut head = [0u8; 8];
    input.read_exact(&mut head)?;
    layout.check_header(head)?;
    let mut hash = Xxh64::new();
    hash.update(&head);
    let body_len = len - 8;
    let mut buf = vec![0u8; CHUNK];
    let mut left = body_len - 8;
    while left > 0 {
        let step = &mut buf[..left.min(CHUNK as u64) as usize];
        input.read_exact(step)?;
        hash.update(step);
        left -= step.len() as u64;
    }
    let mut stored = [0u8; 8];
    input.read_exact(&mut stored)?;
    if hash.finish() != u64::from_le_bytes(stored) {
        return Err(corrupt("checksum mismatch"));
    }
    Ok(body_len)
}

/// The writing half of the one encoder: everything goes through `out`
/// while XXH64 runs over it twice — once for the trailing whole-file
/// checksum, once for the current tensor's payload checksum.
pub(crate) struct Sink<'a, W: Write> {
    out: &'a mut W,
    file_crc: Xxh64,
    payload_crc: Xxh64,
    scratch: Vec<u8>,
}

impl<'a, W: Write> Sink<'a, W> {
    pub(crate) fn new(out: &'a mut W) -> Self {
        Sink {
            out,
            file_crc: Xxh64::new(),
            payload_crc: Xxh64::new(),
            scratch: Vec::new(),
        }
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file_crc.update(bytes);
        self.payload_crc.update(bytes);
        self.out.write_all(bytes)
    }

    pub(crate) fn u32(&mut self, v: u32) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn u64(&mut self, v: u64) -> io::Result<()> {
        self.bytes(&v.to_le_bytes())
    }

    pub(crate) fn str(&mut self, s: &str) -> io::Result<()> {
        self.u32(s.len() as u32)?;
        self.bytes(s.as_bytes())
    }

    /// The architecture and metadata blocks both formats start with.
    pub(crate) fn arch_and_metadata(
        &mut self,
        arch: &ArchSpec,
        metadata: &BTreeMap<String, String>,
    ) -> io::Result<()> {
        self.str(&arch.name)?;
        for dim in [
            arch.vocab_size,
            arch.d_model,
            arch.n_layers,
            arch.n_heads,
            arch.d_ff,
            arch.max_seq_len,
        ] {
            self.u64(dim as u64)?;
        }
        self.u32(metadata.len() as u32)?;
        for (k, v) in metadata {
            self.str(k)?;
            self.str(v)?;
        }
        Ok(())
    }

    pub(crate) fn f32s(&mut self, values: &[f32]) -> io::Result<()> {
        self.little_endian(values, |x| x.to_le_bytes())
    }

    pub(crate) fn i8s(&mut self, values: &[i8]) -> io::Result<()> {
        self.little_endian(values, |x| x.to_le_bytes())
    }

    /// Writes `values` converted a chunk at a time into one `CHUNK`-byte
    /// buffer, never the whole slice at once.
    fn little_endian<T: Copy, const N: usize>(
        &mut self,
        values: &[T],
        to_le: impl Fn(T) -> [u8; N],
    ) -> io::Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(CHUNK, 0);
        for chunk in values.chunks(CHUNK / N) {
            let le = &mut scratch[..chunk.len() * N];
            for (dst, &x) in le.chunks_exact_mut(N).zip(chunk) {
                dst.copy_from_slice(&to_le(x));
            }
            self.bytes(le)?;
        }
        self.scratch = scratch;
        Ok(())
    }

    /// Starts a tensor payload: [`Sink::end_payload`] checksums what is
    /// written from here on.
    pub(crate) fn begin_payload(&mut self) {
        self.payload_crc = Xxh64::new();
    }

    /// Writes the checksum of the payload begun by [`Sink::begin_payload`].
    pub(crate) fn end_payload(&mut self) -> io::Result<()> {
        self.u64(self.payload_crc.finish())
    }

    /// Writes the whole-file checksum.
    pub(crate) fn finish(self) -> io::Result<()> {
        self.out.write_all(&self.file_crc.finish().to_le_bytes())
    }
}

/// The reading half of the one decoder: at most `remaining` body bytes
/// (everything between the header and the whole-file checksum) from
/// `input`. Every length is checked against what is left before anything
/// is allocated for it, so a hostile header cannot request a buffer larger
/// than its file.
pub(crate) struct Source<R: Read> {
    input: R,
    remaining: u64,
    payload_crc: Xxh64,
    scratch: Vec<u8>,
}

impl<R: Read> Source<R> {
    fn new(input: R, remaining: u64) -> Self {
        Source {
            input,
            remaining,
            payload_crc: Xxh64::new(),
            scratch: Vec::new(),
        }
    }

    /// Reserves `n` of the remaining bytes, or fails without reading.
    fn claim(&mut self, n: usize) -> Result<(), ModelError> {
        match u64::try_from(n) {
            Ok(n) if n <= self.remaining => {
                self.remaining -= n;
                Ok(())
            }
            _ => Err(corrupt("unexpected end of data")),
        }
    }

    /// Reads into `buf` and checksums it; the caller has claimed its bytes.
    fn read_hashed(&mut self, buf: &mut [u8]) -> Result<(), ModelError> {
        self.input.read_exact(buf)?;
        self.payload_crc.update(buf);
        Ok(())
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<Vec<u8>, ModelError> {
        self.claim(n)?;
        let mut out = vec![0u8; n];
        self.read_hashed(&mut out)?;
        Ok(out)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, ModelError> {
        Ok(self.array::<1>()?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, ModelError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, ModelError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], ModelError> {
        self.claim(N)?;
        let mut out = [0u8; N];
        self.read_hashed(&mut out)?;
        Ok(out)
    }

    pub(crate) fn str(&mut self) -> Result<String, ModelError> {
        let len = self.u32()? as usize;
        String::from_utf8(self.bytes(len)?).map_err(|_| corrupt("invalid utf-8 in string"))
    }

    /// The architecture and metadata blocks both formats start with.
    pub(crate) fn arch_and_metadata(
        &mut self,
    ) -> Result<(ArchSpec, BTreeMap<String, String>), ModelError> {
        let name = self.str()?;
        let mut dims = [0usize; 6];
        for d in &mut dims {
            *d = usize::try_from(self.u64()?).map_err(|_| corrupt("dimension overflows usize"))?;
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
        let meta_count = self.u32()?;
        let mut metadata = BTreeMap::new();
        for _ in 0..meta_count {
            let k = self.str()?;
            let v = self.str()?;
            metadata.insert(k, v);
        }
        Ok((arch, metadata))
    }

    /// `n` little-endian `f32`s.
    pub(crate) fn f32s(&mut self, n: usize) -> Result<Vec<f32>, ModelError> {
        self.little_endian(n, f32::from_le_bytes)
    }

    /// `n` `i8`s.
    pub(crate) fn i8s(&mut self, n: usize) -> Result<Vec<i8>, ModelError> {
        self.little_endian(n, i8::from_le_bytes)
    }

    /// `n` values of `N` little-endian bytes each, read a chunk at a time
    /// and converted straight into the pre-sized result.
    fn little_endian<T: Copy + Default, const N: usize>(
        &mut self,
        n: usize,
        from_le: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, ModelError> {
        let byte_len = n
            .checked_mul(N)
            .ok_or_else(|| corrupt("tensor byte size overflow"))?;
        self.claim(byte_len)?;
        let mut values = vec![T::default(); n];
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.resize(CHUNK, 0);
        for chunk in values.chunks_mut(CHUNK / N) {
            let le = &mut scratch[..chunk.len() * N];
            self.read_hashed(le)?;
            for (dst, src) in chunk.iter_mut().zip(le.chunks_exact(N)) {
                *dst = from_le(src.try_into().expect("chunks_exact(N)"));
            }
        }
        self.scratch = scratch;
        Ok(values)
    }

    /// Starts a tensor payload: [`Source::payload_crc`] checksums what is
    /// read from here on.
    pub(crate) fn begin_payload(&mut self) {
        self.payload_crc = Xxh64::new();
    }

    pub(crate) fn payload_crc(&self) -> u64 {
        self.payload_crc.finish()
    }

    /// Fails unless the whole body was consumed.
    pub(crate) fn finish(&self) -> Result<(), ModelError> {
        if self.remaining == 0 {
            Ok(())
        } else {
            Err(corrupt("trailing bytes after last tensor"))
        }
    }
}

pub(crate) fn corrupt(detail: &str) -> ModelError {
    ModelError::Corrupt {
        detail: detail.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::xxh64;
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
        let crc = xxh64(&data[..body_len]);
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
    fn saved_bytes_are_the_encoded_bytes() {
        let dir = std::env::temp_dir().join("chipalign-fmt-bytes");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("bytes.calt");
        let ckpt = sample();
        save(&ckpt, &path).expect("save");
        assert!(std::fs::read(&path).expect("read") == encode(&ckpt));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hostile_lengths_fail_before_allocating() {
        // A well-formed header, then one length far beyond the file: a
        // 2^62-byte tensor, or a 4 GiB metadata key. Either must be refused
        // as truncation, not attempted as an allocation.
        let file = |tail: &dyn Fn(&mut Sink<Vec<u8>>) -> io::Result<()>| {
            let mut bytes = Vec::new();
            let mut sink = Sink::new(&mut bytes);
            sink.bytes(MAGIC)
                .and_then(|()| sink.u32(VERSION))
                .expect("vec");
            sink.str("hostile").expect("vec");
            for _ in 0..6 {
                sink.u64(1).expect("vec");
            }
            tail(&mut sink).expect("vec");
            sink.finish().expect("vec");
            bytes
        };
        let huge_tensor = file(&|s| {
            s.u32(0)?;
            s.u32(1)?;
            s.str("w")?;
            s.u64(1 << 40)?;
            s.u64(1 << 20)
        });
        let huge_key = file(&|s| {
            s.u32(1)?;
            s.u32(u32::MAX)
        });
        let dir = std::env::temp_dir().join("chipalign-fmt-hostile");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("hostile.calt");
        for bytes in [huge_tensor, huge_key] {
            std::fs::write(&path, &bytes).expect("write");
            for result in [decode(&bytes), load(&path)] {
                match result {
                    Err(ModelError::Corrupt { detail }) => {
                        assert_eq!(detail, "unexpected end of data");
                    }
                    other => panic!("expected a truncation error, got {other:?}"),
                }
            }
        }
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
    fn encoding_is_deterministic() {
        let ckpt = sample();
        assert_eq!(encode(&ckpt), encode(&ckpt));
    }

    #[test]
    fn writes_version_3_checksummed_with_xxh64() {
        let data = encode(&sample());
        assert_eq!(&data[..8], b"CALT\x03\0\0\0");
        let body_len = data.len() - 8;
        assert_eq!(
            data[body_len..],
            xxh64(&data[..body_len]).to_le_bytes(),
            "trailing checksum is XXH64"
        );
    }

    #[test]
    fn unknown_version_fails_in_the_checksum_pass() {
        // Only version 3 is read, so the header alone decides for an older
        // or a newer file, whatever the trailing bytes hold.
        let dir =
            std::env::temp_dir().join(format!("chipalign-fmt-version-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("version.calt");
        for version in [1u8, 2, 4] {
            let mut data = encode(&sample());
            data[4] = version;
            std::fs::write(&path, &data).expect("write");
            for result in [decode(&data), load(&path)] {
                match result {
                    Err(ModelError::Corrupt { detail }) => {
                        assert_eq!(detail, format!("unsupported version {version}"));
                    }
                    other => panic!("version {version}: expected corrupt-version, got {other:?}"),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_to_one_path_never_tear() {
        let dir = std::env::temp_dir().join(format!("chipalign-fmt-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("shared.calt");
        let inputs: Vec<Checkpoint> = (0..4)
            .map(|i| Checkpoint::random(&ArchSpec::tiny("race"), &mut Pcg32::seed(100 + i)))
            .collect();
        for round in 0..8 {
            // Every saver starts together, so their staging files overlap.
            let start = std::sync::Barrier::new(inputs.len());
            let results: Vec<Result<(), ModelError>> = std::thread::scope(|s| {
                let handles: Vec<_> = inputs
                    .iter()
                    .map(|ckpt| {
                        let (start, path) = (&start, &path);
                        s.spawn(move || {
                            start.wait();
                            save(ckpt, path)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("saver thread"))
                    .collect()
            });
            for r in results {
                r.unwrap_or_else(|e| panic!("round {round}: a concurrent save failed: {e}"));
            }
            let back = load(&path).unwrap_or_else(|e| panic!("round {round}: torn file: {e}"));
            assert!(
                inputs.iter().any(|c| c.approx_eq(&back, 0.0)),
                "round {round}: the file must be one of the saved checkpoints"
            );
        }
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .expect("readdir")
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "staging files left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
