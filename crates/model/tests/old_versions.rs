//! Files written by the older format versions, pinned by their bytes:
//! `fixtures/calt-v1.bin` (no per-tensor checksums), `calt-v2.bin` and
//! `calq-v1.bin` (FNV-1a checksums) were produced by those versions'
//! writers from the checkpoint [`fixture`] regenerates. Every reader must
//! keep turning them into exactly that checkpoint.

use std::path::PathBuf;

use chipalign_model::{format, qformat, ArchSpec, Checkpoint, ModelError, QuantCheckpoint};
use chipalign_tensor::rng::Pcg32;

fn fixture() -> Checkpoint {
    let mut ckpt = Checkpoint::random(&ArchSpec::tiny("fixture"), &mut Pcg32::seed(28));
    ckpt.set_metadata("origin", "format-fixture");
    ckpt.set_metadata("recipe", "seeded-random");
    ckpt
}

fn path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn calt_v1_and_v2_load_and_decode_to_the_regenerated_checkpoint() {
    let expected = fixture();
    for (name, version) in [("calt-v1.bin", 1u32), ("calt-v2.bin", 2)] {
        let bytes = std::fs::read(path(name)).expect("fixture present");
        assert_eq!(bytes[4..8], version.to_le_bytes(), "{name}");
        assert_eq!(format::decode(&bytes).expect(name), expected, "{name}");
        assert_eq!(format::load(path(name)).expect(name), expected, "{name}");
        // Re-encoding writes today's version, which reads back the same.
        let v3 = format::encode(&expected);
        assert_ne!(v3, bytes, "{name}");
        assert_eq!(format::decode(&v3).expect("v3"), expected);
    }
}

#[test]
fn calq_v1_loads_and_decodes_to_the_regenerated_checkpoint() {
    let expected = QuantCheckpoint::quantize(&fixture());
    let bytes = std::fs::read(path("calq-v1.bin")).expect("fixture present");
    assert_eq!(&bytes[..8], b"CALQ\x01\0\0\0");
    assert_eq!(qformat::decode(&bytes).expect("calq v1"), expected);
    assert_eq!(
        qformat::load(path("calq-v1.bin")).expect("calq v1"),
        expected
    );
    let v2 = qformat::encode(&expected);
    assert_eq!(&v2[..8], b"CALQ\x02\0\0\0");
    assert_eq!(qformat::decode(&v2).expect("calq v2"), expected);
}

#[test]
fn old_files_still_name_a_damaged_tensor() {
    // FNV-1a stays a working verifier, not just a header check: flip the
    // last payload byte of a v2 file and refit its FNV-1a file checksum,
    // and the per-tensor FNV-1a checksum names the tensor.
    let mut bytes = std::fs::read(path("calt-v2.bin")).expect("fixture present");
    let idx = bytes.len() - 17;
    bytes[idx] ^= 0x01;
    let body_len = bytes.len() - 8;
    let crc = bytes[..body_len]
        .iter()
        .fold(0xcbf29ce484222325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
        });
    bytes[body_len..].copy_from_slice(&crc.to_le_bytes());
    match format::decode(&bytes) {
        Err(ModelError::ChecksumMismatch { tensor }) => assert_eq!(tensor, "model.norm.weight"),
        other => panic!("expected a per-tensor checksum mismatch, got {other:?}"),
    }
}
