//! Robustness tests for the checkpoint decoder: arbitrary corruption of a
//! valid encoding must produce a clean error, never a panic or a silently
//! wrong checkpoint. Each property runs [`CASES`] seeded cases
//! ([`chipalign_tensor::rng::cases`]); a failure reports its case number.

use chipalign_model::checksum::xxh64;
use chipalign_model::{format, qformat, ArchSpec, Checkpoint, QuantCheckpoint};
use chipalign_tensor::rng::{cases, Pcg32};

const CASES: u64 = 64;

fn checkpoint() -> Checkpoint {
    Checkpoint::random(&ArchSpec::tiny("fuzz"), &mut Pcg32::seed(3))
}

fn encoded() -> Vec<u8> {
    format::encode(&checkpoint())
}

fn random_bytes(rng: &mut Pcg32, len: usize) -> Vec<u8> {
    (0..len).map(|_| rng.next_u32() as u8).collect()
}

#[test]
fn bit_flips_never_panic_and_never_pass() {
    let clean = encoded();
    for mut rng in cases(1, CASES) {
        let mut data = clean.clone();
        let (pos, bit) = (rng.below(data.len()), rng.below(8));
        data[pos] ^= 1 << bit;
        // Either detected as corrupt, or the flip hit a redundant byte and
        // the checksum catches it; a clean decode of *tampered* bytes is
        // only acceptable if the flip was a no-op (impossible for XOR).
        assert!(
            format::decode(&data).is_err(),
            "flip of bit {bit} at byte {pos} decoded cleanly"
        );
    }
}

#[test]
fn truncations_never_panic() {
    let data = encoded();
    for mut rng in cases(2, CASES) {
        let cut = rng.below(data.len());
        assert!(format::decode(&data[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn random_garbage_never_panics() {
    for mut rng in cases(3, CASES) {
        let len = rng.below(512);
        let bytes = random_bytes(&mut rng, len);
        assert!(format::decode(&bytes).is_err());
        assert!(qformat::decode(&bytes).is_err(), "int8 format");
    }
}

#[test]
fn appended_junk_is_detected() {
    let clean = encoded();
    for mut rng in cases(4, CASES) {
        let mut data = clean.clone();
        let len = rng.range(1, 63);
        data.extend(random_bytes(&mut rng, len));
        assert!(format::decode(&data).is_err());
    }
}

/// Refits the trailing whole-file XXH64 after a mutation, so that the
/// damage reaches the parser instead of stopping at the checksum.
fn refit_file_crc(data: &mut [u8]) {
    let Some(body_len) = data.len().checked_sub(8) else {
        return;
    };
    let crc = xxh64(&data[..body_len]);
    data[body_len..].copy_from_slice(&crc.to_le_bytes());
}

/// One seeded mutation of `clean`, drawn from every kind above, half the
/// time with the whole-file checksum refitted.
fn mutate(clean: &[u8], rng: &mut Pcg32) -> Vec<u8> {
    let mut data = match rng.below(4) {
        0 => {
            let mut d = clean.to_vec();
            let pos = rng.below(d.len());
            d[pos] ^= 1 << rng.below(8);
            d
        }
        1 => clean[..rng.below(clean.len())].to_vec(),
        2 => {
            let len = rng.below(512);
            random_bytes(rng, len)
        }
        _ => {
            let mut d = clean.to_vec();
            let len = rng.range(1, 63);
            d.extend(random_bytes(rng, len));
            d
        }
    };
    if rng.chance(0.5) {
        refit_file_crc(&mut data);
    }
    data
}

/// The outcome of a decode, bit for bit: the re-encoded checkpoint, or the
/// error's variant and message.
fn outcome<T>(result: Result<T, chipalign_model::ModelError>, encode: fn(&T) -> Vec<u8>) -> String {
    match result {
        Ok(ckpt) => format!("ok {:?}", encode(&ckpt)),
        Err(e) => format!("err {e:?}"),
    }
}

#[test]
fn load_and_decode_agree_on_every_mutation() {
    let dir = std::env::temp_dir().join(format!("chipalign-fuzz-load-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("case.calt");
    let clean = encoded();
    let qclean = qformat::encode(&QuantCheckpoint::quantize(&checkpoint()));
    let mut refused = 0;
    for mut rng in cases(5, CASES) {
        for data in [clean.clone(), mutate(&clean, &mut rng)] {
            std::fs::write(&path, &data).expect("write case");
            let decoded = outcome(format::decode(&data), format::encode);
            refused += usize::from(decoded.starts_with("err"));
            assert_eq!(outcome(format::load(&path), format::encode), decoded);
        }
        let qdata = mutate(&qclean, &mut rng);
        std::fs::write(&path, &qdata).expect("write case");
        assert_eq!(
            outcome(qformat::load(&path), qformat::encode),
            outcome(qformat::decode(&qdata), qformat::encode),
            "int8 format"
        );
    }
    assert!(refused > 0, "the mutations must reach the error paths");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn re_encoding_a_decoded_file_reproduces_its_bytes() {
    let bytes = encoded();
    let back = format::decode(&bytes).expect("clean bytes decode");
    assert_eq!(format::encode(&back), bytes, "f32 format");

    let qbytes = qformat::encode(&QuantCheckpoint::quantize(&checkpoint()));
    let qback = qformat::decode(&qbytes).expect("clean int8 bytes decode");
    assert_eq!(qformat::encode(&qback), qbytes, "int8 format");
}
