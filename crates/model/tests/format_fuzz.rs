//! Robustness tests for the checkpoint decoder: arbitrary corruption of a
//! valid encoding must produce a clean error, never a panic or a silently
//! wrong checkpoint. Each property runs [`CASES`] seeded cases
//! ([`chipalign_tensor::rng::cases`]); a failure reports its case number.

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

#[test]
fn re_encoding_a_decoded_file_reproduces_its_bytes() {
    let bytes = encoded();
    let back = format::decode(&bytes).expect("clean bytes decode");
    assert_eq!(format::encode(&back), bytes, "f32 format");

    let qbytes = qformat::encode(&QuantCheckpoint::quantize(&checkpoint()));
    let qback = qformat::decode(&qbytes).expect("clean int8 bytes decode");
    assert_eq!(qformat::encode(&qback), qbytes, "int8 format");
}
