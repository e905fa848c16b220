//! The checkpoint checksum: XXH64, for every tensor and every file of both
//! formats.
//!
//! `Xxh64` is the 64-bit xxHash (seed 0) as a streaming hasher: four
//! independent 64-bit lanes consume 32-byte stripes, so the multiply chains
//! overlap and the hash runs at memory speed, where a byte-serial hash
//! tops out near 500 MB/s. A stripe split across two
//! `Xxh64::update` calls is carried over, so hashing a stream chunk by
//! chunk gives the hash of the whole. Each round is a bijection of its
//! lane's accumulator in the input word, so a change confined to one
//! 8-byte word always changes its lane; and every step after the last
//! stripe is a bijection of the running hash, so a change to any word or
//! byte of the tail is always detected.
//!
//! # Example
//!
//! ```
//! use chipalign_model::checksum::xxh64;
//!
//! assert_eq!(xxh64(b"abc"), 0x44bc2cf5ad770999);
//! ```

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

/// Bytes one round of the four lanes consumes.
const STRIPE: usize = 32;

/// A streaming XXH64 hasher with seed 0.
#[derive(Debug, Clone)]
pub(crate) struct Xxh64 {
    lanes: [u64; 4],
    /// The start of a stripe not yet complete.
    pending: [u8; STRIPE],
    pending_len: usize,
    total_len: u64,
}

impl Default for Xxh64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Xxh64 {
    /// A hasher that has seen no bytes.
    #[must_use]
    pub(crate) fn new() -> Self {
        Xxh64 {
            lanes: [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()],
            pending: [0; STRIPE],
            pending_len: 0,
            total_len: 0,
        }
    }

    /// Feeds more bytes.
    pub(crate) fn update(&mut self, mut data: &[u8]) {
        self.total_len += data.len() as u64;
        if self.pending_len > 0 {
            let take = (STRIPE - self.pending_len).min(data.len());
            self.pending[self.pending_len..self.pending_len + take].copy_from_slice(&data[..take]);
            self.pending_len += take;
            data = &data[take..];
            if self.pending_len < STRIPE {
                return;
            }
            let stripe = self.pending;
            self.stripes(&stripe);
            self.pending_len = 0;
        }
        let whole = data.len() - data.len() % STRIPE;
        self.stripes(&data[..whole]);
        let rest = &data[whole..];
        self.pending[..rest.len()].copy_from_slice(rest);
        self.pending_len = rest.len();
    }

    /// Runs the four lanes over `data`, a whole number of stripes.
    fn stripes(&mut self, data: &[u8]) {
        let [mut a, mut b, mut c, mut d] = self.lanes;
        for s in data.chunks_exact(STRIPE) {
            a = round(a, word(&s[0..8]));
            b = round(b, word(&s[8..16]));
            c = round(c, word(&s[16..24]));
            d = round(d, word(&s[24..32]));
        }
        self.lanes = [a, b, c, d];
    }

    /// The hash of every byte fed so far; the hasher may keep going.
    #[must_use]
    pub(crate) fn finish(&self) -> u64 {
        let mut h = if self.total_len >= STRIPE as u64 {
            let [a, b, c, d] = self.lanes;
            let mut h = a
                .rotate_left(1)
                .wrapping_add(b.rotate_left(7))
                .wrapping_add(c.rotate_left(12))
                .wrapping_add(d.rotate_left(18));
            for lane in self.lanes {
                h = (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4);
            }
            h
        } else {
            P5
        };
        h = h.wrapping_add(self.total_len);
        let mut tail = &self.pending[..self.pending_len];
        while tail.len() >= 8 {
            h ^= round(0, word(&tail[..8]));
            h = h.rotate_left(27).wrapping_mul(P1).wrapping_add(P4);
            tail = &tail[8..];
        }
        if tail.len() >= 4 {
            let half = u32::from_le_bytes(tail[..4].try_into().expect("four bytes"));
            h ^= u64::from(half).wrapping_mul(P1);
            h = h.rotate_left(23).wrapping_mul(P2).wrapping_add(P3);
            tail = &tail[4..];
        }
        for &byte in tail {
            h ^= u64::from(byte).wrapping_mul(P5);
            h = h.rotate_left(11).wrapping_mul(P1);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(P2);
        h ^= h >> 29;
        h = h.wrapping_mul(P3);
        h ^ (h >> 32)
    }
}

fn round(acc: u64, input: u64) -> u64 {
    acc.wrapping_add(input.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("eight bytes"))
}

/// XXH64 (seed 0) of a whole buffer.
#[must_use]
pub fn xxh64(data: &[u8]) -> u64 {
    let mut h = Xxh64::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_tensor::rng::Pcg32;

    #[test]
    fn xxh64_known_vectors() {
        // Published XXH64 (seed 0) vectors.
        assert_eq!(xxh64(b""), 0xef46db3751d8e999);
        assert_eq!(xxh64(b"a"), 0xd24ec4f1a98c6e5b);
        assert_eq!(xxh64(b"abc"), 0x44bc2cf5ad770999);
    }

    #[test]
    fn xxh64_four_lane_vector() {
        // Bytes 0..100: three whole stripes, then an 8-, a 4- and a 1-byte
        // tail step. The value comes from an independent transcription of
        // the spec that reproduces the published vectors above.
        let data: Vec<u8> = (0..100).collect();
        assert_eq!(xxh64(&data), 0x6ac1e58032166597);
    }

    #[test]
    fn chunked_updates_equal_one_update() {
        let mut rng = Pcg32::seed(28);
        let data: Vec<u8> = (0..1000).map(|_| rng.next_u32() as u8).collect();
        let whole = xxh64(&data);
        for case in 0..200 {
            let mut h = Xxh64::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let take = rng.below(rest.len().min(80) + 1);
                h.update(&rest[..take]);
                rest = &rest[take..];
            }
            assert_eq!(h.finish(), whole, "case {case}");
        }
    }

    #[test]
    fn every_single_bit_flip_changes_the_hash() {
        let mut rng = Pcg32::seed(29);
        let data: Vec<u8> = (0..100).map(|_| rng.next_u32() as u8).collect();
        let clean = xxh64(&data);
        for pos in 0..data.len() {
            for bit in 0..8 {
                let mut d = data.clone();
                d[pos] ^= 1 << bit;
                assert_ne!(xxh64(&d), clean, "flip of bit {bit} at byte {pos}");
            }
        }
    }
}
