//! Consistent hashing: the affinity key and the replica ring.
//!
//! Routing is keyed on `(model spec, prompt prefix)` so that requests
//! sharing a merge and a prompt scaffold land on the same replica — where
//! that `merge:<chip>+<instruct>@<λ>` is already materialized and the
//! scaffold's KV prefix is already cached. A ring of virtual nodes keeps
//! the mapping stable under membership change: adding or draining one
//! replica only remaps the keys in its ring ranges, so the rest of the
//! fleet keeps its warm caches.
//!
//! The ring also defines the *failover order*: [`HashRing::candidates`]
//! walks clockwise from the key's position, yielding every replica once.
//! The first candidate is the affinity home; the second is where spilled
//! or failed-over traffic for that key consistently lands (so even the
//! fallback replica warms up a coherent working set).

/// Prompt characters (not bytes) hashed into the affinity key.
const AFFINITY_CHARS: usize = 16;

/// FNV-1a, 64-bit. A tiny, dependency-free, well-distributed hash for
/// short routing keys; stability across runs matters (routing tables must
/// be reproducible), which rules out `std`'s randomized `DefaultHasher`.
#[must_use]
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// splitmix64's finalizer. FNV-1a's last bytes barely reach its high bits,
/// and ring order is decided by the high bits: the vnode names of one
/// replica (`host:port#0`, `#1`, …) and near-identical prompts would cluster
/// on the ring, leaving some replicas a fraction of their share. Every ring
/// point and every looked-up key passes through this first.
fn mix64(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// The affinity key for a request: model spec plus the first 16
/// characters of the prompt.
///
/// Truncating the prompt is what makes the key an *affinity* key rather
/// than a request hash: `"Q:describe the timing path 17;A:"` and
/// `"Q:describe the timing path 99;A:"` share their first 16 characters,
/// so both route to the replica whose prefix cache already holds the
/// shared scaffold.
#[must_use]
pub fn affinity_key(model: &str, prompt: &str) -> u64 {
    let boundary = prompt
        .char_indices()
        .nth(AFFINITY_CHARS)
        .map_or(prompt.len(), |(i, _)| i);
    let mut bytes = Vec::with_capacity(model.len() + 1 + boundary);
    bytes.extend_from_slice(model.as_bytes());
    bytes.push(0); // separator: ("ab", "c") must not collide with ("a", "bc")
    bytes.extend_from_slice(&prompt.as_bytes()[..boundary]);
    fnv1a(&bytes)
}

/// A consistent-hash ring over replica indices, with virtual nodes.
#[derive(Debug, Clone, Default)]
pub struct HashRing {
    /// `(point, replica index)`, sorted by point. Virtual nodes give each
    /// replica many points, evening out range sizes.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds a ring over `replicas` names, `vnodes` virtual nodes each.
    /// Names must be distinct; the replica *index* into the original slice
    /// is what the ring yields.
    #[must_use]
    pub fn build(replicas: &[String], vnodes: usize) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(replicas.len() * vnodes);
        for (idx, name) in replicas.iter().enumerate() {
            for v in 0..vnodes {
                points.push((mix64(fnv1a(format!("{name}#{v}").as_bytes())), idx));
            }
        }
        points.sort_unstable();
        HashRing { points }
    }

    /// Every distinct replica index in ring order starting clockwise from
    /// `key`'s position. The first entry is the key's affinity home; the
    /// rest are its failover candidates in consistent order.
    #[must_use]
    pub fn candidates(&self, key: u64) -> Vec<usize> {
        if self.points.is_empty() {
            return Vec::new();
        }
        let key = mix64(key);
        let start = self.points.partition_point(|&(p, _)| p < key);
        let mut seen = Vec::new();
        for i in 0..self.points.len() {
            let (_, idx) = self.points[(start + i) % self.points.len()];
            if !seen.contains(&idx) {
                seen.push(idx);
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn candidates_cover_every_replica_exactly_once() {
        let ring = HashRing::build(&names(5), 16);
        for key in [0u64, 1, u64::MAX, fnv1a(b"some key")] {
            let mut c = ring.candidates(key);
            assert_eq!(c.len(), 5);
            c.sort_unstable();
            assert_eq!(c, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn same_key_same_candidate_order() {
        let ring = HashRing::build(&names(4), 32);
        let key = affinity_key("merge:a+b@0.6", "Q:describe the timing path;A:");
        assert_eq!(ring.candidates(key), ring.candidates(key));
    }

    #[test]
    fn shared_prefixes_share_a_home() {
        let ring = HashRing::build(&names(4), 32);
        let a = affinity_key("m", "Q:describe the timing path 17;A:");
        let b = affinity_key("m", "Q:describe the timing path 99;A:");
        assert_eq!(a, b, "16-char prefixes match, so the keys must too");
        assert_eq!(ring.candidates(a)[0], ring.candidates(b)[0]);
        // Distinct scaffolds may differ (and with enough keys, must).
        let c = affinity_key("m", "Summarize the CDC report:");
        assert_ne!(a, c);
    }

    #[test]
    fn different_models_get_different_keys() {
        let a = affinity_key("merge:a+b@0.4", "Q:x;A:");
        let b = affinity_key("merge:a+b@0.6", "Q:x;A:");
        assert_ne!(a, b);
        // The separator keeps (model, prompt) splits unambiguous.
        assert_ne!(affinity_key("ab", "c"), affinity_key("a", "bc"));
    }

    #[test]
    fn membership_change_remaps_only_the_lost_ranges() {
        // Consistent hashing's defining property: removing one replica of
        // four must not move keys between the surviving three.
        let four = HashRing::build(&names(4), 64);
        let three = HashRing::build(&names(3), 64);
        let mut moved = 0usize;
        let total = 1000usize;
        for i in 0..total {
            let key = fnv1a(format!("prompt-{i}").as_bytes());
            let before = four.candidates(key)[0];
            let after = three.candidates(key)[0];
            if before < 3 {
                assert_eq!(before, after, "key {i}: survivor-homed keys must not move");
            } else {
                moved += 1;
            }
        }
        // Roughly a quarter of the keyspace belonged to the removed node.
        assert!(moved > total / 8 && moved < total / 2, "moved {moved}");
    }

    #[test]
    fn replicas_get_balanced_shares_of_the_keyspace() {
        let total = 4000usize;
        for n in [2usize, 3, 4, 8] {
            let ring = HashRing::build(&names(n), 64);
            let mut homed = vec![0usize; n];
            for i in 0..total {
                // The index leads, inside the 16 hashed characters.
                let key = affinity_key("m", &format!("{i} prompt scaffold"));
                homed[ring.candidates(key)[0]] += 1;
            }
            let fair = total as f64 / n as f64;
            for (replica, &count) in homed.iter().enumerate() {
                let share = count as f64 / fair;
                assert!(
                    (0.6..=1.4).contains(&share),
                    "{n} replicas: replica {replica} homes {count} of {total} keys ({share:.2}x its fair share)"
                );
            }
        }
    }

    #[test]
    fn empty_ring_yields_no_candidates() {
        let ring = HashRing::build(&[], 16);
        assert!(ring.points.is_empty());
        assert!(ring.candidates(42).is_empty());
    }

    #[test]
    fn prefix_chars_respects_utf8_boundaries() {
        // Multi-byte characters must not split; nth char boundary is used.
        let scaffold = "Ω≈ç√∫˜µ≤≥Ω≈ç√∫˜µ";
        assert_eq!(scaffold.chars().count(), 16);
        let k = affinity_key("m", &format!("{scaffold}≤≥"));
        let k2 = affinity_key("m", &format!("{scaffold}XXXX"));
        assert_eq!(k, k2, "first 16 chars agree");
        assert_ne!(
            k,
            affinity_key("m", "Ω≈ç√∫˜µ≤≥Ω≈ç√∫˜X"),
            "the 16th char counts"
        );
    }
}
