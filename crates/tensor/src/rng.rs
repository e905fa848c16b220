//! Deterministic pseudo-random number generation.
//!
//! Reproducibility is a hard requirement for this repository: every table and
//! figure must come out identical on every run. To guarantee that without
//! depending on the platform behaviour of external RNG crates inside the
//! numerics core, this module implements the PCG-XSH-RR 64/32 generator
//! ([`Pcg32`]) — a small, statistically solid PRNG with a 64-bit state — plus
//! the sampling helpers the workspace needs (uniform floats, normal variates
//! via Box–Muller, integer ranges, shuffles, weighted choice) and the seeded
//! case streams ([`cases`]) every property test in the workspace loops over.
//!
//! # Example
//!
//! ```
//! use chipalign_tensor::rng::Pcg32;
//!
//! let mut a = Pcg32::seed(7);
//! let mut b = Pcg32::seed(7);
//! assert_eq!(a.next_u32(), b.next_u32()); // same seed, same stream
//! let x = a.uniform();
//! assert!((0.0..1.0).contains(&x));
//! ```

/// PCG-XSH-RR 64/32: a fast, deterministic 32-bit PRNG with 64-bit state.
///
/// The implementation follows O'Neill's reference constants. A fixed stream
/// increment is used; distinct experiments should use distinct seeds (the
/// workspace derives them with [`Pcg32::derive`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pcg32 {
    state: u64,
}

const PCG_MULT: u64 = 6364136223846793005;
const PCG_INC: u64 = 1442695040888963407;

impl Pcg32 {
    /// Creates a generator from a seed.
    ///
    /// Two generators created with the same seed produce identical streams.
    #[must_use]
    pub fn seed(seed: u64) -> Self {
        let mut rng = Pcg32 {
            state: seed.wrapping_add(PCG_INC),
        };
        // Warm up so that nearby seeds decorrelate quickly.
        rng.next_u32();
        rng.next_u32();
        rng
    }

    /// Derives a new independent generator from this one and a domain label.
    ///
    /// This is the workspace convention for splitting one experiment seed
    /// into per-component streams (tokenizer noise, weight init, data
    /// shuffling, ...) without the streams aliasing.
    #[must_use]
    pub fn derive(&self, label: u64) -> Self {
        // SplitMix64-style finalizer over (state, label).
        let mut z = self
            .state
            .wrapping_add(label.wrapping_mul(0x9E3779B97F4A7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        Pcg32::seed(z ^ (z >> 31))
    }

    /// Returns the next 32 uniformly distributed random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(PCG_INC);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Returns the next 64 uniformly distributed random bits.
    pub fn next_u64(&mut self) -> u64 {
        (u64::from(self.next_u32()) << 32) | u64::from(self.next_u32())
    }

    /// Samples a uniform `f32` in `[0, 1)`.
    pub fn uniform(&mut self) -> f32 {
        // 24 high-quality mantissa bits.
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Samples a uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn uniform_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Samples a standard normal variate using the Box–Muller transform.
    pub fn normal(&mut self) -> f32 {
        // Avoid log(0) by shifting the first uniform away from zero.
        let u1 = (self.uniform_f64()).max(1e-12);
        let u2 = self.uniform_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        (r * (2.0 * std::f64::consts::PI * u2).cos()) as f32
    }

    /// Samples an integer uniformly from `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "Pcg32::below requires a positive bound");
        // Lemire-style rejection to remove modulo bias.
        let bound32 = u32::try_from(bound.min(u32::MAX as usize)).expect("bound fits u32");
        loop {
            let x = self.next_u32();
            let m = u64::from(x) * u64::from(bound32);
            let low = m as u32;
            if low >= bound32 && low < bound32.wrapping_neg() {
                // Fast accept path is the common case; fall through below.
            }
            if low >= (bound32.wrapping_neg() % bound32) {
                return (m >> 32) as usize;
            }
        }
    }

    /// Samples an integer uniformly from the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo <= hi, "Pcg32::range requires lo <= hi");
        lo + self.below(hi - lo + 1)
    }

    /// Returns `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f32) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffles a slice in place.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.below(i + 1);
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(
            !slice.is_empty(),
            "Pcg32::choose requires a non-empty slice"
        );
        &slice[self.below(slice.len())]
    }

    /// Picks an index according to non-negative weights.
    ///
    /// Weights that are all zero degrade to a uniform choice. Zero-weight
    /// entries are never selected when any weight is positive: [`uniform`]
    /// can return exactly `0.0` (probability 2⁻²⁴), and a naive
    /// `target -= w; if target <= 0.0` scan would then land on index 0 even
    /// with `weights[0] == 0.0` — emitting a token that top-k/top-p had
    /// truncated away. The scan therefore only stops on entries with
    /// strictly positive weight.
    ///
    /// [`uniform`]: Pcg32::uniform
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty.
    pub fn choose_weighted(&mut self, weights: &[f32]) -> usize {
        assert!(
            !weights.is_empty(),
            "Pcg32::choose_weighted requires a non-empty weight list"
        );
        let total: f32 = weights.iter().map(|w| w.max(0.0)).sum();
        if total <= 0.0 {
            return self.below(weights.len());
        }
        let mut target = self.uniform() * total;
        let mut last_positive = None;
        for (i, w) in weights.iter().enumerate() {
            let w = w.max(0.0);
            if w <= 0.0 {
                continue;
            }
            last_positive = Some(i);
            target -= w;
            if target <= 0.0 {
                return i;
            }
        }
        // Float rounding can leave a sliver of `target`; fall back to the
        // last positive-weight index (which exists because `total > 0`).
        last_positive.expect("total > 0 implies at least one positive weight")
    }
}

/// One case of a seeded property test: its own generator stream (it
/// dereferences to a [`Pcg32`]) and its position in the loop. If an
/// assertion fails while the case is live, dropping it reports which case
/// it was, which is all a failure needs to reproduce — so the assertions
/// themselves need not carry it.
#[derive(Debug)]
pub struct Case {
    property: u64,
    index: u64,
    rng: Pcg32,
}

impl Case {
    /// Position of this case in its loop, from zero.
    #[must_use]
    pub fn index(&self) -> u64 {
        self.index
    }
}

impl std::ops::Deref for Case {
    type Target = Pcg32;
    fn deref(&self) -> &Pcg32 {
        &self.rng
    }
}

impl std::ops::DerefMut for Case {
    fn deref_mut(&mut self) -> &mut Pcg32 {
        &mut self.rng
    }
}

impl Drop for Case {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!(
                "seeded property {} failed at case {} (stream seed {:#x})",
                self.property,
                self.index,
                case_seed(self.property, self.index)
            );
        }
    }
}

fn case_seed(property: u64, index: u64) -> u64 {
    (property << 32) | index
}

/// The `count` cases of one seeded property test. `property` keeps the
/// streams of different properties in one file apart.
///
/// ```
/// use chipalign_tensor::rng::cases;
///
/// for mut rng in cases(1, 64) {
///     let n = rng.range(1, 8);
///     assert!((1..=8).contains(&n));
/// }
/// ```
pub fn cases(property: u64, count: u64) -> impl Iterator<Item = Case> {
    (0..count).map(move |index| Case {
        property,
        index,
        rng: Pcg32::seed(case_seed(property, index)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_same_seed() {
        let mut a = Pcg32::seed(123);
        let mut b = Pcg32::seed(123);
        for _ in 0..100 {
            assert_eq!(a.next_u32(), b.next_u32());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Pcg32::seed(1);
        let mut b = Pcg32::seed(2);
        let same = (0..32).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams from nearby seeds should not track");
    }

    #[test]
    fn derive_is_deterministic_and_independent() {
        let root = Pcg32::seed(99);
        let mut a = root.derive(1);
        let mut a2 = root.derive(1);
        let mut b = root.derive(2);
        assert_eq!(a.next_u64(), a2.next_u64());
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut rng = Pcg32::seed(5);
        for _ in 0..10_000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_near_half() {
        let mut rng = Pcg32::seed(6);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| f64::from(rng.uniform())).sum::<f64>() / f64::from(n);
        assert!((mean - 0.5).abs() < 0.01, "mean was {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Pcg32::seed(7);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| f64::from(rng.normal())).collect();
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 0.02, "mean was {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance was {var}");
    }

    #[test]
    fn below_bounds_and_coverage() {
        let mut rng = Pcg32::seed(8);
        let mut seen = [false; 7];
        for _ in 0..1000 {
            let k = rng.below(7);
            assert!(k < 7);
            seen[k] = true;
        }
        assert!(seen.iter().all(|s| *s), "all residues should occur");
    }

    #[test]
    fn range_inclusive() {
        let mut rng = Pcg32::seed(9);
        let mut lo_seen = false;
        let mut hi_seen = false;
        for _ in 0..2000 {
            let k = rng.range(3, 6);
            assert!((3..=6).contains(&k));
            lo_seen |= k == 3;
            hi_seen |= k == 6;
        }
        assert!(lo_seen && hi_seen);
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = Pcg32::seed(10);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "50 elements should move");
    }

    #[test]
    fn choose_weighted_prefers_heavy_weight() {
        let mut rng = Pcg32::seed(11);
        let weights = [0.0, 0.9, 0.1];
        let mut counts = [0usize; 3];
        for _ in 0..5000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        assert!(counts[1] > counts[2] * 4);
    }

    #[test]
    fn choose_weighted_skips_zero_weight_at_uniform_boundary() {
        // This seed was constructed by inverting the PCG transition so the
        // first `uniform()` draw after seeding is exactly 0.0 — the boundary
        // where the pre-fix scan returned index 0 even though its weight is
        // zero.
        let mut rng = Pcg32::seed(17_830_730_530_297_459_791);
        assert_eq!(rng.uniform(), 0.0, "seed must hit the uniform() boundary");
        let mut rng = Pcg32::seed(17_830_730_530_297_459_791);
        let weights = [0.0, 0.25, 0.75];
        assert_eq!(
            rng.choose_weighted(&weights),
            1,
            "a zero-weight leading entry must never be selected"
        );
        // And never over a longer run either.
        let mut rng = Pcg32::seed(17_830_730_530_297_459_791);
        for _ in 0..10_000 {
            assert_ne!(rng.choose_weighted(&weights), 0);
        }
    }

    #[test]
    fn choose_weighted_all_zero_is_uniform() {
        let mut rng = Pcg32::seed(12);
        let weights = [0.0; 4];
        let mut counts = [0usize; 4];
        for _ in 0..4000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        for c in counts {
            assert!(c > 700, "expected roughly uniform counts, got {counts:?}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = Pcg32::seed(13);
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }
}
