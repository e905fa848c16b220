//! The one `f64` reduction kernel of the workspace.
//!
//! Frobenius norms, Frobenius inner products and both sweeps of the
//! geodesic merge are instances of one lane-split body: element `k` of a
//! reduction is added to partial `k % ``tune::REDUCE_LANES` of each
//! quantity, and the partials combine in one fixed tree. The bits of a
//! result therefore depend only on the input slices — not on the caller,
//! not on the thread, and not on how many quantities are reduced together —
//! so `moments(a, b).aa` equals `sum_of_squares(a)` exactly, and the norm of
//! what [`axpby_into`] writes equals the norm of the finished output.
//!
//! # Example
//!
//! ```
//! use chipalign_tensor::reduce;
//!
//! let (a, b) = ([3.0f32, 0.0], [0.0f32, 4.0]);
//! let m = reduce::moments(&a, &b);
//! assert_eq!((m.aa, m.bb, m.ab), (9.0, 16.0, 0.0));
//! let mut out = Vec::new();
//! let out_sq = reduce::axpby_into(&mut out, 1.0, &a, 0.5, &b);
//! assert_eq!(out, vec![3.0, 2.0]);
//! assert_eq!(out_sq, 13.0);
//! ```

use crate::tune;

const LANES: usize = tune::REDUCE_LANES;

/// The second moments of a pair of equal-length slices — everything the
/// geodesic merge needs to know about a tensor pair (Lemma III.2 depends on
/// the pair only through these three numbers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Moments {
    /// `‖a‖² = Σ aₖ²`.
    pub aa: f64,
    /// `‖b‖² = Σ bₖ²`.
    pub bb: f64,
    /// `⟨a, b⟩ = Σ aₖ·bₖ`.
    pub ab: f64,
}

/// `‖a‖²`, `‖b‖²` and `⟨a, b⟩` in one read of each slice.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn moments(a: &[f32], b: &[f32]) -> Moments {
    let [aa, bb, ab] = lane_sums(
        a,
        b,
        |x, y| {
            let (x, y) = (f64::from(x), f64::from(y));
            (0.0, [x * x, y * y, x * y])
        },
        |_| {},
    );
    Moments { aa, bb, ab }
}

/// `Σ aₖ²`, accumulated in `f64`.
#[must_use]
pub(crate) fn sum_of_squares(a: &[f32]) -> f64 {
    let [aa] = lane_sums(a, a, |x, _| (0.0, [f64::from(x) * f64::from(x)]), |_| {});
    aa
}

/// `Σ aₖ·bₖ`, accumulated in `f64`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    let [ab] = lane_sums(a, b, |x, y| (0.0, [f64::from(x) * f64::from(y)]), |_| {});
    ab
}

/// Appends `α·aₖ + β·bₖ` (in `f32`) to `out` for every `k` and returns the
/// sum of squares of the appended values — one read of each input and one
/// write, with the output's norm accumulated as it is written.
///
/// Reserve `out` beforehand to make this its only allocation.
///
/// # Panics
///
/// Panics if `a` and `b` have different lengths.
pub fn axpby_into(out: &mut Vec<f32>, alpha: f32, a: &[f32], beta: f32, b: &[f32]) -> f64 {
    out.reserve(a.len());
    let [sq] = lane_sums(
        a,
        b,
        |x, y| {
            let v = alpha * x + beta * y;
            (v, [f64::from(v) * f64::from(v)])
        },
        |values| out.extend_from_slice(values),
    );
    sq
}

/// The one reduction body. `term(aₖ, bₖ)` yields a value and its `Q`
/// contributions; contribution `q` of element `k` goes to partial
/// `k % LANES` of sum `q`. `emit` receives the values in order, a lane-row
/// at a time (reductions produce none). The partials of each sum combine in
/// one fixed tree.
#[inline(always)]
fn lane_sums<const Q: usize>(
    a: &[f32],
    b: &[f32],
    term: impl Fn(f32, f32) -> (f32, [f64; Q]),
    mut emit: impl FnMut(&[f32]),
) -> [f64; Q] {
    assert_eq!(a.len(), b.len(), "reductions need equal-length slices");
    let mut partials = [[0.0f64; LANES]; Q];
    let mut row = [0.0f32; LANES];
    let mut add = |lane: usize, x: f32, y: f32, row: &mut [f32; LANES]| {
        let (value, contributions) = term(x, y);
        row[lane] = value;
        for (sum, c) in partials.iter_mut().zip(contributions) {
            sum[lane] += c;
        }
    };
    let (a_rows, a_tail) = a.as_chunks::<LANES>();
    let (b_rows, b_tail) = b.as_chunks::<LANES>();
    for (ra, rb) in a_rows.iter().zip(b_rows) {
        for lane in 0..LANES {
            add(lane, ra[lane], rb[lane], &mut row);
        }
        emit(&row);
    }
    for (lane, (&x, &y)) in a_tail.iter().zip(b_tail).enumerate() {
        add(lane, x, y, &mut row);
    }
    emit(&row[..a_tail.len()]);
    partials.map(combine)
}

/// Pairwise tree over the partials: `(p₀ + p₄) + (p₂ + p₆) + …` for 8 lanes,
/// the same order every time.
#[inline(always)]
fn combine(mut partials: [f64; LANES]) -> f64 {
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for j in 0..width {
            partials[j] += partials[j + width];
        }
    }
    partials[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn seeded(len: usize, seed: u64) -> Vec<f32> {
        let mut rng = Pcg32::seed(seed);
        (0..len).map(|_| rng.normal()).collect()
    }

    /// `|lane-split − naive| ≤ 1e-12 · Σ|terms|`: relative to the sum of
    /// magnitudes, so a cancelling dot product is judged by its condition,
    /// not by its tiny result.
    fn assert_close(got: f64, terms: impl Iterator<Item = f64>, what: &str, len: usize) {
        let (mut naive, mut magnitude) = (0.0f64, 0.0f64);
        for t in terms {
            naive += t;
            magnitude += t.abs();
        }
        assert!(
            (got - naive).abs() <= 1e-12 * magnitude,
            "{what} at length {len}: lane-split {got} vs naive {naive}"
        );
    }

    #[test]
    fn lane_split_sums_track_a_naive_f64_sum() {
        for len in [0, 1, 7, 8, 9, 100_003] {
            let a = seeded(len, 1 + len as u64);
            let b = seeded(len, 2 + len as u64);
            let wide = |x: &f32| f64::from(*x);
            let m = moments(&a, &b);
            assert_close(m.aa, a.iter().map(|x| wide(x) * wide(x)), "aa", len);
            assert_close(m.bb, b.iter().map(|x| wide(x) * wide(x)), "bb", len);
            assert_close(
                m.ab,
                a.iter().zip(&b).map(|(x, y)| wide(x) * wide(y)),
                "ab",
                len,
            );
            // One body: every instance of it agrees bit for bit.
            assert_eq!(m.aa.to_bits(), sum_of_squares(&a).to_bits(), "len {len}");
            assert_eq!(m.ab.to_bits(), dot(&a, &b).to_bits(), "len {len}");
        }
    }

    #[test]
    fn axpby_writes_each_value_once_and_returns_its_norm() {
        for len in [0, 1, 7, 8, 9, 1003] {
            let a = seeded(len, 3);
            let b = seeded(len, 4);
            let mut out = Vec::with_capacity(len);
            let sq = axpby_into(&mut out, 0.75, &a, -1.5, &b);
            assert_eq!(out.len(), len);
            for ((&o, &x), &y) in out.iter().zip(&a).zip(&b) {
                assert_eq!(o.to_bits(), (0.75 * x + -1.5 * y).to_bits());
            }
            assert_eq!(sq.to_bits(), sum_of_squares(&out).to_bits(), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_panics() {
        let _ = moments(&[1.0], &[1.0, 2.0]);
    }
}
