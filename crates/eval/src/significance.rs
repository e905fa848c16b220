//! Paired-bootstrap significance testing for system comparisons.
//!
//! Table 1's margins ("up to 6.4% over merging baselines") invite the
//! question of whether a difference on a 90-item benchmark is real. The
//! standard answer in MT/QA evaluation is the paired bootstrap: resample
//! the item set with replacement many times and count how often system A
//! beats system B on the resample.

use chipalign_tensor::rng::Pcg32;

/// The outcome of a paired bootstrap comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapResult {
    /// Mean score of system A on the full set.
    pub mean_a: f64,
    /// Mean score of system B on the full set.
    pub mean_b: f64,
    /// `mean_a − mean_b`.
    pub delta: f64,
    /// Fraction of resamples where A's mean exceeded B's.
    pub(crate) win_rate_a: f64,
    /// Two-sided p-value for the null hypothesis "no difference":
    /// `2 · min(P(A > B), P(B > A))` over resamples.
    pub p_value: f64,
    /// Number of bootstrap resamples drawn.
    pub resamples: usize,
}

/// Runs a paired bootstrap over per-item scores of two systems.
///
/// `scores_a[i]` and `scores_b[i]` must score the *same* benchmark item.
/// Returns `None` for empty or length-mismatched inputs or zero
/// `resamples`.
///
/// # Example
///
/// ```
/// use chipalign_eval::significance::paired_bootstrap;
///
/// let a = vec![0.9; 50];
/// let b = vec![0.1; 50];
/// let result = paired_bootstrap(&a, &b, 500, 7).expect("valid inputs");
/// assert!(result.p_value < 0.05);
/// assert!(result.delta > 0.7);
/// ```
#[must_use]
pub fn paired_bootstrap(
    scores_a: &[f64],
    scores_b: &[f64],
    resamples: usize,
    seed: u64,
) -> Option<BootstrapResult> {
    let n = scores_a.len();
    if n == 0 || scores_b.len() != n || resamples == 0 {
        return None;
    }
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
    let mean_a = mean(scores_a);
    let mean_b = mean(scores_b);

    let mut rng = Pcg32::seed(seed);
    let mut wins_a = 0usize;
    let mut wins_b = 0usize;
    for _ in 0..resamples {
        let mut sum_a = 0.0;
        let mut sum_b = 0.0;
        for _ in 0..n {
            let idx = rng.below(n);
            sum_a += scores_a[idx];
            sum_b += scores_b[idx];
        }
        if sum_a > sum_b {
            wins_a += 1;
        } else if sum_b > sum_a {
            wins_b += 1;
        }
    }
    // Ties split their evidence between the two directions, so identical
    // systems (all ties) get p = 1 rather than spurious significance.
    let ties = (resamples - wins_a - wins_b) as f64 / 2.0;
    let p_a = (wins_a as f64 + ties) / resamples as f64;
    let p_b = (wins_b as f64 + ties) / resamples as f64;
    Some(BootstrapResult {
        mean_a,
        mean_b,
        delta: mean_a - mean_b,
        win_rate_a: p_a,
        p_value: (2.0 * p_a.min(p_b)).clamp(1.0 / resamples as f64, 1.0),
        resamples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_difference_is_significant() {
        let a: Vec<f64> = (0..60).map(|i| 0.7 + 0.01 * (i % 3) as f64).collect();
        let b: Vec<f64> = (0..60).map(|i| 0.3 + 0.01 * (i % 5) as f64).collect();
        let r = paired_bootstrap(&a, &b, 1000, 1).expect("valid");
        assert!(r.p_value < 0.01, "{r:?}");
        assert!(r.win_rate_a > 0.99);
        assert!(r.delta > 0.3);
    }

    #[test]
    fn identical_systems_are_not_significant() {
        let a = vec![0.5, 0.6, 0.4, 0.7, 0.5, 0.3, 0.8];
        let r = paired_bootstrap(&a, &a, 500, 2).expect("valid");
        assert!(r.p_value >= 0.05, "{r:?}");
        assert_eq!(r.delta, 0.0);
    }

    #[test]
    fn noisy_tiny_difference_is_not_significant() {
        // A beats B by 0.01 on items whose scores swing by ±0.4.
        let mut rng = Pcg32::seed(9);
        let b: Vec<f64> = (0..40).map(|_| f64::from(rng.uniform()) * 0.8).collect();
        let a: Vec<f64> = b.iter().map(|x| x + 0.01).collect();
        // Paired bootstrap *does* detect constant shifts (that's its
        // power); make the shift non-constant to create real ambiguity.
        let a_noisy: Vec<f64> = a
            .iter()
            .map(|x| x + (f64::from(rng.uniform()) - 0.5) * 0.8)
            .collect();
        let r = paired_bootstrap(&a_noisy, &b, 500, 3).expect("valid");
        assert!(
            r.p_value > 0.001,
            "tiny noisy deltas should not be certain: {r:?}"
        );
    }

    #[test]
    fn paired_bootstrap_detects_constant_shift() {
        // The whole point of pairing: a small but consistent improvement
        // is significant even with high item variance.
        let mut rng = Pcg32::seed(11);
        let b: Vec<f64> = (0..80).map(|_| f64::from(rng.uniform())).collect();
        let a: Vec<f64> = b.iter().map(|x| x + 0.02).collect();
        let r = paired_bootstrap(&a, &b, 1000, 4).expect("valid");
        assert!(r.p_value < 0.01, "{r:?}");
    }

    #[test]
    fn invalid_inputs_return_none() {
        assert!(paired_bootstrap(&[], &[], 100, 1).is_none());
        assert!(paired_bootstrap(&[1.0], &[1.0, 2.0], 100, 1).is_none());
        assert!(paired_bootstrap(&[1.0], &[1.0], 0, 1).is_none());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = vec![0.5, 0.7, 0.9, 0.4];
        let b = vec![0.4, 0.6, 0.8, 0.5];
        let r1 = paired_bootstrap(&a, &b, 300, 5).expect("valid");
        let r2 = paired_bootstrap(&a, &b, 300, 5).expect("valid");
        assert_eq!(r1, r2);
    }
}
