//! Free-standing numeric kernels shared across the workspace.
//!
//! These are the stable scalar/slice primitives used by the transformer
//! forward/backward pass in `chipalign-nn` and the evaluation metrics in
//! `chipalign-eval`: numerically-stable softmax family, activation
//! functions, and small slice utilities.
//!
//! # Example
//!
//! ```
//! use chipalign_tensor::ops::{softmax_inplace, argmax};
//!
//! let mut logits = vec![1.0, 3.0, 2.0];
//! softmax_inplace(&mut logits);
//! let sum: f32 = logits.iter().sum();
//! assert!((sum - 1.0).abs() < 1e-6);
//! assert_eq!(argmax(&logits), Some(1));
//! ```

/// Numerically-stable in-place softmax over a slice.
///
/// An empty slice is left untouched.
pub fn softmax_inplace(xs: &mut [f32]) {
    if xs.is_empty() {
        return;
    }
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    let mut sum = 0.0f32;
    for x in xs.iter_mut() {
        *x = (*x - max).exp();
        sum += *x;
    }
    if sum > 0.0 {
        for x in xs.iter_mut() {
            *x /= sum;
        }
    }
}

/// Numerically-stable log-sum-exp of a slice.
///
/// Returns negative infinity for an empty slice, matching the sum over an
/// empty set.
#[must_use]
pub fn logsumexp(xs: &[f32]) -> f32 {
    if xs.is_empty() {
        return f32::NEG_INFINITY;
    }
    let max = xs.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
    if !max.is_finite() {
        return max;
    }
    let sum: f32 = xs.iter().map(|&x| (x - max).exp()).sum();
    max + sum.ln()
}

/// Index of the largest element, or `None` for an empty slice.
///
/// Ties resolve to the earliest index, which keeps greedy decoding
/// deterministic.
#[must_use]
pub fn argmax(xs: &[f32]) -> Option<usize> {
    let mut best: Option<(usize, f32)> = None;
    for (i, &x) in xs.iter().enumerate() {
        match best {
            Some((_, bx)) if x <= bx => {}
            _ => best = Some((i, x)),
        }
    }
    best.map(|(i, _)| i)
}

/// SiLU (sigmoid-weighted linear unit) activation: `x * sigmoid(x)`.
///
/// This is the gate nonlinearity of the SwiGLU feed-forward block.
#[must_use]
pub fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// Derivative of [`silu`] with respect to its input.
#[must_use]
pub fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

/// Logistic sigmoid `1 / (1 + e^{-x})`.
#[must_use]
pub(crate) fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Dot product of two equal-length slices, accumulated in `f32`.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot requires equal-length slices");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let mut xs = vec![0.0, 1.0, 2.0];
        softmax_inplace(&mut xs);
        assert!((xs.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(xs[2] > xs[1] && xs[1] > xs[0]);
    }

    #[test]
    fn softmax_handles_large_values() {
        let mut xs = vec![1000.0, 1000.0];
        softmax_inplace(&mut xs);
        assert!((xs[0] - 0.5).abs() < 1e-6);
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn softmax_empty_is_noop() {
        let mut xs: Vec<f32> = vec![];
        softmax_inplace(&mut xs);
        assert!(xs.is_empty());
    }

    #[test]
    fn logsumexp_matches_naive() {
        let xs = [0.3f32, -1.2, 2.5];
        let naive = xs.iter().map(|x| x.exp()).sum::<f32>().ln();
        assert!((logsumexp(&xs) - naive).abs() < 1e-5);
    }

    #[test]
    fn logsumexp_empty_is_neg_inf() {
        assert_eq!(logsumexp(&[]), f32::NEG_INFINITY);
    }

    #[test]
    fn logsumexp_large_values_stable() {
        let v = logsumexp(&[1e4, 1e4]);
        assert!((v - (1e4 + std::f32::consts::LN_2)).abs() < 1e-1);
    }

    #[test]
    fn argmax_ties_pick_first() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), Some(1));
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn sigmoid_symmetry() {
        for x in [-5.0f32, -0.5, 0.0, 0.5, 5.0] {
            assert!((sigmoid(x) + sigmoid(-x) - 1.0).abs() < 1e-6);
        }
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn silu_grad_matches_finite_difference() {
        let h = 1e-3f32;
        for x in [-2.0f32, -0.3, 0.0, 0.7, 3.0] {
            let fd = (silu(x + h) - silu(x - h)) / (2.0 * h);
            assert!(
                (silu_grad(x) - fd).abs() < 1e-3,
                "grad mismatch at {x}: {} vs {fd}",
                silu_grad(x)
            );
        }
    }

    #[test]
    fn dot_of_known_slices() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }
}
