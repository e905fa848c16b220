//! End-to-end gradient verification for the manual backward pass.
//!
//! The entire reproduction rests on these gradients being right: if
//! backprop is subtly wrong, the specialists won't train and every
//! downstream table is noise. This test perturbs a sample of individual
//! weights in every parameter tensor and compares the finite-difference
//! loss slope against the analytic gradient.

use chipalign_model::ArchSpec;
use chipalign_nn::{loss, TinyLm};
use chipalign_tensor::rng::Pcg32;

fn test_arch() -> ArchSpec {
    ArchSpec {
        name: "gradcheck".into(),
        vocab_size: 24,
        d_model: 8,
        n_layers: 2,
        n_heads: 2,
        d_ff: 12,
        max_seq_len: 16,
    }
}

/// Loss of `model` on a fixed token sequence.
fn loss_of(model: &TinyLm, tokens: &[u32]) -> f32 {
    let logits = model.logits(tokens).expect("forward succeeds");
    loss::cross_entropy(&logits, tokens)
        .expect("loss succeeds")
        .loss
}

#[test]
fn analytic_gradients_match_finite_differences_everywhere() {
    let arch = test_arch();
    let model = TinyLm::new(&arch, &mut Pcg32::seed(99)).expect("valid arch");
    let tokens: Vec<u32> = vec![1, 5, 9, 13, 17, 21, 2];

    let (logits, cache) = model.forward(&tokens).expect("forward succeeds");
    let result = loss::cross_entropy(&logits, &tokens).expect("loss succeeds");
    let grads = model
        .backward(&cache, &result.dlogits)
        .expect("backward succeeds");

    let names = model.params().names();
    let grad_tensors = grads.tensors();
    let mut rng = Pcg32::seed(7);
    // Embeddings have ~0.02-scale entries and RMSNorm is strongly curved at
    // that scale, so the step must be small relative to it; f32 round-off
    // noise at this h is still two orders below the gradients checked.
    let h = 4e-4f32;
    let mut checked = 0usize;

    for (t_idx, name) in names.iter().enumerate() {
        let tensor = grad_tensors[t_idx];
        let len = tensor.len();
        // Sample up to 6 coordinates per tensor; always include the largest
        // gradient coordinate (most informative).
        let mut coords: Vec<usize> = (0..6.min(len)).map(|_| rng.below(len)).collect();
        let max_idx = tensor
            .data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().total_cmp(&b.1.abs()))
            .map(|(i, _)| i)
            .expect("non-empty tensor");
        coords.push(max_idx);

        // Embedding rows for unseen tokens have zero gradient; restrict
        // embedding checks to coordinates with signal or verify the zero.
        for &coord in &coords {
            let analytic = tensor.data()[coord];
            let mut plus = model.clone();
            let mut minus = model.clone();
            plus.params_mut().tensors_mut()[t_idx].data_mut()[coord] += h;
            minus.params_mut().tensors_mut()[t_idx].data_mut()[coord] -= h;
            let fd = (loss_of(&plus, &tokens) - loss_of(&minus, &tokens)) / (2.0 * h);
            let tol = 2e-2 * (1.0 + fd.abs().max(analytic.abs()));
            assert!(
                (fd - analytic).abs() < tol,
                "{name}[{coord}]: finite difference {fd} vs analytic {analytic}"
            );
            checked += 1;
        }
    }
    assert!(checked >= 7 * names.len(), "checked {checked} coordinates");
}

#[test]
fn gradient_descent_direction_reduces_loss() {
    // One explicit steepest-descent step (no Adam) must reduce the loss —
    // the most direct functional statement that the gradient points uphill.
    let arch = test_arch();
    let model = TinyLm::new(&arch, &mut Pcg32::seed(3)).expect("valid arch");
    let tokens: Vec<u32> = vec![2, 6, 10, 14, 18];
    let (logits, cache) = model.forward(&tokens).expect("forward succeeds");
    let result = loss::cross_entropy(&logits, &tokens).expect("loss succeeds");
    let grads = model
        .backward(&cache, &result.dlogits)
        .expect("backward succeeds");

    let before = loss_of(&model, &tokens);
    let mut stepped = model.clone();
    let gts = grads.tensors();
    for (i, p) in stepped.params_mut().tensors_mut().into_iter().enumerate() {
        p.axpy(-0.05, gts[i]).expect("same shapes");
    }
    let after = loss_of(&stepped, &tokens);
    assert!(
        after < before,
        "descent step increased loss: {before} -> {after}"
    );
}

#[test]
fn batch_gradient_is_mean_of_example_gradients() {
    // The trainer averages per-example gradients; verify linearity of the
    // backward pass over dlogits by splitting a two-target loss.
    let arch = test_arch();
    let model = TinyLm::new(&arch, &mut Pcg32::seed(4)).expect("valid arch");
    let tokens: Vec<u32> = vec![3, 7, 11, 15];

    let (logits, cache) = model.forward(&tokens).expect("forward succeeds");
    let full = loss::cross_entropy(&logits, &tokens).expect("ok");
    let g_full = model.backward(&cache, &full.dlogits).expect("ok");

    // Mask-split: first target only, then remaining targets.
    let m1 = vec![false, true, false, false];
    let m2 = vec![false, false, true, true];
    let l1 = loss::masked_cross_entropy(&logits, &tokens, &m1).expect("ok");
    let l2 = loss::masked_cross_entropy(&logits, &tokens, &m2).expect("ok");
    let g1 = model.backward(&cache, &l1.dlogits).expect("ok");
    let g2 = model.backward(&cache, &l2.dlogits).expect("ok");

    // full = (1*l1 + 2*l2)/3 in both loss and gradient.
    let (w1, w2) = (1.0 / 3.0, 2.0 / 3.0);
    assert!((full.loss - (w1 * l1.loss + w2 * l2.loss)).abs() < 1e-5);
    for ((gf, ga), gb) in g_full.tensors().iter().zip(g1.tensors()).zip(g2.tensors()) {
        let combined = ga.scale(w1).add(&gb.scale(w2)).expect("same shapes");
        assert!(
            gf.approx_eq(&combined, 1e-5),
            "gradient is not linear over masked splits"
        );
    }
}
