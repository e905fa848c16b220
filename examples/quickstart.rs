//! Quickstart: merge two conformable checkpoints with ChipAlign's geodesic
//! interpolation and inspect the per-layer geometry report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use chipalign::merge::{GeodesicMerge, Merger, ModelSoup};
use chipalign::model::{ArchSpec, Checkpoint};
use chipalign::tensor::rng::Pcg32;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Two specialists with the same architecture (the paper's
    // conformability assumption). In a real workflow these come from
    // chipalign::model::format::load("chip.calt") etc.
    let arch = ArchSpec {
        name: "quickstart".into(),
        vocab_size: 99,
        d_model: 64,
        n_layers: 2,
        n_heads: 4,
        d_ff: 128,
        max_seq_len: 128,
    };
    let chip = Checkpoint::random(&arch, &mut Pcg32::seed(1));
    let instruct = Checkpoint::random(&arch, &mut Pcg32::seed(2));
    println!(
        "inputs: {} parameters each, conformable = {}",
        chip.scalar_count(),
        chip.conformable_with(&instruct)
    );

    // The paper's method at its recommended λ = 0.6.
    let merger = GeodesicMerge::recommended();
    let (merged, report) = merger.merge_with_report(&chip, &instruct)?;
    println!(
        "\nChipAlign merge: mean geodesic angle {:.4} rad over {} tensors ({} lerp fallbacks)",
        report.mean_angle(),
        report.tensors.len(),
        report.fallback_count()
    );
    if let Some(worst) = report.max_angle() {
        println!(
            "largest angle: {} at {:.4} rad (|chip| {:.3}, |instruct| {:.3}, |merged| {:.3})",
            worst.name, worst.theta, worst.norm_chip, worst.norm_instruct, worst.norm_merged
        );
    }
    println!("merged model norm: {:.4}", merged.global_norm());

    // Contrast with naive averaging: the soup's norms collapse toward the
    // chord, the geodesic merge stays on the manifold.
    let soup = ModelSoup::new().merge_pair(&chip, &instruct)?;
    println!(
        "model-soup norm:   {:.4} (chord shrinkage)",
        soup.global_norm()
    );
    println!(
        "input norms:       {:.4} / {:.4}",
        chip.global_norm(),
        instruct.global_norm()
    );
    Ok(())
}
