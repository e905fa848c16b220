//! Regenerates **Figure 5**: qualitative OpenROAD QA comparison — the
//! instruct, EDA, and ChipAlign models answering the same GUI-category
//! question side by side.
//!
//! ```text
//! cargo run --release -p chipalign-bench --bin fig5_qualitative
//! ```

use chipalign_bench::harness;
use chipalign_model::json::ToJson;
use chipalign_pipeline::experiments::qualitative;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let zoo = harness::paper_zoo()?;
    let comparison = qualitative::fig5(&zoo, harness::BENCH_SEED)?;
    println!("Figure 5: OpenROAD QA qualitative comparison\n");
    println!("{}", comparison.render());
    let out = harness::results_dir()?.join("fig5.json");
    std::fs::write(&out, comparison.to_json().to_pretty())?;
    println!("saved {}", out.display());
    Ok(())
}
