//! Regenerates **Figure 6**: qualitative industrial (BUILD category)
//! comparison with grader scores for Chat / ChipNeMo / ChipAlign.
//!
//! ```text
//! cargo run --release -p chipalign-bench --bin fig6_qualitative
//! ```

use chipalign_bench::harness;
use chipalign_model::json::ToJson;
use chipalign_pipeline::experiments::qualitative;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let zoo = harness::paper_zoo()?;
    let comparison = qualitative::fig6(&zoo, harness::BENCH_SEED)?;
    println!("Figure 6: industrial chip QA qualitative comparison\n");
    println!("{}", comparison.render());
    let out = harness::results_dir()?.join("fig6.json");
    std::fs::write(&out, comparison.to_json().to_pretty())?;
    println!("saved {}", out.display());
    Ok(())
}
