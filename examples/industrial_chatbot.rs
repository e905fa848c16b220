//! Multi-turn industrial chip QA scenario: the Table 2 evaluation loop as
//! an interactive transcript — single turn, then a follow-up that replays
//! the model's own first answer as history, graded by the deterministic
//! rubric.
//!
//! ```text
//! cargo run --release --example industrial_chatbot
//! ```

use chipalign::data::industrial::IndustrialBenchmark;
use chipalign::eval::grader::Rubric;
use chipalign::eval::ifeval::Instruction;
use chipalign::pipeline::evalkit::respond;
use chipalign::pipeline::zoo::{Quality, Zoo, ZooConfig, ZooModel};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let zoo = Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed: 3,
        cache_dir: None,
    })?;
    println!("training the large-backbone ChipNeMo stand-in at smoke scale...");
    let chipnemo = zoo.model(ZooModel::ChipNemo)?;

    let bench = IndustrialBenchmark::generate(3);
    let question = &bench.questions[0];
    let rubric = Rubric::default();
    let instructions: Vec<Instruction> = question.tags.iter().map(|t| t.instruction()).collect();

    println!("\n--- turn 1 ({}) ---", question.category.label());
    println!("engineer : {}", question.question);
    println!("context  : {}", question.context);
    let first = respond(&chipnemo, &question.prompt())?;
    let g1 = rubric.grade(&first, &question.golden, &question.context, &instructions);
    println!("assistant: {first}");
    println!(
        "grade    : {} (content {:.2}, grounding {:.2}, compliance {:.2})",
        g1.score, g1.content, g1.grounding, g1.compliance
    );

    println!("\n--- turn 2 (follow-up) ---");
    println!("engineer : {}", question.followup_question);
    let second = respond(&chipnemo, &question.followup_prompt(&first))?;
    let g2 = rubric.grade(&second, &question.followup_golden, &question.context, &[]);
    println!("assistant: {second}");
    println!("grade    : {}", g2.score);
    println!("golden   : {}", question.followup_golden);
    Ok(())
}
