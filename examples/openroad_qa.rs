//! End-to-end OpenROAD-QA scenario on a freshly trained (smoke-scale)
//! model zoo: train base → instruct → EDA, merge with ChipAlign, and
//! answer a retrieval-augmented, instruction-carrying question with all
//! three models — the Figure 5 workflow in miniature.
//!
//! Uses smoke-quality training so it finishes in well under a minute; for
//! paper-quality responses run the `fig5_qualitative` bench binary against
//! the cached zoo.
//!
//! ```text
//! cargo run --release --example openroad_qa
//! ```

use chipalign::data::openroad::OpenRoadBenchmark;
use chipalign::eval::rouge::rouge_l;
use chipalign::pipeline::evalkit::respond;
use chipalign::pipeline::experiments::merged_variants;
use chipalign::pipeline::zoo::{Backbone, Quality, Zoo, ZooConfig, ZooModel};
use chipalign::rag::{Chunker, Retriever};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let zoo = Zoo::new(ZooConfig {
        quality: Quality::Smoke,
        seed: 7,
        cache_dir: None,
    })?;
    let backbone = Backbone::LlamaTiny;
    println!(
        "training the {} chain at smoke scale...",
        backbone.paper_name()
    );
    let instruct = zoo.model(ZooModel::Instruct(backbone))?;
    let eda = zoo.model(ZooModel::Eda(backbone))?;
    let chipalign = merged_variants(&zoo, backbone)?
        .into_iter()
        .find(|(n, _)| n.ends_with("ChipAlign"))
        .expect("ChipAlign variant")
        .1;

    // A benchmark triplet plus the RAG pipeline over the documentation.
    let bench = OpenRoadBenchmark::generate(7);
    let retriever =
        Retriever::build(Chunker::default().chunk_all(&OpenRoadBenchmark::corpus_documents()));
    let triplet = &bench.triplets[0];
    let rag_context = retriever.retrieve_context(&triplet.question, 2);
    println!("\nquestion      : {}", triplet.question);
    println!("directive     : {:?}", triplet.tags[0].tag_str());
    println!("golden        : {}", triplet.golden);
    println!("rag context   : {rag_context}");

    for (name, model) in [
        ("instruct", &instruct),
        ("eda", &eda),
        ("chipalign", &chipalign),
    ] {
        let answer = respond(model, &triplet.prompt_with_context(&rag_context))?;
        let score = rouge_l(&answer, &triplet.golden).f1;
        println!("{name:<10} (rouge {score:.3}): {answer}");
    }
    println!("\n(smoke-scale models babble; the mechanism and plumbing are the point here)");
    Ok(())
}
