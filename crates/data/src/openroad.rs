//! The OpenROAD-QA-style benchmark (paper Table 1, Figure 8).
//!
//! 90 context-query-answer triplets over the OpenROAD world, each carrying
//! one content-affecting format directive (the benchmark's prompts "all
//! follow the same instruction" in the paper; here the directive varies by
//! triplet so compliance is measurable via ROUGE-L). Categories follow the
//! paper's split: Functionality / VLSI Flow / GUI & Install & Test.
//!
//! Evaluation supports both context modes of Table 1: the *golden context*
//! (the fact's own documentation sentence) and the *RAG context* (whatever
//! the retrieval pipeline returns from the full documentation corpus).

use chipalign_rag::Document;
use chipalign_tensor::rng::Pcg32;

use crate::facts::{openroad_facts, Fact};
use crate::prompt::format_prompt;
use crate::tags::FormatTag;

/// Number of evaluation triplets, matching the paper.
pub(crate) const NUM_TRIPLETS: usize = 90;

/// One evaluation triplet.
#[derive(Debug, Clone, PartialEq)]
pub struct QaTriplet {
    /// Paper category (`"Functionality"`, `"VLSI Flow"`,
    /// `"GUI & Install & Test"`).
    pub category: &'static str,
    /// Golden context (the grounding documentation sentence).
    pub context: String,
    /// The question.
    pub question: String,
    /// The format directive(s) the prompt carries.
    pub tags: Vec<FormatTag>,
    /// The golden answer with directives applied.
    pub golden: String,
    /// Name of the underlying fact (for RAG relevance checking).
    pub fact_name: String,
}

impl QaTriplet {
    /// Renders the evaluation prompt, with the golden context or an
    /// override (the RAG-retrieved context).
    #[must_use]
    pub fn prompt_with_context(&self, context: &str) -> String {
        format_prompt(context, &self.question, &self.tags)
    }

    /// The golden-context prompt.
    #[must_use]
    pub fn prompt(&self) -> String {
        self.prompt_with_context(&self.context)
    }
}

/// The generated benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenRoadBenchmark {
    /// The 90 evaluation triplets.
    pub triplets: Vec<QaTriplet>,
}

impl OpenRoadBenchmark {
    /// Generates the benchmark deterministically from a seed.
    ///
    /// Each triplet pairs a fact with a content tag; `(fact, tag)` pairs
    /// are unique, and every category is represented.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let facts = openroad_facts();
        let content_tags = FormatTag::content_tags();
        let mut rng = Pcg32::seed(seed);

        // Enumerate all (fact, tag) combinations, shuffle, take 90 with a
        // per-category floor.
        let mut combos: Vec<(usize, usize)> = (0..facts.len())
            .flat_map(|f| (0..content_tags.len()).map(move |t| (f, t)))
            .collect();
        rng.shuffle(&mut combos);

        let mut triplets = Vec::with_capacity(NUM_TRIPLETS);
        for (fi, ti) in combos {
            if triplets.len() == NUM_TRIPLETS {
                break;
            }
            let fact: &Fact = &facts[fi];
            let tag = content_tags[ti].clone();
            triplets.push(QaTriplet {
                category: fact.domain.openroad_category(),
                context: fact.doc.clone(),
                question: fact.question.clone(),
                golden: tag.apply(&fact.answer),
                tags: vec![tag],
                fact_name: fact.name.clone(),
            });
        }
        OpenRoadBenchmark { triplets }
    }

    /// The full documentation corpus as retrievable documents (for the RAG
    /// context mode).
    #[must_use]
    pub fn corpus_documents() -> Vec<Document> {
        openroad_facts()
            .iter()
            .enumerate()
            .map(|(i, f)| Document::new(i, &f.name, &f.doc))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_ninety_unique_triplets() {
        let bench = OpenRoadBenchmark::generate(42);
        assert_eq!(bench.triplets.len(), NUM_TRIPLETS);
        let mut keys: Vec<(String, String)> = bench
            .triplets
            .iter()
            .map(|t| (t.fact_name.clone(), t.tags[0].tag_str()))
            .collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), NUM_TRIPLETS, "(fact, tag) pairs must be unique");
    }

    #[test]
    fn all_categories_represented() {
        let bench = OpenRoadBenchmark::generate(42);
        let count = |c: &str| bench.triplets.iter().filter(|t| t.category == c).count();
        let categories = ["Functionality", "VLSI Flow", "GUI & Install & Test"];
        for cat in categories {
            let n = count(cat);
            assert!(n >= 8, "category {cat} underrepresented: {n}");
        }
        let total: usize = categories.iter().map(|c| count(c)).sum();
        assert_eq!(total, NUM_TRIPLETS);
    }

    #[test]
    fn goldens_obey_their_directives() {
        let bench = OpenRoadBenchmark::generate(42);
        for t in &bench.triplets {
            for tag in &t.tags {
                assert!(
                    tag.instruction().check_strict(&t.golden),
                    "golden violates {tag:?}: {}",
                    t.golden
                );
            }
        }
    }

    #[test]
    fn prompts_carry_context_question_and_tag() {
        let bench = OpenRoadBenchmark::generate(42);
        let t = &bench.triplets[0];
        let p = t.prompt();
        assert!(p.starts_with("C:"));
        assert!(p.contains(&t.question));
        assert!(p.contains(&t.tags[0].tag_str()));
        assert!(p.ends_with("A:"));
        let over = t.prompt_with_context("other context");
        assert!(over.starts_with("C:other context."));
    }

    #[test]
    fn prompts_fit_the_context_window() {
        let bench = OpenRoadBenchmark::generate(42);
        for t in &bench.triplets {
            let total = t.prompt().len() + t.golden.len() + 2;
            assert!(total <= 240, "triplet too long ({total}): {t:?}");
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        assert_eq!(
            OpenRoadBenchmark::generate(1),
            OpenRoadBenchmark::generate(1)
        );
        assert_ne!(
            OpenRoadBenchmark::generate(1),
            OpenRoadBenchmark::generate(2)
        );
    }

    #[test]
    fn corpus_documents_cover_all_facts() {
        let docs = OpenRoadBenchmark::corpus_documents();
        assert_eq!(docs.len(), 60);
        let bench = OpenRoadBenchmark::generate(42);
        for t in &bench.triplets {
            assert!(
                docs.iter().any(|d| d.text == t.context),
                "golden context must exist in the corpus: {}",
                t.context
            );
        }
    }
}
