//! Seeded property tests for the data generators: every generated artifact
//! must satisfy its own verifiability contracts for any seed. Each property
//! runs [`CASES`] seeded cases ([`chipalign_tensor::rng::cases`]); a failure
//! reports its case number.

use chipalign_data::corpus::{copy_sentence, extraction_qa, random_phrase, random_word};
use chipalign_data::ifeval_bench;
use chipalign_data::industrial::IndustrialBenchmark;
use chipalign_data::multichoice;
use chipalign_data::openroad::OpenRoadBenchmark;
use chipalign_data::prompt::{extract_answer, format_prompt};
use chipalign_data::sft::{chip_sft, instruct_sft};
use chipalign_data::tags::FormatTag;
use chipalign_eval::ifeval::PromptVerdict;
use chipalign_tensor::rng::cases;

const CASES: u64 = 24;

#[test]
fn random_words_are_printable_ascii() {
    for mut rng in cases(1, CASES) {
        for _ in 0..20 {
            let w = random_word(&mut rng);
            assert!(!w.is_empty() && w.len() <= 10, "{w:?}");
            assert!(w.bytes().all(|b| b.is_ascii_alphanumeric()), "{w:?}");
        }
    }
}

#[test]
fn phrases_have_requested_word_counts() {
    for mut rng in cases(2, CASES) {
        let lo = rng.range(1, 3);
        let hi = lo + rng.range(0, 2);
        let p = random_phrase(&mut rng, lo, hi);
        let words = p.split_whitespace().count();
        assert!((lo..=hi).contains(&words), "{p:?}");
    }
}

#[test]
fn extraction_answers_are_recoverable_from_context() {
    for mut rng in cases(3, CASES) {
        let (ctx, q, a) = extraction_qa(&mut rng);
        assert!(ctx.contains(&a) || ctx == a);
        assert!(q.starts_with("what does"), "{q:?}");
        // The prompt grammar embeds all three parts.
        let prompt = format_prompt(&ctx, &q, &[]);
        assert!(prompt.contains(&q));
        assert!(prompt.ends_with("A:"));
    }
}

#[test]
fn tag_apply_then_check_holds_for_any_copy_sentence() {
    for mut rng in cases(4, CASES) {
        let sentence = copy_sentence(&mut rng);
        for tag in FormatTag::all() {
            let golden = tag.apply(&sentence);
            assert!(
                tag.instruction().check_strict(&golden),
                "{tag:?} golden fails own checker: {golden:?}"
            );
        }
    }
}

#[test]
fn openroad_benchmark_invariants_hold_for_any_seed() {
    for mut rng in cases(5, CASES) {
        let bench = OpenRoadBenchmark::generate(rng.next_u64());
        assert_eq!(bench.triplets.len(), 90);
        for t in &bench.triplets {
            assert!(
                t.tags
                    .iter()
                    .all(|tag| tag.instruction().check_strict(&t.golden)),
                "{t:?}"
            );
            assert!(t.prompt().len() + t.golden.len() < 260, "{t:?}");
        }
    }
}

#[test]
fn industrial_benchmark_invariants_hold_for_any_seed() {
    for mut rng in cases(6, CASES) {
        let bench = IndustrialBenchmark::generate(rng.next_u64());
        assert_eq!(bench.questions.len(), 39);
        for q in &bench.questions {
            assert!(q.context.contains(&q.followup_golden), "{q:?}");
            assert!(q.followup_prompt(&q.golden).ends_with("A:"), "{q:?}");
        }
    }
}

#[test]
fn ifeval_references_always_verify() {
    for mut rng in cases(7, CASES) {
        let prompts = ifeval_bench::generate(rng.next_u64());
        for p in prompts.iter().step_by(17) {
            let v = PromptVerdict::of(&p.instructions, &p.reference);
            assert!(v.strict.iter().all(|&b| b), "{p:?}");
        }
    }
}

#[test]
fn multichoice_correct_index_in_bounds() {
    for mut rng in cases(8, CASES) {
        for item in multichoice::generate(rng.next_u64()) {
            assert!(item.correct < item.choices.len());
            assert_eq!(item.choices.len(), 4);
        }
    }
}

#[test]
fn sft_pairs_fit_training_context() {
    let facts = chipalign_data::facts::openroad_facts();
    let refs: Vec<_> = facts.iter().collect();
    for mut rng in cases(9, CASES) {
        for p in instruct_sft(50, &mut rng)
            .into_iter()
            .chain(chip_sft(&refs, 50, 0.3, &mut rng))
        {
            assert!(p.prompt.len() + p.completion.len() + 2 <= 250, "{p:?}");
        }
    }
}

#[test]
fn extract_answer_never_contains_separator() {
    // Arbitrary text, weighted towards the characters the prompt grammar
    // gives meaning to.
    let alphabet: Vec<char> = ";;:AQC  \taz09<>/é漢\u{1F600}\r".chars().collect();
    for mut rng in cases(10, CASES) {
        let len = rng.below(64);
        let raw: String = (0..len).map(|_| *rng.choose(&alphabet)).collect();
        let a = extract_answer(&raw);
        assert!(!a.contains(';'), "{raw:?} -> {a:?}");
        assert_eq!(a.trim(), a, "{raw:?} -> {a:?}");
    }
}
