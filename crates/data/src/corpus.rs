//! Pretraining corpora (the DAPT stage's data).
//!
//! * [`general_corpus`] — simple templated English plus prompt-grammar
//!   exercises (copy tasks, generic QA), standing in for the web/text mix
//!   the base LLMs were pretrained on. Every model in the zoo starts from
//!   a base trained here, which is what teaches the `C:/Q:/A:` grammar and
//!   the copy-from-context (induction) skill.
//! * [`chip_corpus`] — the synthetic chip documentation (all OpenROAD-world
//!   fact sentences), standing in for ChipNeMo's 24B-token DAPT corpus.
//! * `GENERAL_QA` — a tiny general-knowledge QA pool used by the
//!   instruction SFT stage and the IFEval prompt generator.

use chipalign_tensor::rng::Pcg32;

use crate::facts::{industrial_facts, openroad_facts};
use crate::prompt::format_prompt;

const SUBJECTS: &[&str] = &[
    "the cat", "the dog", "a bird", "the car", "a ship", "the moon", "the sun", "a tree",
    "the rain", "a kid", "the chef", "a robot",
];
const VERBS: &[&str] = &[
    "sees", "likes", "finds", "moves", "holds", "makes", "takes", "keeps", "shows", "meets",
];
const OBJECTS: &[&str] = &[
    "a red box",
    "the old map",
    "a warm meal",
    "the long road",
    "a small key",
    "the blue door",
    "a quiet song",
    "the fast train",
    "a round stone",
    "the green field",
];

/// General-knowledge QA pairs (question, answer) used for instruction SFT.
pub(crate) const GENERAL_QA: &[(&str, &str)] = &[
    ("what color is the sky?", "the sky is blue"),
    ("what color is grass?", "grass is green"),
    ("what does a cat say?", "a cat says meow"),
    ("what does a dog say?", "a dog says woof"),
    ("how many legs has a cat?", "a cat has 4 legs"),
    ("how many days in a week?", "a week has 7 days"),
    ("what melts in the sun?", "ice melts in the sun"),
    ("what falls from clouds?", "rain falls from clouds"),
    ("where do fish live?", "fish live in water"),
    ("when does the sun rise?", "the sun rises at dawn"),
    ("what do bees make?", "bees make honey"),
    ("what pulls the tide?", "the moon pulls the tide"),
    ("how many wheels has a car?", "a car has 4 wheels"),
    ("what do cows drink?", "cows drink water"),
    ("what burns in a fire?", "wood burns in a fire"),
    ("what color is snow?", "snow is white"),
];

/// One random plain sentence from the general templates.
#[must_use]
pub(crate) fn general_sentence(rng: &mut Pcg32) -> String {
    format!(
        "{} {} {}",
        rng.choose(SUBJECTS),
        rng.choose(VERBS),
        rng.choose(OBJECTS)
    )
}

const CONSONANTS: &[u8] = b"bcdfgklmnprstvz";
const VOWELS: &[u8] = b"aeiou";
const LETTERS: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
const DIGITS: &[u8] = b"0123456789";

/// A random nonsense word.
///
/// Unpredictable content is what forces the models to learn *copying from
/// context* (induction) rather than memorising templates — the skill that
/// later transfers to unseen chip vocabulary. Crucially the character
/// distribution must cover everything the chip worlds use: a mix of
/// pronounceable CV syllables, uniformly random letter strings, and
/// digit-bearing identifiers (like bug ids `b106`), so the induction skill
/// is content-independent rather than tuned to one letter statistic.
#[must_use]
pub fn random_word(rng: &mut Pcg32) -> String {
    let style = rng.uniform();
    if style < 0.45 {
        // Pronounceable CV syllables.
        let syllables = rng.range(2, 3);
        let mut word = String::with_capacity(syllables * 2 + 1);
        for _ in 0..syllables {
            word.push(char::from(*rng.choose(CONSONANTS)));
            word.push(char::from(*rng.choose(VOWELS)));
        }
        if rng.chance(0.3) {
            word.push(char::from(*rng.choose(CONSONANTS)));
        }
        word
    } else if style < 0.85 {
        // Uniform random letters.
        let len = rng.range(2, 8);
        (0..len).map(|_| char::from(*rng.choose(LETTERS))).collect()
    } else {
        // Identifier with digits (b106-style).
        let head_len = rng.range(1, 3);
        let digit_len = rng.range(1, 3);
        let mut word: String = (0..head_len)
            .map(|_| char::from(*rng.choose(LETTERS)))
            .collect();
        word.extend((0..digit_len).map(|_| char::from(*rng.choose(DIGITS))));
        word
    }
}

/// A random phrase of `lo..=hi` nonsense words.
#[must_use]
pub fn random_phrase(rng: &mut Pcg32, lo: usize, hi: usize) -> String {
    let n = rng.range(lo, hi);
    (0..n)
        .map(|_| random_word(rng))
        .collect::<Vec<_>>()
        .join(" ")
}

/// One random extraction-QA triple `(context, question, answer)`.
///
/// This is the *shape* of the chip benchmarks (context carries a
/// subject-does-something fact; the question asks what the subject does;
/// the answer restates the fact). Subjects are random nonsense names most
/// of the time, so the extraction skill generalises to arbitrary (chip)
/// vocabulary instead of memorising a closed template set. Pretraining on
/// it gives every model the grounding/extraction skill, so domain finetunes
/// only have to adapt vocabulary — the small weight deltas that make
/// weight-space interpolation well-behaved.
#[must_use]
pub fn extraction_qa(rng: &mut Pcg32) -> (String, String, String) {
    let subject = if rng.chance(0.8) {
        format!(
            "the {} {}",
            random_word(rng),
            *rng.choose(&["cmd", "unit", "tool", "stage", "cell", "pane"][..])
        )
    } else {
        (*rng.choose(SUBJECTS)).to_string()
    };
    // The predicate is *always* unpredictable: if any slice of the answer
    // were guessable from priors, training would reward plausible
    // template generation over context copying, and the skill would not
    // transfer to chip vocabulary.
    let predicate = format!("{} {}", rng.choose(VERBS), random_phrase(rng, 2, 3));
    let sentence = format!("{subject} {predicate}");
    let question = format!("what does {subject} do?");
    (sentence.clone(), question, sentence)
}

/// One random copy-task sentence: unpredictable word salad that can only
/// be reproduced by attending to the context.
#[must_use]
pub fn copy_sentence(rng: &mut Pcg32) -> String {
    if rng.chance(0.3) {
        general_sentence(rng)
    } else {
        random_phrase(rng, 3, 5)
    }
}

/// Generates the general pretraining corpus: plain sentences, copy-task
/// exercises, extraction QA, and generic QA — all in the shared prompt
/// grammar.
#[must_use]
pub fn general_corpus(n_docs: usize, rng: &mut Pcg32) -> Vec<String> {
    let mut docs = Vec::with_capacity(n_docs);
    for _ in 0..n_docs {
        let roll = rng.uniform();
        if roll < 0.05 {
            // Plain text.
            docs.push(format!("{}.", general_sentence(rng)));
        } else if roll < 0.2 {
            // Pure induction: the same random phrase twice. The strongest
            // possible pressure toward content-independent copy heads.
            let phrase = random_phrase(rng, 3, 6);
            docs.push(format!("{phrase}. {phrase}."));
        } else if roll < 0.45 {
            // Copy task: answer restates the context (induction skill).
            let sentence = copy_sentence(rng);
            let prompt = format_prompt(&sentence, "say it", &[]);
            docs.push(format!("{prompt}{sentence}"));
        } else if roll < 0.85 {
            // Extraction QA: the benchmark shape with general vocabulary.
            let (ctx, q, a) = extraction_qa(rng);
            let prompt = format_prompt(&ctx, &q, &[]);
            docs.push(format!("{prompt}{a}"));
        } else {
            // Generic QA in the grammar.
            let (q, a) = rng.choose(GENERAL_QA);
            let prompt = format_prompt("", q, &[]);
            docs.push(format!("{prompt}{a}"));
        }
    }
    docs
}

/// Generates the chip documentation corpus: every fact sentence of both
/// worlds, shuffled deterministically.
#[must_use]
pub fn chip_corpus(rng: &mut Pcg32) -> Vec<String> {
    let mut docs: Vec<String> = openroad_facts().iter().map(|f| f.doc.clone()).collect();
    docs.extend(industrial_facts().iter().map(|f| f.doc.clone()));
    rng.shuffle(&mut docs);
    docs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_size_and_determinism() {
        let a = general_corpus(50, &mut Pcg32::seed(1));
        let b = general_corpus(50, &mut Pcg32::seed(1));
        assert_eq!(a.len(), 50);
        assert_eq!(a, b);
        let c = general_corpus(50, &mut Pcg32::seed(2));
        assert_ne!(a, c);
    }

    #[test]
    fn corpus_mixes_modes() {
        let docs = general_corpus(200, &mut Pcg32::seed(3));
        let copies = docs.iter().filter(|d| d.contains("Q:say it;")).count();
        let qa = docs.iter().filter(|d| d.starts_with("Q:")).count();
        let plain = docs.iter().filter(|d| !d.contains("Q:")).count();
        assert!(copies > 30, "copy tasks underrepresented: {copies}");
        assert!(qa > 20, "generic QA underrepresented: {qa}");
        assert!(plain > 30, "plain text underrepresented: {plain}");
    }

    #[test]
    fn documents_fit_small_contexts() {
        for doc in general_corpus(300, &mut Pcg32::seed(4)) {
            assert!(doc.len() <= 150, "doc too long ({}): {doc}", doc.len());
        }
    }

    #[test]
    fn chip_corpus_covers_both_worlds() {
        let docs = chip_corpus(&mut Pcg32::seed(5));
        assert_eq!(docs.len(), 60 + 40);
        assert!(docs.iter().any(|d| d.contains("gpl")));
        assert!(docs.iter().any(|d| d.contains("zbld")));
    }

    #[test]
    fn general_qa_answers_echo_question_topic() {
        // Sanity: each pair shares at least one content word, so ROUGE can
        // partially reward near misses.
        use chipalign_eval::text::tokenize;
        for (q, a) in GENERAL_QA {
            let qt = tokenize(q);
            let at = tokenize(a);
            assert!(
                qt.iter().any(|t| at.contains(t)),
                "no lexical overlap: {q} / {a}"
            );
        }
    }
}
