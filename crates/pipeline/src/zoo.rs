//! The model zoo: every LLM the paper's experiments need, trained from
//! scratch with deterministic recipes and cached on disk.
//!
//! Mapping to the paper's models:
//!
//! | Zoo id | Stands in for | Recipe |
//! |--------|---------------|--------|
//! | `Base(QwenTiny)` / `Base(LlamaTiny)` | Qwen1.5-14B / LLaMA3-8B pretrained bases | causal LM on the general corpus |
//! | `Instruct(QwenTiny)` / `Instruct(LlamaTiny)` | Qwen1.5-14B-Chat / LLaMA3-8B-Instruct | instruction SFT (format-tagged general data) |
//! | `Eda(…)` | Qwen1.5-14B-EDA / LLaMA3-8B-EDA | retrieval-augmented DAFT via LoRA (r=8, α=16) on untagged chip triplets, from the instruct model |
//! | `Base(LlamaLarge)` | LLaMA2-70B-Base | general pretraining |
//! | `Instruct(LlamaLarge)` | LLaMA2-70B-Chat | instruction SFT |
//! | `ChipNemo` | LLaMA2-70B-ChipNeMo | DAPT on chip docs + DAFT blend (industrial triplets, closed-book chip QA, a slice of tagged data — the OASST/SteerLM component the paper credits ChipNeMo's residual alignment to) |
//! | `GeneralStrong` | GPT-4 Turbo | heavier instruction SFT + light chip exposure |
//! | `RagEda` | RAG-EDA | full-parameter chip DAFT from the Qwen instruct model ("highly customized") |
//!
//! The merged models (ChipAlign and baselines) are *not* in the zoo: they
//! are produced on demand by `chipalign-merge` from these ingredients.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

use chipalign_data::corpus::{chip_corpus, general_corpus};
use chipalign_data::facts::{industrial_facts, openroad_facts, Fact};
use chipalign_data::prompt::format_prompt;
use chipalign_data::sft::{chip_sft, chip_sft_closed_book, instruct_sft, SftPair};
use chipalign_model::{format, ArchSpec};
use chipalign_nn::train::{train, Example, TrainConfig};
use chipalign_nn::{AdamConfig, CharTokenizer, LoraConfig, LoraModel, TinyLm};
use chipalign_tensor::rng::Pcg32;

use crate::PipelineError;

/// Token id appended to every completion.
const EOS: u32 = 2;
/// Token id prepended to every sequence.
const BOS: u32 = 1;

/// Training scale: smoke-test sizes or the full paper-table sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quality {
    /// Tiny models and few steps — for unit/integration tests (seconds).
    Smoke,
    /// The sizes used to regenerate the paper's tables (minutes per model
    /// on one core; all models are cached after the first run).
    Paper,
}

impl Quality {
    fn tag(self) -> &'static str {
        match self {
            Quality::Smoke => "smoke",
            Quality::Paper => "paper",
        }
    }
}

/// The three simulated backbones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backbone {
    /// Stand-in for Qwen1.5-14B.
    QwenTiny,
    /// Stand-in for LLaMA3-8B.
    LlamaTiny,
    /// Stand-in for LLaMA2-70B.
    LlamaLarge,
}

impl Backbone {
    /// The paper's name for this backbone.
    #[must_use]
    pub fn paper_name(self) -> &'static str {
        match self {
            Backbone::QwenTiny => "Qwen1.5-14B",
            Backbone::LlamaTiny => "LLaMA3-8B",
            Backbone::LlamaLarge => "LLaMA2-70B",
        }
    }

    fn slug(self) -> &'static str {
        match self {
            Backbone::QwenTiny => "qwen",
            Backbone::LlamaTiny => "llama",
            Backbone::LlamaLarge => "large",
        }
    }

    /// The architecture at a given quality.
    #[must_use]
    pub fn arch(self, quality: Quality) -> ArchSpec {
        let tok = CharTokenizer::new();
        // Copy/extraction fidelity (the substrate of every benchmark)
        // emerges robustly at d_model = 64, n_layers = 3 with this recipe;
        // widths of 72/80 destabilised pretraining under the same LR
        // schedule. The backbones therefore share the proven width and
        // differ in feed-forward capacity (and, through their recipes and
        // seeds, in everything else that matters to the experiments).
        let (d_model, n_layers, d_ff) = match (quality, self) {
            (Quality::Smoke, _) => (32, 2, 64),
            (Quality::Paper, Backbone::LlamaTiny) => (64, 3, 128),
            (Quality::Paper, Backbone::QwenTiny) => (64, 3, 160),
            (Quality::Paper, Backbone::LlamaLarge) => (64, 3, 192),
        };
        ArchSpec {
            name: format!("{}-{}", self.slug(), quality.tag()),
            vocab_size: tok.vocab_size(),
            d_model,
            n_layers,
            n_heads: 4,
            d_ff,
            // Large enough that a multi-turn prompt (~230 chars) plus the
            // response budget fits without truncating the context away.
            max_seq_len: 320,
        }
    }
}

/// Identifiers for the trainable zoo members.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ZooModel {
    /// Pretrained base for a backbone.
    Base(Backbone),
    /// Instruction-aligned model for a backbone (the paper's publicly
    /// available chat/instruct models).
    Instruct(Backbone),
    /// The EDA specialist (LoRA DAFT from the instruct model). Only the
    /// tiny backbones have one.
    Eda(Backbone),
    /// The ChipNeMo-style large chip model (DAPT + DAFT from the large
    /// base).
    ChipNemo,
    /// The GPT-4-Turbo stand-in.
    GeneralStrong,
    /// The RAG-EDA stand-in.
    RagEda,
}

impl ZooModel {
    /// Stable cache-file slug.
    #[must_use]
    pub fn slug(self) -> String {
        match self {
            ZooModel::Base(b) => format!("base-{}", b.slug()),
            ZooModel::Instruct(b) => format!("instruct-{}", b.slug()),
            ZooModel::Eda(b) => format!("eda-{}", b.slug()),
            ZooModel::ChipNemo => "chipnemo".to_string(),
            ZooModel::GeneralStrong => "general-strong".to_string(),
            ZooModel::RagEda => "rag-eda".to_string(),
        }
    }

    /// The name the paper's tables use for this model.
    #[must_use]
    pub fn paper_name(self) -> String {
        match self {
            ZooModel::Base(b) => format!("{}-Base", b.paper_name()),
            ZooModel::Instruct(Backbone::QwenTiny) => "Qwen1.5-14B-Chat".to_string(),
            ZooModel::Instruct(Backbone::LlamaTiny) => "LLaMA3-8B-Instruct".to_string(),
            ZooModel::Instruct(Backbone::LlamaLarge) => "LLaMA2-70B-Chat".to_string(),
            ZooModel::Eda(b) => format!("{}-EDA", b.paper_name()),
            ZooModel::ChipNemo => "LLaMA2-70B-ChipNeMo".to_string(),
            ZooModel::GeneralStrong => "GPT-4 Turbo".to_string(),
            ZooModel::RagEda => "RAG-EDA".to_string(),
        }
    }
}

/// Zoo configuration.
#[derive(Debug, Clone)]
pub struct ZooConfig {
    /// Training scale.
    pub quality: Quality,
    /// Master seed; all recipes derive from it.
    pub seed: u64,
    /// On-disk cache directory (`None` disables persistence; models are
    /// still memoized in memory).
    pub cache_dir: Option<PathBuf>,
}

/// Step counts for one quality level.
#[derive(Debug, Clone, Copy)]
struct Recipe {
    batch: usize,
    pretrain_steps: usize,
    sft_steps: usize,
    lora_steps: usize,
    dapt_steps: usize,
    daft_steps: usize,
    corpus_docs: usize,
    sft_pairs: usize,
}

impl Recipe {
    fn for_quality(q: Quality) -> Recipe {
        match q {
            Quality::Smoke => Recipe {
                batch: 4,
                pretrain_steps: 120,
                sft_steps: 120,
                lora_steps: 100,
                dapt_steps: 60,
                daft_steps: 120,
                corpus_docs: 400,
                sft_pairs: 300,
            },
            Quality::Paper => Recipe {
                batch: 8,
                pretrain_steps: 3000,
                sft_steps: 800,
                lora_steps: 600,
                dapt_steps: 500,
                daft_steps: 900,
                corpus_docs: 5000,
                sft_pairs: 2000,
            },
        }
    }
}

/// The zoo: trains on demand, memoizes in memory, persists to disk.
pub struct Zoo {
    cfg: ZooConfig,
    recipe: Recipe,
    cache: Mutex<HashMap<String, TinyLm>>,
}

impl fmt::Debug for Zoo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Zoo({:?}, seed {})", self.cfg.quality, self.cfg.seed)
    }
}

impl Zoo {
    /// Creates the zoo, creating the cache directory if configured.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Io`] if the cache directory cannot be
    /// created.
    pub fn new(cfg: ZooConfig) -> Result<Self, PipelineError> {
        if let Some(dir) = &cfg.cache_dir {
            std::fs::create_dir_all(dir)?;
        }
        let recipe = Recipe::for_quality(cfg.quality);
        Ok(Zoo {
            cfg,
            recipe,
            cache: Mutex::new(HashMap::new()),
        })
    }

    /// Fetches (or trains) a model.
    ///
    /// # Errors
    ///
    /// Propagates training, checkpoint, and cache-I/O failures.
    pub fn model(&self, which: ZooModel) -> Result<TinyLm, PipelineError> {
        let key = which.slug();
        if let Some(m) = self.cache.lock().expect("zoo lock").get(&key) {
            return Ok(m.clone());
        }
        if let Some(model) = self.load_from_disk(&key)? {
            self.cache
                .lock()
                .expect("zoo lock")
                .insert(key, model.clone());
            return Ok(model);
        }
        eprintln!("[zoo] training {key} ({:?})...", self.cfg.quality);
        let started = std::time::Instant::now();
        let model = self.train_model(which)?;
        eprintln!(
            "[zoo] {key} ready in {:.1}s",
            started.elapsed().as_secs_f32()
        );
        self.save_to_disk(&key, &model)?;
        self.cache
            .lock()
            .expect("zoo lock")
            .insert(key, model.clone());
        Ok(model)
    }

    fn cache_path(&self, key: &str) -> Option<PathBuf> {
        self.cfg.cache_dir.as_ref().map(|d| {
            d.join(format!(
                "{key}-{}-s{}.calt",
                self.cfg.quality.tag(),
                self.cfg.seed
            ))
        })
    }

    fn load_from_disk(&self, key: &str) -> Result<Option<TinyLm>, PipelineError> {
        let Some(path) = self.cache_path(key) else {
            return Ok(None);
        };
        if !path.exists() {
            return Ok(None);
        }
        Ok(Some(TinyLm::try_from(format::load(&path)?)?))
    }

    fn save_to_disk(&self, key: &str, model: &TinyLm) -> Result<(), PipelineError> {
        if let Some(path) = self.cache_path(key) {
            let mut ckpt = model.to_checkpoint()?;
            ckpt.set_metadata("zoo.model", key);
            ckpt.set_metadata("zoo.seed", &self.cfg.seed.to_string());
            format::save(&ckpt, &path)?;
        }
        Ok(())
    }

    fn rng_for(&self, label: u64) -> Pcg32 {
        Pcg32::seed(self.cfg.seed).derive(label)
    }

    fn train_model(&self, which: ZooModel) -> Result<TinyLm, PipelineError> {
        match which {
            ZooModel::Base(b) => self.train_base(b),
            ZooModel::Instruct(b) => self.train_instruct(b),
            ZooModel::Eda(b) => self.train_eda(b),
            ZooModel::ChipNemo => self.train_chipnemo(),
            ZooModel::GeneralStrong => self.train_general_strong(),
            ZooModel::RagEda => self.train_rag_eda(),
        }
    }

    /// Pretraining (the base LLM stage).
    fn train_base(&self, backbone: Backbone) -> Result<TinyLm, PipelineError> {
        let arch = backbone.arch(self.cfg.quality);
        let mut init_rng = self.rng_for(backbone as u64 + 1);
        let mut model = TinyLm::new(&arch, &mut init_rng)?;
        let mut data_rng = self.rng_for(backbone as u64 + 100);
        let docs = general_corpus(self.recipe.corpus_docs, &mut data_rng);
        let examples: Vec<Example> = docs.iter().map(|d| pretrain_example(d)).collect();
        let cfg = TrainConfig {
            steps: self.recipe.pretrain_steps,
            batch_size: self.recipe.batch,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            seed: self.cfg.seed ^ 0xA0 ^ backbone as u64,
        };
        train(&mut model, &examples, &cfg)?;
        Ok(model)
    }

    /// Instruction SFT (produces the paper's chat/instruct models).
    fn train_instruct(&self, backbone: Backbone) -> Result<TinyLm, PipelineError> {
        let mut model = self.model(ZooModel::Base(backbone))?;
        let mut rng = self.rng_for(backbone as u64 + 200);
        let pairs = instruct_sft(self.recipe.sft_pairs, &mut rng);
        let examples: Vec<Example> = pairs.iter().map(sft_example).collect();
        // LR balances two pressures: strong enough to instill reliable
        // tag-following, small enough that the instruct model stays in the
        // base's basin for weight-space interpolation. The large backbone
        // is merged against a *full-parameter* chip finetune (ChipNeMo)
        // rather than a LoRA one, so both of its specialists must stay
        // closer to the base than the tiny chains need to.
        let (steps, lr) = if backbone == Backbone::LlamaLarge {
            (self.recipe.sft_steps * 5 / 8, 7e-4)
        } else {
            (self.recipe.sft_steps, 1e-3)
        };
        let cfg = TrainConfig {
            steps,
            batch_size: self.recipe.batch,
            adam: AdamConfig {
                lr,
                ..AdamConfig::default()
            },
            seed: self.cfg.seed ^ 0xB0 ^ backbone as u64,
        };
        train(&mut model, &examples, &cfg)?;
        Ok(model)
    }

    /// Retrieval-augmented DAFT with LoRA — the paper's EDA specialists.
    fn train_eda(&self, backbone: Backbone) -> Result<TinyLm, PipelineError> {
        if backbone == Backbone::LlamaLarge {
            return Err(PipelineError::BadConfig {
                detail: "the paper has no 70B EDA model; use ChipNemo".into(),
            });
        }
        let instruct = self.model(ZooModel::Instruct(backbone))?;
        let mut rng = self.rng_for(backbone as u64 + 300);
        let facts = openroad_facts();
        let refs: Vec<&Fact> = facts.iter().collect();
        let pairs = chip_sft(&refs, self.recipe.sft_pairs, 0.0, &mut rng);
        let examples: Vec<Example> = pairs.iter().map(sft_example).collect();
        let mut lora = LoraModel::new(instruct, LoraConfig::default(), &mut rng)?;
        let cfg = TrainConfig {
            steps: self.recipe.lora_steps,
            batch_size: self.recipe.batch,
            adam: AdamConfig {
                lr: 5e-3,
                warmup_steps: 10,
                ..AdamConfig::default()
            },
            seed: self.cfg.seed ^ 0xC0 ^ backbone as u64,
        };
        lora.train(&examples, &cfg)?;
        Ok(lora.merged_model()?)
    }

    /// DAPT + DAFT from the large base — the ChipNeMo stand-in.
    fn train_chipnemo(&self) -> Result<TinyLm, PipelineError> {
        let mut model = self.model(ZooModel::Base(Backbone::LlamaLarge))?;
        let mut rng = self.rng_for(400);

        // DAPT on the chip documentation corpus.
        let docs = chip_corpus(&mut rng);
        let dapt_examples: Vec<Example> = docs.iter().map(|d| pretrain_example(d)).collect();
        // DAPT/DAFT learning rates are deliberately conservative: ChipNeMo
        // is later merged with the chat model, and a full-parameter finetune
        // that strays far from the shared base leaves no usable geodesic
        // between them (DESIGN.md §6.3).
        let dapt_cfg = TrainConfig {
            steps: self.recipe.dapt_steps * 3 / 5,
            batch_size: self.recipe.batch,
            adam: AdamConfig {
                lr: 3e-4,
                ..AdamConfig::default()
            },
            seed: self.cfg.seed ^ 0xD0,
        };
        train(&mut model, &dapt_examples, &dapt_cfg)?;

        // DAFT blend: grounded industrial QA + closed-book chip QA + a
        // slice of tagged instruction data (the OASST/SteerLM component).
        let industrial = industrial_facts();
        let openroad = openroad_facts();
        let openroad_refs: Vec<&Fact> = openroad.iter().collect();
        let n = self.recipe.sft_pairs;
        let mut pairs: Vec<SftPair> = Vec::new();
        for f in &industrial {
            // Grounded and closed-book forms of every industrial fact.
            pairs.push(SftPair {
                prompt: format_prompt(&f.doc, &f.question, &[]),
                completion: f.answer.clone(),
            });
            pairs.push(SftPair {
                prompt: format_prompt("", &f.question, &[]),
                completion: f.answer.clone(),
            });
            pairs.push(SftPair {
                prompt: format_prompt(&f.doc, &f.followup.0, &[]),
                completion: f.followup.1.clone(),
            });
        }
        pairs.extend(chip_sft_closed_book(&openroad_refs, n / 3, &mut rng));
        pairs.extend(chip_sft(&openroad_refs, n / 4, 0.0, &mut rng));
        let tagged = instruct_sft(n / 4, &mut rng);
        pairs.extend(tagged);
        let examples: Vec<Example> = pairs.iter().map(sft_example).collect();
        let daft_cfg = TrainConfig {
            steps: self.recipe.daft_steps * 2 / 3,
            batch_size: self.recipe.batch,
            adam: AdamConfig {
                lr: 5e-4,
                ..AdamConfig::default()
            },
            seed: self.cfg.seed ^ 0xD1,
        };
        train(&mut model, &examples, &daft_cfg)?;
        Ok(model)
    }

    /// The GPT-4-Turbo stand-in: strong general instruction following,
    /// light chip exposure.
    fn train_general_strong(&self) -> Result<TinyLm, PipelineError> {
        let mut model = self.model(ZooModel::Instruct(Backbone::QwenTiny))?;
        let mut rng = self.rng_for(500);
        let openroad = openroad_facts();
        let refs: Vec<&Fact> = openroad.iter().collect();
        let mut pairs = instruct_sft(self.recipe.sft_pairs / 2, &mut rng);
        pairs.extend(chip_sft_closed_book(
            &refs,
            self.recipe.sft_pairs / 20,
            &mut rng,
        ));
        let examples: Vec<Example> = pairs.iter().map(sft_example).collect();
        let cfg = TrainConfig {
            steps: self.recipe.sft_steps / 2,
            batch_size: self.recipe.batch,
            adam: AdamConfig {
                lr: 5e-4,
                ..AdamConfig::default()
            },
            seed: self.cfg.seed ^ 0xE0,
        };
        train(&mut model, &examples, &cfg)?;
        Ok(model)
    }

    /// The RAG-EDA stand-in: full-parameter chip DAFT from the Qwen
    /// instruct model.
    fn train_rag_eda(&self) -> Result<TinyLm, PipelineError> {
        let mut model = self.model(ZooModel::Instruct(Backbone::QwenTiny))?;
        let mut rng = self.rng_for(600);
        let facts = openroad_facts();
        let refs: Vec<&Fact> = facts.iter().collect();
        let pairs = chip_sft(&refs, self.recipe.sft_pairs, 0.1, &mut rng);
        let examples: Vec<Example> = pairs.iter().map(sft_example).collect();
        let cfg = TrainConfig {
            steps: self.recipe.sft_steps,
            batch_size: self.recipe.batch,
            adam: AdamConfig {
                lr: 5e-4,
                ..AdamConfig::default()
            },
            seed: self.cfg.seed ^ 0xF0,
        };
        train(&mut model, &examples, &cfg)?;
        Ok(model)
    }
}

/// Encodes a raw document as a pretraining example
/// (`<bos> text <eos>`, all positions trained).
#[must_use]
pub(crate) fn pretrain_example(text: &str) -> Example {
    let tok = CharTokenizer::new();
    let mut ids = vec![BOS];
    ids.extend(tok.encode(text));
    ids.push(EOS);
    ids.truncate(256);
    Example::pretrain(ids)
}

/// Encodes an SFT pair (`<bos> prompt` masked, `completion <eos>` trained).
#[must_use]
pub(crate) fn sft_example(pair: &SftPair) -> Example {
    let tok = CharTokenizer::new();
    let mut prompt_ids = vec![BOS];
    prompt_ids.extend(tok.encode(&pair.prompt));
    let mut completion_ids = tok.encode(&pair.completion);
    completion_ids.push(EOS);
    Example::sft(prompt_ids, completion_ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arch_sizes_are_valid_and_distinct() {
        for q in [Quality::Smoke, Quality::Paper] {
            for b in [
                Backbone::QwenTiny,
                Backbone::LlamaTiny,
                Backbone::LlamaLarge,
            ] {
                let arch = b.arch(q);
                arch.check().expect("zoo arch must be valid");
                assert_eq!(arch.vocab_size, 99);
            }
        }
        // At paper quality the backbones differ in capacity (via the
        // feed-forward width; see the stability note in `Backbone::arch`).
        let q = Backbone::QwenTiny.arch(Quality::Paper);
        let l = Backbone::LlamaTiny.arch(Quality::Paper);
        let g = Backbone::LlamaLarge.arch(Quality::Paper);
        assert!(q.d_ff > l.d_ff);
        assert!(g.d_ff > q.d_ff);
    }

    #[test]
    fn slugs_and_names_are_stable() {
        assert_eq!(ZooModel::Eda(Backbone::QwenTiny).slug(), "eda-qwen");
        assert_eq!(
            ZooModel::Instruct(Backbone::LlamaLarge).paper_name(),
            "LLaMA2-70B-Chat"
        );
        assert_eq!(ZooModel::ChipNemo.paper_name(), "LLaMA2-70B-ChipNeMo");
    }

    #[test]
    fn pretrain_example_encoding() {
        let ex = pretrain_example("ab");
        assert_eq!(ex.tokens.first(), Some(&BOS));
        assert_eq!(ex.tokens.last(), Some(&EOS));
        assert!(ex.mask.iter().all(|&m| m));
    }

    #[test]
    fn sft_example_masks_prompt_only() {
        let pair = SftPair {
            prompt: "Q:x;A:".to_string(),
            completion: "y".to_string(),
        };
        let ex = sft_example(&pair);
        let prompt_len = 1 + "Q:x;A:".len();
        assert!(!ex.mask[..prompt_len].iter().any(|&m| m));
        assert!(ex.mask[prompt_len..].iter().all(|&m| m));
        assert_eq!(ex.tokens.last(), Some(&EOS));
    }

    #[test]
    fn eda_for_large_backbone_is_rejected() {
        let zoo = Zoo::new(ZooConfig {
            quality: Quality::Smoke,
            seed: 1,
            cache_dir: None,
        })
        .expect("ok");
        assert!(matches!(
            zoo.model(ZooModel::Eda(Backbone::LlamaLarge)),
            Err(PipelineError::BadConfig { .. })
        ));
    }
}
