//! Decoding: greedy and temperature sampling with top-k truncation.
//!
//! The paper evaluates all models at temperature 0 for reproducibility; the
//! same convention applies here (`temperature = 0` selects exact greedy
//! argmax decoding). When the context fills up, the window slides left so
//! generation can continue past `max_seq_len`.

use std::sync::Arc;

use chipalign_tensor::ops;
use chipalign_tensor::rng::Pcg32;

use crate::kv::KvCache;
use crate::model::TinyLm;
use crate::tokenizer::EOS;
use crate::NnError;

/// Decoding configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerateConfig {
    /// Maximum number of new tokens to produce.
    pub max_new_tokens: usize,
    /// Softmax temperature; `0` means greedy argmax.
    pub temperature: f32,
    /// Keep only the `top_k` most likely tokens before sampling
    /// (`0` disables truncation). Ignored when greedy.
    pub top_k: usize,
    /// Nucleus sampling: keep the smallest probability mass `>= top_p`
    /// (`1.0` disables truncation). Applied after `top_k`; ignored when
    /// greedy.
    pub top_p: f32,
    /// Stop as soon as `<eos>` is produced.
    pub stop_at_eos: bool,
    /// Sampling seed (ignored when greedy).
    pub seed: u64,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig {
            max_new_tokens: 64,
            temperature: 0.0,
            top_k: 0,
            top_p: 1.0,
            stop_at_eos: true,
            seed: 0,
        }
    }
}

impl GenerateConfig {
    /// Checks every hyperparameter for values that would silently corrupt
    /// decoding (NaN temperatures propagate through softmax, `top_p <= 0`
    /// empties the nucleus, a zero token budget produces nothing).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `max_new_tokens == 0`, if
    /// `temperature` is NaN/infinite/negative, or if `top_p` lies outside
    /// `(0, 1]`.
    pub fn validate(&self) -> Result<(), NnError> {
        if self.max_new_tokens == 0 {
            return Err(NnError::BadConfig {
                detail: "max_new_tokens must be at least 1".into(),
            });
        }
        if !self.temperature.is_finite() || self.temperature < 0.0 {
            return Err(NnError::BadConfig {
                detail: format!(
                    "temperature must be finite and non-negative, got {}",
                    self.temperature
                ),
            });
        }
        if !self.top_p.is_finite() || self.top_p <= 0.0 || self.top_p > 1.0 {
            return Err(NnError::BadConfig {
                detail: format!("top_p must lie in (0, 1], got {}", self.top_p),
            });
        }
        Ok(())
    }
}

/// An incremental decoding session: one new token per [`StepDecoder::step`].
///
/// This is the engine behind [`generate`] and the unit a serving scheduler
/// multiplexes: each session owns its [`crate::KvCache`], so many sessions
/// can be interleaved step-by-step (continuous batching) while producing
/// outputs byte-identical to a dedicated single-threaded `generate()` loop
/// — same sampling RNG stream, same context-window slide points.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use chipalign_model::ArchSpec;
/// use chipalign_nn::generate::{GenerateConfig, StepDecoder};
/// use chipalign_nn::TinyLm;
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_nn::NnError> {
/// let mut arch = ArchSpec::tiny("step");
/// arch.vocab_size = 99;
/// let model = Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(1))?);
/// let cfg = GenerateConfig { max_new_tokens: 4, ..GenerateConfig::default() };
/// let mut session = StepDecoder::new(&model, &[5, 6, 7], &cfg)?;
/// let mut out = Vec::new();
/// while let Some(tok) = session.step()? {
///     out.push(tok);
/// }
/// assert!(session.is_done());
/// assert!(out.len() <= 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StepDecoder {
    // `crate::spec::SpecDecoder` drives a speculative round through the
    // `pub(crate)` fields and methods: choose + commit the target's own
    // next token, verify a drafted chunk against `cache`, commit the
    // agreeing prefix, rewind, and restore `last_logits` from the
    // verified row.
    pub(crate) cfg: GenerateConfig,
    rng: Pcg32,
    /// The prompt, then every committed token.
    context: Vec<u32>,
    /// The one cursor: `cache` holds `context[window_start ..
    /// window_start + cache.len()]`, and everything after that is pending
    /// input (see [`StepDecoder::pending_prefill`]).
    window_start: usize,
    pub(crate) cache: crate::kv::KvCache,
    pub(crate) last_logits: Vec<f32>,
    emitted: usize,
    done: bool,
}

impl StepDecoder {
    /// Prefills the prompt and readies the session for stepping.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an invalid configuration (see
    /// [`GenerateConfig::validate`]), [`NnError::BadSequence`] for an empty
    /// prompt, and forwards any forward-pass failure.
    pub fn new(model: &Arc<TinyLm>, prompt: &[u32], cfg: &GenerateConfig) -> Result<Self, NnError> {
        let mut session = Self::new_chunked(model, prompt, cfg)?;
        session.prefill_pending(usize::MAX)?;
        Ok(session)
    }

    /// Readies a session *without* prefilling: the prompt window is only
    /// scheduled, and the caller drains it through
    /// [`StepDecoder::prefill_pending`] (in chunks of its choosing) — or
    /// lets the first [`StepDecoder::step`] finish it. Transcripts are
    /// bit-identical to [`StepDecoder::new`] regardless of how the prefill
    /// is chunked; the serving scheduler relies on this to interleave
    /// long-prompt prefill with other sessions' decode slices.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an invalid configuration and
    /// [`NnError::BadSequence`] for an empty prompt.
    pub fn new_chunked(
        model: &Arc<TinyLm>,
        prompt: &[u32],
        cfg: &GenerateConfig,
    ) -> Result<Self, NnError> {
        Self::with_cache(KvCache::new(model), prompt, cfg)
    }

    /// Like [`StepDecoder::new_chunked`], but the session's KV rows live
    /// in blocks drawn from the shared `pool` (see
    /// [`crate::kvpool::KvPool`]) instead of a private one: allocation is
    /// bounded by the pool, and a prefix adopted via
    /// [`StepDecoder::adopt_prefix`] from a donor on the same pool aliases
    /// its blocks. Transcripts are bit-identical to the private-pool
    /// constructors — block size never changes an output byte (pinned by
    /// equivalence tests).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] for an invalid configuration and
    /// [`NnError::BadSequence`] for an empty prompt. Pool exhaustion
    /// surfaces later, from the prefill/step that needs the unavailable
    /// block.
    pub fn new_chunked_pooled(
        model: &Arc<TinyLm>,
        prompt: &[u32],
        cfg: &GenerateConfig,
        pool: &Arc<crate::kvpool::KvPool>,
    ) -> Result<Self, NnError> {
        Self::with_cache(KvCache::new_paged(model, pool), prompt, cfg)
    }

    /// The un-prefilled session over an empty `cache`, shared by both
    /// chunked constructors.
    fn with_cache(cache: KvCache, prompt: &[u32], cfg: &GenerateConfig) -> Result<Self, NnError> {
        cfg.validate()?;
        if prompt.is_empty() {
            return Err(NnError::BadSequence {
                detail: "generation requires a non-empty prompt".into(),
            });
        }
        let mut session = StepDecoder {
            cfg: *cfg,
            rng: Pcg32::seed(cfg.seed),
            context: prompt.to_vec(),
            window_start: 0,
            cache,
            last_logits: Vec::new(),
            emitted: 0,
            done: false,
        };
        session.begin_slide();
        Ok(session)
    }

    /// Whether the session has input to feed before it can choose its next
    /// token: prompt, slide replay, or a token a failed step chose.
    #[must_use]
    pub fn is_prefilling(&self) -> bool {
        !self.pending_prefill().is_empty()
    }

    /// Number of tokens still awaiting prefill.
    #[must_use]
    pub fn prefill_remaining(&self) -> usize {
        self.pending_prefill().len()
    }

    /// The tokens still awaiting prefill: everything in the context past
    /// what the cache holds (for a fresh session, the whole prompt window
    /// — what a prefix cache should be probed with). Empty once the
    /// session is done: its final token is never fed.
    #[must_use]
    pub fn pending_prefill(&self) -> &[u32] {
        if self.done {
            return &[];
        }
        &self.context[self.window_start + self.cache.len()..]
    }

    /// The session's KV cache (read-only; lets a serving layer snapshot a
    /// freshly prefilled prompt via [`KvCache::fork_from`]).
    #[must_use]
    pub fn cache(&self) -> &KvCache {
        &self.cache
    }

    /// Feeds up to `max_tokens` pending prefill tokens through the cache,
    /// returning how many were fed (0 when nothing is pending). Any
    /// chunking schedule yields logits bit-identical to a one-shot
    /// prefill, so callers may freely mix chunk sizes across calls.
    ///
    /// # Errors
    ///
    /// Forwards forward-pass failures (for a pooled session,
    /// [`NnError::PoolExhausted`]). [`KvCache::prefill_chunk`] is atomic,
    /// so a failed call leaves the session exactly as it was and can
    /// simply be retried once the pool has room.
    pub fn prefill_pending(&mut self, max_tokens: usize) -> Result<usize, NnError> {
        let take = self.prefill_remaining().min(max_tokens);
        if take == 0 {
            return Ok(0);
        }
        let fed = self.window_start + self.cache.len();
        self.last_logits = self.cache.prefill_chunk(&self.context[fed..fed + take])?;
        Ok(take)
    }

    /// Seeds a fresh session with an already-prefilled prompt prefix
    /// (typically a [`KvCache::fork_from`] clone handed out by a prefix
    /// cache), skipping that many prefill tokens. Returns the number of
    /// positions adopted. Decoding continues bit-identically to a session
    /// that prefilled the prefix itself.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if the session has already prefilled
    /// or emitted anything, or if the prefix is bound to a different model
    /// allocation; [`NnError::BadSequence`] if the prefix is empty, covers
    /// the whole pending window (at least one token must remain to produce
    /// the first logits), or its token history does not match the window.
    pub fn adopt_prefix(&mut self, prefix: KvCache) -> Result<usize, NnError> {
        if self.emitted != 0 || !self.cache.is_empty() {
            return Err(NnError::BadConfig {
                detail: "adopt_prefix requires a fresh, un-prefilled session".into(),
            });
        }
        if !Arc::ptr_eq(prefix.model(), self.cache.model()) {
            return Err(NnError::BadConfig {
                detail: "adopt_prefix: prefix is bound to a different model allocation".into(),
            });
        }
        let p = prefix.len();
        if p == 0 || p >= self.prefill_remaining() {
            return Err(NnError::BadSequence {
                detail: format!(
                    "adopt_prefix: prefix of {p} positions must cover [1, {}) of the window",
                    self.prefill_remaining()
                ),
            });
        }
        if prefix.tokens() != &self.pending_prefill()[..p] {
            return Err(NnError::BadSequence {
                detail: "adopt_prefix: prefix token history does not match the prompt".into(),
            });
        }
        self.cache = prefix;
        Ok(p)
    }

    /// Produces the next token, or `None` once the session has finished
    /// (token budget exhausted, or `<eos>` with `stop_at_eos`): a batch of
    /// one through [`StepDecoder::step_batch`].
    ///
    /// # Errors
    ///
    /// Forwards forward-pass failures from the underlying cache, with
    /// [`StepDecoder::step_batch`]'s resumable-session contract.
    pub fn step(&mut self) -> Result<Option<u32>, NnError> {
        Ok(Self::step_batch(&mut [self])?.pop().flatten())
    }

    /// Advances many sessions by one token each, returning each session's
    /// new token in submission order (`None` for sessions that were already
    /// done).
    ///
    /// Every live session first feeds its pending input (initial prompt
    /// remainder, a deferred window-slide replay, or a token an earlier
    /// failed step chose), then chooses and commits its next token from
    /// its own logits and RNG stream; the sessions that need an ordinary
    /// decode are grouped by model allocation and advanced through
    /// [`KvCache::decode_batch`] — one `N × d` GEMM per projection
    /// instead of N matvecs. Sessions that hit a context-window boundary
    /// defer their slide: the cache resets and the window replay is left
    /// pending, consumed at the next step. Token streams are
    /// **bit-identical** to stepping each session alone, pinned by tests.
    ///
    /// # Errors
    ///
    /// Forwards forward-pass failures. Every session stays valid and
    /// resumable: a token chosen but not yet fed is pending input, fed
    /// first at the next step (or by [`StepDecoder::prefill_pending`]).
    /// Such a token is not returned; [`StepDecoder::generated`] holds it.
    pub fn step_batch(sessions: &mut [&mut StepDecoder]) -> Result<Vec<Option<u32>>, NnError> {
        let mut out = vec![None; sessions.len()];
        // Phase 1: feed pending input, then choose and commit each
        // live session's next token from its own logits and RNG stream, so
        // stop conditions fall where a lone session's would.
        let mut group_of: Vec<Option<usize>> = vec![None; sessions.len()];
        let mut group_keys: Vec<usize> = Vec::new();
        for (i, s) in sessions.iter_mut().enumerate() {
            if s.done {
                continue;
            }
            s.prefill_pending(usize::MAX)?;
            let next = s.choose_next();
            s.commit(next);
            out[i] = Some(next);
            if s.done {
                continue;
            }
            if s.cache.len() >= s.max_ctx() {
                // Defer the slide replay; it runs as this session's
                // pending prefill at the start of the next step.
                s.begin_slide();
            } else {
                let key = Arc::as_ptr(s.cache.model()) as usize;
                let gid = group_keys
                    .iter()
                    .position(|&k| k == key)
                    .unwrap_or_else(|| {
                        group_keys.push(key);
                        group_keys.len() - 1
                    });
                group_of[i] = Some(gid);
            }
        }
        // Phase 2: one batched decode per model group.
        for gid in 0..group_keys.len() {
            let mut members: Vec<usize> = Vec::new();
            let mut tokens: Vec<u32> = Vec::new();
            let mut caches: Vec<&mut KvCache> = Vec::new();
            for (i, s) in sessions.iter_mut().enumerate() {
                if group_of[i] == Some(gid) {
                    members.push(i);
                    tokens.push(*s.context.last().expect("committed above"));
                    caches.push(&mut s.cache);
                }
            }
            let logits = KvCache::decode_batch(&mut caches, &tokens)?;
            drop(caches);
            for (&i, row) in members.iter().zip(logits) {
                sessions[i].last_logits = row;
            }
        }
        Ok(out)
    }

    /// Chooses the next token from the current logits (greedy argmax at
    /// temperature 0, otherwise the seeded sampling stream).
    pub(crate) fn choose_next(&mut self) -> u32 {
        if self.cfg.temperature <= 0.0 {
            ops::argmax(&self.last_logits).expect("vocab is non-empty") as u32
        } else {
            sample_from_logits(
                &self.last_logits,
                self.cfg.temperature,
                self.cfg.top_k,
                self.cfg.top_p,
                &mut self.rng,
            )
        }
    }

    /// Records a chosen token: it joins the context as pending input (fed
    /// at the next step unless it is the final one), and the budget and
    /// stop conditions are checked.
    pub(crate) fn commit(&mut self, next: u32) {
        self.emitted += 1;
        self.context.push(next);
        self.done =
            (self.cfg.stop_at_eos && next == EOS) || self.emitted >= self.cfg.max_new_tokens;
    }

    /// Context-window slide, deferred (and a fresh session's first
    /// window): resets the *existing* cache and leaves the most recent
    /// `max_ctx - 1` tokens pending, replayed (in whatever chunks the
    /// caller chooses) before the next token is chosen, with one slot for
    /// that token. `reset()` keeps the pool, the score scratch and the
    /// shared model `Arc`, so a slide allocates no model state — it is
    /// pure bookkeeping.
    pub(crate) fn begin_slide(&mut self) {
        let window = self.max_ctx().saturating_sub(1);
        self.window_start = self.context.len().saturating_sub(window);
        self.cache.reset();
    }

    /// The context-window size this session slides at.
    pub(crate) fn max_ctx(&self) -> usize {
        self.cache.model().arch().max_seq_len
    }

    /// Whether the session has produced its final token.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.done
    }

    /// Whether the session ended by emitting `<eos>` (as opposed to
    /// exhausting its token budget).
    #[must_use]
    pub fn stopped_at_eos(&self) -> bool {
        self.done && self.cfg.stop_at_eos && self.context.last() == Some(&EOS)
    }

    /// Number of new tokens emitted so far.
    #[must_use]
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// The tokens generated so far, including one a failed step chose.
    #[must_use]
    pub fn generated(&self) -> &[u32] {
        &self.context[self.context.len() - self.emitted..]
    }

    /// The full context (prompt plus generated tokens).
    #[must_use]
    pub(crate) fn context(&self) -> &[u32] {
        &self.context
    }

    /// Whether this session decodes greedily (temperature 0). Speculative
    /// decoding only engages on greedy sessions — sampled sessions consume
    /// an RNG stream that a multi-token round cannot keep in lockstep.
    #[must_use]
    pub(crate) fn is_greedy(&self) -> bool {
        self.cfg.temperature <= 0.0
    }
}

/// Generates new tokens after `prompt`, returning only the new tokens.
///
/// Implemented as a [`StepDecoder`] driven to completion, so batch-of-one
/// generation and scheduler-interleaved serving share one decoding path.
///
/// # Errors
///
/// Returns [`NnError::BadConfig`] for an invalid configuration,
/// [`NnError::BadSequence`] for an empty prompt, and forwards any
/// forward-pass failure.
pub fn generate(model: &TinyLm, prompt: &[u32], cfg: &GenerateConfig) -> Result<Vec<u32>, NnError> {
    // One-shot sessions wrap the model in a fresh Arc; this clone is the
    // same cost the KvCache used to pay per session before weights were
    // shared.
    let model = Arc::new(model.clone());
    let mut session = StepDecoder::new(&model, prompt, cfg)?;
    let mut new_tokens = Vec::with_capacity(cfg.max_new_tokens);
    while let Some(next) = session.step()? {
        new_tokens.push(next);
    }
    Ok(new_tokens)
}

/// Temperature + top-k + nucleus (top-p) sampling from one logit row.
///
/// Top-k keeps *exactly* `top_k` survivors even when logits tie at the k-th
/// threshold: strictly-greater entries always survive, and ties at the
/// threshold are kept in stable index order until the quota is filled.
/// (Earlier releases spared every tie, so tied-threshold rows sampled from
/// more than `top_k` tokens; sampled transcripts that hit such a tie can
/// differ from pre-fix output. Greedy decoding never calls this path, so
/// greedy transcripts are unaffected.)
fn sample_from_logits(
    logits: &[f32],
    temperature: f32,
    top_k: usize,
    top_p: f32,
    rng: &mut Pcg32,
) -> u32 {
    let mut scaled: Vec<f32> = logits.iter().map(|&l| l / temperature).collect();
    if top_k > 0 && top_k < scaled.len() {
        // Zero out everything below the k-th largest logit, and all but the
        // first `top_k - |strictly above|` entries tied with it.
        let mut sorted = scaled.clone();
        sorted.sort_by(|a, b| b.total_cmp(a));
        let threshold = sorted[top_k - 1];
        let above = scaled.iter().filter(|v| **v > threshold).count();
        let mut tie_budget = top_k - above;
        for v in &mut scaled {
            if *v > threshold {
                continue;
            }
            if *v == threshold && tie_budget > 0 {
                tie_budget -= 1;
                continue;
            }
            *v = f32::NEG_INFINITY;
        }
    }
    ops::softmax_inplace(&mut scaled);
    if top_p < 1.0 {
        // Nucleus: keep the smallest set of tokens whose mass reaches
        // top_p, then renormalise (choose_weighted renormalises for us).
        let mut order: Vec<usize> = (0..scaled.len()).collect();
        order.sort_by(|&a, &b| scaled[b].total_cmp(&scaled[a]));
        let mut mass = 0.0f32;
        let mut keep = scaled.len();
        for (rank, &idx) in order.iter().enumerate() {
            mass += scaled[idx];
            if mass >= top_p.max(0.0) {
                keep = rank + 1;
                break;
            }
        }
        for &idx in &order[keep..] {
            scaled[idx] = 0.0;
        }
    }
    rng.choose_weighted(&scaled) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::train::{train, Example, TrainConfig};
    use crate::AdamConfig;
    use chipalign_model::ArchSpec;

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::tiny("gen");
        a.vocab_size = 99;
        a
    }

    fn trained_on(seq: &[u32]) -> TinyLm {
        let mut model = TinyLm::new(&arch(), &mut Pcg32::seed(31)).expect("valid");
        let data = vec![Example::pretrain(seq.to_vec())];
        let cfg = TrainConfig {
            steps: 80,
            batch_size: 2,
            adam: AdamConfig {
                lr: 3e-3,
                ..AdamConfig::default()
            },
            seed: 4,
        };
        train(&mut model, &data, &cfg).expect("ok");
        model
    }

    #[test]
    fn greedy_continues_memorized_sequence() {
        let seq: Vec<u32> = vec![10, 20, 30, 40, 50, 60];
        let model = trained_on(&seq);
        let cfg = GenerateConfig {
            max_new_tokens: 4,
            ..GenerateConfig::default()
        };
        let out = generate(&model, &seq[..2], &cfg).expect("ok");
        assert_eq!(&out[..2], &seq[2..4], "greedy decode should continue");
    }

    #[test]
    fn greedy_is_deterministic() {
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let cfg = GenerateConfig {
            max_new_tokens: 8,
            ..GenerateConfig::default()
        };
        let a = generate(&model, &[5, 6], &cfg).expect("ok");
        let b = generate(&model, &[5, 6], &cfg).expect("ok");
        assert_eq!(a, b);
    }

    #[test]
    fn sampling_respects_seed() {
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let mk = |seed| GenerateConfig {
            max_new_tokens: 16,
            temperature: 1.5,
            top_k: 0,
            top_p: 1.0,
            stop_at_eos: false,
            seed,
        };
        let a = generate(&model, &[5, 6], &mk(1)).expect("ok");
        let a2 = generate(&model, &[5, 6], &mk(1)).expect("ok");
        let b = generate(&model, &[5, 6], &mk(2)).expect("ok");
        assert_eq!(a, a2, "same seed must reproduce");
        assert_ne!(a, b, "hot sampling with different seeds should diverge");
    }

    #[test]
    fn generation_survives_context_overflow() {
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let cfg = GenerateConfig {
            max_new_tokens: 64, // arch max_seq_len is 32
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let out = generate(&model, &[5, 6], &cfg).expect("ok");
        assert_eq!(out.len(), 64, "sliding window must allow long outputs");
    }

    #[test]
    fn empty_prompt_rejected() {
        let model = trained_on(&[5, 6, 7]);
        assert!(generate(&model, &[], &GenerateConfig::default()).is_err());
    }

    #[test]
    fn top_k_limits_support() {
        // With top_k = 1, sampling must equal greedy regardless of
        // temperature.
        let model = trained_on(&[10, 20, 30, 40, 50, 60]);
        let greedy = generate(
            &model,
            &[10, 20],
            &GenerateConfig {
                max_new_tokens: 3,
                ..GenerateConfig::default()
            },
        )
        .expect("ok");
        let topk1 = generate(
            &model,
            &[10, 20],
            &GenerateConfig {
                max_new_tokens: 3,
                temperature: 2.0,
                top_k: 1,
                top_p: 1.0,
                stop_at_eos: true,
                seed: 9,
            },
        )
        .expect("ok");
        assert_eq!(greedy, topk1);
    }

    #[test]
    fn top_p_near_zero_equals_greedy() {
        // With a vanishing nucleus only the argmax token survives.
        let model = trained_on(&[10, 20, 30, 40, 50, 60]);
        let greedy = generate(
            &model,
            &[10, 20],
            &GenerateConfig {
                max_new_tokens: 3,
                ..GenerateConfig::default()
            },
        )
        .expect("ok");
        let nucleus = generate(
            &model,
            &[10, 20],
            &GenerateConfig {
                max_new_tokens: 3,
                temperature: 1.5,
                top_k: 0,
                top_p: 1e-6,
                stop_at_eos: true,
                seed: 4,
            },
        )
        .expect("ok");
        assert_eq!(greedy, nucleus);
    }

    #[test]
    fn config_validation_rejects_each_bad_field() {
        let ok = GenerateConfig::default();
        assert!(ok.validate().is_ok());

        let zero_budget = GenerateConfig {
            max_new_tokens: 0,
            ..ok
        };
        assert!(matches!(
            zero_budget.validate(),
            Err(NnError::BadConfig { .. })
        ));

        let nan_temp = GenerateConfig {
            temperature: f32::NAN,
            ..ok
        };
        assert!(matches!(
            nan_temp.validate(),
            Err(NnError::BadConfig { .. })
        ));

        let neg_temp = GenerateConfig {
            temperature: -0.5,
            ..ok
        };
        assert!(matches!(
            neg_temp.validate(),
            Err(NnError::BadConfig { .. })
        ));

        let inf_temp = GenerateConfig {
            temperature: f32::INFINITY,
            ..ok
        };
        assert!(matches!(
            inf_temp.validate(),
            Err(NnError::BadConfig { .. })
        ));

        let zero_top_p = GenerateConfig { top_p: 0.0, ..ok };
        assert!(matches!(
            zero_top_p.validate(),
            Err(NnError::BadConfig { .. })
        ));

        let big_top_p = GenerateConfig { top_p: 1.5, ..ok };
        assert!(matches!(
            big_top_p.validate(),
            Err(NnError::BadConfig { .. })
        ));

        let nan_top_p = GenerateConfig {
            top_p: f32::NAN,
            ..ok
        };
        assert!(matches!(
            nan_top_p.validate(),
            Err(NnError::BadConfig { .. })
        ));
    }

    #[test]
    fn generate_refuses_invalid_config() {
        let model = trained_on(&[5, 6, 7]);
        let bad = GenerateConfig {
            max_new_tokens: 0,
            ..GenerateConfig::default()
        };
        assert!(matches!(
            generate(&model, &[5, 6], &bad),
            Err(NnError::BadConfig { .. })
        ));
    }

    #[test]
    fn step_decoder_matches_generate_greedy_with_window_slide() {
        // 64 new tokens on a 32-position context exercises the slide
        // re-prefill path in both drivers.
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let cfg = GenerateConfig {
            max_new_tokens: 64,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let reference = generate(&model, &[5, 6], &cfg).expect("ok");
        let model = Arc::new(model);
        let mut session = StepDecoder::new(&model, &[5, 6], &cfg).expect("ok");
        let mut stepped = Vec::new();
        while let Some(tok) = session.step().expect("ok") {
            stepped.push(tok);
        }
        assert_eq!(reference, stepped);
        assert_eq!(session.emitted(), 64);
        assert!(session.is_done());
        assert!(!session.stopped_at_eos());
        assert!(session.step().expect("ok").is_none(), "done stays done");
    }

    #[test]
    fn step_decoder_matches_generate_when_sampling() {
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let cfg = GenerateConfig {
            max_new_tokens: 20,
            temperature: 1.2,
            top_k: 8,
            top_p: 0.9,
            stop_at_eos: false,
            seed: 13,
        };
        let reference = generate(&model, &[5, 6], &cfg).expect("ok");
        let model = Arc::new(model);
        let mut session = StepDecoder::new(&model, &[5, 6], &cfg).expect("ok");
        let mut stepped = Vec::new();
        while let Some(tok) = session.step().expect("ok") {
            stepped.push(tok);
        }
        assert_eq!(reference, stepped, "RNG streams must stay in lockstep");
    }

    #[test]
    fn step_decoder_tracks_context_and_truncates_long_prompts() {
        let model = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        // Prompt longer than max_seq_len (32): prefill must keep only the
        // most recent window yet remember the full context.
        let prompt: Vec<u32> = (0..40).map(|i| 4 + (i % 90)).collect();
        let cfg = GenerateConfig {
            max_new_tokens: 2,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let mut session = StepDecoder::new(&model, &prompt, &cfg).expect("ok");
        session.step().expect("ok");
        assert_eq!(session.context().len(), prompt.len() + 1);
        assert_eq!(&session.context()[..prompt.len()], &prompt[..]);
    }

    #[test]
    fn chunked_prefill_transcripts_match_one_shot_across_chunk_sizes() {
        // 64 new tokens on a 32-position window also exercises deferred
        // slides, whose replay goes through the same pending-prefill path.
        let model = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        let cfg = GenerateConfig {
            max_new_tokens: 64,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let prompt: Vec<u32> = (0..20).map(|i| 4 + (i * 3) % 90).collect();
        let mut reference = StepDecoder::new(&model, &prompt, &cfg).expect("ok");
        let mut expected = Vec::new();
        while let Some(tok) = reference.step().expect("ok") {
            expected.push(tok);
        }
        for chunk in [1usize, 3, 7] {
            let mut session = StepDecoder::new_chunked(&model, &prompt, &cfg).expect("ok");
            assert!(session.is_prefilling());
            assert_eq!(session.prefill_remaining(), prompt.len());
            assert_eq!(session.pending_prefill(), &prompt[..]);
            while session.is_prefilling() {
                let fed = session.prefill_pending(chunk).expect("ok");
                assert!(fed >= 1 && fed <= chunk);
            }
            assert_eq!(session.prefill_pending(chunk).expect("ok"), 0);
            let mut out = Vec::new();
            while let Some(tok) = session.step().expect("ok") {
                out.push(tok);
            }
            assert_eq!(out, expected, "chunk size {chunk} drifted");
        }
        // Not draining manually at all is also fine: step() finishes it.
        let mut lazy = StepDecoder::new_chunked(&model, &prompt, &cfg).expect("ok");
        let mut out = Vec::new();
        while let Some(tok) = lazy.step().expect("ok") {
            out.push(tok);
        }
        assert_eq!(out, expected);
    }

    #[test]
    fn failed_prefill_leaves_cache_and_cursor_in_step() {
        // A pool that runs dry in the middle of a prefill chunk must not
        // leave rows in the cache that the cursor does not know about: the
        // retry would feed them twice.
        let model = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        let cfg = GenerateConfig {
            max_new_tokens: 6,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let prompt: Vec<u32> = (0..20).map(|i| 4 + (i * 3) % 90).collect();
        let mut reference = StepDecoder::new(&model, &prompt, &cfg).expect("ok");
        let mut expected = Vec::new();
        while let Some(tok) = reference.step().expect("ok") {
            expected.push(tok);
        }

        // 7 blocks of 4 positions; a squatter holds 3, so the 20-token
        // prompt (5 blocks) dies at its 17th token.
        let pool = crate::KvPool::new(crate::KvPoolConfig {
            block_tokens: 4,
            max_blocks: 7,
            ..crate::KvPoolConfig::default()
        })
        .expect("valid pool config");
        let mut squatter = KvCache::new_paged(&model, &pool);
        squatter.prefill(&prompt[..12]).expect("3 blocks");
        let mut session =
            StepDecoder::new_chunked_pooled(&model, &prompt, &cfg, &pool).expect("ok");
        let err = session.prefill_pending(32).expect_err("pool is short");
        assert!(matches!(err, NnError::PoolExhausted { .. }));
        assert!(session.cache().is_empty(), "a failed chunk leaves no rows");
        assert_eq!(session.pending_prefill(), &prompt[..]);
        assert_eq!(pool.blocks_in_use(), 3, "and holds no blocks");

        drop(squatter);
        assert_eq!(session.prefill_pending(32).expect("room now"), prompt.len());
        assert_eq!(session.cache().tokens(), &prompt[..]);
        let mut out = Vec::new();
        while let Some(tok) = session.step().expect("ok") {
            out.push(tok);
        }
        assert_eq!(out, expected, "the retried session drifted");
    }

    #[test]
    fn adopted_prefix_transcript_matches_cold_prefill() {
        let model = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        let cfg = GenerateConfig {
            max_new_tokens: 12,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let prompt: Vec<u32> = (0..10).map(|i| 4 + (i * 5) % 90).collect();
        let mut reference = StepDecoder::new(&model, &prompt, &cfg).expect("ok");
        let mut expected = Vec::new();
        while let Some(tok) = reference.step().expect("ok") {
            expected.push(tok);
        }
        // Donate a prefix prefilled by an unrelated session.
        let mut donor = KvCache::new(&model);
        donor.prefill(&prompt).expect("ok");
        for p in [1usize, 4, 9] {
            let mut session = StepDecoder::new_chunked(&model, &prompt, &cfg).expect("ok");
            let adopted = session
                .adopt_prefix(donor.fork_from(p).expect("ok"))
                .expect("ok");
            assert_eq!(adopted, p);
            assert_eq!(session.prefill_remaining(), prompt.len() - p);
            let mut out = Vec::new();
            while let Some(tok) = session.step().expect("ok") {
                out.push(tok);
            }
            assert_eq!(out, expected, "prefix of {p} positions drifted");
        }
    }

    #[test]
    fn adopt_prefix_rejects_mismatches() {
        let model = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        let cfg = GenerateConfig {
            max_new_tokens: 4,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let prompt = [5u32, 6, 7, 8];
        let mut donor = KvCache::new(&model);
        donor.prefill(&prompt).expect("ok");

        // Prefix must leave at least one pending token.
        let mut fresh = StepDecoder::new_chunked(&model, &prompt, &cfg).expect("ok");
        assert!(matches!(
            fresh.adopt_prefix(donor.fork_from(4).expect("ok")),
            Err(NnError::BadSequence { .. })
        ));
        // Empty prefix is useless.
        assert!(matches!(
            fresh.adopt_prefix(donor.fork_from(0).expect("ok")),
            Err(NnError::BadSequence { .. })
        ));
        // Token mismatch: donor prefilled a different prompt.
        let mut other = KvCache::new(&model);
        other.prefill(&[9, 9]).expect("ok");
        assert!(matches!(
            fresh.adopt_prefix(other.fork_from(2).expect("ok")),
            Err(NnError::BadSequence { .. })
        ));
        // Different model allocation.
        let other_model = Arc::new(trained_on(&[10, 20, 30]));
        let mut foreign = KvCache::new(&other_model);
        foreign.prefill(&prompt[..2]).expect("ok");
        assert!(matches!(
            fresh.adopt_prefix(foreign.fork_from(2).expect("ok")),
            Err(NnError::BadConfig { .. })
        ));
        // A session that already prefilled (or emitted) refuses adoption.
        let mut started = StepDecoder::new(&model, &prompt, &cfg).expect("ok");
        assert!(matches!(
            started.adopt_prefix(donor.fork_from(2).expect("ok")),
            Err(NnError::BadConfig { .. })
        ));
        // All rejections left the fresh session intact: it still decodes
        // identically to a cold one.
        let mut out = Vec::new();
        while let Some(tok) = fresh.step().expect("ok") {
            out.push(tok);
        }
        let mut cold = StepDecoder::new(&model, &prompt, &cfg).expect("ok");
        let mut expected = Vec::new();
        while let Some(tok) = cold.step().expect("ok") {
            expected.push(tok);
        }
        assert_eq!(out, expected);
    }

    /// Drives `sessions` to completion with `step_batch`, collecting each
    /// session's token stream.
    fn drain_batched(mut sessions: Vec<StepDecoder>) -> Vec<Vec<u32>> {
        let mut outs: Vec<Vec<u32>> = vec![Vec::new(); sessions.len()];
        loop {
            let mut refs: Vec<&mut StepDecoder> = sessions.iter_mut().collect();
            let step = StepDecoder::step_batch(&mut refs).expect("ok");
            let mut any = false;
            for (out, tok) in outs.iter_mut().zip(step) {
                if let Some(tok) = tok {
                    out.push(tok);
                    any = true;
                }
            }
            if !any {
                break;
            }
        }
        outs
    }

    fn drain_sequential(
        model: &Arc<TinyLm>,
        prompts: &[&[u32]],
        cfg: &GenerateConfig,
    ) -> Vec<Vec<u32>> {
        prompts
            .iter()
            .map(|p| {
                let mut s = StepDecoder::new(model, p, cfg).expect("ok");
                let mut out = Vec::new();
                while let Some(tok) = s.step().expect("ok") {
                    out.push(tok);
                }
                out
            })
            .collect()
    }

    #[test]
    fn step_batch_matches_sequential_greedy_with_window_slides() {
        // 64 new tokens on a 32-position context: every session slides
        // twice mid-batch, at different rounds (ragged prompt lengths).
        let model = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        let cfg = GenerateConfig {
            max_new_tokens: 64,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let prompts: [&[u32]; 4] = [&[5, 6], &[5, 6, 7], &[9, 8, 7, 6], &[5]];
        let reference = drain_sequential(&model, &prompts, &cfg);
        let sessions: Vec<StepDecoder> = prompts
            .iter()
            .map(|p| StepDecoder::new(&model, p, &cfg).expect("ok"))
            .collect();
        let batched = drain_batched(sessions);
        assert_eq!(batched, reference, "batched greedy transcripts drifted");
    }

    #[test]
    fn step_batch_matches_sequential_when_sampling() {
        // Sampling is the sharpest bit-identity probe: any drift in the
        // logits flips `choose_weighted` and the transcripts diverge.
        let model = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        let mk = |seed| GenerateConfig {
            max_new_tokens: 20,
            temperature: 1.2,
            top_k: 8,
            top_p: 0.9,
            stop_at_eos: false,
            seed,
        };
        let prompts: [&[u32]; 3] = [&[5, 6], &[6, 7, 8], &[9, 5]];
        let reference: Vec<Vec<u32>> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let mut s = StepDecoder::new(&model, p, &mk(i as u64)).expect("ok");
                let mut out = Vec::new();
                while let Some(tok) = s.step().expect("ok") {
                    out.push(tok);
                }
                out
            })
            .collect();
        let sessions: Vec<StepDecoder> = prompts
            .iter()
            .enumerate()
            .map(|(i, p)| StepDecoder::new(&model, p, &mk(i as u64)).expect("ok"))
            .collect();
        let batched = drain_batched(sessions);
        assert_eq!(batched, reference, "per-session RNG streams drifted");
    }

    #[test]
    fn step_batch_groups_sessions_by_model_allocation() {
        // Two distinct models interleaved in one batch: step_batch must
        // split them into per-model GEMM groups and still match the
        // dedicated per-session drivers.
        let m1 = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        let m2 = Arc::new(trained_on(&[10, 20, 30, 40, 50, 60]));
        let cfg = GenerateConfig {
            max_new_tokens: 12,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let plan: [(&Arc<TinyLm>, &[u32]); 4] = [
            (&m1, &[5, 6]),
            (&m2, &[10, 20]),
            (&m1, &[6, 7]),
            (&m2, &[20, 30]),
        ];
        let reference: Vec<Vec<u32>> = plan
            .iter()
            .map(|(m, p)| {
                let mut s = StepDecoder::new(m, p, &cfg).expect("ok");
                let mut out = Vec::new();
                while let Some(tok) = s.step().expect("ok") {
                    out.push(tok);
                }
                out
            })
            .collect();
        let sessions: Vec<StepDecoder> = plan
            .iter()
            .map(|(m, p)| StepDecoder::new(m, p, &cfg).expect("ok"))
            .collect();
        let batched = drain_batched(sessions);
        assert_eq!(batched, reference, "mixed-model batch drifted");
    }

    #[test]
    fn step_batch_skips_finished_sessions() {
        let model = Arc::new(trained_on(&[5, 6, 7, 8, 9]));
        let short = GenerateConfig {
            max_new_tokens: 2,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let long = GenerateConfig {
            max_new_tokens: 6,
            ..short
        };
        let mut a = StepDecoder::new(&model, &[5, 6], &short).expect("ok");
        let mut b = StepDecoder::new(&model, &[6, 7], &long).expect("ok");
        for round in 0..6 {
            let mut refs = [&mut a, &mut b];
            let step = StepDecoder::step_batch(&mut refs).expect("ok");
            if round >= 2 {
                assert!(step[0].is_none(), "finished session must yield None");
            }
            if round < 6 {
                assert!(step[1].is_some());
            }
        }
        assert!(a.is_done() && b.is_done());
        assert_eq!(a.emitted(), 2);
        assert_eq!(b.emitted(), 6);
    }

    #[test]
    fn a_batch_step_that_runs_the_pool_dry_resumes_once_blocks_are_free() {
        // The joint decode fails as a whole; each session keeps the token
        // it chose as pending input, fed first at the next step, so every
        // transcript still equals generate().
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let cfg = GenerateConfig {
            max_new_tokens: 6,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let prompts: [&[u32]; 2] = [&[5, 6], &[6, 7, 8]];
        let model = Arc::new(model);
        // One-token blocks: the sessions need 7 + 8 in all. A squatter
        // holds 9 of 15 and the prompts 5, so the first joint decode finds
        // one block for two new positions.
        let pool = crate::KvPool::new(crate::KvPoolConfig {
            block_tokens: 1,
            max_blocks: 15,
            ..crate::KvPoolConfig::default()
        })
        .expect("valid pool config");
        let mut squatter = KvCache::new_paged(&model, &pool);
        squatter.prefill(&[9; 9]).expect("9 blocks");
        let mut sessions: Vec<StepDecoder> = prompts
            .iter()
            .map(|p| {
                let mut s = StepDecoder::new_chunked_pooled(&model, p, &cfg, &pool).expect("ok");
                s.prefill_pending(usize::MAX).expect("fits");
                s
            })
            .collect();
        let mut refs: Vec<&mut StepDecoder> = sessions.iter_mut().collect();
        let err = StepDecoder::step_batch(&mut refs).expect_err("pool is short");
        assert!(matches!(err, NnError::PoolExhausted { .. }));
        for s in &sessions {
            assert_eq!(s.generated().len(), 1, "the chosen token is kept");
            assert_eq!(s.pending_prefill(), s.generated(), "and pending");
        }

        drop(squatter);
        while !sessions.iter().all(StepDecoder::is_done) {
            let mut refs: Vec<&mut StepDecoder> = sessions.iter_mut().collect();
            StepDecoder::step_batch(&mut refs).expect("room now");
        }
        for (s, p) in sessions.iter().zip(prompts) {
            assert!(!s.is_prefilling(), "a finished session has nothing pending");
            let expected = generate(&model, p, &cfg).expect("ok");
            assert_eq!(s.generated(), &expected[..], "prompt {p:?} drifted");
        }
    }

    #[test]
    fn top_k_keeps_exactly_k_survivors_on_threshold_ties() {
        // Three logits tie at the k-th threshold; only the first tie (in
        // index order) may survive alongside the strictly-greater entry.
        let logits = [2.0f32, 1.0, 1.0, 1.0, 0.0];
        let mut rng = Pcg32::seed(42);
        let mut seen = [false; 5];
        for _ in 0..2000 {
            let idx = sample_from_logits(&logits, 1.0, 2, 1.0, &mut rng) as usize;
            seen[idx] = true;
        }
        assert!(seen[0] && seen[1], "both survivors should be sampled");
        assert!(
            !seen[2] && !seen[3] && !seen[4],
            "ties beyond the top_k quota must be truncated, got {seen:?}"
        );

        // All-equal logits: survivors are the first top_k indices.
        let flat = [1.0f32; 4];
        let mut rng = Pcg32::seed(43);
        let mut seen = [false; 4];
        for _ in 0..2000 {
            seen[sample_from_logits(&flat, 1.0, 2, 1.0, &mut rng) as usize] = true;
        }
        assert_eq!(seen, [true, true, false, false]);
    }
}
