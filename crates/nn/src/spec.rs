//! Speculative decoding: a cheap draft model proposes tokens, the target
//! verifies them in one batched forward.
//!
//! [`SpecDecoder`] wraps a target [`StepDecoder`] and a draft
//! [`TinyLm`] — typically another entry of the same merge family (the
//! instruct endpoint drafting for `merge:…@λ`, an `#int8` clone drafting
//! for its f32 base) or a truncated-layer self-draft built with
//! [`TinyLm::truncate_layers`]. Each round:
//!
//! 1. the target commits its own next token `t0` (argmax of its pending
//!    logits — exactly what a plain step would emit);
//! 2. the draft autoregressively proposes up to `k` follow-on tokens
//!    `d1…dm`;
//! 3. the target runs **one** batched forward over `[t0, d1…dm]` through
//!    [`KvCache::verify_chunk`] (the PR 4 skinny-GEMM path), getting the
//!    next-token logits after every position for roughly the price of one
//!    decode step;
//! 4. the longest prefix of drafts agreeing with the target's own argmax
//!    at each position is committed, and the cache rewinds past the first
//!    disagreement with [`KvCache::truncate`].
//!
//! # Byte-identity by construction
//!
//! Every emitted token is the argmax of target logits that are
//! bit-identical to the sequential decode's ([`KvCache::verify_chunk`]
//! pins that), so a greedy speculative transcript **cannot** differ from
//! the plain one — the draft only decides how many target steps are
//! batched together, never what they produce. The verified row after the
//! accepted prefix doubles as the next round's pending logits, so a
//! rejection costs nothing extra: the "bonus" token the target wanted
//! instead is simply next round's `t0`. On an int8-KV pool a round drafts
//! no further than the seal-free run after `t0`'s position, so every
//! rewind stays exact, and window-slide points land exactly where plain
//! decoding puts them.
//!
//! Sampled sessions (temperature > 0) consume an RNG stream that a
//! multi-token round cannot keep in lockstep, so they transparently
//! degrade to plain stepping.
//!
//! # Fault isolation
//!
//! The draft phase runs under [`std::panic::catch_unwind`]: a panicking
//! draft model permanently disables speculation for the session and the
//! round completes as a plain decode step — the session (and its
//! transcript) survives unchanged. Draft *errors* (e.g. a transient
//! allocation failure) fall back for the round only. A serving layer can
//! inject faults through [`SpecDecoder::set_draft_probe`].

use std::collections::VecDeque;
use std::sync::Arc;

use chipalign_tensor::ops;

use crate::generate::StepDecoder;
use crate::kv::KvCache;
use crate::model::TinyLm;
use crate::{KvDtype, NnError};

/// Largest draft length a [`SpecDecoder`] accepts: the verified chunk is
/// `k + 1` tokens (`t0` plus the drafts) and must fit one
/// `KvCache::verify_chunk`, which is one weight sweep (one tile call per
/// projection) by contract.
pub const SPEC_K_MAX: usize = chipalign_tensor::tune::GEMM_SKINNY_M_MAX - 1;

/// Counters accumulated by a [`SpecDecoder`] since the last
/// [`SpecDecoder::take_stats`] — the per-session feed for the serving
/// metrics (`draft_tokens_proposed`, `accepted_draft_tokens`,
/// `spec_fallbacks`). Acceptance rate is `accepted / proposed`, derived at
/// read time so fleet aggregation can sum the raw counters exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecStats {
    /// Draft tokens proposed for verification.
    pub proposed: u64,
    /// Draft tokens the target agreed with (emitted without their own
    /// sequential decode step).
    pub accepted: u64,
    /// Rounds that degraded to a plain decode step because the draft
    /// failed or the verification forward could not run.
    pub fallbacks: u64,
    /// Draft panics caught (each also disables speculation for the
    /// session and counts as a fallback).
    pub(crate) draft_panics: u64,
}

/// A speculative decoding session: same `step()` contract as
/// [`StepDecoder`] (one token per call, `None` when done), same greedy
/// transcript to the byte, fewer target forwards.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use chipalign_model::ArchSpec;
/// use chipalign_nn::generate::{GenerateConfig, StepDecoder};
/// use chipalign_nn::{SpecDecoder, TinyLm};
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_nn::NnError> {
/// let mut arch = ArchSpec::tiny("spec");
/// arch.vocab_size = 99;
/// let model = Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(1))?);
/// let draft = Arc::new(model.truncate_layers(1)?);
/// let cfg = GenerateConfig { max_new_tokens: 4, ..GenerateConfig::default() };
/// let target = StepDecoder::new(&model, &[5, 6, 7], &cfg)?;
/// let mut session = SpecDecoder::new(target, &draft, 4)?;
/// let mut out = Vec::new();
/// while let Some(tok) = session.step()? {
///     out.push(tok);
/// }
/// assert!(out.len() <= 4);
/// # Ok(())
/// # }
/// ```
pub struct SpecDecoder {
    target: StepDecoder,
    /// Private cache over the draft model ([`KvCache::new`]: one-token
    /// blocks, so truncation is exact at any position and draft state can
    /// rewind to any accepted prefix).
    draft: KvCache,
    /// Offset of the draft cache's first position into the target's
    /// context. Invariant between rounds: `draft.tokens()` is a slice of
    /// `target.context()[draft_base..]` (re-synced lazily each round).
    draft_base: usize,
    k: usize,
    /// Cleared permanently when the draft panics: the session finishes as
    /// a plain stepper.
    spec_enabled: bool,
    /// Tokens committed by a round but not yet handed out by `step()`, so
    /// callers still receive exactly one token per call.
    burst: VecDeque<u32>,
    stats: SpecStats,
    /// Called at the start of every draft phase, inside the panic
    /// isolation boundary — the serving layer's fault-injection hook.
    draft_probe: Option<Box<dyn FnMut() + Send>>,
}

impl std::fmt::Debug for SpecDecoder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpecDecoder")
            .field("target", &self.target)
            .field("draft_base", &self.draft_base)
            .field("k", &self.k)
            .field("spec_enabled", &self.spec_enabled)
            .field("burst", &self.burst)
            .field("stats", &self.stats)
            .field("draft_probe", &self.draft_probe.is_some())
            .finish_non_exhaustive()
    }
}

impl SpecDecoder {
    /// Wraps `target` with speculative drafting by `draft_model`, at most
    /// `k` draft tokens per round.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `k` is 0 or exceeds
    /// [`SPEC_K_MAX`], or if the draft's vocabulary size differs from the
    /// target's (their argmax indices must be comparable).
    pub fn new(
        target: StepDecoder,
        draft_model: &Arc<TinyLm>,
        k: usize,
    ) -> Result<SpecDecoder, NnError> {
        if k == 0 || k > SPEC_K_MAX {
            return Err(NnError::BadConfig {
                detail: format!("spec draft length k must lie in [1, {SPEC_K_MAX}], got {k}"),
            });
        }
        let target_vocab = target.cache().model().arch().vocab_size;
        let draft_vocab = draft_model.arch().vocab_size;
        if target_vocab != draft_vocab {
            return Err(NnError::BadConfig {
                detail: format!(
                    "spec draft vocab ({draft_vocab}) must match the target vocab ({target_vocab})"
                ),
            });
        }
        Ok(SpecDecoder {
            target,
            draft: KvCache::new(draft_model),
            draft_base: 0,
            k,
            spec_enabled: true,
            burst: VecDeque::new(),
            stats: SpecStats::default(),
            draft_probe: None,
        })
    }

    /// Installs a hook called at the start of every draft phase, inside
    /// the panic-isolation boundary. The serving layer uses this to inject
    /// draft faults without the fault machinery leaking into this crate.
    pub fn set_draft_probe(&mut self, probe: Box<dyn FnMut() + Send>) {
        self.draft_probe = Some(probe);
    }

    /// The wrapped target session (prompt bookkeeping, prefill state,
    /// emitted counters — everything a scheduler reads lives there).
    #[must_use]
    pub fn target(&self) -> &StepDecoder {
        &self.target
    }

    /// Mutable access to the wrapped target, for scheduler-driven prefill
    /// draining ([`StepDecoder::prefill_pending`]) and prefix adoption.
    pub fn target_mut(&mut self) -> &mut StepDecoder {
        &mut self.target
    }

    /// Counters accumulated since the last [`SpecDecoder::take_stats`].
    #[must_use]
    pub fn stats(&self) -> SpecStats {
        self.stats
    }

    /// Drains the accumulated counters (the scheduler harvests these once
    /// per slice and feeds the serving metrics).
    pub fn take_stats(&mut self) -> SpecStats {
        std::mem::take(&mut self.stats)
    }

    /// Whether the session has handed out its final token: the target is
    /// done and no committed token is left in the burst buffer. True right
    /// after `step()` returns the last token, so a caller need not spend a
    /// further call on the `None` (the speculative form of
    /// [`StepDecoder::is_done`]).
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.burst.is_empty() && self.target.is_done()
    }

    /// Produces the next token, or `None` once the session has finished —
    /// the same contract as [`StepDecoder::step`], byte-identical greedy
    /// output included. Internally a call may run a whole speculative
    /// round (several tokens of progress, buffered) or delegate to a plain
    /// step when speculation cannot engage (sampled session, pending
    /// prefill or slide replay, speculation disabled).
    ///
    /// # Errors
    ///
    /// Forwards target forward-pass failures. The session stays valid, as
    /// after a failed [`StepDecoder::step_batch`]: a round's committed
    /// `t0` is pending input for the target and is handed out by the next
    /// call. Draft failures never surface here.
    pub fn step(&mut self) -> Result<Option<u32>, NnError> {
        if let Some(tok) = self.burst.pop_front() {
            return Ok(Some(tok));
        }
        if self.target.is_done() {
            return Ok(None);
        }
        if !self.spec_enabled || !self.target.is_greedy() || self.target.is_prefilling() {
            // Plain stepping IS the degraded mode: same code path a
            // non-speculative session runs, so transcripts stay identical.
            return self.target.step();
        }
        self.spec_round()?;
        Ok(self.burst.pop_front())
    }

    /// One speculative round. Precondition (checked by `step`): target is
    /// live, greedy, and fully prefilled, so its pending logits are
    /// current. Always commits at least `t0` into the burst buffer.
    fn spec_round(&mut self) -> Result<(), NnError> {
        // The target's own next token — exactly what a plain step emits.
        let t0 = self.target.choose_next();
        self.target.commit(t0);
        self.burst.push_back(t0);
        if self.target.is_done() {
            // Plain step never feeds the final token; neither do we.
            return Ok(());
        }
        let max_ctx = self.target.max_ctx();
        if self.target.cache.len() >= max_ctx {
            // Same slide point a plain step takes after committing t0.
            self.target.begin_slide();
            return Ok(());
        }

        // How many drafts this round can use. `room`: a plain decoder
        // slides rather than feed once the cache holds `max_ctx - 1`
        // positions past the commit, so draft positions must stop there.
        // `seal_room`: on an int8-KV pool only the seal-free run *after*
        // t0's position may be rewound exactly ([`KvCache::truncate`]);
        // t0 itself is never rewound, so it may seal freely.
        let cache = &self.target.cache;
        let base = cache.len();
        let room = max_ctx - base - 1;
        let pool = cache.pool();
        let seal_room = if pool.dtype() == KvDtype::Int8 {
            let bt = pool.block_tokens();
            bt - 1 - ((base + 1) % bt)
        } else {
            usize::MAX
        };
        let budget = self
            .target
            .cfg
            .max_new_tokens
            .saturating_sub(self.target.emitted());
        let m = self.k.min(budget).min(room).min(seal_room);
        if m == 0 {
            // Nothing to speculate on this round (window edge, seal
            // boundary, or final budget token): plain decode of t0.
            self.target.last_logits = self.target.cache.decode_step(t0)?;
            return Ok(());
        }

        // Draft phase, panic-isolated: a dying draft must cancel only
        // speculation, never the session.
        let (drafts, draft_failed, draft_panicked) = {
            let ctx: &[u32] = self.target.context();
            let draft = &mut self.draft;
            let draft_base = &mut self.draft_base;
            let probe = &mut self.draft_probe;
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                if let Some(p) = probe.as_mut() {
                    p();
                }
                draft_propose(draft, draft_base, ctx, m)
            })) {
                Ok(Ok(drafts)) => (drafts, false, false),
                Ok(Err(_)) => (Vec::new(), true, false),
                Err(_) => (Vec::new(), true, true),
            }
        };
        if draft_panicked {
            self.spec_enabled = false;
            self.stats.draft_panics += 1;
        }
        if draft_failed {
            // The draft may be mid-mutation; a reset forces a clean
            // re-sync if speculation ever runs again.
            self.draft.reset();
            self.draft_base = 0;
        }
        if drafts.is_empty() {
            self.stats.fallbacks += 1;
            self.target.last_logits = self.target.cache.decode_step(t0)?;
            return Ok(());
        }

        // Verification: one batched target forward over t0 + drafts. Row
        // i holds the logits after the first i + 1 chunk tokens — each row
        // bit-identical to the sequential decode's.
        let mut chunk = Vec::with_capacity(1 + drafts.len());
        chunk.push(t0);
        chunk.extend_from_slice(&drafts);
        let mut rows = match self.target.cache.verify_chunk(&chunk) {
            Ok(rows) => rows,
            Err(_) => {
                // E.g. the pool can back one position but not the chunk:
                // exactly the round a plain decoder could still run.
                self.stats.fallbacks += 1;
                self.target.last_logits = self.target.cache.decode_step(t0)?;
                return Ok(());
            }
        };

        // Accept the longest prefix where the target's own argmax agrees
        // with the draft — each acceptance is the token a plain step would
        // have chosen from bit-identical logits.
        let mut accepted = 0usize;
        for (i, &d) in drafts.iter().enumerate() {
            if self.target.is_done() {
                break;
            }
            let choice = ops::argmax(&rows[i]).expect("vocab is non-empty") as u32;
            if choice != d {
                break;
            }
            self.target.commit(d);
            self.burst.push_back(d);
            accepted += 1;
        }
        self.stats.proposed += drafts.len() as u64;
        self.stats.accepted += accepted as u64;

        // Rewind the cache to what a plain decoder would have fed: every
        // committed token except — when the session just finished — the
        // final one, which a plain step never feeds.
        let fed = if self.target.is_done() {
            base + accepted
        } else {
            base + 1 + accepted
        };
        // Drafts stop at the seal-free run, so this rewind cannot fail.
        self.target.cache.truncate(fed).expect("exact rewind");
        if !self.target.is_done() {
            // The verified row after the accepted prefix is exactly the
            // pending logits a plain decoder would hold now; on a
            // rejection its argmax becomes next round's t0 — the bonus
            // token, for free.
            self.target.last_logits = rows.swap_remove(accepted);
        }
        Ok(())
    }
}

/// Re-syncs the draft cache to the target context and greedily proposes up
/// to `m` tokens. Free function (not a method) so the panic-isolated
/// closure borrows only the fields it needs.
///
/// Sync keeps the longest run of draft positions still matching
/// `ctx[draft_base..]`, short of the last context token, truncates the
/// rest (private caches rewind exactly anywhere), and feeds the missing
/// tail: at least one token, whose logits propose the first draft. When
/// the draft's own context window cannot hold the tail plus a round of
/// proposals, the draft restarts on a recent window — draft state
/// influences only the acceptance rate, never an output byte, so any
/// window policy is sound.
fn draft_propose(
    draft: &mut KvCache,
    draft_base: &mut usize,
    ctx: &[u32],
    m: usize,
) -> Result<Vec<u32>, NnError> {
    let draft_max = draft.model().arch().max_seq_len;
    let kept = draft.tokens();
    let mut keep = 0usize;
    while keep < kept.len()
        && *draft_base + keep + 1 < ctx.len()
        && kept[keep] == ctx[*draft_base + keep]
    {
        keep += 1;
    }
    draft.truncate(keep)?;
    let missing = ctx.len() - (*draft_base + keep);
    let mut last = if keep + missing + m > draft_max {
        // Restart on the most recent window, leaving room to feed this
        // round's proposals.
        let w = draft_max.saturating_sub(m).max(1).min(ctx.len());
        draft.reset();
        *draft_base = ctx.len() - w;
        draft.prefill_chunk(&ctx[*draft_base..])?
    } else {
        draft.prefill_chunk(&ctx[*draft_base + keep..])?
    };
    let mut drafts = Vec::with_capacity(m);
    loop {
        let d = ops::argmax(&last).expect("vocab is non-empty") as u32;
        drafts.push(d);
        if drafts.len() == m || draft.len() >= draft_max {
            return Ok(drafts);
        }
        last = draft.decode_step(d)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate, GenerateConfig};
    use crate::train::{train, Example, TrainConfig};
    use crate::{AdamConfig, KvPool, KvPoolConfig};
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn arch() -> ArchSpec {
        let mut a = ArchSpec::tiny("spec");
        a.vocab_size = 99;
        a
    }

    fn trained_on(seq: &[u32]) -> Arc<TinyLm> {
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
        Arc::new(model)
    }

    /// Steps until `is_done`, which must turn true exactly as the last
    /// token is handed out: every step before it yields a token, every
    /// step after it `None`.
    fn drain_spec(mut s: SpecDecoder) -> (Vec<u32>, SpecStats) {
        let mut out = Vec::new();
        while !s.is_done() {
            out.push(s.step().expect("ok").expect("a token until is_done"));
        }
        assert!(s.step().expect("ok").is_none(), "done stays done");
        (out, s.stats())
    }

    fn drain_plain(mut s: StepDecoder) -> Vec<u32> {
        let mut out = Vec::new();
        while let Some(tok) = s.step().expect("ok") {
            out.push(tok);
        }
        out
    }

    #[test]
    fn identical_draft_accepts_every_token_and_matches_plain() {
        // Drafting with the *same* model: every proposal is the target's
        // own argmax, so acceptance is total and the transcript must be
        // byte-identical to plain decoding.
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let cfg = GenerateConfig {
            max_new_tokens: 12,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let expected = drain_plain(StepDecoder::new(&model, &[5, 6], &cfg).expect("ok"));
        let target = StepDecoder::new(&model, &[5, 6], &cfg).expect("ok");
        let spec = SpecDecoder::new(target, &model, 4).expect("ok");
        let (out, stats) = drain_spec(spec);
        assert_eq!(out, expected, "speculative transcript drifted");
        assert!(stats.proposed > 0, "rounds must actually speculate");
        assert_eq!(
            stats.accepted, stats.proposed,
            "an identical draft must be fully accepted"
        );
        assert_eq!(stats.fallbacks, 0);
        assert_eq!(stats.draft_panics, 0);
    }

    #[test]
    fn truncated_draft_matches_plain_across_window_slides() {
        // A 1-layer self-draft disagrees regularly (exercising rejection,
        // rewind, and the free bonus token) and 64 tokens on a 32-position
        // window forces two slides — output must still match to the byte.
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let draft = Arc::new(model.truncate_layers(1).expect("ok"));
        let cfg = GenerateConfig {
            max_new_tokens: 64,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        for k in [1usize, 2, 4, 7] {
            let expected = drain_plain(StepDecoder::new(&model, &[5, 6], &cfg).expect("ok"));
            let target = StepDecoder::new(&model, &[5, 6], &cfg).expect("ok");
            let (out, stats) = drain_spec(SpecDecoder::new(target, &draft, k).expect("ok"));
            assert_eq!(out, expected, "k={k}: speculative transcript drifted");
            assert!(stats.proposed > 0, "k={k}: no speculation happened");
            assert!(
                stats.accepted <= stats.proposed,
                "k={k}: acceptance bookkeeping broke"
            );
        }
    }

    #[test]
    fn spec_matches_plain_on_every_kv_layout() {
        // Paged f32, paged int8-KV (4-token blocks: seal boundaries every
        // 4 positions), and int8 *weights* — the speculative transcript
        // must equal the plain transcript over the same storage.
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let draft = Arc::new(model.truncate_layers(1).expect("ok"));
        let cfg = GenerateConfig {
            max_new_tokens: 48,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let pool_cfg = |dtype| KvPoolConfig {
            block_tokens: 4,
            max_blocks: 256,
            dtype,
        };
        for dtype in [KvDtype::F32, KvDtype::Int8] {
            let mk = || {
                let pool = KvPool::new(pool_cfg(dtype)).expect("ok");
                let mut s =
                    StepDecoder::new_chunked_pooled(&model, &[5, 6], &cfg, &pool).expect("ok");
                s.prefill_pending(usize::MAX).expect("ok");
                s
            };
            let expected = drain_plain(mk());
            let (out, stats) = drain_spec(SpecDecoder::new(mk(), &draft, 4).expect("ok"));
            assert_eq!(out, expected, "{dtype:?}: speculative transcript drifted");
            assert!(stats.proposed > 0, "{dtype:?}: no speculation happened");
        }

        let mut q = (*model).clone();
        q.quantize();
        let q = Arc::new(q);
        let expected = drain_plain(StepDecoder::new(&q, &[5, 6], &cfg).expect("ok"));
        let target = StepDecoder::new(&q, &[5, 6], &cfg).expect("ok");
        let (out, stats) = drain_spec(SpecDecoder::new(target, &draft, 4).expect("ok"));
        assert_eq!(out, expected, "int8-weight speculative transcript drifted");
        assert!(stats.proposed > 0);
    }

    #[test]
    fn sampled_sessions_degrade_to_plain_stepping() {
        // Temperature > 0 consumes an RNG stream speculation cannot keep
        // in lockstep: the decoder must transparently delegate, keeping
        // the sampled transcript identical and speculating on nothing.
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let draft = Arc::new(model.truncate_layers(1).expect("ok"));
        let cfg = GenerateConfig {
            max_new_tokens: 16,
            temperature: 1.2,
            top_k: 8,
            top_p: 0.9,
            stop_at_eos: false,
            seed: 13,
        };
        let expected = drain_plain(StepDecoder::new(&model, &[5, 6], &cfg).expect("ok"));
        let target = StepDecoder::new(&model, &[5, 6], &cfg).expect("ok");
        let (out, stats) = drain_spec(SpecDecoder::new(target, &draft, 4).expect("ok"));
        assert_eq!(out, expected, "sampled transcript drifted");
        assert_eq!(stats, SpecStats::default(), "sampling must not speculate");
    }

    #[test]
    fn draft_panic_disables_speculation_but_not_the_session() {
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let draft = Arc::new(model.truncate_layers(1).expect("ok"));
        let cfg = GenerateConfig {
            max_new_tokens: 12,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let expected = drain_plain(StepDecoder::new(&model, &[5, 6], &cfg).expect("ok"));
        let target = StepDecoder::new(&model, &[5, 6], &cfg).expect("ok");
        let mut spec = SpecDecoder::new(target, &draft, 4).expect("ok");
        spec.set_draft_probe(Box::new(|| panic!("injected draft fault")));
        assert!(spec.spec_enabled);
        let mut out = Vec::new();
        while let Some(tok) = spec.step().expect("ok") {
            out.push(tok);
        }
        let stats = spec.stats();
        assert_eq!(out, expected, "degraded transcript drifted from plain");
        assert!(!spec.spec_enabled, "a draft panic must disable speculation");
        assert_eq!(stats.draft_panics, 1, "exactly one panic (then disabled)");
        assert_eq!(stats.fallbacks, 1);
        assert_eq!(stats.proposed, 0);
        assert_eq!(stats.accepted, 0);
    }

    #[test]
    fn take_stats_drains_counters() {
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let cfg = GenerateConfig {
            max_new_tokens: 8,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let target = StepDecoder::new(&model, &[5, 6], &cfg).expect("ok");
        let mut spec = SpecDecoder::new(target, &model, 4).expect("ok");
        while spec.step().expect("ok").is_some() {}
        let first = spec.take_stats();
        assert!(first.proposed > 0);
        assert_eq!(spec.take_stats(), SpecStats::default(), "take must drain");
    }

    #[test]
    fn constructor_validates_k_and_vocab() {
        let model = trained_on(&[5, 6, 7]);
        let cfg = GenerateConfig::default();
        let mk = || StepDecoder::new(&model, &[5, 6], &cfg).expect("ok");
        assert!(matches!(
            SpecDecoder::new(mk(), &model, 0),
            Err(NnError::BadConfig { .. })
        ));
        assert!(matches!(
            SpecDecoder::new(mk(), &model, SPEC_K_MAX + 1),
            Err(NnError::BadConfig { .. })
        ));
        let mut other_arch = arch();
        other_arch.vocab_size = 98;
        let other = Arc::new(TinyLm::new(&other_arch, &mut Pcg32::seed(1)).expect("valid"));
        assert!(matches!(
            SpecDecoder::new(mk(), &other, 2),
            Err(NnError::BadConfig { .. })
        ));
        assert!(SpecDecoder::new(mk(), &model, SPEC_K_MAX).is_ok());
    }

    #[test]
    fn draft_propose_feeds_at_least_one_token_on_a_synced_draft() {
        // The draft already holds the whole context: sync must still feed
        // the last token, or there are no logits to propose from.
        let model = trained_on(&[5, 6, 7, 8, 9]);
        let ctx = [5u32, 6, 7, 8, 9, 5, 6, 7];
        let mut draft = KvCache::new(&model);
        draft.prefill(&ctx).expect("ok");
        let mut draft_base = 0;
        let drafts = draft_propose(&mut draft, &mut draft_base, &ctx, 1).expect("ok");
        let cold = KvCache::new(&model).prefill(&ctx).expect("ok");
        let want = ops::argmax(&cold).expect("vocab is non-empty") as u32;
        assert_eq!(drafts, [want]);
        assert_eq!(draft.tokens(), &ctx[..]);
    }

    #[test]
    fn spec_decoder_is_byte_identical_to_generate() {
        // End-to-end against the free-function reference driver.
        let model = trained_on(&[10, 20, 30, 40, 50, 60]);
        let draft = Arc::new(model.truncate_layers(1).expect("ok"));
        let cfg = GenerateConfig {
            max_new_tokens: 24,
            stop_at_eos: false,
            ..GenerateConfig::default()
        };
        let expected = generate(&model, &[10, 20], &cfg).expect("ok");
        let target = StepDecoder::new(&model, &[10, 20], &cfg).expect("ok");
        let (out, _) = drain_spec(SpecDecoder::new(target, &draft, 6).expect("ok"));
        assert_eq!(out, expected);
    }
}
