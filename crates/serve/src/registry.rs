//! The model registry: every checkpoint the server can put behind a spec.
//!
//! # Spec grammar
//!
//! Every spec the server accepts and every key it hands back is a
//! sentence of this grammar. [`ModelSpec::parse`] is the only code that
//! reads it, into one tree, and [`ModelSpec::key`] prints that tree back:
//!
//! ```text
//! spec    = "spec:" model "|" model "@" k      (* k binds to the last "@" *)
//!         | model ;
//! model   = weights [ "#int8" ] [ "#kv8" ] ;   (* either order, each once *)
//! weights = "merge:" slug "+" slug "@" lambda  (* lambda binds to the last "@" *)
//!         | "file:" path                       (* a .calt checkpoint *)
//!         | slug                               (* a zoo model *)
//!         | name ;                             (* a registered model *)
//! lambda  = a float in [0, 1], keyed to four decimals ;
//! k       = an integer in [1, SPEC_K_MAX] ;
//! ```
//!
//! Whitespace around a spec, a pair segment or a suffix is dropped, `#kv8`
//! anywhere but in the suffix is rejected, and pairs do not nest. A key
//! is canonical: `@0.6` and `@0.60` both print `@0.6000`, and the
//! suffixes print `#int8#kv8`.
//!
//! Zoo slugs (`instruct-qwen`, `chipnemo`, …) are trained on demand by
//! [`chipalign_pipeline::zoo::Zoo`] or loaded from its disk cache. A merge
//! is built with [`chipalign_merge::GeodesicMerge`] at the λ its key names
//! and cached per λ, so moving a served model along the geodesic is one
//! `load` request. Names are models inserted with
//! [`ModelRegistry::register`]. `#int8` resolves the f32 weights under
//! their own key (shared with f32 traffic), then caches a clone with
//! int8-quantized projections under the `…#int8` key. `#kv8` changes no
//! weights: only the returned key carries it, and
//! [`ModelRegistry::kv_pool_for`] maps it to an int8 KV pool
//! ([`chipalign_nn::KvDtype::Int8`]). A pair's sessions decode the target
//! while the draft proposes `k` tokens a round
//! ([`chipalign_nn::SpecDecoder`]), with output byte-identical to the
//! target alone; the vocabularies must match, and pool and KV dtype follow
//! the target.
//!
//! # Concurrency and bounds
//!
//! Materialization is deduplicated *per key*: concurrent resolves of the
//! same spec elect one builder while the rest wait on a latch and adopt
//! the builder's result, and resolves of *different* specs build in
//! parallel. If a builder fails, a waiter takes over and retries rather
//! than echoing the stale error. Beyond 32 cached merges (a bound tests
//! lower), f32 and `#int8` alike, the least-recently-used merge is evicted
//! and counted in `merge_evictions`. Other entries are never evicted.
//!
//! # Integrity
//!
//! Merged models are validated
//! ([`chipalign_model::Checkpoint::validate`]) and scanned for
//! non-finite weights before they are cached; a poisoned merge is a
//! structured error, and a non-finite one counts in `checksum_failures`,
//! as does a `file:` checkpoint whose bytes are damaged. Merges live in
//! memory only: an evicted merge is rebuilt from its ingredients.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use chipalign_merge::{GeodesicMerge, Merger};
use chipalign_model::{format, ModelError};
use chipalign_nn::{KvDtype, KvPool, KvPoolConfig, TinyLm, SPEC_K_MAX};
use chipalign_pipeline::zoo::{Backbone, Zoo, ZooModel};

use crate::metrics::{Counter, Metrics};
use crate::ServeError;

/// Whether a load failure means the bytes on disk are damaged (as opposed
/// to e.g. a plain I/O error), so it counts in `checksum_failures`.
fn is_integrity_error(e: &ModelError) -> bool {
    matches!(
        e,
        ModelError::Corrupt { .. }
            | ModelError::ChecksumMismatch { .. }
            | ModelError::NonFinite { .. }
    )
}

/// Every zoo model the registry can name.
#[must_use]
pub(crate) fn all_zoo_models() -> Vec<ZooModel> {
    use Backbone::{LlamaLarge, LlamaTiny, QwenTiny};
    use ZooModel::{Base, ChipNemo, Eda, GeneralStrong, Instruct, RagEda};
    let pairs = [QwenTiny, LlamaTiny, LlamaLarge].map(|b| [Base(b), Instruct(b)]);
    let eda = [Eda(QwenTiny), Eda(LlamaTiny)];
    let rest = [ChipNemo, GeneralStrong, RagEda];
    pairs.into_iter().flatten().chain(eda).chain(rest).collect()
}

fn zoo_model_from_slug(slug: &str) -> Option<ZooModel> {
    all_zoo_models().into_iter().find(|m| m.slug() == slug)
}

fn bad_request(detail: String) -> ServeError {
    ServeError::BadRequest { detail }
}

/// Locks a registry mutex, recovering from poisoning: every critical
/// section is a single map or set operation that cannot be observed
/// half-done, even if a panic interrupted a previous holder.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The weights a model spec names.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Weights {
    /// A zoo model by slug.
    Zoo(ZooModel),
    /// A geodesic merge of `chip` and `instruct` at `lambda`, already
    /// rounded to the four decimals its key prints.
    Merged {
        chip: ZooModel,
        instruct: ZooModel,
        lambda: f32,
    },
    /// A checkpoint file in the crate's `.calt` format.
    File(PathBuf),
    /// A model inserted with [`ModelRegistry::register`].
    Named(String),
}

/// One servable model: weights, whether they are quantized to int8 at
/// load, and whether its sessions use an int8 KV pool.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Variant {
    pub(crate) weights: Weights,
    pub(crate) int8: bool,
    pub(crate) kv8: bool,
}

/// A parsed spec: the one tree every registry entry point starts from.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ModelSpec {
    One(Variant),
    /// `spec:<target>|<draft>@<k>`.
    Pair {
        target: Variant,
        draft: Variant,
        k: usize,
    },
}

impl ModelSpec {
    /// Parses a spec (the grammar is in the module docs).
    ///
    /// # Errors
    ///
    /// [`ServeError::UnknownModel`] for an unknown merge ingredient,
    /// [`ServeError::BadRequest`] for anything else malformed. Any other
    /// name parses; it fails at resolve if nothing is registered under it.
    pub(crate) fn parse(text: &str) -> Result<Self, ServeError> {
        let text = text.trim();
        let Some(rest) = text.strip_prefix("spec:") else {
            return Variant::parse(text).map(ModelSpec::One);
        };
        let needs = |what| bad_request(format!("speculative spec {text:?} needs {what}"));
        let (pair, k) = rest.rsplit_once('@').ok_or_else(|| needs("`@<k>`"))?;
        let (target, draft) = pair
            .split_once('|')
            .ok_or_else(|| needs("`<target>|<draft>`"))?;
        match k.parse() {
            Ok(k) if (1..=SPEC_K_MAX).contains(&k) => Ok(ModelSpec::Pair {
                target: Variant::parse(target)?,
                draft: Variant::parse(draft)?,
                k,
            }),
            _ => Err(needs("a draft length in [1, SPEC_K_MAX]")),
        }
    }

    /// The canonical key: `parse(key())` gives this tree back.
    #[must_use]
    pub(crate) fn key(&self) -> String {
        match self {
            ModelSpec::One(v) => v.key(),
            ModelSpec::Pair { target, draft, k } => {
                format!("spec:{}|{}@{k}", target.key(), draft.key())
            }
        }
    }

    /// The model sessions decode: the only one, or a pair's target.
    fn target(&self) -> &Variant {
        match self {
            ModelSpec::One(v) | ModelSpec::Pair { target: v, .. } => v,
        }
    }
}

impl Variant {
    fn parse(text: &str) -> Result<Self, ServeError> {
        let bad = |why: &str| bad_request(format!("spec {text:?} {why}"));
        let mut rest = text.trim();
        let (mut int8, mut kv8) = (false, false);
        loop {
            let (flag, base) = if let Some(base) = rest.strip_suffix("#int8") {
                (&mut int8, base)
            } else if let Some(base) = rest.strip_suffix("#kv8") {
                (&mut kv8, base)
            } else {
                break;
            };
            if std::mem::replace(flag, true) {
                return Err(bad("stacks a suffix more than once"));
            }
            rest = base.trim_end();
        }
        let weights = if rest.contains("#kv8") {
            return Err(bad("has #kv8 before its end"));
        } else if rest.starts_with("spec:") {
            return Err(bad("nests a speculative pair"));
        } else if let Some(path) = rest.strip_prefix("file:") {
            if path.is_empty() {
                return Err(bad("needs a path"));
            }
            Weights::File(PathBuf::from(path))
        } else if let Some(merge) = rest.strip_prefix("merge:") {
            Weights::parse_merge(merge, bad)?
        } else if let Some(m) = zoo_model_from_slug(rest) {
            Weights::Zoo(m)
        } else {
            Weights::Named(rest.to_string())
        };
        Ok(Variant { weights, int8, kv8 })
    }

    /// The canonical key sessions and pools are routed by.
    fn key(&self) -> String {
        let kv8 = if self.kv8 { "#kv8" } else { "" };
        format!("{}{kv8}", self.cache_key())
    }

    /// The key the weights are cached under: `#kv8` picks a pool, not
    /// weights, so it never has a cache entry of its own.
    fn cache_key(&self) -> String {
        let int8 = if self.int8 { "#int8" } else { "" };
        match &self.weights {
            Weights::Zoo(m) => format!("{}{int8}", m.slug()),
            Weights::Merged {
                chip,
                instruct,
                lambda,
            } => format!(
                "merge:{}+{}@{lambda:.4}{int8}",
                chip.slug(),
                instruct.slug()
            ),
            Weights::File(path) => format!("file:{}{int8}", path.display()),
            Weights::Named(name) => format!("{name}{int8}"),
        }
    }
}

impl Weights {
    /// `<chip>+<instruct>@<λ>`, the text after `merge:`.
    fn parse_merge(merge: &str, bad: impl Fn(&str) -> ServeError) -> Result<Self, ServeError> {
        let (pair, lambda) = merge
            .rsplit_once('@')
            .ok_or_else(|| bad("needs `@<lambda>`"))?;
        let (chip, instruct) = pair
            .split_once('+')
            .ok_or_else(|| bad("needs `<chip>+<instruct>`"))?;
        let zoo = |slug: &str| {
            zoo_model_from_slug(slug).ok_or_else(|| ServeError::UnknownModel {
                spec: slug.to_string(),
            })
        };
        let (chip, instruct) = (zoo(chip)?, zoo(instruct)?);
        match lambda.parse::<f32>() {
            // The key prints four decimals; building the merge at that λ
            // makes a cached model the one its key names, whoever asked
            // first.
            Ok(l) if (0.0..=1.0).contains(&l) => Ok(Weights::Merged {
                chip,
                instruct,
                lambda: format!("{l:.4}").parse().expect("a printed f32"),
            }),
            _ => Err(bad("needs a lambda in [0, 1]")),
        }
    }
}

/// A resolved `spec:<target>|<draft>@<k>` speculative-decoding spec: both
/// models materialized, plus the canonical keys the server needs to route
/// pools and sessions.
#[derive(Debug, Clone)]
pub struct SpecResolution {
    /// The canonical spec key, `spec:<target-key>|<draft-key>@<k>`.
    pub(crate) key: String,
    /// The canonical key of the target alone — KV pool and dtype selection
    /// follow this, so speculative and plain traffic against one target
    /// share pools.
    pub target_key: String,
    /// The verified model; the session's output bytes are its bytes.
    pub target: Arc<TinyLm>,
    /// The cheap proposer. Never affects output bytes, only throughput.
    pub draft: Arc<TinyLm>,
    /// Tokens drafted per speculation round, in `[1, SPEC_K_MAX]`.
    pub k: usize,
}

/// One cached model, its LRU stamp (bumped on every hit), and whether it
/// is a merge: only merges count toward, and are evicted by, the bound.
struct CacheEntry {
    model: Arc<TinyLm>,
    stamp: u64,
    merge: bool,
}

/// The materialized-model cache: entries plus the monotonic LRU clock.
#[derive(Default)]
struct ModelCache {
    entries: HashMap<String, CacheEntry>,
    clock: u64,
}

impl ModelCache {
    fn get(&mut self, key: &str) -> Option<Arc<TinyLm>> {
        self.clock += 1;
        let entry = self.entries.get_mut(key)?;
        entry.stamp = self.clock;
        Some(Arc::clone(&entry.model))
    }

    /// Inserts a model, then evicts least-recently-used merges until at
    /// most `capacity` remain; returns how many went.
    fn insert(&mut self, key: String, model: Arc<TinyLm>, merge: bool, capacity: usize) -> u64 {
        self.clock += 1;
        let stamp = self.clock;
        let entry = CacheEntry {
            model,
            stamp,
            merge,
        };
        self.entries.insert(key, entry);
        let mut merges: Vec<(u64, String)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.merge)
            .map(|(k, e)| (e.stamp, k.clone()))
            .collect();
        let excess = merges.len().saturating_sub(capacity);
        merges.sort_unstable();
        for (_, key) in &merges[..excess] {
            self.entries.remove(key);
        }
        excess as u64
    }
}

/// One paged KV pool and what it is keyed by: the model allocation it
/// serves (weakly held) and its KV dtype.
type KvPoolSlot = (Weak<TinyLm>, KvDtype, Arc<KvPool>);

/// The registry: zoo access plus a cache of materialized models.
pub struct ModelRegistry {
    zoo: Zoo,
    cache: Mutex<ModelCache>,
    /// Keys with a materialization in flight. Concurrent resolves of the
    /// same key elect one builder here; the rest wait on `build_ready`.
    /// Different keys build in parallel.
    building: Mutex<HashSet<String>>,
    /// Notified whenever any build finishes (success or failure) so
    /// waiters re-check the cache — or claim the build themselves if the
    /// previous builder failed.
    build_ready: Condvar,
    /// Most merges kept in the cache before LRU eviction.
    merge_capacity: usize,
    /// Attached by the server so integrity failures show up in
    /// `checksum_failures`; absent in library use.
    metrics: OnceLock<Arc<Metrics>>,
    /// One paged KV pool per (model *allocation*, KV dtype), created on
    /// first use. Keys are weak so an evicted model's pools die with their
    /// last session; dead slots are pruned on access.
    kv_pools: Mutex<Vec<KvPoolSlot>>,
    /// Shape of pools created by [`ModelRegistry::kv_pool`].
    kv_pool_cfg: KvPoolConfig,
}

/// RAII claim on one key's build slot: dropped (panic-safe) when the build
/// ends either way, waking every waiter to re-check the cache.
struct BuildGuard<'a> {
    registry: &'a ModelRegistry,
    key: &'a str,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        lock(&self.registry.building).remove(self.key);
        self.registry.build_ready.notify_all();
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let cached = lock(&self.cache).entries.len();
        write!(f, "ModelRegistry({:?}, {cached} cached)", self.zoo)
    }
}

impl ModelRegistry {
    /// Creates a registry over a zoo.
    #[must_use]
    pub fn new(zoo: Zoo) -> Self {
        ModelRegistry {
            zoo,
            cache: Mutex::new(ModelCache::default()),
            building: Mutex::new(HashSet::new()),
            build_ready: Condvar::new(),
            merge_capacity: 32,
            metrics: OnceLock::new(),
            kv_pools: Mutex::new(Vec::new()),
            kv_pool_cfg: KvPoolConfig::default(),
        }
    }

    /// The paged KV pool backing sessions of this model allocation at the
    /// configured default KV dtype, created on first use. Pool identity
    /// follows the `Arc` allocation: re-materializing an evicted spec
    /// yields a fresh pool, and the old one drains away with its last
    /// session. Newly created pools are registered with the attached
    /// metrics core so their block gauges flow into snapshots.
    #[must_use]
    pub fn kv_pool(&self, model: &Arc<TinyLm>) -> Arc<KvPool> {
        self.pool_with_dtype(model, self.kv_pool_cfg.dtype)
    }

    /// Like [`ModelRegistry::kv_pool`], but honours a `#kv8` suffix on the
    /// canonical key returned by [`ModelRegistry::resolve_str`] — the
    /// server's session-pool lookup. For a `spec:` key the *target*
    /// decides; the draft keeps its own private cache.
    #[must_use]
    pub fn kv_pool_for(&self, key: &str, model: &Arc<TinyLm>) -> Arc<KvPool> {
        match ModelSpec::parse(key) {
            Ok(spec) if spec.target().kv8 => self.pool_with_dtype(model, KvDtype::Int8),
            _ => self.kv_pool(model),
        }
    }

    fn pool_with_dtype(&self, model: &Arc<TinyLm>, dtype: KvDtype) -> Arc<KvPool> {
        let mut pools = lock(&self.kv_pools);
        pools.retain(|(w, _, _)| w.strong_count() > 0);
        if let Some((_, _, pool)) = pools
            .iter()
            .find(|(w, d, _)| *d == dtype && std::ptr::eq(w.as_ptr(), Arc::as_ptr(model)))
        {
            return Arc::clone(pool);
        }
        let cfg = KvPoolConfig {
            dtype,
            ..self.kv_pool_cfg.clone()
        };
        let pool = KvPool::new(cfg).expect("clamped pool config is valid");
        if let Some(m) = self.metrics.get() {
            m.register_kv_pool(&pool);
        }
        pools.push((Arc::downgrade(model), dtype, Arc::clone(&pool)));
        pool
    }

    /// Attaches a metrics core so integrity failures are counted in
    /// `checksum_failures`. Only the first attachment wins (the server
    /// calls this at bind). Seeds the `weights_bytes` gauge from whatever
    /// is already cached.
    pub fn attach_metrics(&self, metrics: Arc<Metrics>) {
        let _ = self.metrics.set(metrics);
        self.refresh_weights_gauge(&lock(&self.cache));
    }

    /// Cache lookup that releases the lock before returning: a
    /// `lock(&self.cache).get(..)` written straight into an `if let`
    /// scrutinee keeps its guard alive to the end of the block, which
    /// deadlocks the moment that block calls [`Self::cache_insert`].
    fn cache_get(&self, key: &str) -> Option<Arc<TinyLm>> {
        lock(&self.cache).get(key)
    }

    /// Inserts into the cache and restores the merge-capacity bound,
    /// counting any evictions. `merge` says whether the entry counts
    /// toward that bound.
    fn cache_insert(&self, key: String, model: Arc<TinyLm>, merge: bool) {
        let mut cache = lock(&self.cache);
        let evicted = cache.insert(key, model, merge, self.merge_capacity);
        if let Some(m) = self.metrics.get() {
            m.add(Counter::MergeEvictions, evicted);
        }
        self.refresh_weights_gauge(&cache);
    }

    /// Recomputes the `weights_bytes` gauge as the sum over every cached
    /// model at its decode dtype. Recompute-from-scratch (rather than
    /// add/subtract bookkeeping) keeps the gauge right regardless of when
    /// metrics were attached or which path inserted or evicted.
    fn refresh_weights_gauge(&self, cache: &ModelCache) {
        if let Some(m) = self.metrics.get() {
            let total: u64 = cache
                .entries
                .values()
                .map(|e| e.model.weights_bytes())
                .sum();
            m.set(Counter::WeightsBytes, total);
        }
    }

    /// Registers a model under a name (hot-swap path for programmatically
    /// built checkpoints), replacing any previous entry. Specs reach it as
    /// a `name` of the grammar in the module docs, `#int8` and `#kv8`
    /// included.
    pub fn register(&self, name: &str, model: TinyLm) -> Arc<TinyLm> {
        let arc = Arc::new(model);
        self.cache_insert(name.to_string(), Arc::clone(&arc), false);
        arc
    }

    /// Resolves a spec string to a servable model, materializing it on
    /// first use. Returns the canonical key together with the model; a
    /// `spec:` pair resolves to its *target* (the draft is warmed too, so a
    /// `load` request readies both).
    ///
    /// # Errors
    ///
    /// Returns spec-parse errors, and forwards zoo-training, merge, and
    /// checkpoint-I/O failures.
    pub fn resolve_str(&self, spec: &str) -> Result<(String, Arc<TinyLm>), ServeError> {
        let spec = ModelSpec::parse(spec)?;
        match self.resolve_pair(&spec)? {
            Some(res) => Ok((res.key, res.target)),
            None => Ok((spec.key(), self.resolve(spec.target())?)),
        }
    }

    /// Resolves a speculative-decoding spec, `spec:<target>|<draft>@<k>`.
    ///
    /// Returns `Ok(None)` for any other well-formed spec — callers that
    /// accept both plain and speculative specs try this first and fall
    /// through to [`ModelRegistry::resolve_str`]. Both models materialize
    /// through the shared cache.
    ///
    /// # Errors
    ///
    /// Returns spec-parse errors, [`ServeError::BadRequest`] for a draft
    /// whose vocabulary differs from the target's (its proposals could
    /// never be verified), and forwards resolution failures of either
    /// ingredient.
    pub fn resolve_spec_str(&self, spec: &str) -> Result<Option<SpecResolution>, ServeError> {
        self.resolve_pair(&ModelSpec::parse(spec)?)
    }

    fn resolve_pair(&self, spec: &ModelSpec) -> Result<Option<SpecResolution>, ServeError> {
        let ModelSpec::Pair { target, draft, k } = spec else {
            return Ok(None);
        };
        let (target_model, draft_model) = (self.resolve(target)?, self.resolve(draft)?);
        let vocab = |m: &TinyLm| m.arch().vocab_size;
        if vocab(&draft_model) != vocab(&target_model) {
            return Err(bad_request(format!(
                "draft vocab ({}) must match target vocab ({})",
                vocab(&draft_model),
                vocab(&target_model)
            )));
        }
        Ok(Some(SpecResolution {
            key: spec.key(),
            target_key: target.key(),
            target: target_model,
            draft: draft_model,
            k: *k,
        }))
    }

    /// Resolves one parsed model, materializing its weights on first use.
    ///
    /// Concurrent resolves of the same key build it exactly once: one
    /// caller is elected builder, the rest block until the build ends and
    /// adopt the cached result (or, if the builder failed, take over the
    /// build themselves). Resolves of different keys never serialize
    /// against each other.
    ///
    /// # Errors
    ///
    /// Forwards zoo-training, merge, and checkpoint-I/O failures.
    fn resolve(&self, spec: &Variant) -> Result<Arc<TinyLm>, ServeError> {
        let key = spec.cache_key();
        loop {
            if let Some(m) = self.cache_get(&key) {
                return Ok(m);
            }
            let mut building = lock(&self.building);
            if building.insert(key.clone()) {
                break; // we are the builder for this key
            }
            // Someone else is building this key: wait for their build to
            // end, then re-check. On their success the cache check above
            // hits; on their failure the claim above succeeds and this
            // caller retries the build instead of echoing a stale error.
            drop(
                self.build_ready
                    .wait(building)
                    .unwrap_or_else(PoisonError::into_inner),
            );
        }
        // Panic-safe release of the build claim (wakes all waiters).
        let _guard = BuildGuard {
            registry: self,
            key: &key,
        };
        // The elected builder double-checks: the previous builder may have
        // finished between our cache miss and our claim.
        if let Some(m) = self.cache_get(&key) {
            return Ok(m);
        }
        // Materialization (training, merging, disk I/O) runs without any
        // lock held — only the per-key claim above guards it.
        let built = Arc::new(self.materialize(spec, &key)?);
        let merge = matches!(spec.weights, Weights::Merged { .. });
        self.cache_insert(key.clone(), Arc::clone(&built), merge);
        Ok(built)
    }

    /// Builds the model `spec` names; `key` (its cache key) tags the
    /// injected faults.
    #[cfg_attr(not(feature = "fault-inject"), allow(unused_variables))]
    fn materialize(&self, spec: &Variant, key: &str) -> Result<TinyLm, ServeError> {
        #[cfg(feature = "fault-inject")]
        if crate::faults::should_fire(crate::faults::Site::RegistryResolve, key) {
            return Err(ServeError::Internal {
                detail: format!("injected registry load failure for {key}"),
            });
        }
        if spec.int8 {
            // The f32 weights resolve through the cache under their own
            // (different) key, so recursing cannot deadlock the per-key
            // build claim — and f32 traffic shares them.
            let f32_weights = Variant {
                int8: false,
                ..spec.clone()
            };
            let mut model = (*self.resolve(&f32_weights)?).clone();
            model.quantize();
            return Ok(model);
        }
        match &spec.weights {
            Weights::Zoo(m) => Ok(self.zoo.model(*m)?),
            Weights::Merged {
                chip,
                instruct,
                lambda,
            } => {
                let chip_ckpt = self.zoo.model(*chip)?.to_checkpoint()?;
                let instruct_ckpt = self.zoo.model(*instruct)?.to_checkpoint()?;
                #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
                let mut merged =
                    GeodesicMerge::new(*lambda)?.merge_pair(&chip_ckpt, &instruct_ckpt)?;
                #[cfg(feature = "fault-inject")]
                if crate::faults::should_fire(crate::faults::Site::MergePoison, key) {
                    if let Some(t) = merged.get_mut("model.norm.weight") {
                        t.data_mut()[0] = f32::NAN;
                    }
                }
                // Vet the merge before it can reach the cache: a poisoned
                // checkpoint is reported, never served.
                merged.validate()?;
                if let Some(tensor) = merged.first_non_finite() {
                    self.note_integrity_failure();
                    return Err(ServeError::Model(ModelError::NonFinite {
                        tensor: tensor.to_string(),
                    }));
                }
                Ok(TinyLm::try_from(merged)?)
            }
            Weights::File(path) => {
                let ckpt = format::load(path).inspect_err(|e| {
                    if is_integrity_error(e) {
                        self.note_integrity_failure();
                    }
                })?;
                Ok(TinyLm::try_from(ckpt)?)
            }
            // A name is registered (and cached) or unknown: nothing builds it.
            Weights::Named(name) => Err(ServeError::UnknownModel { spec: name.clone() }),
        }
    }

    fn note_integrity_failure(&self) {
        if let Some(m) = self.metrics.get() {
            m.add(Counter::ChecksumFailures, 1);
        }
    }

    /// Evicts the weights a spec decodes with (a pair's target); returns
    /// whether anything was removed. `#kv8` picks a pool, not weights, so
    /// `m#kv8` evicts `m`. The next request for the spec rebuilds it
    /// (hot-swap after a zoo cache update).
    pub(crate) fn evict(&self, spec: &str) -> bool {
        let Ok(spec) = ModelSpec::parse(spec) else {
            return false;
        };
        let mut cache = lock(&self.cache);
        let removed = cache.entries.remove(&spec.target().cache_key()).is_some();
        if removed {
            self.refresh_weights_gauge(&cache);
        }
        removed
    }

    /// Cache keys of every materialized model, sorted.
    #[must_use]
    pub(crate) fn loaded(&self) -> Vec<String> {
        let rows = self.loaded_details();
        rows.into_iter().map(|(key, ..)| key).collect()
    }

    /// `(key, decode dtype, weight bytes)` for every materialized model,
    /// sorted by key — the admin `models` surface.
    #[must_use]
    pub(crate) fn loaded_details(&self) -> Vec<(String, &'static str, u64)> {
        let mut rows: Vec<_> = lock(&self.cache)
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.model.dtype(), e.model.weights_bytes()))
            .collect();
        rows.sort_by(|a, b| a.0.cmp(&b.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_pipeline::zoo::{Quality, ZooConfig};
    use chipalign_tensor::rng::Pcg32;

    fn registry() -> ModelRegistry {
        let zoo = Zoo::new(ZooConfig {
            quality: Quality::Smoke,
            seed: 7,
            cache_dir: None,
        })
        .expect("zoo");
        ModelRegistry::new(zoo)
    }

    impl ModelRegistry {
        /// Bounds the number of cached merges (default 32), clamped to at
        /// least 1.
        fn with_merge_capacity(mut self, capacity: usize) -> Self {
            self.merge_capacity = capacity.max(1);
            self
        }

        /// Configures the shape of paged KV pools handed out by
        /// [`ModelRegistry::kv_pool`]; zero fields are clamped to 1.
        fn with_kv_pool_config(mut self, cfg: KvPoolConfig) -> Self {
            self.kv_pool_cfg = KvPoolConfig {
                block_tokens: cfg.block_tokens.max(1),
                max_blocks: cfg.max_blocks.max(1),
                dtype: cfg.dtype,
            };
            self
        }
    }

    fn random_model(seed: u64) -> TinyLm {
        let mut arch = ArchSpec::tiny("reg");
        arch.vocab_size = 99;
        TinyLm::new(&arch, &mut Pcg32::seed(seed)).expect("model")
    }

    /// One parsed model, or a panic.
    fn one(text: &str) -> Variant {
        match ModelSpec::parse(text).expect("parses") {
            ModelSpec::One(v) => v,
            pair => panic!("{text:?} parsed as a pair: {pair:?}"),
        }
    }

    #[test]
    fn spec_parsing_accepts_the_four_weights() {
        assert_eq!(
            one("instruct-qwen").weights,
            Weights::Zoo(ZooModel::Instruct(Backbone::QwenTiny))
        );
        match one("merge:eda-qwen+instruct-qwen@0.6").weights {
            Weights::Merged {
                chip,
                instruct,
                lambda,
            } => {
                assert_eq!(chip, ZooModel::Eda(Backbone::QwenTiny));
                assert_eq!(instruct, ZooModel::Instruct(Backbone::QwenTiny));
                assert!((lambda - 0.6).abs() < 1e-6);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(matches!(
            one("file:artifacts/zoo/x.calt").weights,
            Weights::File(_)
        ));
        assert_eq!(one("canary").weights, Weights::Named("canary".to_string()));
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        for bad in [
            "merge:eda-qwen+instruct-qwen",
            "merge:eda-qwen+instruct-qwen@1.5",
            "merge:eda-qwen+instruct-qwen@nan",
            "file:",
        ] {
            assert!(
                matches!(ModelSpec::parse(bad), Err(ServeError::BadRequest { .. })),
                "{bad:?}"
            );
        }
        assert!(matches!(
            ModelSpec::parse("merge:bogus+instruct-qwen@0.5"),
            Err(ServeError::UnknownModel { .. })
        ));
        // Any other name parses (it may be registered) but resolves only
        // once registered.
        for unknown in ["no-such-model", "", "#int8"] {
            assert!(
                matches!(
                    registry().resolve_str(unknown),
                    Err(ServeError::UnknownModel { .. })
                ),
                "{unknown:?}"
            );
        }
    }

    #[test]
    fn spec_parsing_accepts_int8_suffix_on_every_form() {
        assert_eq!(
            one("instruct-qwen#int8"),
            Variant {
                weights: Weights::Zoo(ZooModel::Instruct(Backbone::QwenTiny)),
                int8: true,
                kv8: false,
            }
        );
        let merged = ModelSpec::parse("merge:eda-qwen+instruct-qwen@0.60#int8").expect("ok");
        assert_eq!(merged.key(), "merge:eda-qwen+instruct-qwen@0.6000#int8");
        assert_eq!(
            ModelSpec::parse("file:x.calt#int8").expect("ok").key(),
            "file:x.calt#int8"
        );
    }

    #[test]
    fn spec_parsing_rejects_stacked_int8() {
        assert!(matches!(
            ModelSpec::parse("instruct-qwen#int8#int8"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            registry().resolve_str("no-such-model#int8"),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn parse_never_panics_and_key_is_its_fixed_point() {
        // Strings built from the grammar's pieces, well-formed or not:
        // parse either fails with a spec error or gives a tree that its
        // own key parses back to.
        const SLUGS: &[&str] = &["instruct-qwen", "eda-qwen", "base-large", "bogus", "", " "];
        const LAMBDAS: &[&str] = &[
            "0", "0.6", "0.60", "0.61234", "1", "1.5", "nan", "-0", "1e-5", "",
        ];
        const KS: &[&str] = &["1", "4", "31", "32", "0", "nan", "1.5", "+4", ""];
        const NAMES: &[&str] = &["canary", "can#kv8ary", "a|b", "x+y", "a b", "#", "spec"];
        const PATHS: &[&str] = &["x.calt", "", " a b.calt", "a@b", "a|b", "a#int8b"];
        const SUFFIXES: &[&str] = &["#int8", "#kv8", " ", "#", "\t"];
        const MARKERS: &[&str] = &[
            "merge:",
            "file:",
            "spec:",
            "#int8",
            "#kv8",
            "@",
            "|",
            "+",
            " ",
            "instruct-qwen",
            "0.6",
            "4",
        ];
        fn pick<'a>(rng: &mut Pcg32, from: &[&'a str]) -> &'a str {
            from[rng.below(from.len())]
        }
        fn model(rng: &mut Pcg32) -> String {
            let mut text = match rng.below(5) {
                0 => pick(rng, SLUGS).to_string(),
                1 => format!(
                    "merge:{}+{}@{}",
                    pick(rng, SLUGS),
                    pick(rng, SLUGS),
                    pick(rng, LAMBDAS)
                ),
                2 => format!("file:{}", pick(rng, PATHS)),
                3 => pick(rng, NAMES).to_string(),
                _ => (0..rng.range(1, 6)).map(|_| pick(rng, MARKERS)).collect(),
            };
            for _ in 0..rng.below(4) {
                text.push_str(pick(rng, SUFFIXES));
            }
            text
        }
        let mut rng = Pcg32::seed(38);
        let (mut parsed, mut pairs, mut merges) = (0, 0, 0);
        for case in 0..12_000 {
            let mut text = model(&mut rng);
            if rng.chance(0.3) {
                text = format!("spec:{text}|{}@{}", model(&mut rng), pick(&mut rng, KS));
            }
            if rng.chance(0.2) {
                let at = rng.below(text.len() + 1);
                if text.is_char_boundary(at) {
                    text.insert_str(at, pick(&mut rng, MARKERS));
                }
            }
            match ModelSpec::parse(&text) {
                Ok(tree) => {
                    parsed += 1;
                    pairs += usize::from(matches!(tree, ModelSpec::Pair { .. }));
                    merges += usize::from(matches!(tree.target().weights, Weights::Merged { .. }));
                    let key = tree.key();
                    let again = ModelSpec::parse(&key).ok();
                    assert_eq!(
                        again.as_ref(),
                        Some(&tree),
                        "case {case}: {text:?} -> {key:?}"
                    );
                    assert_eq!(again.map(|t| t.key()), Some(key), "case {case}: {text:?}");
                }
                Err(ServeError::BadRequest { .. } | ServeError::UnknownModel { .. }) => {}
                Err(other) => panic!("case {case}: {text:?} failed with {other:?}"),
            }
        }
        assert!(parsed > 2_000, "only {parsed} of 12000 cases parsed");
        assert!(
            pairs > 100 && merges > 100,
            "{pairs} pairs, {merges} merges"
        );
    }

    #[test]
    fn canonical_keys_and_pool_dtypes_are_pinned() {
        let dir = std::env::temp_dir().join(format!("chipalign-reg-keys-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("pinned.calt");
        let ckpt = random_model(40).to_checkpoint().expect("ckpt");
        format::save(&ckpt, &path).expect("save");
        let file = format!("file:{}", path.display());
        let reg = registry();
        reg.register("canary", random_model(41));
        for base in ["canary", file.as_str()] {
            for (suffix, canonical) in [
                ("", ""),
                ("#int8", "#int8"),
                ("#kv8", "#kv8"),
                ("#int8#kv8", "#int8#kv8"),
                ("#kv8#int8", "#int8#kv8"),
            ] {
                let (key, model) = reg
                    .resolve_str(&format!("{base}{suffix}"))
                    .expect("resolves");
                assert_eq!(key, format!("{base}{canonical}"));
                let weights = if suffix.contains("#int8") {
                    "int8"
                } else {
                    "f32"
                };
                assert_eq!(model.dtype(), weights, "{key}");
                let kv = if suffix.contains("#kv8") {
                    KvDtype::Int8
                } else {
                    KvDtype::F32
                };
                assert_eq!(reg.kv_pool_for(&key, &model).dtype(), kv, "{key}");
            }
        }
        let pair = format!("spec:canary#kv8|{file}#int8@3");
        let res = reg
            .resolve_spec_str(&pair)
            .expect("resolves")
            .expect("a pair");
        assert_eq!(
            (res.key.as_str(), res.target_key.as_str(), res.k),
            (pair.as_str(), "canary#kv8", 3)
        );
        assert_eq!(res.draft.dtype(), "int8");
        assert_eq!(
            reg.kv_pool_for(&res.target_key, &res.target).dtype(),
            KvDtype::Int8
        );
        assert_eq!(
            reg.kv_pool_for(&res.key, &res.target).dtype(),
            KvDtype::Int8
        );
        assert_eq!(reg.resolve_str(&pair).expect("resolves").0, pair);
        let mut cached = vec![
            "canary".to_string(),
            "canary#int8".to_string(),
            file.clone(),
            format!("{file}#int8"),
        ];
        cached.sort();
        assert_eq!(reg.loaded(), cached, "#kv8 never has a cache entry");
        for (spec, key) in [
            ("instruct-qwen", "instruct-qwen"),
            (" instruct-qwen#int8 ", "instruct-qwen#int8"),
            (
                "merge:eda-qwen+instruct-qwen@0.6",
                "merge:eda-qwen+instruct-qwen@0.6000",
            ),
            (
                "merge:eda-qwen+instruct-qwen@0.60",
                "merge:eda-qwen+instruct-qwen@0.6000",
            ),
            (
                "merge:eda-qwen+instruct-qwen@0.60#int8",
                "merge:eda-qwen+instruct-qwen@0.6000#int8",
            ),
        ] {
            assert_eq!(ModelSpec::parse(spec).expect("parses").key(), key);
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn registered_name_int8_resolves_to_quantized_clone() {
        let reg = registry();
        reg.register("canary", random_model(9));
        let (key, q) = reg.resolve_str("canary#int8").expect("quantized variant");
        assert_eq!(key, "canary#int8");
        assert_eq!(q.dtype(), "int8");
        let (_, base) = reg.resolve_str("canary").expect("base");
        assert_eq!(
            base.dtype(),
            "f32",
            "quantizing a clone leaves the base f32"
        );
        assert!(q.weights_bytes() < base.weights_bytes());
        assert_eq!(
            reg.loaded(),
            vec!["canary".to_string(), "canary#int8".to_string()]
        );
        // Second resolve hits the cache: same allocation.
        let (_, again) = reg.resolve_str("canary#int8").expect("cached");
        assert!(Arc::ptr_eq(&q, &again));
    }

    #[test]
    fn registered_name_int8_does_not_deadlock_on_the_cache_mutex() {
        // The first `<registered>#int8` resolve reads the cache and then
        // inserts into it; holding the read guard across the insert locks a
        // `std::sync::Mutex` twice on one thread. Resolve on a helper
        // thread so that bug fails this test instead of hanging the suite
        // (the helper is joined only once it is known to have returned).
        let reg = Arc::new(registry());
        reg.register("canary", random_model(9));
        let (tx, rx) = std::sync::mpsc::channel();
        let helper = {
            let reg = Arc::clone(&reg);
            std::thread::spawn(move || {
                let resolved = reg.resolve_str("canary#int8");
                let _ = tx.send(resolved.map(|(key, m)| (key, m.dtype())));
            })
        };
        let (key, dtype) = rx
            .recv_timeout(std::time::Duration::from_secs(20))
            .expect("resolve_str(\"canary#int8\") never returned: cache mutex self-deadlock")
            .expect("quantized variant");
        helper.join().expect("helper thread");
        assert_eq!((key.as_str(), dtype), ("canary#int8", "int8"));
    }

    #[test]
    fn quantized_zoo_spec_caches_the_f32_base_too() {
        let reg = registry();
        let (key, q) = reg.resolve_str("instruct-qwen#int8").expect("resolve");
        assert_eq!(key, "instruct-qwen#int8");
        assert_eq!(q.dtype(), "int8");
        let loaded = reg.loaded();
        assert!(
            loaded.contains(&"instruct-qwen".to_string()),
            "f32 ingredient resolves through the cache and stays shared"
        );
        assert!(loaded.contains(&"instruct-qwen#int8".to_string()));
    }

    #[test]
    fn weights_gauge_tracks_cache_contents() {
        let reg = registry();
        let metrics = Arc::new(Metrics::new());
        reg.attach_metrics(Arc::clone(&metrics));
        let base = reg.register("canary", random_model(11));
        assert_eq!(metrics.snapshot().weights_bytes, base.weights_bytes());
        let (_, q) = reg.resolve_str("canary#int8").expect("quantize");
        assert_eq!(
            metrics.snapshot().weights_bytes,
            base.weights_bytes() + q.weights_bytes()
        );
        assert!(reg.evict("canary#int8"));
        assert_eq!(metrics.snapshot().weights_bytes, base.weights_bytes());
        let details = reg.loaded_details();
        assert_eq!(details.len(), 1);
        assert_eq!(details[0].0, "canary");
        assert_eq!(details[0].1, "f32");
        assert_eq!(details[0].2, base.weights_bytes());
    }

    #[test]
    fn merged_keys_normalize_lambda_formatting() {
        let a = ModelSpec::parse("merge:eda-qwen+instruct-qwen@0.6").expect("ok");
        let b = ModelSpec::parse("merge:eda-qwen+instruct-qwen@0.60").expect("ok");
        assert_eq!(a.key(), b.key());
        assert_eq!(a.key(), "merge:eda-qwen+instruct-qwen@0.6000");
    }

    #[test]
    fn registered_models_resolve_by_name_and_evict() {
        let reg = registry();
        reg.register("canary", random_model(3));
        let (key, m) = reg.resolve_str("canary").expect("ok");
        assert_eq!(key, "canary");
        assert_eq!(m.arch().name, "reg");
        assert_eq!(reg.loaded(), vec!["canary".to_string()]);
        assert!(reg.evict("canary"));
        assert!(!reg.evict("canary"));
        assert!(reg.loaded().is_empty());
    }

    #[test]
    fn corrupt_file_spec_is_rejected_and_counted() {
        let dir = std::env::temp_dir().join("chipalign-reg-corrupt");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("damaged.calt");
        let ckpt = random_model(5).to_checkpoint().expect("ckpt");
        let mut bytes = format::encode(&ckpt).to_vec();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).expect("write");

        let reg = registry();
        let metrics = Arc::new(Metrics::new());
        reg.attach_metrics(Arc::clone(&metrics));
        let spec = format!("file:{}", path.display());
        let err = reg.resolve_str(&spec);
        assert!(
            matches!(err, Err(ServeError::Model(ModelError::Corrupt { .. }))),
            "got {err:?}"
        );
        assert_eq!(metrics.snapshot().checksum_failures, 1);
        assert!(reg.loaded().is_empty(), "damaged model must not be cached");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_resolves_of_one_merge_build_it_once() {
        let reg = registry();
        let spec = one("merge:eda-qwen+instruct-qwen@0.5");
        let barrier = std::sync::Barrier::new(4);
        let models: Vec<Arc<TinyLm>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        reg.resolve(&spec).expect("resolve")
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        for m in &models[1..] {
            assert!(
                Arc::ptr_eq(&models[0], m),
                "every concurrent resolver must share one materialization"
            );
        }
        assert_eq!(
            reg.loaded(),
            vec!["merge:eda-qwen+instruct-qwen@0.5000".to_string()]
        );
    }

    #[test]
    fn merge_cache_is_bounded_and_evictions_are_counted() {
        let reg = registry().with_merge_capacity(2);
        let metrics = Arc::new(Metrics::new());
        reg.attach_metrics(Arc::clone(&metrics));
        reg.register("canary", random_model(3));
        let spec = |l: &str| one(&format!("merge:eda-qwen+instruct-qwen@{l}"));
        reg.resolve(&spec("0.1")).expect("ok");
        reg.resolve(&spec("0.2")).expect("ok");
        // Touch 0.1 so 0.2 becomes the least-recently-used merge.
        reg.resolve(&spec("0.1")).expect("ok");
        reg.resolve(&spec("0.3")).expect("ok");
        let loaded = reg.loaded();
        let key = |l: &str| format!("merge:eda-qwen+instruct-qwen@{l}000");
        assert!(loaded.contains(&key("0.1")), "recently used merge kept");
        assert!(loaded.contains(&key("0.3")), "newest merge kept");
        assert!(!loaded.contains(&key("0.2")), "LRU merge evicted");
        assert!(
            loaded.contains(&"canary".to_string()),
            "non-merge entries are exempt from the merge bound"
        );
        assert_eq!(metrics.snapshot().merge_evictions, 1);
        // A quantized merge counts toward the bound too: 0.3's int8 clone
        // pushes out 0.1, the least recently used.
        reg.resolve(&spec("0.3#int8")).expect("ok");
        let loaded = reg.loaded();
        assert!(loaded.contains(&format!("{}#int8", key("0.3"))));
        assert!(loaded.contains(&key("0.3")), "its f32 base was just used");
        assert!(!loaded.contains(&key("0.1")), "LRU merge evicted");
        assert_eq!(metrics.snapshot().merge_evictions, 2);
    }

    #[test]
    fn kv_pools_are_per_model_allocation_and_die_with_their_model() {
        let reg = registry().with_kv_pool_config(KvPoolConfig {
            block_tokens: 8,
            max_blocks: 64,
            ..KvPoolConfig::default()
        });
        let a = reg.register("pool-a", random_model(1));
        let b = reg.register("pool-b", random_model(2));
        let pool_a = reg.kv_pool(&a);
        assert!(
            Arc::ptr_eq(&pool_a, &reg.kv_pool(&a)),
            "same allocation, same pool"
        );
        assert!(
            !Arc::ptr_eq(&pool_a, &reg.kv_pool(&b)),
            "each model allocation gets its own pool"
        );
        assert_eq!(pool_a.block_tokens(), 8);
        assert_eq!(pool_a.max_blocks(), 64);
        // Dropping every handle to a model prunes its pool slot.
        assert!(reg.evict("pool-a"));
        drop(a);
        let _ = reg.kv_pool(&b); // access prunes dead weak keys
        assert_eq!(
            reg.kv_pools
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .len(),
            1
        );
    }

    #[test]
    fn kv8_suffix_marks_the_key_but_shares_the_base_model() {
        let reg = registry();
        let base = reg.register("canary", random_model(21));
        let (key, m) = reg.resolve_str("canary#kv8").expect("kv8 variant");
        assert_eq!(key, "canary#kv8");
        assert!(Arc::ptr_eq(&m, &base), "#kv8 must not clone the weights");
        assert_eq!(
            reg.loaded(),
            vec!["canary".to_string()],
            "no cache entry under the #kv8 key"
        );
        assert_eq!(reg.kv_pool_for(&key, &m).dtype(), KvDtype::Int8);
        assert_eq!(reg.kv_pool_for("canary", &m).dtype(), KvDtype::F32);
    }

    #[test]
    fn evicting_a_kv8_spec_evicts_the_weights_it_decodes_with() {
        let reg = registry();
        reg.register("canary", random_model(21));
        reg.register("drafty", random_model(22));
        reg.resolve_str("canary#int8#kv8")
            .expect("int8 + kv8 variant");
        assert_eq!(reg.loaded(), ["canary", "canary#int8", "drafty"]);
        assert!(reg.evict("canary#kv8#int8"), "evicts canary#int8");
        assert_eq!(reg.loaded(), ["canary", "drafty"]);
        assert!(
            reg.evict("spec:canary#kv8|drafty@2"),
            "a pair evicts its target"
        );
        assert_eq!(reg.loaded(), ["drafty"]);
        assert!(!reg.evict("canary#kv8"), "nothing left to evict");
    }

    #[test]
    fn kv8_composes_with_int8_in_either_order() {
        let reg = registry();
        reg.register("canary", random_model(22));
        let (a_key, a) = reg.resolve_str("canary#int8#kv8").expect("suffix order");
        let (b_key, b) = reg.resolve_str("canary#kv8#int8").expect("swapped order");
        assert_eq!(a_key, "canary#int8#kv8", "canonical order is #int8#kv8");
        assert_eq!(b_key, a_key, "both orders share one canonical key");
        assert!(Arc::ptr_eq(&a, &b), "both orders share one quantized clone");
        assert_eq!(a.dtype(), "int8");
    }

    #[test]
    fn stacked_or_buried_kv8_is_rejected() {
        let reg = registry();
        reg.register("canary", random_model(23));
        assert!(matches!(
            reg.resolve_str("canary#kv8#kv8"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            reg.resolve_str("canary#kv8#int8#kv8"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            reg.resolve_str("can#kv8ary"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            reg.resolve_str("no-such-model#kv8"),
            Err(ServeError::UnknownModel { .. })
        ));
    }

    #[test]
    fn kv_pools_are_keyed_by_dtype_within_one_model() {
        let reg = registry();
        let m = reg.register("canary", random_model(24));
        let f32_pool = reg.kv_pool_for("canary", &m);
        let kv8_pool = reg.kv_pool_for("canary#kv8", &m);
        assert!(
            !Arc::ptr_eq(&f32_pool, &kv8_pool),
            "f32 and int8 sessions must not share a pool"
        );
        assert_eq!(f32_pool.dtype(), KvDtype::F32);
        assert_eq!(kv8_pool.dtype(), KvDtype::Int8);
        assert!(
            Arc::ptr_eq(&kv8_pool, &reg.kv_pool_for("canary#kv8", &m)),
            "same (allocation, dtype), same pool"
        );
        assert!(
            Arc::ptr_eq(&f32_pool, &reg.kv_pool(&m)),
            "kv_pool() is the configured-default-dtype pool"
        );
    }

    #[test]
    fn spec_specs_resolve_both_models_and_canonicalize() {
        let reg = registry();
        let target = reg.register("tgt", random_model(31));
        let draft = reg.register("drafty", random_model(32));
        let res = reg
            .resolve_spec_str("spec:tgt|drafty@4")
            .expect("resolve")
            .expect("has spec: prefix");
        assert_eq!(res.key, "spec:tgt|drafty@4");
        assert_eq!(res.target_key, "tgt");
        assert_eq!(res.k, 4);
        assert!(Arc::ptr_eq(&res.target, &target));
        assert!(Arc::ptr_eq(&res.draft, &draft));
        // Non-speculative specs fall through as None.
        assert!(reg.resolve_spec_str("tgt").expect("plain").is_none());
        // `resolve_str` serves the same grammar, returning the target (a
        // `load` of the spec key warms both ingredients).
        let (key, m) = reg.resolve_str("spec:tgt|drafty@4").expect("resolve_str");
        assert_eq!(key, "spec:tgt|drafty@4");
        assert!(Arc::ptr_eq(&m, &target));
    }

    #[test]
    fn spec_specs_bind_k_to_the_last_at_sign() {
        let reg = registry();
        let res = reg
            .resolve_spec_str("spec:merge:eda-qwen+instruct-qwen@0.60|instruct-qwen@2")
            .expect("resolve")
            .expect("speculative");
        assert_eq!(
            res.key, "spec:merge:eda-qwen+instruct-qwen@0.6000|instruct-qwen@2",
            "merge λ normalizes inside the target segment, k binds last"
        );
        assert_eq!(res.target_key, "merge:eda-qwen+instruct-qwen@0.6000");
        assert_eq!(res.k, 2);
        let loaded = reg.loaded();
        assert!(
            loaded.contains(&"merge:eda-qwen+instruct-qwen@0.6000".to_string()),
            "target cached under its own key"
        );
        assert!(
            loaded.contains(&"instruct-qwen".to_string()),
            "draft warmed too"
        );
    }

    #[test]
    fn spec_specs_validate_shape_k_and_vocab() {
        let reg = registry();
        reg.register("tgt", random_model(33));
        reg.register("drafty", random_model(34));
        for bad in [
            "spec:tgt|drafty",       // no @k
            "spec:tgt@4",            // no |draft
            "spec:tgt|drafty@zero",  // unparsable k
            "spec:tgt|drafty@0",     // k below 1
            "spec:tgt|spec:a|b@2@4", // nested speculation
        ] {
            assert!(
                matches!(
                    reg.resolve_spec_str(bad),
                    Err(ServeError::BadRequest { .. })
                ),
                "{bad:?} must be rejected"
            );
        }
        let too_long = format!("spec:tgt|drafty@{}", SPEC_K_MAX + 1);
        assert!(matches!(
            reg.resolve_spec_str(&too_long),
            Err(ServeError::BadRequest { .. })
        ));
        let ok = format!("spec:tgt|drafty@{SPEC_K_MAX}");
        assert!(reg.resolve_spec_str(&ok).expect("resolve").is_some());
        assert!(matches!(
            reg.resolve_spec_str("spec:tgt|no-such-model@2"),
            Err(ServeError::UnknownModel { .. })
        ));
        // A draft with a different vocabulary can never be verified.
        let mut arch = ArchSpec::tiny("reg");
        arch.vocab_size = 98;
        let small = TinyLm::new(&arch, &mut Pcg32::seed(35)).expect("model");
        reg.register("small-vocab", small);
        assert!(matches!(
            reg.resolve_spec_str("spec:tgt|small-vocab@2"),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn kv_dtype_routing_follows_the_spec_target_segment() {
        let reg = registry();
        let m = reg.register("tgt", random_model(36));
        let dtype = |key: &str| reg.kv_pool_for(key, &m).dtype();
        assert_eq!(dtype("spec:tgt#kv8|drafty@4"), KvDtype::Int8);
        assert_eq!(dtype("spec:tgt|drafty#kv8@4"), KvDtype::F32);
        assert_eq!(dtype("spec:tgt|drafty@4"), KvDtype::F32);
    }

    #[test]
    fn all_zoo_models_have_unique_slugs() {
        let models = all_zoo_models();
        assert_eq!(models.len(), 11);
        let mut slugs: Vec<String> = models.iter().map(|m| m.slug()).collect();
        slugs.sort();
        slugs.dedup();
        assert_eq!(slugs.len(), 11, "slugs must be unique");
        for m in models {
            assert_eq!(zoo_model_from_slug(&m.slug()), Some(m));
        }
    }
}
