//! The model registry: every checkpoint the server can put behind a spec.
//!
//! Three kinds of spec resolve to a servable model:
//!
//! * **Zoo slugs** (`instruct-qwen`, `eda-qwen`, `chipnemo`, …) — trained
//!   on demand by [`chipalign_pipeline::zoo::Zoo`] and loaded from its
//!   on-disk cache (`artifacts/zoo`) when present.
//! * **Geodesic merges** (`merge:<chip>+<instruct>@<λ>`) — materialized on
//!   demand with [`chipalign_merge::GeodesicMerge`] from two zoo
//!   ingredients and cached per λ, so hot-swapping a served model to a new
//!   interpolation point is one `load` request, no restart.
//! * **Checkpoint files** (`file:<path>.calt`) — loaded with
//!   [`chipalign_model::format`].
//! * **Int8 variants** (`<spec>#int8`) — any of the above with the decode
//!   projections quantized to per-row-scaled int8 at load. The f32
//!   ingredient resolves through the same cache first (so it is shared
//!   with f32 traffic), then a quantized clone is cached under its own
//!   `…#int8` key. A quantized merge key still starts with `merge:` and
//!   therefore counts toward, and can be evicted by, the merge bound.
//! * **Int8 KV variants** (`<spec>#kv8`) — any of the above served with an
//!   int8-quantized paged KV pool ([`chipalign_nn::KvDtype::Int8`]).
//!   Unlike `#int8`, the suffix does not change the weights: the base spec
//!   resolves (and is cached) under its own key, and only the *returned*
//!   key carries `#kv8`, which [`ModelRegistry::kv_pool_for`] maps to a
//!   separate int8 pool for the same model allocation. Composes with
//!   `#int8` in either order; the canonical key is `…#int8#kv8`.
//! * **Speculative specs** (`spec:<target>|<draft>@<k>`) — target and
//!   draft are any two of the forms above (their vocabularies must
//!   match). Sessions decode the *target*, with the draft proposing `k`
//!   tokens per round for batched verification
//!   ([`chipalign_nn::SpecDecoder`]); greedy output stays byte-identical
//!   to serving the target alone. Resolving warms both models
//!   ([`ModelRegistry::resolve_spec_str`]); KV pool and dtype selection
//!   follow the target segment, so `spec:m#kv8|d@4` verifies against an
//!   int8 KV pool exactly like plain `m#kv8` traffic.
//!
//! All materialized models live behind `Arc`s in one cache keyed by a
//! canonical spec string; [`ModelRegistry::register`] inserts programmatic
//! models (tests, canaries) under arbitrary names.
//!
//! # Concurrency and bounds
//!
//! Materialization is deduplicated *per key*: concurrent resolves of the
//! same spec elect one builder while the rest wait on a latch and adopt
//! the builder's result, and resolves of *different* specs build in
//! parallel (the old registry serialized every build behind one global
//! lock). If a builder fails, a waiter takes over and retries rather than
//! echoing the stale error. The cache itself is bounded for merge keys:
//! beyond 32 cached merges (a bound tests lower) the
//! least-recently-used `merge:` entry is evicted and counted in the
//! `merge_evictions` metric — a λ-sweep can no longer grow the cache
//! without limit. Zoo slugs and registered names are never evicted.
//!
//! # Integrity
//!
//! The registry never serves a checkpoint it hasn't vetted: merged models
//! are validated ([`Checkpoint::validate`]) and scanned for non-finite
//! weights before they are cached, and a poisoned merge is reported as a
//! structured error rather than entering the cache. With a persist
//! directory configured ([`ModelRegistry::with_persist_dir`]), merges are
//! saved crash-safely and a torn or corrupted persisted file is detected
//! at load, counted in `checksum_failures`, removed, and rebuilt from its
//! ingredients.

use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, Weak};

use chipalign_merge::{GeodesicMerge, Merger};
use chipalign_model::{format, Checkpoint, ModelError};
use chipalign_nn::{KvDtype, KvPool, KvPoolConfig, TinyLm, SPEC_K_MAX};
use chipalign_pipeline::zoo::{Backbone, Zoo, ZooModel};

use crate::metrics::{Counter, Metrics};
use crate::ServeError;

/// Whether a load failure means the bytes on disk are damaged (as opposed
/// to e.g. a plain I/O error), so the file is worth deleting and
/// rebuilding.
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
    let mut models = Vec::new();
    for b in [
        Backbone::QwenTiny,
        Backbone::LlamaTiny,
        Backbone::LlamaLarge,
    ] {
        models.push(ZooModel::Base(b));
        models.push(ZooModel::Instruct(b));
    }
    models.push(ZooModel::Eda(Backbone::QwenTiny));
    models.push(ZooModel::Eda(Backbone::LlamaTiny));
    models.push(ZooModel::ChipNemo);
    models.push(ZooModel::GeneralStrong);
    models.push(ZooModel::RagEda);
    models
}

fn zoo_model_from_slug(slug: &str) -> Option<ZooModel> {
    all_zoo_models().into_iter().find(|m| m.slug() == slug)
}

/// Strips an int8-KV request from a spec string: returns the base spec
/// with the `#kv8` marker removed when present (`None` when the spec does
/// not request int8 KV). `#kv8` composes with `#int8` in either order —
/// the base is normalized to trailing `#int8` so both orders share one
/// cache entry — but stacking `#kv8` twice or burying it mid-spec is
/// rejected.
fn strip_kv8(spec: &str) -> Result<Option<String>, ServeError> {
    match spec.matches("#kv8").count() {
        0 => return Ok(None),
        1 => {}
        _ => {
            return Err(ServeError::BadRequest {
                detail: format!("spec {spec:?} stacks #kv8 more than once"),
            })
        }
    }
    if let Some(base) = spec.strip_suffix("#kv8") {
        return Ok(Some(base.to_string()));
    }
    if let Some(tail) = spec.strip_suffix("#int8") {
        if let Some(base) = tail.strip_suffix("#kv8") {
            return Ok(Some(format!("{base}#int8")));
        }
    }
    Err(ServeError::BadRequest {
        detail: format!("#kv8 must suffix the spec, got {spec:?}"),
    })
}

/// A parsed model specification.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ModelSpec {
    /// A zoo model by slug.
    Zoo(ZooModel),
    /// A ChipAlign geodesic merge of two zoo models at `lambda`.
    Merged {
        /// The domain-adapted ingredient (first merge argument).
        chip: ZooModel,
        /// The instruction-aligned ingredient.
        instruct: ZooModel,
        /// The interpolation point in `[0, 1]`.
        lambda: f32,
    },
    /// A checkpoint file in the crate's `.calt` format.
    File(PathBuf),
    /// An int8-quantized variant of another spec (`<spec>#int8`).
    Quantized(Box<ModelSpec>),
}

impl ModelSpec {
    /// Parses a spec string.
    ///
    /// Grammar: `<zoo-slug>` | `merge:<chip-slug>+<instruct-slug>@<λ>` |
    /// `file:<path>`, each optionally suffixed `#int8` for the quantized
    /// variant.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownModel`] for unknown slugs and
    /// [`ServeError::BadRequest`] for malformed merge specs or a stacked
    /// `#int8#int8` suffix.
    pub(crate) fn parse(spec: &str) -> Result<Self, ServeError> {
        let spec = spec.trim();
        if let Some(inner) = spec.strip_suffix("#int8") {
            if inner.ends_with("#int8") {
                return Err(ServeError::BadRequest {
                    detail: format!("spec {spec:?} stacks #int8 more than once"),
                });
            }
            return Ok(ModelSpec::Quantized(Box::new(ModelSpec::parse(inner)?)));
        }
        if let Some(path) = spec.strip_prefix("file:") {
            if path.is_empty() {
                return Err(ServeError::BadRequest {
                    detail: "file: spec needs a path".into(),
                });
            }
            return Ok(ModelSpec::File(PathBuf::from(path)));
        }
        if let Some(rest) = spec.strip_prefix("merge:") {
            let (pair, lambda_str) =
                rest.rsplit_once('@')
                    .ok_or_else(|| ServeError::BadRequest {
                        detail: format!("merge spec {spec:?} needs `@<lambda>`"),
                    })?;
            let (chip_slug, instruct_slug) =
                pair.split_once('+').ok_or_else(|| ServeError::BadRequest {
                    detail: format!("merge spec {spec:?} needs `<chip>+<instruct>`"),
                })?;
            let chip = zoo_model_from_slug(chip_slug).ok_or_else(|| ServeError::UnknownModel {
                spec: chip_slug.to_string(),
            })?;
            let instruct =
                zoo_model_from_slug(instruct_slug).ok_or_else(|| ServeError::UnknownModel {
                    spec: instruct_slug.to_string(),
                })?;
            let lambda: f32 = lambda_str.parse().map_err(|_| ServeError::BadRequest {
                detail: format!("bad lambda {lambda_str:?} in {spec:?}"),
            })?;
            if !lambda.is_finite() || !(0.0..=1.0).contains(&lambda) {
                return Err(ServeError::BadRequest {
                    detail: format!("lambda must lie in [0, 1], got {lambda}"),
                });
            }
            return Ok(ModelSpec::Merged {
                chip,
                instruct,
                lambda,
            });
        }
        zoo_model_from_slug(spec)
            .map(ModelSpec::Zoo)
            .ok_or_else(|| ServeError::UnknownModel {
                spec: spec.to_string(),
            })
    }

    /// The canonical cache key (λ normalized to four decimals so `0.6` and
    /// `0.60` hit the same entry).
    #[must_use]
    pub(crate) fn key(&self) -> String {
        match self {
            ModelSpec::Zoo(m) => m.slug(),
            ModelSpec::Merged {
                chip,
                instruct,
                lambda,
            } => format!("merge:{}+{}@{:.4}", chip.slug(), instruct.slug(), lambda),
            ModelSpec::File(p) => format!("file:{}", p.display()),
            ModelSpec::Quantized(inner) => format!("{}#int8", inner.key()),
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

/// One cached model plus its LRU stamp (bumped on every hit; only merge
/// keys are ever evicted by stamp).
struct CacheEntry {
    model: Arc<TinyLm>,
    stamp: u64,
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
        let stamp = self.clock;
        let entry = self.entries.get_mut(key)?;
        entry.stamp = stamp;
        Some(Arc::clone(&entry.model))
    }

    fn insert(&mut self, key: String, model: Arc<TinyLm>) {
        self.clock += 1;
        let stamp = self.clock;
        self.entries.insert(key, CacheEntry { model, stamp });
    }

    fn merge_count(&self) -> usize {
        self.entries
            .keys()
            .filter(|k| k.starts_with("merge:"))
            .count()
    }

    /// Removes the least-recently-used `merge:` entry; returns whether one
    /// existed. Non-merge entries (zoo slugs, registered names) are never
    /// victims.
    fn evict_lru_merge(&mut self) -> bool {
        let victim = self
            .entries
            .iter()
            .filter(|(k, _)| k.starts_with("merge:"))
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| k.clone());
        match victim {
            Some(key) => {
                self.entries.remove(&key);
                true
            }
            None => false,
        }
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
    /// Most `merge:` entries kept in the cache before LRU eviction.
    merge_capacity: usize,
    /// When set, merged checkpoints are persisted here (crash-safely) and
    /// reloaded instead of re-merged on later resolves.
    persist_dir: Option<PathBuf>,
    /// Attached by the server so integrity failures show up in
    /// `checksum_failures`; absent in library use.
    metrics: OnceLock<Arc<Metrics>>,
    /// One paged KV pool per (model *allocation*, KV dtype), created
    /// lazily by [`ModelRegistry::kv_pool`] /
    /// [`ModelRegistry::kv_pool_for`] — f32 and `#kv8` traffic against the
    /// same weights draw from separate pools. Keys are weak so an evicted
    /// model's pools die with their last session; dead slots are pruned on
    /// access.
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
        let mut building = self
            .registry
            .building
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        building.remove(self.key);
        self.registry.build_ready.notify_all();
    }
}

impl std::fmt::Debug for ModelRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "ModelRegistry({:?}, {} cached)",
            self.zoo,
            self.loaded().len()
        )
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
            persist_dir: None,
            metrics: OnceLock::new(),
            kv_pools: Mutex::new(Vec::new()),
            kv_pool_cfg: KvPoolConfig::default(),
        }
    }

    /// Bounds the number of cached `merge:` models (default 32). Beyond
    /// it the least-recently-used merge is evicted (and counted in
    /// `merge_evictions`); the next resolve of an evicted λ rebuilds it —
    /// or reloads it from the persist directory when one is configured.
    /// Clamped to at least 1. Zoo slugs and registered names are exempt.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_merge_capacity(mut self, capacity: usize) -> Self {
        self.merge_capacity = capacity.max(1);
        self
    }

    /// Configures a directory where merged checkpoints are persisted
    /// (crash-safely, via write-to-temp-then-rename) and reloaded from on
    /// later resolves instead of re-merging. The directory is created if
    /// missing; a torn or corrupted persisted file is detected at load,
    /// removed, and rebuilt from its ingredients.
    #[must_use]
    pub fn with_persist_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let _ = std::fs::create_dir_all(&dir);
        self.persist_dir = Some(dir);
        self
    }

    /// Configures the shape of paged KV pools handed out by
    /// [`ModelRegistry::kv_pool`] (block size and per-model block
    /// capacity). Zero fields are clamped to 1. Pools already created keep
    /// their old shape, so call this before serving traffic.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_kv_pool_config(mut self, cfg: KvPoolConfig) -> Self {
        self.kv_pool_cfg = KvPoolConfig {
            block_tokens: cfg.block_tokens.max(1),
            max_blocks: cfg.max_blocks.max(1),
            dtype: cfg.dtype,
        };
        self
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

    /// The KV dtype sessions resolved under `key` should use: canonical
    /// `…#kv8` keys get int8 KV, everything else the configured default.
    /// For `spec:` keys the *target* segment decides — the draft keeps its
    /// own private cache and never touches a shared pool.
    #[must_use]
    pub(crate) fn kv_dtype_for(&self, key: &str) -> KvDtype {
        if Self::spec_target_segment(key).ends_with("#kv8") {
            KvDtype::Int8
        } else {
            self.kv_pool_cfg.dtype
        }
    }

    /// The target segment of a canonical `spec:` key (the whole key when
    /// it is not speculative). KV pool and dtype routing follow it.
    fn spec_target_segment(key: &str) -> &str {
        key.strip_prefix("spec:")
            .and_then(|rest| rest.split_once('|'))
            .map_or(key, |(target, _)| target)
    }

    /// Like [`ModelRegistry::kv_pool`], but honours a `#kv8` suffix on the
    /// canonical key returned by [`ModelRegistry::resolve_str`] — the
    /// server's session-pool lookup.
    #[must_use]
    pub fn kv_pool_for(&self, key: &str, model: &Arc<TinyLm>) -> Arc<KvPool> {
        self.pool_with_dtype(model, self.kv_dtype_for(key))
    }

    fn pool_with_dtype(&self, model: &Arc<TinyLm>, dtype: KvDtype) -> Arc<KvPool> {
        let mut pools = self.kv_pools.lock().unwrap_or_else(PoisonError::into_inner);
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
        let cache = self.cache_lock();
        self.refresh_weights_gauge(&cache);
    }

    /// Locks the model cache, recovering from poisoning: cache mutations
    /// are single map operations that cannot be observed half-done, so the
    /// map is always consistent even if a panic interrupted a previous
    /// holder.
    fn cache_lock(&self) -> MutexGuard<'_, ModelCache> {
        self.cache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Cache lookup that releases the lock before returning: a
    /// `cache_lock().get(..)` written straight into an `if let` scrutinee
    /// keeps its guard alive to the end of the block, which deadlocks the
    /// moment that block calls [`Self::cache_insert`].
    fn cache_get(&self, key: &str) -> Option<Arc<TinyLm>> {
        self.cache_lock().get(key)
    }

    /// Inserts into the cache and restores the merge-capacity bound,
    /// counting any evictions.
    fn cache_insert(&self, key: String, model: Arc<TinyLm>) {
        let mut cache = self.cache_lock();
        cache.insert(key, model);
        while cache.merge_count() > self.merge_capacity {
            if !cache.evict_lru_merge() {
                break;
            }
            if let Some(m) = self.metrics.get() {
                m.add(Counter::MergeEvictions, 1);
            }
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

    /// Registers a model under an arbitrary name (hot-swap path for
    /// programmatically built checkpoints), replacing any previous entry.
    pub fn register(&self, name: &str, model: TinyLm) -> Arc<TinyLm> {
        let arc = Arc::new(model);
        self.cache_insert(name.to_string(), Arc::clone(&arc));
        arc
    }

    /// Resolves a spec string to a servable model, materializing it on
    /// first use. Returns the canonical key together with the model.
    ///
    /// # Errors
    ///
    /// Returns spec-parse errors, and forwards zoo-training, merge, and
    /// checkpoint-I/O failures.
    pub fn resolve_str(&self, spec: &str) -> Result<(String, Arc<TinyLm>), ServeError> {
        // Registered names take priority and need no parse.
        let trimmed = spec.trim();
        if let Some(m) = self.cache_get(trimmed) {
            return Ok((trimmed.to_string(), m));
        }
        // `spec:` keys resolve to their *target* model (the draft is warmed
        // too, so a `load` request readies both); sessions that want the
        // draft pairing go through `resolve_spec_str` instead.
        if trimmed.starts_with("spec:") {
            let res = self
                .resolve_spec_str(trimmed)?
                .expect("spec: prefix was just checked");
            return Ok((res.key, res.target));
        }
        // `#kv8` selects the int8 KV pool, not different weights: resolve
        // (and cache) the base spec under its own key, and only the
        // returned key carries the suffix — no `…#kv8` cache entry, so the
        // weights gauge never double-counts the shared allocation.
        if let Some(base) = strip_kv8(trimmed)? {
            let (key, model) = self.resolve_str(&base)?;
            return Ok((format!("{key}#kv8"), model));
        }
        let parsed = match ModelSpec::parse(trimmed) {
            Ok(parsed) => parsed,
            Err(err) => {
                // `<registered-name>#int8`: a quantized variant of a model
                // that was registered programmatically, so the inner name
                // has no spec grammar. Two concurrent callers may both
                // quantize; the second insert wins — same bytes either way.
                if let Some(inner) = trimmed.strip_suffix("#int8") {
                    if let Some(base) = self.cache_get(inner) {
                        let mut model = (*base).clone();
                        model.quantize();
                        let arc = Arc::new(model);
                        self.cache_insert(trimmed.to_string(), Arc::clone(&arc));
                        return Ok((trimmed.to_string(), arc));
                    }
                }
                return Err(err);
            }
        };
        let model = self.resolve(&parsed)?;
        Ok((parsed.key(), model))
    }

    /// Resolves a speculative-decoding spec, `spec:<target>|<draft>@<k>`.
    ///
    /// Returns `Ok(None)` when `spec` has no `spec:` prefix — callers that
    /// accept both plain and speculative specs try this first and fall
    /// through to [`ModelRegistry::resolve_str`]. Target and draft are any
    /// two non-speculative specs (zoo slugs, merges, files, registered
    /// names, `#int8`/`#kv8` variants); `@<k>` binds to the *last* `@`, so
    /// merge λs inside the target parse unambiguously. Both models
    /// materialize through the shared cache.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::BadRequest`] for a malformed pairing, a draft
    /// length outside `[1, SPEC_K_MAX]`, or a draft whose vocabulary
    /// differs from the target's (its proposals could never be verified),
    /// and forwards resolution failures of either ingredient.
    pub fn resolve_spec_str(&self, spec: &str) -> Result<Option<SpecResolution>, ServeError> {
        let trimmed = spec.trim();
        let Some(rest) = trimmed.strip_prefix("spec:") else {
            return Ok(None);
        };
        let (pair, k_str) = rest
            .rsplit_once('@')
            .ok_or_else(|| ServeError::BadRequest {
                detail: format!("speculative spec {trimmed:?} needs `@<k>`"),
            })?;
        let (target_spec, draft_spec) =
            pair.split_once('|').ok_or_else(|| ServeError::BadRequest {
                detail: format!("speculative spec {trimmed:?} needs `<target>|<draft>`"),
            })?;
        if target_spec.starts_with("spec:") || draft_spec.starts_with("spec:") {
            return Err(ServeError::BadRequest {
                detail: format!("speculative specs do not nest, got {trimmed:?}"),
            });
        }
        let k: usize = k_str.parse().map_err(|_| ServeError::BadRequest {
            detail: format!("bad draft length {k_str:?} in {trimmed:?}"),
        })?;
        if !(1..=SPEC_K_MAX).contains(&k) {
            return Err(ServeError::BadRequest {
                detail: format!("draft length must lie in [1, {SPEC_K_MAX}], got {k}"),
            });
        }
        let (target_key, target) = self.resolve_str(target_spec)?;
        let (draft_key, draft) = self.resolve_str(draft_spec)?;
        if draft.arch().vocab_size != target.arch().vocab_size {
            return Err(ServeError::BadRequest {
                detail: format!(
                    "draft vocab ({}) must match target vocab ({})",
                    draft.arch().vocab_size,
                    target.arch().vocab_size
                ),
            });
        }
        Ok(Some(SpecResolution {
            key: format!("spec:{target_key}|{draft_key}@{k}"),
            target_key,
            target,
            draft,
            k,
        }))
    }

    /// Resolves a parsed spec, materializing it on first use.
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
    pub(crate) fn resolve(&self, spec: &ModelSpec) -> Result<Arc<TinyLm>, ServeError> {
        let key = spec.key();
        loop {
            if let Some(m) = self.cache_get(&key) {
                return Ok(m);
            }
            let mut building = self.building.lock().unwrap_or_else(PoisonError::into_inner);
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
        self.cache_insert(key.clone(), Arc::clone(&built));
        Ok(built)
    }

    fn materialize(&self, spec: &ModelSpec, key: &str) -> Result<TinyLm, ServeError> {
        #[cfg(feature = "fault-inject")]
        {
            if crate::faults::should_fire(crate::faults::Site::RegistryResolve, key) {
                return Err(ServeError::Internal {
                    detail: format!("injected registry load failure for {key}"),
                });
            }
        }
        match spec {
            ModelSpec::Zoo(m) => Ok(self.zoo.model(*m)?),
            ModelSpec::Merged {
                chip,
                instruct,
                lambda,
            } => {
                if let Some(model) = self.load_persisted(key)? {
                    return Ok(model);
                }
                let chip_ckpt = self.zoo.model(*chip)?.to_checkpoint()?;
                let instruct_ckpt = self.zoo.model(*instruct)?.to_checkpoint()?;
                #[cfg_attr(not(feature = "fault-inject"), allow(unused_mut))]
                let mut merged =
                    GeodesicMerge::new(*lambda)?.merge_pair(&chip_ckpt, &instruct_ckpt)?;
                #[cfg(feature = "fault-inject")]
                {
                    if crate::faults::should_fire(crate::faults::Site::MergePoison, key) {
                        if let Some(t) = merged.get_mut("model.norm.weight") {
                            t.data_mut()[0] = f32::NAN;
                        }
                    }
                }
                // Vet the merge before it can reach the cache or disk: a
                // poisoned checkpoint is reported, never served.
                merged.validate()?;
                if let Some(tensor) = merged.first_non_finite() {
                    self.note_integrity_failure();
                    return Err(ServeError::Model(ModelError::NonFinite {
                        tensor: tensor.to_string(),
                    }));
                }
                self.persist(key, &merged);
                Ok(TinyLm::try_from(merged)?)
            }
            ModelSpec::File(path) => {
                let ckpt = format::load(path).inspect_err(|e| {
                    if is_integrity_error(e) {
                        self.note_integrity_failure();
                    }
                })?;
                Ok(TinyLm::try_from(ckpt)?)
            }
            ModelSpec::Quantized(inner) => {
                // The f32 ingredient resolves through the cache under its
                // own (different) key, so recursing cannot deadlock the
                // per-key build claim — and f32 traffic shares the base.
                let base = self.resolve(inner)?;
                let mut model = (*base).clone();
                model.quantize();
                Ok(model)
            }
        }
    }

    /// The file a merged checkpoint with cache key `key` persists to, or
    /// `None` when no persist directory is configured. Keys are sanitized
    /// to a filesystem-safe alphabet.
    #[must_use]
    pub fn persist_path(&self, key: &str) -> Option<PathBuf> {
        let dir = self.persist_dir.as_ref()?;
        let safe: String = key
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        Some(dir.join(format!("{safe}.calt")))
    }

    /// Tries to reload a previously persisted merge. A damaged file
    /// (truncated, bit-flipped, non-finite) is counted, deleted, and
    /// reported as a miss so the caller rebuilds from ingredients; only
    /// genuine I/O errors propagate.
    fn load_persisted(&self, key: &str) -> Result<Option<TinyLm>, ServeError> {
        let Some(path) = self.persist_path(key) else {
            return Ok(None);
        };
        if !path.exists() {
            return Ok(None);
        }
        match format::load(&path) {
            Ok(ckpt) => Ok(Some(TinyLm::try_from(ckpt)?)),
            Err(e) if is_integrity_error(&e) => {
                self.note_integrity_failure();
                let _ = std::fs::remove_file(&path);
                Ok(None)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Best-effort persist of a vetted merge: failure only costs a rebuild
    /// on the next resolve, so errors are swallowed.
    fn persist(&self, key: &str, merged: &Checkpoint) {
        let Some(path) = self.persist_path(key) else {
            return;
        };
        #[cfg(feature = "fault-inject")]
        {
            if crate::faults::should_fire(crate::faults::Site::TornWrite, key) {
                // Simulate a crash mid-write through a non-atomic writer:
                // only the first half of the encoding reaches the final
                // path. `format::save` itself never does this — that is
                // the point of the injection.
                let bytes = format::encode(merged);
                let _ = std::fs::write(&path, &bytes[..bytes.len() / 2]);
                return;
            }
        }
        let _ = format::save(merged, &path);
    }

    fn note_integrity_failure(&self) {
        if let Some(m) = self.metrics.get() {
            m.add(Counter::ChecksumFailures, 1);
        }
    }

    /// Evicts a materialized model; returns whether anything was removed.
    /// The next request for the spec rebuilds it (hot-swap after a zoo
    /// cache update).
    pub(crate) fn evict(&self, spec: &str) -> bool {
        let key = match ModelSpec::parse(spec) {
            Ok(parsed) => parsed.key(),
            Err(_) => spec.trim().to_string(),
        };
        let mut cache = self.cache_lock();
        let removed =
            cache.entries.remove(&key).is_some() || cache.entries.remove(spec.trim()).is_some();
        if removed {
            self.refresh_weights_gauge(&cache);
        }
        removed
    }

    /// Cache keys of every materialized model, sorted.
    #[must_use]
    pub(crate) fn loaded(&self) -> Vec<String> {
        let mut keys: Vec<String> = self.cache_lock().entries.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// `(key, decode dtype, weight bytes)` for every materialized model,
    /// sorted by key — the admin `models` surface.
    #[must_use]
    pub(crate) fn loaded_details(&self) -> Vec<(String, &'static str, u64)> {
        let cache = self.cache_lock();
        let mut rows: Vec<(String, &'static str, u64)> = cache
            .entries
            .iter()
            .map(|(k, e)| (k.clone(), e.model.dtype(), e.model.weights_bytes()))
            .collect();
        drop(cache);
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

    fn random_model(seed: u64) -> TinyLm {
        let mut arch = ArchSpec::tiny("reg");
        arch.vocab_size = 99;
        TinyLm::new(&arch, &mut Pcg32::seed(seed)).expect("model")
    }

    #[test]
    fn spec_parsing_accepts_the_three_forms() {
        assert_eq!(
            ModelSpec::parse("instruct-qwen").expect("ok"),
            ModelSpec::Zoo(ZooModel::Instruct(Backbone::QwenTiny))
        );
        match ModelSpec::parse("merge:eda-qwen+instruct-qwen@0.6").expect("ok") {
            ModelSpec::Merged {
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
            ModelSpec::parse("file:artifacts/zoo/x.calt").expect("ok"),
            ModelSpec::File(_)
        ));
    }

    #[test]
    fn spec_parsing_rejects_garbage() {
        assert!(matches!(
            ModelSpec::parse("no-such-model"),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("merge:eda-qwen+instruct-qwen"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("merge:eda-qwen+instruct-qwen@1.5"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("merge:eda-qwen+instruct-qwen@nan"),
            Err(ServeError::BadRequest { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("merge:bogus+instruct-qwen@0.5"),
            Err(ServeError::UnknownModel { .. })
        ));
        assert!(matches!(
            ModelSpec::parse("file:"),
            Err(ServeError::BadRequest { .. })
        ));
    }

    #[test]
    fn spec_parsing_accepts_int8_suffix_on_every_form() {
        assert_eq!(
            ModelSpec::parse("instruct-qwen#int8").expect("ok"),
            ModelSpec::Quantized(Box::new(ModelSpec::Zoo(ZooModel::Instruct(
                Backbone::QwenTiny
            ))))
        );
        let merged = ModelSpec::parse("merge:eda-qwen+instruct-qwen@0.60#int8").expect("ok");
        assert_eq!(merged.key(), "merge:eda-qwen+instruct-qwen@0.6000#int8");
        assert!(
            merged.key().starts_with("merge:"),
            "quantized merges stay under the merge eviction bound"
        );
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
            ModelSpec::parse("no-such-model#int8"),
            Err(ServeError::UnknownModel { .. })
        ));
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
    fn persist_path_sanitizes_keys_and_requires_a_dir() {
        let reg = registry();
        assert!(reg.persist_path("merge:a+b@0.5").is_none(), "no dir set");
        let dir = std::env::temp_dir().join("chipalign-reg-persist");
        let reg = registry().with_persist_dir(&dir);
        let path = reg
            .persist_path("merge:eda-qwen+instruct-qwen@0.6000")
            .expect("dir set");
        let name = path
            .file_name()
            .expect("name")
            .to_string_lossy()
            .into_owned();
        assert_eq!(name, "merge-eda-qwen-instruct-qwen-0-6000.calt");
        assert!(path.starts_with(&dir));
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
        let spec = ModelSpec::parse("merge:eda-qwen+instruct-qwen@0.5").expect("ok");
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
        let spec =
            |l: &str| ModelSpec::parse(&format!("merge:eda-qwen+instruct-qwen@{l}")).expect("ok");
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
        assert_eq!(reg.kv_dtype_for(&key), KvDtype::Int8);
        assert_eq!(reg.kv_dtype_for("canary"), KvDtype::F32);
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
        reg.register("tgt", random_model(36));
        assert_eq!(reg.kv_dtype_for("spec:tgt#kv8|drafty@4"), KvDtype::Int8);
        assert_eq!(reg.kv_dtype_for("spec:tgt|drafty#kv8@4"), KvDtype::F32);
        assert_eq!(reg.kv_dtype_for("spec:tgt|drafty@4"), KvDtype::F32);
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
