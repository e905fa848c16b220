//! Shared-prefix KV reuse: a bounded longest-match cache of prefilled
//! prompt prefixes.
//!
//! ChipAlign serving traffic is dominated by repeated prompt scaffolding —
//! the same system/instruction prefix in front of every chip-QA question
//! aimed at one `merge:<chip>+<instruct>@<λ>` model. Prefilling that
//! scaffold again for every session is pure waste: a KV cache row depends
//! only on the tokens fed before it (absolute rotary positions), so the
//! rows computed for one session's prefix are bit-for-bit the rows any
//! other session with the same leading tokens would compute. This module
//! stores those rows once and hands out [`KvCache::fork_from`] clones.
//!
//! Structure: one flat table of at most [`MAX_ENTRIES`] snapshots, scanned
//! linearly. An entry serves a query when it holds the same model
//! allocation (`Arc::ptr_eq`; the entry's own `Arc` clone keeps the
//! address from being reused), the same KV storage dtype — `spec` and
//! `spec#kv8` share an allocation, and a snapshot's rows are bit-faithful
//! only to sessions of its own dtype — and tokens that prefix the query.
//! A lookup forks the **longest** such entry, so a cached full prompt also
//! serves queries that share only its scaffold. Bounds: entry count and
//! total KV bytes ([`MAX_TOTAL_BYTES`]), evicting the least-recently-used
//! snapshot when either would overflow.
//!
//! # Byte accounting under paged storage
//!
//! Snapshots are block tables over a [`chipalign_nn::KvPool`] that
//! *alias* blocks: the donating session's fork costs zero KV bytes, and
//! two snapshots sharing a scaffold share its blocks. The byte budget
//! therefore charges **blocks, refcounted**: an inserted snapshot is
//! charged only for blocks no other entry already holds, and eviction
//! frees a block's bytes only when its last referencing entry leaves.
//! A session without a shared pool decodes on a private pool of one-token
//! blocks, so its snapshot is charged per row. This is what makes a
//! zero-copy prefix hit actually free.
//!
//! Correctness note: the fork is validated again at adoption —
//! [`chipalign_nn::generate::StepDecoder::adopt_prefix`] re-checks the
//! token history and model identity — so a cache bug degrades to a served
//! error, never to a silently wrong transcript. Equivalence tests pin that
//! prefix-hit transcripts are byte-identical to cold prefills.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use chipalign_nn::{KvCache, KvDtype, KvPool, TinyLm};

/// Most prefix snapshots the scheduler's cache holds across all models.
pub(crate) const MAX_ENTRIES: usize = 32;

/// Most KV bytes the scheduler's cache charges across all snapshots. A
/// single snapshot larger than this is simply not admitted.
pub(crate) const MAX_TOTAL_BYTES: usize = 64 * 1024 * 1024;

#[derive(Debug)]
struct Entry {
    snapshot: KvCache,
    /// LRU stamp: bumped on every hit from a monotonic counter.
    stamp: u64,
    /// The snapshot's `(block id, block bytes)` pairs. Referenced blocks
    /// are refcounted in [`Inner::block_refs`] so shared bytes are charged
    /// exactly once.
    block_ids: Vec<(u64, usize)>,
}

impl Entry {
    /// Whether this snapshot may be donated to a session of `model` at
    /// KV storage `dtype`.
    fn serves(&self, model: &Arc<TinyLm>, dtype: KvDtype) -> bool {
        Arc::ptr_eq(self.snapshot.model(), model) && self.snapshot.pool().dtype() == dtype
    }
}

#[derive(Debug, Default)]
struct Inner {
    entries: Vec<Entry>,
    /// How many cached entries reference each live KV block (keyed by the
    /// block's process-unique id). A block's bytes are charged when its
    /// refcount rises to one and freed when it falls to zero.
    block_refs: HashMap<u64, usize>,
    total_bytes: usize,
    clock: u64,
}

/// A bounded, thread-safe longest-match cache of prefilled prompt
/// prefixes. See the module docs for the design.
#[derive(Debug)]
pub(crate) struct PrefixCache {
    /// Most cached snapshots; `0` disables the cache.
    max_entries: usize,
    /// Most KV bytes charged across all snapshots.
    max_total_bytes: usize,
    inner: Mutex<Inner>,
}

impl PrefixCache {
    /// Creates an empty cache with the given bounds (the scheduler's are
    /// [`MAX_ENTRIES`] and [`MAX_TOTAL_BYTES`]).
    #[must_use]
    pub(crate) fn new(max_entries: usize, max_total_bytes: usize) -> Self {
        PrefixCache {
            max_entries,
            max_total_bytes,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Number of cached snapshots.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn entries(&self) -> usize {
        self.inner
            .lock()
            .expect("prefix cache poisoned")
            .entries
            .len()
    }

    /// Approximate total KV bytes held by cached snapshots.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn total_bytes(&self) -> usize {
        self.inner
            .lock()
            .expect("prefix cache poisoned")
            .total_bytes
    }

    /// Calls `f` with every cached snapshot.
    #[cfg(test)]
    pub(crate) fn for_each_snapshot(&self, f: impl FnMut(&KvCache)) {
        let inner = self.inner.lock().expect("prefix cache poisoned");
        inner.entries.iter().map(|e| &e.snapshot).for_each(f);
    }

    /// Longest-match lookup: a fork of the longest cached prefix of
    /// `tokens` for this model allocation at KV storage `dtype` (the
    /// adopting session's pool dtype), plus its length. Only *proper*
    /// prefixes are donated, so the session keeps a token to prefill and
    /// has logits to decode from: an entry equal to the whole query (a
    /// repeated prompt) is trimmed to `tokens.len() - 1` positions, and
    /// on int8 pools to [`KvCache::aligned_fork_len`] of that; a donation
    /// trimmed to nothing is a miss. A match refreshes the entry's LRU
    /// stamp.
    #[must_use]
    pub(crate) fn lookup(
        &self,
        model: &Arc<TinyLm>,
        dtype: KvDtype,
        tokens: &[u32],
    ) -> Option<(KvCache, usize)> {
        if tokens.len() < 2 {
            return None;
        }
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        let best = inner
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.serves(model, dtype) && tokens.starts_with(e.snapshot.tokens()))
            .max_by_key(|(_, e)| e.snapshot.len())?
            .0;
        let stamp = inner.next_stamp();
        let entry = &mut inner.entries[best];
        entry.stamp = stamp;
        let snapshot = &entry.snapshot;
        let len = snapshot.aligned_fork_len(snapshot.len().min(tokens.len() - 1));
        if len == 0 {
            return None;
        }
        let fork = snapshot.fork_from(len).ok()?;
        Some((fork, len))
    }

    /// Inserts a snapshot of `cache`'s full contents, keyed by its model,
    /// KV dtype and token history. No-op if the snapshot is empty or its
    /// *newly charged* bytes alone exceed the
    /// byte budget, or an identical prefix is already cached (its stamp
    /// is refreshed instead). Snapshots are charged only for blocks no
    /// existing entry holds — a fork of an already-cached prefix is free.
    /// Evicts least-recently-used snapshots until both bounds hold.
    pub(crate) fn insert(&self, cache: &KvCache) {
        if cache.is_empty() {
            return;
        }
        let Ok(snapshot) = cache.fork_from(cache.len()) else {
            return;
        };
        let mut inner = self.inner.lock().expect("prefix cache poisoned");
        // Charge = bytes this entry adds: the bytes of blocks not yet
        // referenced by any cached entry.
        let block_ids = snapshot.block_ids();
        let charge: usize = block_ids
            .iter()
            .filter(|(id, _)| !inner.block_refs.contains_key(id))
            .map(|&(_, bytes)| bytes)
            .sum();
        if charge > self.max_total_bytes {
            return;
        }
        let stamp = inner.next_stamp();
        let dtype = snapshot.pool().dtype();
        if let Some(entry) = inner
            .entries
            .iter_mut()
            .find(|e| e.serves(snapshot.model(), dtype) && e.snapshot.tokens() == snapshot.tokens())
        {
            entry.stamp = stamp;
            return;
        }
        inner.total_bytes += charge;
        for &(id, _) in &block_ids {
            *inner.block_refs.entry(id).or_insert(0) += 1;
        }
        inner.entries.push(Entry {
            snapshot,
            stamp,
            block_ids,
        });
        while inner.entries.len() > self.max_entries || inner.total_bytes > self.max_total_bytes {
            // The just-inserted snapshot is the most recent; bounds are
            // restored by evicting older ones (it alone fits, checked
            // above).
            if !inner.evict_lru(None) {
                break;
            }
        }
    }

    /// Evicts the least-recently-used snapshot of any pool. Returns
    /// whether anything was evicted.
    #[cfg(test)]
    pub(crate) fn evict_one(&self) -> bool {
        self.inner
            .lock()
            .expect("prefix cache poisoned")
            .evict_lru(None)
    }

    /// Evicts the least-recently-used snapshot whose blocks live in
    /// `pool` and that alone holds at least one of them. The scheduler
    /// calls this under that pool's pressure: dropping the snapshot returns
    /// those blocks so admission can hand them to a live session, while a
    /// snapshot in another pool, or one whose every block a live session
    /// or another snapshot also holds, would free nothing there. Returns
    /// whether anything was evicted.
    pub(crate) fn evict_one_in(&self, pool: &Arc<KvPool>) -> bool {
        self.inner
            .lock()
            .expect("prefix cache poisoned")
            .evict_lru(Some(pool))
    }
}

impl Inner {
    fn next_stamp(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Evicts the least-recently-used snapshot, freeing the bytes of every
    /// block no surviving entry still holds. Given a `pool`, only snapshots
    /// whose eviction returns a block to it qualify; without one (restoring
    /// the cache's own bounds) any snapshot does. Returns false when
    /// nothing qualifies.
    fn evict_lru(&mut self, pool: Option<&Arc<KvPool>>) -> bool {
        let Some((idx, _)) = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                pool.is_none_or(|p| {
                    Arc::ptr_eq(e.snapshot.pool(), p) && e.snapshot.holds_unshared_block()
                })
            })
            .min_by_key(|(_, e)| e.stamp)
        else {
            return false;
        };
        let entry = self.entries.swap_remove(idx);
        for &(id, bytes) in &entry.block_ids {
            let refs = self
                .block_refs
                .get_mut(&id)
                .expect("evicted entry's blocks are refcounted");
            *refs -= 1;
            if *refs == 0 {
                self.block_refs.remove(&id);
                self.total_bytes -= bytes;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn model(seed: u64) -> Arc<TinyLm> {
        let mut arch = ArchSpec::tiny("prefix");
        arch.vocab_size = 99;
        Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(seed)).expect("model"))
    }

    fn prefilled(m: &Arc<TinyLm>, tokens: &[u32]) -> KvCache {
        let mut c = KvCache::new(m);
        c.prefill(tokens).expect("fits window");
        c
    }

    #[test]
    fn longest_match_wins_and_is_a_proper_prefix() {
        let m = model(1);
        let cache = PrefixCache::new(MAX_ENTRIES, MAX_TOTAL_BYTES);
        cache.insert(&prefilled(&m, &[5, 6]));
        cache.insert(&prefilled(&m, &[5, 6, 7, 8]));
        assert_eq!(cache.entries(), 2);

        // Query extending the longer entry: longest match.
        let (fork, len) = cache
            .lookup(&m, KvDtype::F32, &[5, 6, 7, 8, 9])
            .expect("hit");
        assert_eq!(len, 4);
        assert_eq!(fork.tokens(), &[5, 6, 7, 8]);

        // Query equal to the longer entry (a repeated prompt): the entry
        // hits, trimmed to the longest *proper* prefix of the query.
        let (fork, len) = cache.lookup(&m, KvDtype::F32, &[5, 6, 7, 8]).expect("hit");
        assert_eq!(len, 3);
        assert_eq!(fork.tokens(), &[5, 6, 7]);

        // Diverging query falls back to the shared stem.
        let (_, len) = cache.lookup(&m, KvDtype::F32, &[5, 6, 9, 9]).expect("hit");
        assert_eq!(len, 2);

        // No shared prefix at all.
        assert!(cache.lookup(&m, KvDtype::F32, &[9, 9, 9]).is_none());
        // Too short to leave a pending token.
        assert!(cache.lookup(&m, KvDtype::F32, &[5]).is_none());
    }

    #[test]
    fn forks_are_independent_of_the_cached_snapshot() {
        let m = model(1);
        let cache = PrefixCache::new(MAX_ENTRIES, MAX_TOTAL_BYTES);
        cache.insert(&prefilled(&m, &[5, 6, 7]));
        let (mut fork, len) = cache.lookup(&m, KvDtype::F32, &[5, 6, 7, 8]).expect("hit");
        assert_eq!(len, 3);
        // Advancing the fork must not disturb the cached snapshot.
        fork.decode_step(42).expect("ok");
        let (again, len) = cache.lookup(&m, KvDtype::F32, &[5, 6, 7, 8]).expect("hit");
        assert_eq!(len, 3);
        assert_eq!(again.tokens(), &[5, 6, 7]);
    }

    #[test]
    fn models_do_not_cross_pollinate() {
        let a = model(1);
        let b = model(2);
        let cache = PrefixCache::new(MAX_ENTRIES, MAX_TOTAL_BYTES);
        cache.insert(&prefilled(&a, &[5, 6, 7]));
        assert!(cache.lookup(&b, KvDtype::F32, &[5, 6, 7, 8]).is_none());
        let (fork, _) = cache.lookup(&a, KvDtype::F32, &[5, 6, 7, 8]).expect("hit");
        assert!(Arc::ptr_eq(fork.model(), &a));
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let m = model(1);
        let cache = PrefixCache::new(2, usize::MAX);
        cache.insert(&prefilled(&m, &[5, 6]));
        cache.insert(&prefilled(&m, &[7, 8]));
        // Touch [5,6] so [7,8] becomes the LRU.
        assert!(cache.lookup(&m, KvDtype::F32, &[5, 6, 9]).is_some());
        cache.insert(&prefilled(&m, &[9, 10]));
        assert_eq!(cache.entries(), 2);
        assert!(
            cache.lookup(&m, KvDtype::F32, &[5, 6, 9]).is_some(),
            "recently used kept"
        );
        assert!(
            cache.lookup(&m, KvDtype::F32, &[9, 10, 11]).is_some(),
            "new entry kept"
        );
        assert!(
            cache.lookup(&m, KvDtype::F32, &[7, 8, 9]).is_none(),
            "LRU evicted"
        );
    }

    #[test]
    fn byte_bound_evicts_and_oversized_snapshots_are_refused() {
        let m = model(1);
        let unit = prefilled(&m, &[5]).kv_bytes();
        let cache = PrefixCache::new(usize::MAX, 5 * unit);
        cache.insert(&prefilled(&m, &[5, 6])); // 2 units
        cache.insert(&prefilled(&m, &[7, 8, 9])); // 3 units -> total 5
        assert_eq!(cache.total_bytes(), 5 * unit);
        // 2 more units overflow: the oldest entry goes.
        cache.insert(&prefilled(&m, &[10, 11]));
        assert!(cache.total_bytes() <= 5 * unit);
        assert!(
            cache.lookup(&m, KvDtype::F32, &[5, 6, 7]).is_none(),
            "oldest evicted"
        );
        assert!(cache.lookup(&m, KvDtype::F32, &[7, 8, 9, 10]).is_some());
        // A snapshot larger than the whole budget is refused outright.
        let big = prefilled(&m, &(0..8).map(|i| 5 + i).collect::<Vec<_>>());
        assert!(big.kv_bytes() > 5 * unit);
        let before = cache.entries();
        cache.insert(&big);
        assert_eq!(cache.entries(), before);
    }

    #[test]
    fn duplicate_insert_refreshes_instead_of_duplicating() {
        let m = model(1);
        let cache = PrefixCache::new(2, usize::MAX);
        cache.insert(&prefilled(&m, &[5, 6]));
        cache.insert(&prefilled(&m, &[7, 8]));
        // Re-inserting [5,6] refreshes its stamp: [7,8] is now the LRU.
        cache.insert(&prefilled(&m, &[5, 6]));
        assert_eq!(cache.entries(), 2);
        cache.insert(&prefilled(&m, &[9, 10]));
        assert!(
            cache.lookup(&m, KvDtype::F32, &[5, 6, 9]).is_some(),
            "refreshed survives"
        );
        assert!(cache.lookup(&m, KvDtype::F32, &[7, 8, 9]).is_none());
    }

    #[test]
    fn disabled_cache_stores_nothing() {
        let m = model(1);
        let cache = PrefixCache::new(0, usize::MAX);
        cache.insert(&prefilled(&m, &[5, 6]));
        assert_eq!(cache.entries(), 0);
        assert!(cache.lookup(&m, KvDtype::F32, &[5, 6, 7]).is_none());
    }

    #[test]
    fn paged_snapshots_sharing_blocks_are_charged_once() {
        use chipalign_nn::{KvPool, KvPoolConfig};
        let m = model(1);
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 2,
            max_blocks: 64,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let arch = m.arch();
        let bb = pool.block_bytes(arch.n_layers, arch.d_model);
        let cache = PrefixCache::new(8, usize::MAX);

        // Donor: 4 tokens = blocks [b0, b1].
        let mut donor = KvCache::new_paged(&m, &pool);
        donor.prefill(&[5, 6, 7, 8]).expect("prefill");
        cache.insert(&donor);
        assert_eq!(
            cache.total_bytes(),
            2 * bb,
            "first entry charges both blocks"
        );

        // A fork sharing b0, extended with one fresh block b2. Inserting
        // it must charge only the unshared block.
        let mut fork = donor.fork_from(2).expect("fork");
        fork.prefill_chunk(&[9, 10]).expect("extend");
        cache.insert(&fork);
        assert_eq!(cache.entries(), 2);
        assert_eq!(
            cache.total_bytes(),
            3 * bb,
            "shared block b0 must not be double-counted"
        );

        // Evicting the older entry frees only bytes no survivor holds:
        // b1 goes, b0 stays charged (the fork's entry still aliases it).
        assert!(cache.evict_one());
        assert_eq!(cache.entries(), 1);
        assert_eq!(cache.total_bytes(), 2 * bb, "b0 stays charged, b1 freed");
        assert!(cache.evict_one());
        assert_eq!(cache.total_bytes(), 0);
        assert!(!cache.evict_one(), "nothing left to evict");
    }

    #[test]
    fn paged_lookup_forks_allocate_zero_blocks() {
        use chipalign_nn::{KvPool, KvPoolConfig};
        let m = model(1);
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 2,
            max_blocks: 64,
            ..KvPoolConfig::default()
        })
        .expect("pool");
        let cache = PrefixCache::new(MAX_ENTRIES, MAX_TOTAL_BYTES);
        let mut donor = KvCache::new_paged(&m, &pool);
        donor.prefill(&[5, 6, 7, 8]).expect("prefill");
        cache.insert(&donor);
        drop(donor); // the cached snapshot keeps the blocks alive
        let held = pool.blocks_in_use();
        assert_eq!(held, 2);
        let (fork, len) = cache
            .lookup(&m, KvDtype::F32, &[5, 6, 7, 8, 9])
            .expect("hit");
        assert_eq!(len, 4);
        assert_eq!(
            pool.blocks_in_use(),
            held,
            "a prefix hit must allocate zero new KV blocks"
        );
        drop(fork);
        assert_eq!(pool.blocks_in_use(), held);
    }

    #[test]
    fn int8_donations_round_down_to_sealed_block_boundaries() {
        use chipalign_nn::{KvPool, KvPoolConfig};
        let m = model(1);
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 2,
            max_blocks: 64,
            dtype: KvDtype::Int8,
        })
        .expect("pool");
        let cache = PrefixCache::new(MAX_ENTRIES, MAX_TOTAL_BYTES);
        let mut donor = KvCache::new_paged(&m, &pool);
        donor.prefill(&[5, 6, 7, 8]).expect("prefill"); // 2 sealed blocks
        cache.insert(&donor);

        // Boundary-sized donation passes through untouched.
        let (fork, len) = cache
            .lookup(&m, KvDtype::Int8, &[5, 6, 7, 8, 9])
            .expect("hit");
        assert_eq!(len, 4);
        assert_eq!(fork.tokens(), &[5, 6, 7, 8]);

        // A cut inside sealed block 1 (len 3) rounds down to the boundary,
        // so the adopted session replays bit-identically to a cold prefill.
        let (fork, len) = cache.lookup(&m, KvDtype::Int8, &[5, 6, 7, 8]).expect("hit");
        assert_eq!(len, 2, "mid-sealed-block donations round down");
        assert_eq!(fork.tokens(), &[5, 6]);

        // A donation rounded to nothing is a miss, not a zero-length fork.
        assert!(cache.lookup(&m, KvDtype::Int8, &[5, 6]).is_none());
    }

    #[test]
    fn kv_dtypes_do_not_cross_pollinate() {
        use chipalign_nn::{KvPool, KvPoolConfig};
        let m = model(1);
        let cache = PrefixCache::new(MAX_ENTRIES, MAX_TOTAL_BYTES);

        // One model allocation serving both dtypes at once (`spec` vs
        // `spec#kv8`): each donation lands in its own bucket.
        cache.insert(&prefilled(&m, &[5, 6, 7])); // private f32 pool → f32 bucket
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 2,
            max_blocks: 64,
            dtype: KvDtype::Int8,
        })
        .expect("pool");
        let mut q8_donor = KvCache::new_paged(&m, &pool);
        q8_donor.prefill(&[5, 6, 7, 8]).expect("prefill");
        cache.insert(&q8_donor);
        assert_eq!(cache.entries(), 2);

        // An f32 session sees only the f32 snapshot — never the deeper
        // int8 one, which would silently break its bit-exactness.
        let (fork, len) = cache
            .lookup(&m, KvDtype::F32, &[5, 6, 7, 8, 9])
            .expect("hit");
        assert_eq!(len, 3, "the deeper int8 entry must be invisible at f32");
        assert_eq!(
            fork.pool().dtype(),
            KvDtype::F32,
            "f32 hit hands back the f32 snapshot"
        );

        // And the int8 session sees only its own bucket.
        let (fork, len) = cache
            .lookup(&m, KvDtype::Int8, &[5, 6, 7, 8, 9])
            .expect("hit");
        assert_eq!(len, 4);
        assert_eq!(
            fork.pool().dtype(),
            KvDtype::Int8,
            "int8 hit hands back the int8 snapshot"
        );

        // A prompt cached only at f32 is a clean miss at int8.
        cache.insert(&prefilled(&m, &[20, 21, 22]));
        assert!(cache.lookup(&m, KvDtype::Int8, &[20, 21, 22, 23]).is_none());
    }

    /// A seeded trace of 400 `insert` / `lookup` / `evict_one` calls over
    /// two model allocations, an f32 and an int8 pool of 4-token blocks,
    /// 8 entries and a 12-block byte budget; both bounds bind along the
    /// way. Every op folds `(hit length, entries, total bytes)` into one
    /// FNV-1a hash, pinned across versions of the cache's internals.
    #[test]
    fn seeded_op_trace_is_pinned() {
        use chipalign_nn::{KvPool, KvPoolConfig};
        let models = [model(1), model(2)];
        let pools = [KvDtype::F32, KvDtype::Int8].map(|dtype| {
            KvPool::new(KvPoolConfig {
                block_tokens: 4,
                max_blocks: 4096,
                dtype,
            })
            .expect("pool")
        });
        let max_total_bytes = 12 * 1024;
        let cache = PrefixCache::new(8, max_total_bytes);
        let mut rng = Pcg32::seed(37);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..400 {
            let m = &models[rng.below(2)];
            let pool = &pools[rng.below(2)];
            // One of three scaffolds (3, 6 or 9 tokens), then 0–4 tokens
            // from a small alphabet, so queries share stems and repeat.
            let k = rng.below(3);
            let mut tokens: Vec<u32> = (0..3 * (k + 1)).map(|i| (5 + 7 * k + i) as u32).collect();
            let tail = rng.below(5);
            tokens.extend((0..tail).map(|_| 40 + rng.below(4) as u32));
            let hit = match rng.below(10) {
                0 => usize::from(cache.evict_one()),
                1..=4 => cache
                    .lookup(m, pool.dtype(), &tokens)
                    .map_or(0, |(fork, len)| {
                        assert_eq!(fork.tokens(), &tokens[..len]);
                        len
                    }),
                _ => {
                    // Half the inserts extend a hit (sharing its blocks),
                    // half prefill cold.
                    let hit = if rng.chance(0.5) {
                        cache.lookup(m, pool.dtype(), &tokens)
                    } else {
                        None
                    };
                    let (mut c, len) = hit.unwrap_or_else(|| (KvCache::new_paged(m, pool), 0));
                    c.prefill_chunk(&tokens[len..]).expect("fits the pool");
                    cache.insert(&c);
                    len
                }
            };
            let (entries, bytes) = (cache.entries(), cache.total_bytes());
            assert!(entries <= 8 && bytes <= max_total_bytes);
            for x in [hit, entries, bytes] {
                for byte in (x as u64).to_le_bytes() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(hash, 0x76ea_6b71_ce4d_3e90, "op trace moved: {hash:#018x}");
    }

    #[test]
    fn eviction_prunes_shared_stems_only_when_bare() {
        let m = model(1);
        let cache = PrefixCache::new(2, usize::MAX);
        // Two entries sharing the stem [5, 6].
        cache.insert(&prefilled(&m, &[5, 6, 7]));
        cache.insert(&prefilled(&m, &[5, 6, 8]));
        // Evict the first by inserting a third.
        assert!(cache.lookup(&m, KvDtype::F32, &[5, 6, 8, 9]).is_some()); // refresh second
        cache.insert(&prefilled(&m, &[9, 10]));
        // The shared stem must still route to the surviving sibling.
        let (_, len) = cache
            .lookup(&m, KvDtype::F32, &[5, 6, 8, 9])
            .expect("sibling survives");
        assert_eq!(len, 3);
        assert!(
            cache.lookup(&m, KvDtype::F32, &[5, 6, 7, 9]).is_none(),
            "victim gone"
        );
    }
}
