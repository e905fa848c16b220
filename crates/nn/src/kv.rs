//! Incremental decoding with a key/value cache.
//!
//! [`crate::TinyLm::forward`] recomputes the whole sequence every call —
//! fine for training, quadratically wasteful for generation. [`KvCache`]
//! stores the per-layer rotary-encoded keys and values so each new token
//! costs `O(T·d·L)` instead of `O(T²·d·L)`. The cached path computes the
//! same attention as the full forward pass (same RoPE angles, same
//! masking), so greedy decodes agree token-for-token with the uncached
//! implementation; a unit test pins that.
//!
//! # One forward
//!
//! Every way of advancing a cache is a thin shim over one private
//! function, `KvCache::forward_rows` — the only transformer layer loop in
//! this module:
//!
//! | entry point | sessions × new rows | logits returned |
//! |---|---|---|
//! | [`KvCache::decode_step`] | 1 × 1 | that row |
//! | [`KvCache::decode_batch`] | N × 1 | every row |
//! | [`KvCache::verify_chunk`] | 1 × k (k ≤ 32) | every row |
//! | [`KvCache::prefill_chunk`], [`KvCache::prefill`] | 1 × any | the last row |
//!
//! `forward_rows` (1) validates every session and token and reserves every
//! new position of every session up front, undoing the reservations if one
//! fails, so **any error leaves every cache exactly as it was**; (2) stacks
//! the new rows session-major and walks them in blocks of at most
//! [`chipalign_tensor::tune::GEMM_SKINNY_M_MAX`] rows, running one
//! [`Matrix::matmul_bt`] per projection per block — a prompt streams the
//! weights once per 32 tokens, not once per token; (3) inside each layer
//! writes K/V and attends row by row, so a session's rows go strictly in
//! position order and row `r` of a chunk sees rows `0..r` of the same
//! chunk; (4) runs the final norm and the LM head only for the rows whose
//! logits the caller wants.
//!
//! # One bit-identity argument
//!
//! A row's result never depends on what it was stacked with. Every
//! projection of at most `GEMM_SKINNY_M_MAX` rows — `matmul_bt`, f32 and
//! the int8 [`QuantizedMatrix`] twin, and `matvec` as its one-row case —
//! is one call to the backend's `gemm_bt` / `gemm_bt_q8`, and tiles reuse
//! loads, never reorder a dot: each output element is the same whole-row
//! dot whether its row came alone or in a stack (a single row *is*
//! dispatched to `matvec`, which [`chipalign_tensor::tune::matvec_calls`]
//! lets a test observe). The norm, RoPE, attention and residual code is per
//! row.
//! A row's K/V depend only on the tokens before it, and attention gives
//! the same bits at every block size. Its K pass scores eight positions of
//! a head at a time from the block's key tile, in eight lanes that each
//! run `ops::dot`'s own fold — seeded with `-0.0`, adding `q[e] · k[e]` in
//! element order, never fused into an FMA — so a lane holds exactly the
//! score a lone `ops::dot` would, whichever positions share its group, and
//! the positions a block leaves over take that fold one at a time. Softmax
//! then runs per head over the same scores, and the V pass adds every
//! position's weighted row into the context in position order. Hence
//! batched ≡ single-step, chunked ≡ one-shot prefill, verify ≡ sequential
//! and any block size ≡ any other hold bitwise, for f32 and int8 weights
//! alike; the serving scheduler relies on it to keep batched transcripts
//! byte-equal to `generate()`. Tests below pin each of them, and
//! `tests/logits_pin.rs` pins the logits themselves across versions.
//!
//! # Storage
//!
//! Every cache keeps its rows in fixed-size blocks drawn from a
//! [`crate::kvpool::KvPool`]. [`KvCache::new_paged`] binds a shared pool;
//! [`KvCache::new`] binds a private, uncapped f32 pool of one-token
//! blocks, so its bytes are per row, it truncates exactly anywhere and it
//! never reports [`NnError::PoolExhausted`]. [`KvCache::fork_from`] clones
//! the first P positions by aliasing blocks (refcounted, zero bytes
//! copied; the first write into a shared tail block privatises it), which
//! is how a serving-layer prefix cache hands a new session an
//! already-prefilled prompt prefix. The cache records the token at every
//! position ([`KvCache::tokens`]) so reuse can be validated against the
//! new prompt.
//!
//! Within an f32 block layer, V is row-major (`block_tokens × d_model`)
//! and K is stored as `n_heads` tiles of `head_dim × block_tokens`,
//! position-minor: element (t, h, e) sits at `h·hd·bt + e·bt + t`
//! ([`crate::kvpool::key_slot`]). A head's keys for a run of positions are
//! then consecutive floats, which is what lets the K pass score eight
//! positions per load.
//!
//! A pool created at [`crate::KvDtype::Int8`] seals each block layer to i8
//! codes + per-head scales the moment its last position is written (the
//! open tail stays f32, so writes and copy-on-write are dtype-blind).
//! Sealing un-tiles K, so sealed codes are row-major for K and V alike;
//! attention scores them with one `dot_q8` per (position, head) and
//! accumulates V with `axpy_q8`, both dequantizing in-register in the
//! active [`chipalign_tensor::backend::KernelBackend`].
//! The seal trigger is a pure function of the position, so the identities
//! above hold bitwise on an int8 pool too; against the *f32* oracle,
//! int8-KV logits are pinned within [`KV8_LOGIT_TOL`] with margin-gated
//! argmax agreement (tests below and in `tests/kvpool_equivalence.rs`).

use std::sync::Arc;

use chipalign_tensor::ops;
use chipalign_tensor::tune::GEMM_SKINNY_M_MAX;
use chipalign_tensor::{backend, Matrix, QuantizedMatrix};

use crate::kvpool::{key_slot, BlockLayer, KvBlock, KvDtype, KvPool, KvPoolConfig};
use crate::model::{rope_rotate, rope_sin_cos, TinyLm};
use crate::NnError;

/// Pinned per-logit tolerance for int8-KV decoding against the f32
/// oracle: every logit of a quantized-KV decode must lie within this of
/// the same step's f32 logits (teacher-forced), and greedy argmax must
/// agree outright whenever the f32 runner-up margin exceeds
/// `2 × KV8_LOGIT_TOL`. This is the serving contract for `#kv8` models.
pub const KV8_LOGIT_TOL: f32 = 0.5;

/// A cache's storage: an ordered list of refcounted block handles. Block
/// `b` holds positions `[b·bt, (b+1)·bt)` for every layer, where `bt` is
/// the pool's block size. Invariant outside of an in-flight
/// `forward_rows`: `blocks.len()` equals `ceil(len / bt)` of the owning
/// cache.
#[derive(Debug, Clone)]
struct BlockTable {
    pool: Arc<KvPool>,
    blocks: Vec<Arc<KvBlock>>,
    /// Attention heads of the bound model — the granularity at which int8
    /// pools compute seal-time scales (one absmax per head per block).
    n_heads: usize,
}

impl BlockTable {
    /// Makes positions `len .. len + count` writable. On
    /// [`NnError::PoolExhausted`] every block pushed on the way is
    /// returned, so the table is left holding exactly `len` positions.
    fn reserve(
        &mut self,
        len: usize,
        count: usize,
        n_layers: usize,
        d: usize,
    ) -> Result<(), NnError> {
        for pos in len..len + count {
            if let Err(e) = self.prepare_position(pos, n_layers, d) {
                self.truncate(len);
                return Err(e);
            }
        }
        Ok(())
    }

    /// Makes position `pos` writable: pushes a fresh block when `pos`
    /// opens a new one, otherwise privatises a shared tail block
    /// (copy-on-write) or regrows a sealed one. The only fallible step of a
    /// forward — [`BlockTable::reserve`] runs it for every new position
    /// before any visible mutation. A replaced tail carries the same
    /// logical rows as the block it replaces, so only pushed blocks need
    /// undoing.
    fn prepare_position(&mut self, pos: usize, n_layers: usize, d: usize) -> Result<(), NnError> {
        let bt = self.pool.block_tokens();
        let b = pos / bt;
        if b == self.blocks.len() {
            debug_assert_eq!(pos % bt, 0, "block table must grow one block at a time");
            let block = self.pool.alloc_block(n_layers, d)?;
            self.blocks.push(Arc::new(block));
            return Ok(());
        }
        debug_assert_eq!(
            b + 1,
            self.blocks.len(),
            "writes only land in the tail block"
        );
        if self.blocks[b].is_sealed() {
            // A fork landed mid-way into a sealed (int8) block, making it
            // this table's tail: sealed blocks are immutable, so regrow an
            // f32 working tail seeded with the already-filled rows
            // dequantized.
            let copy =
                self.pool
                    .alloc_block_unsealed(&self.blocks[b], pos % bt, d, self.n_heads)?;
            self.blocks[b] = Arc::new(copy);
        } else if Arc::get_mut(&mut self.blocks[b]).is_none() {
            // The tail is aliased (fork donor, prefix-cache snapshot, or a
            // plain clone): copy it before the first write. Forks take
            // `&self` and writes `&mut self`, so a racing fork can only
            // make the block look *more* shared — a spurious copy, never a
            // missed one.
            let copy = self.pool.alloc_block_from(&self.blocks[b])?;
            self.blocks[b] = Arc::new(copy);
        }
        Ok(())
    }

    /// Scatters one position's K/V rows into the (prepared) tail block: V
    /// as a row, K one element per head-tile row (see
    /// [`crate::kvpool::key_slot`]). Writing a block's final position seals
    /// the layer on int8 pools (a no-op on f32) — the trigger is a pure
    /// function of `pos`, so any prefill chunking quantizes identical rows
    /// at identical moments.
    fn write_row(&mut self, li: usize, pos: usize, k: &[f32], v: &[f32]) {
        let bt = self.pool.block_tokens();
        let d = k.len();
        let n_heads = self.n_heads;
        let block = Arc::get_mut(&mut self.blocks[pos / bt])
            .expect("prepare_position left the tail block uniquely owned");
        let t = pos % bt;
        match &mut block.layers[li] {
            BlockLayer::F32 { k: bk, v: bv } => {
                for (col, &x) in k.iter().enumerate() {
                    bk[key_slot(t, col, bt)] = x;
                }
                bv[t * d..(t + 1) * d].copy_from_slice(v);
            }
            BlockLayer::Q8 { .. } => {
                unreachable!("prepare_position replaces a sealed tail before any write")
            }
        }
        if pos % bt == bt - 1 {
            block.seal_layer(li, d, n_heads);
        }
    }

    /// Aliases the blocks covering the first `positions` positions: the
    /// zero-copy fork primitive. O(blocks) `Arc` clones, no K/V bytes.
    fn fork_prefix(&self, positions: usize) -> BlockTable {
        BlockTable {
            pool: Arc::clone(&self.pool),
            blocks: self.blocks[..self.pool.blocks_for(positions)].to_vec(),
            n_heads: self.n_heads,
        }
    }

    /// Drops every block wholly past the first `len` positions: the rewind
    /// of [`KvCache::truncate`] and the undo of [`BlockTable::reserve`].
    fn truncate(&mut self, len: usize) {
        let keep = self.pool.blocks_for(len);
        self.blocks.truncate(keep);
    }

    /// Attention for one query row over the first `rows` cached positions
    /// of layer `li`, accumulated into `ctx` (which must arrive zeroed).
    /// `head_dim` is recovered from the query width (`d = n_heads ×
    /// head_dim` by construction of the architecture).
    ///
    /// Two passes over the blocks, each block's layer resolved once per
    /// pass: scores for every (head, position) into `scores` (`n_heads ×
    /// rows`, head-major), a softmax per head, then every position's V row
    /// weighted into `ctx`. Each score is bitwise `ops::dot` of the query
    /// head with the key head (see [`score_tile`]) and each `ctx` element
    /// receives its adds in position order, so every block size gives the
    /// same bits.
    fn attend(&self, li: usize, rows: usize, q: &[f32], scores: &mut Vec<f32>, ctx: &mut [f32]) {
        let d = q.len();
        let n_heads = self.n_heads;
        let head_dim = d / n_heads;
        let bt = self.pool.block_tokens();
        let scale = 1.0 / (head_dim as f32).sqrt();
        let be = backend::active();
        let blocks = &self.blocks[..self.pool.blocks_for(rows)];
        scores.clear();
        scores.resize(n_heads * rows, 0.0);
        for (b, block) in blocks.iter().enumerate() {
            let t0 = b * bt;
            let n = bt.min(rows - t0);
            let heads = q.chunks_exact(head_dim).zip(scores.chunks_exact_mut(rows));
            for (hh, (qh, head_scores)) in heads.enumerate() {
                let out = &mut head_scores[t0..t0 + n];
                match &block.layers[li] {
                    BlockLayer::F32 { k, .. } => {
                        let lo = key_slot(0, hh * head_dim, bt);
                        score_tile(qh, &k[lo..lo + head_dim * bt], out);
                    }
                    BlockLayer::Q8 {
                        k_codes, k_scales, ..
                    } => {
                        for (t, s) in out.iter_mut().enumerate() {
                            let lo = t * d + hh * head_dim;
                            *s = be.dot_q8(&k_codes[lo..lo + head_dim], k_scales[hh], qh);
                        }
                    }
                }
                for s in out {
                    *s *= scale;
                }
            }
        }
        for head_scores in scores.chunks_exact_mut(rows) {
            ops::softmax_inplace(head_scores);
        }
        for (b, block) in blocks.iter().enumerate() {
            let t0 = b * bt;
            for t in 0..bt.min(rows - t0) {
                let row = t * d..(t + 1) * d;
                let weights = scores[t0 + t..].iter().step_by(rows);
                let heads = ctx.chunks_exact_mut(head_dim).zip(weights);
                match &block.layers[li] {
                    BlockLayer::F32 { v, .. } => {
                        for ((c, &w), vh) in heads.zip(v[row].chunks_exact(head_dim)) {
                            for (c, &vv) in c.iter_mut().zip(vh) {
                                *c += w * vv;
                            }
                        }
                    }
                    BlockLayer::Q8 {
                        v_codes, v_scales, ..
                    } => {
                        let v_heads = v_codes[row].chunks_exact(head_dim).zip(v_scales);
                        for ((c, &w), (vh, &vs)) in heads.zip(v_heads) {
                            be.axpy_q8(w, vh, vs, c);
                        }
                    }
                }
            }
        }
    }
}

/// Scores one head's key tile (`head_dim` rows of `block_tokens`
/// positions, see [`crate::kvpool::key_slot`]) against the query head
/// `q`, for the first `out.len()` positions.
///
/// Eight positions at a time go in eight independent accumulators, each
/// seeded with `-0.0` and adding `q[e] · k[e]` in element order — exactly
/// the fold `ops::dot` runs, so every lane is `ops::dot`'s value bit for
/// bit (Rust never contracts `a * b + c` into an FMA). A group may reach
/// past `out` into columns the block has not filled yet, as long as the
/// tile has them: those lanes are computed and dropped. Positions no group
/// can cover take the same fold one at a time; a one-position tile is the
/// key head itself, so that is `ops::dot` outright.
fn score_tile(q: &[f32], tile: &[f32], out: &mut [f32]) {
    const LANES: usize = 8;
    let bt = tile.len() / q.len();
    let mut t = 0;
    while t < out.len() && t + LANES <= bt {
        let mut acc = [-0.0f32; LANES];
        for (&qe, k_row) in q.iter().zip(tile.chunks_exact(bt)) {
            let k: &[f32; LANES] = k_row[t..t + LANES].try_into().expect("eight columns");
            for (a, &kv) in acc.iter_mut().zip(k) {
                *a += qe * kv;
            }
        }
        let width = LANES.min(out.len() - t);
        out[t..t + width].copy_from_slice(&acc[..width]);
        t += LANES;
    }
    for (t, s) in out.iter_mut().enumerate().skip(t) {
        *s = if bt == 1 {
            ops::dot(q, tile)
        } else {
            q.iter()
                .zip(tile.chunks_exact(bt))
                .map(|(&qe, k_row)| qe * k_row[t])
                .sum()
        };
    }
}

/// A decoding session over one sequence.
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use chipalign_model::ArchSpec;
/// use chipalign_nn::{KvCache, TinyLm};
/// use chipalign_tensor::rng::Pcg32;
///
/// # fn main() -> Result<(), chipalign_nn::NnError> {
/// let mut arch = ArchSpec::tiny("kv");
/// arch.vocab_size = 99;
/// let model = Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(1))?);
/// let mut cache = KvCache::new(&model);
/// let logits = cache.prefill(&[5, 6, 7])?;
/// assert_eq!(logits.len(), 99);
/// let next = cache.decode_step(8)?;
/// assert_eq!(next.len(), 99);
/// assert_eq!(cache.len(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct KvCache {
    model: Arc<TinyLm>,
    table: BlockTable,
    len: usize,
    /// The token fed at each cached position, in order (`tokens.len() ==
    /// len`). Lets prefix reuse verify that a donated cache really holds
    /// the prompt it claims to.
    tokens: Vec<u32>,
    /// Reusable attention-score scratch, `n_heads × len` (capacity grows
    /// to the longest sequence seen), so decode steps allocate no score
    /// vectors.
    score_buf: Vec<f32>,
}

impl KvCache {
    /// Creates an empty cache bound to a shared model, its rows kept in a
    /// private pool of its own: f32, one-token blocks, no block cap. Its
    /// bytes are therefore per row ([`KvCache::kv_bytes`] equals the
    /// pool's [`KvPool::bytes_in_use`]), it truncates exactly at any
    /// position, it never fails with [`NnError::PoolExhausted`], and its
    /// forks alias rows instead of copying them.
    ///
    /// The cache holds an [`Arc`] clone, so every concurrent session
    /// decodes against one model allocation and per-session memory is
    /// O(cached keys/values), not O(model). Sessions created from the same
    /// `Arc` are eligible for [`KvCache::decode_batch`].
    #[must_use]
    pub fn new(model: &Arc<TinyLm>) -> Self {
        let pool = KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: usize::MAX,
            dtype: KvDtype::F32,
        })
        .expect("one-token blocks with no cap are a valid pool shape");
        Self::new_paged(model, &pool)
    }

    /// Creates an empty cache whose K/V rows live in fixed-size blocks
    /// drawn from the shared `pool`; [`KvCache::fork_from`] aliases blocks
    /// instead of copying rows (copy-on-write on the first shared-tail
    /// write).
    ///
    /// Decoding is bit-identical to a private cache from [`KvCache::new`]
    /// — same attention accumulation order, pinned by equivalence tests —
    /// and allocation is incremental (`ceil(len / block_tokens)` blocks)
    /// and bounded by the pool: a decode step that needs a block the pool
    /// cannot grant fails with [`NnError::PoolExhausted`] *before*
    /// mutating the cache.
    #[must_use]
    pub fn new_paged(model: &Arc<TinyLm>, pool: &Arc<KvPool>) -> Self {
        KvCache {
            model: Arc::clone(model),
            table: BlockTable {
                pool: Arc::clone(pool),
                blocks: Vec::new(),
                n_heads: model.arch().n_heads,
            },
            len: 0,
            tokens: Vec::new(),
            score_buf: Vec::new(),
        }
    }

    /// The block pool backing this cache.
    #[must_use]
    pub fn pool(&self) -> &Arc<KvPool> {
        &self.table.pool
    }

    /// Number of pool blocks currently held. Aliased blocks count once per
    /// *table*, so a fresh fork reports the donor's block count without
    /// having allocated anything.
    #[must_use]
    pub fn block_count(&self) -> usize {
        self.table.blocks.len()
    }

    /// `(block id, block bytes)` for every block this cache holds, in
    /// position order. Ids are pool-unique and never reused, which is what
    /// lets the serving layer charge a byte budget per *physical* block:
    /// two caches aliasing a block report the same id, so shared storage
    /// is counted once. Bytes are each block's *current* representation —
    /// f32 for the open tail, code + scale width for sealed int8 blocks —
    /// and sealed blocks are immutable, so a charge taken from this list
    /// never goes stale.
    #[must_use]
    pub fn block_ids(&self) -> Vec<(u64, usize)> {
        self.table
            .blocks
            .iter()
            .map(|b| (b.id, b.bytes()))
            .collect()
    }

    /// Largest prefix length `≤ positions` from which a fork continues
    /// *bit-deterministically*. A cache on an f32 pool forks anywhere
    /// (`positions` comes back unchanged); on an int8 pool a fork landing
    /// strictly inside a *sealed* block would regrow its tail from
    /// dequantized rows — within [`KV8_LOGIT_TOL`], but not bit-stable
    /// against a fresh prefill — so this rounds such a cut down to the
    /// preceding block boundary. The serving prefix cache trims donations
    /// with this, keeping int8 served transcripts deterministic.
    #[must_use]
    pub fn aligned_fork_len(&self, positions: usize) -> usize {
        let positions = positions.min(self.len);
        let bt = self.table.pool.block_tokens();
        if !positions.is_multiple_of(bt) {
            let b = positions / bt;
            if self.table.blocks.get(b).is_some_and(|blk| blk.is_sealed()) {
                return b * bt;
            }
        }
        positions
    }

    /// The shared model this cache decodes against.
    #[must_use]
    pub fn model(&self) -> &Arc<TinyLm> {
        &self.model
    }

    /// Number of positions processed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no positions have been processed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The token fed at each cached position, in order.
    #[must_use]
    pub fn tokens(&self) -> &[u32] {
        &self.tokens
    }

    /// Logical heap footprint of the cached keys and values, in bytes.
    ///
    /// Counts the K and V rows (`len × n_layers × 2 × d_model` floats);
    /// bookkeeping (token history, scratch) is negligible next to them.
    /// This is the *logical* size — physical usage is whole blocks, possibly
    /// shared with other caches; use [`KvCache::block_ids`] to account
    /// physical bytes per unique block (the serving-layer prefix cache does
    /// exactly that).
    #[must_use]
    pub fn kv_bytes(&self) -> usize {
        let arch = self.model.arch();
        arch.n_layers * self.len * 2 * arch.d_model * std::mem::size_of::<f32>()
    }

    /// Clears every cached position while keeping the bound model and
    /// pool, so a decoding session can re-prefill after a context-window
    /// slide without cloning the model again. Drops the block handles,
    /// returning any block this was the last holder of to the pool.
    pub fn reset(&mut self) {
        self.table.blocks.clear();
        self.len = 0;
        self.tokens.clear();
    }

    /// Processes a prompt, returning the logits of its final position.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadSequence`] for an empty prompt, and otherwise
    /// fails like [`KvCache::prefill_chunk`].
    pub fn prefill(&mut self, tokens: &[u32]) -> Result<Vec<f32>, NnError> {
        if tokens.is_empty() {
            return Err(NnError::BadSequence {
                detail: "prefill requires at least one token".into(),
            });
        }
        self.prefill_chunk(tokens)
    }

    /// Processes one chunk of a prompt — 32 rows per weight sweep, however
    /// long the chunk — returning the logits of the chunk's final position.
    /// Resumable: a prompt split into arbitrary chunks and fed through
    /// successive calls produces a cache (and final logits) bit-identical
    /// to one-shot [`KvCache::prefill`]. The serving scheduler uses this to
    /// interleave long-prompt prefill with decode slices of other sessions.
    ///
    /// An empty chunk is a no-op returning empty logits (callers resuming a
    /// finished prefill need no special case).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadSequence`] if the chunk (with the cache
    /// contents) exceeds the architecture's context length,
    /// [`NnError::BadToken`] for out-of-vocabulary ids, and
    /// [`NnError::PoolExhausted`] when the pool cannot back every new
    /// position. The chunk is atomic: on any error the cache holds
    /// exactly what it held before the call, so the same chunk can be
    /// retried.
    pub fn prefill_chunk(&mut self, tokens: &[u32]) -> Result<Vec<f32>, NnError> {
        let mut last = Self::forward_rows(&mut [self], &[tokens], Logits::Last)?;
        Ok(last.pop().unwrap_or_default())
    }

    /// Clones the first `positions` cached positions into a new independent
    /// session bound to the same model allocation.
    ///
    /// Decoding from the fork is bit-identical to decoding from a fresh
    /// cache prefilled with the same leading tokens — each position's
    /// rotary encoding is absolute, depending only on the tokens before
    /// it, never on what the donor cached afterwards. This is the
    /// primitive behind shared-prefix reuse: one prefill of a common
    /// prompt scaffold can seed many sessions.
    ///
    /// The covering blocks are *aliased* — O(blocks) refcount bumps, zero
    /// K/V bytes moved — and the first write either side makes into a
    /// shared tail block privatises it first (copy-on-write), so neither
    /// branch can corrupt the other.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadSequence`] if `positions` exceeds the donor's
    /// cached length.
    pub fn fork_from(&self, positions: usize) -> Result<KvCache, NnError> {
        if positions > self.len {
            return Err(NnError::BadSequence {
                detail: format!(
                    "cannot fork {positions} positions from a cache holding {}",
                    self.len
                ),
            });
        }
        Ok(KvCache {
            model: Arc::clone(&self.model),
            table: self.table.fork_prefix(positions),
            len: positions,
            tokens: self.tokens[..positions].to_vec(),
            score_buf: Vec::new(),
        })
    }

    /// Processes one token, returning the next-token logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadSequence`] if the context window is full,
    /// [`NnError::BadToken`] for an out-of-vocabulary id, and
    /// [`NnError::PoolExhausted`] when the pool cannot back the new
    /// position. All errors leave the cache unadvanced.
    pub fn decode_step(&mut self, token: u32) -> Result<Vec<f32>, NnError> {
        let mut rows = Self::forward_rows(&mut [self], &[&[token]], Logits::All)?;
        Ok(rows.pop().expect("one row in, one row of logits out"))
    }

    /// Advances N decoding sessions that share one model by one token each,
    /// returning each session's next-token logits in submission order —
    /// bit-identical to N independent [`KvCache::decode_step`] calls, at one
    /// weight sweep per 32 sessions instead of one per session. Sessions on
    /// different pools may be mixed freely.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `tokens.len() != sessions.len()`
    /// or the sessions do not all share one model allocation,
    /// [`NnError::BadSequence`] if any session's context window is full,
    /// [`NnError::BadToken`] for any out-of-vocabulary id, and
    /// [`NnError::PoolExhausted`] if any session's pool cannot back its new
    /// position. On error no session has advanced.
    pub fn decode_batch(
        sessions: &mut [&mut KvCache],
        tokens: &[u32],
    ) -> Result<Vec<Vec<f32>>, NnError> {
        if sessions.len() != tokens.len() {
            return Err(NnError::BadConfig {
                detail: format!(
                    "decode_batch got {} sessions but {} tokens",
                    sessions.len(),
                    tokens.len()
                ),
            });
        }
        let chunks: Vec<&[u32]> = tokens.iter().map(std::slice::from_ref).collect();
        Self::forward_rows(sessions, &chunks, Logits::All)
    }

    /// Processes `tokens` as consecutive positions of **this** session in
    /// one batched forward, returning the next-token logits after *every*
    /// position — the speculative-decoding verification primitive: feed
    /// `[t0, d1, …, dm]` and row `i` tells you what the model would emit
    /// after the first `i + 1` of those tokens, bit-identically to stepping
    /// them one at a time.
    ///
    /// An empty chunk is a no-op returning no rows.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `tokens.len()` exceeds
    /// [`chipalign_tensor::tune::GEMM_SKINNY_M_MAX`] (a verification round
    /// is one weight sweep by contract), [`NnError::BadSequence`] if the
    /// chunk does not fit the context window, [`NnError::BadToken`] for
    /// out-of-vocabulary ids, and [`NnError::PoolExhausted`] if the
    /// cache's pool cannot back every new position. On error the cache is
    /// exactly as it was.
    pub fn verify_chunk(&mut self, tokens: &[u32]) -> Result<Vec<Vec<f32>>, NnError> {
        if tokens.len() > GEMM_SKINNY_M_MAX {
            return Err(NnError::BadConfig {
                detail: format!(
                    "verify_chunk of {} tokens exceeds the skinny-GEMM bound {GEMM_SKINNY_M_MAX}",
                    tokens.len()
                ),
            });
        }
        Self::forward_rows(&mut [self], &[tokens], Logits::All)
    }

    /// The one transformer forward: feeds `chunks[i]` to `sessions[i]` as
    /// its next `chunks[i].len()` positions and returns next-token logits,
    /// in row order, for the rows `logits` selects (see the module docs
    /// for the four steps and the bit-identity argument).
    ///
    /// Everything fallible happens first — validation, then pool
    /// reservations for every new position of every session, unwound if a
    /// later one fails — so on error no cache has changed.
    fn forward_rows(
        sessions: &mut [&mut KvCache],
        chunks: &[&[u32]],
        logits: Logits,
    ) -> Result<Vec<Vec<f32>>, NnError> {
        debug_assert_eq!(sessions.len(), chunks.len());
        let Some(first) = sessions.first() else {
            return Ok(Vec::new());
        };
        let model = Arc::clone(&first.model);
        let arch = model.arch();
        for (i, (s, chunk)) in sessions.iter().zip(chunks).enumerate() {
            if !Arc::ptr_eq(&s.model, &model) {
                return Err(NnError::BadConfig {
                    detail: format!("session {i} is bound to a different model"),
                });
            }
            if s.len + chunk.len() > arch.max_seq_len {
                return Err(NnError::BadSequence {
                    detail: format!(
                        "kv cache full: {} cached + {} new positions exceed the context \
                         window of {} (session {i})",
                        s.len,
                        chunk.len(),
                        arch.max_seq_len
                    ),
                });
            }
        }
        if let Some(&id) = chunks
            .iter()
            .flat_map(|chunk| chunk.iter())
            .find(|&&t| t as usize >= arch.vocab_size)
        {
            return Err(NnError::BadToken {
                id,
                vocab: arch.vocab_size,
            });
        }
        let (d, n_heads, head_dim) = (arch.d_model, arch.n_heads, arch.head_dim());
        for i in 0..sessions.len() {
            let s = &mut *sessions[i];
            if let Err(e) = s.table.reserve(s.len, chunks[i].len(), arch.n_layers, d) {
                // `reserve` unwound its own session; unwind the earlier ones.
                for s in &mut sessions[..i] {
                    s.table.truncate(s.len);
                }
                return Err(e);
            }
        }

        // Session-major stack of the new rows.
        let mut rows = Vec::with_capacity(chunks.iter().map(|c| c.len()).sum());
        for (s, chunk) in chunks.iter().enumerate() {
            let base = sessions[s].len;
            rows.extend(chunk.iter().enumerate().map(|(j, &token)| Row {
                s,
                pos: base + j,
                token,
                wanted: logits == Logits::All || j + 1 == chunk.len(),
            }));
        }

        let params = model.params();
        let quant = model.quant();
        let mut out = Vec::new();
        let mut rope = Vec::new();
        // At most GEMM_SKINNY_M_MAX rows per GEMM: the bound under which a
        // stacked row is bitwise a matvec. A block runs the whole layer
        // stack before the next starts, so a long chunk's later rows find
        // the earlier rows' K/V in place.
        for block in rows.chunks(GEMM_SKINNY_M_MAX) {
            let m = block.len();
            let mut h = Matrix::zeros(m, d);
            // One (sin, cos) run per row, shared by q and k, every head and
            // every layer.
            rope.clear();
            for (r, row) in block.iter().enumerate() {
                h.row_mut(r)
                    .copy_from_slice(params.embed.row(row.token as usize));
                rope_sin_cos(row.pos, head_dim, 1.0, &mut rope);
            }

            for (li, layer) in params.layers.iter().enumerate() {
                let ql = quant.map(|qp| &qp.layers[li]);
                // Attention block: projections batched across rows.
                let hn = rmsnorm_rows(h.iter_rows(), layer.norm1.data());
                let mut q = project_rows(&hn, &layer.wq, ql.map(|l| &l.wq));
                let mut k = project_rows(&hn, &layer.wk, ql.map(|l| &l.wk));
                let v = project_rows(&hn, &layer.wv, ql.map(|l| &l.wv));
                for (r, sin_cos) in rope.chunks(head_dim / 2).enumerate() {
                    rope_rotate(q.row_mut(r), n_heads, head_dim, sin_cos);
                    rope_rotate(k.row_mut(r), n_heads, head_dim, sin_cos);
                }
                // Attention stays per row: cache lengths are ragged across
                // sessions, and within a session row r must see rows 0..r
                // of the chunk — exactly what sequential steps would.
                let mut ctx = Matrix::zeros(m, d);
                for (r, row) in block.iter().enumerate() {
                    let session = &mut *sessions[row.s];
                    session.table.write_row(li, row.pos, k.row(r), v.row(r));
                    session.table.attend(
                        li,
                        row.pos + 1,
                        q.row(r),
                        &mut session.score_buf,
                        ctx.row_mut(r),
                    );
                }
                add_rows(&mut h, &project_rows(&ctx, &layer.wo, ql.map(|l| &l.wo)));

                // MLP block.
                let hn2 = rmsnorm_rows(h.iter_rows(), layer.norm2.data());
                let mut act = project_rows(&hn2, &layer.wg, ql.map(|l| &l.wg));
                let up = project_rows(&hn2, &layer.wu, ql.map(|l| &l.wu));
                for (a, &u) in act.data_mut().iter_mut().zip(up.data()) {
                    *a = ops::silu(*a) * u;
                }
                add_rows(&mut h, &project_rows(&act, &layer.wd, ql.map(|l| &l.wd)));
            }

            // Final norm and LM head only where logits are wanted: a
            // prefill pays for one row per chunk, not one per token.
            let wanted = block
                .iter()
                .zip(h.iter_rows())
                .filter_map(|(row, h_row)| row.wanted.then_some(h_row));
            let hf = rmsnorm_rows(wanted, params.final_norm.data());
            if hf.rows() > 0 {
                let head = project_rows(&hf, &params.lm_head, quant.map(|qp| &qp.lm_head));
                out.extend(head.iter_rows().map(<[f32]>::to_vec));
            }
        }

        for (s, chunk) in sessions.iter_mut().zip(chunks) {
            s.len += chunk.len();
            s.tokens.extend_from_slice(chunk);
        }
        Ok(out)
    }

    /// Rewinds the cache to its first `len` positions, discarding the
    /// rest — the speculative-decoding rejection primitive: after a
    /// [`KvCache::verify_chunk`] whose tail tokens the target disagreed
    /// with, the cache truncates back to the accepted prefix and continues
    /// **bit-identically** to a cache that never saw the rejected rows
    /// (K/V rows are per-position and causal, so dropped rows leave no
    /// trace; any stale bytes past `len` in a tail block are positionally
    /// overwritten before they could ever be attended).
    ///
    /// Blocks wholly past the cut are released to the pool (or merely
    /// un-aliased, if forked copies still hold them).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadSequence`] if `len` exceeds the cached length,
    /// or if the cut lands strictly inside a *sealed* int8 block — sealed
    /// rows could only be re-opened by dequantizing (lossy, so the rewind
    /// would no longer be exact). Callers pace writes with
    /// [`KvCache::lossless_run`] to keep every speculative rewind on the
    /// exact path. On error the cache is unchanged.
    pub fn truncate(&mut self, len: usize) -> Result<(), NnError> {
        if len > self.len {
            return Err(NnError::BadSequence {
                detail: format!(
                    "cannot truncate to {len} positions, only {} cached",
                    self.len
                ),
            });
        }
        if len == self.len {
            return Ok(());
        }
        let bt = self.table.pool.block_tokens();
        if !len.is_multiple_of(bt) && self.table.blocks[len / bt].is_sealed() {
            return Err(NnError::BadSequence {
                detail: format!("truncating to {len} positions cuts inside a sealed int8 block"),
            });
        }
        self.table.truncate(len);
        self.tokens.truncate(len);
        self.len = len;
        Ok(())
    }

    /// How many positions can be written from here and still be rewound
    /// *exactly* by [`KvCache::truncate`]. A cache on an f32 pool rewinds
    /// anywhere (`usize::MAX` — f32 blocks never seal); on an int8 pool
    /// the answer is the distance to the next seal boundary, because
    /// writing a block's final position quantizes it irreversibly. The
    /// speculative decoder caps each draft burst at this, so rejection
    /// rollbacks stay bit-exact on every KV dtype (a zero here just means
    /// one plain decode step, after which a fresh block opens).
    #[must_use]
    pub fn lossless_run(&self) -> usize {
        let pool = &self.table.pool;
        if pool.dtype() == KvDtype::Int8 {
            let bt = pool.block_tokens();
            bt - 1 - (self.len % bt)
        } else {
            usize::MAX
        }
    }
}

/// Which rows of a `KvCache::forward_rows` call get next-token logits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Logits {
    /// Every row (decode, speculative verification).
    All,
    /// Each session's final row only (prefill).
    Last,
}

/// One stacked row of a forward: `token` lands at position `pos` of
/// session `s`.
struct Row {
    s: usize,
    pos: usize,
    token: u32,
    wanted: bool,
}

/// `Y = X · Wᵀ` for a stack of at most `GEMM_SKINNY_M_MAX` rows, over the
/// int8 sidecar weight when one is supplied (the f32 matrix is then not
/// touched). Row `r` of the result is bitwise `w.matvec(x.row(r))`: both
/// dtypes run the backend's one `X·Wᵀ` tile, whose tiles reuse loads but
/// never reorder a dot, and a single row is dispatched to `matvec` itself.
fn project_rows(x: &Matrix, w: &Matrix, q: Option<&QuantizedMatrix>) -> Matrix {
    match q {
        Some(qw) => qw.matmul_bt(x),
        None => x.matmul_bt(w),
    }
    .expect("projection shapes are fixed by the architecture")
}

/// Residual connection: `h += delta`, element by element.
fn add_rows(h: &mut Matrix, delta: &Matrix) {
    h.add_assign(delta)
        .expect("residual shapes are fixed by the architecture");
}

/// RMSNorm of each given row (same ε as [`crate::TinyLm::forward`]),
/// stacked into a matrix.
fn rmsnorm_rows<'a>(rows: impl Iterator<Item = &'a [f32]>, gain: &[f32]) -> Matrix {
    let d = gain.len();
    let mut out = Vec::with_capacity(rows.size_hint().0 * d);
    for x in rows {
        let ms = x.iter().map(|&v| v * v).sum::<f32>() / x.len() as f32;
        let rms = (ms + 1e-5).sqrt();
        out.extend(x.iter().zip(gain).map(|(&v, &g)| v * g / rms));
    }
    Matrix::from_vec(out.len() / d, d, out).expect("whole rows")
}

#[cfg(test)]
mod tests {
    use super::*;
    use chipalign_model::ArchSpec;
    use chipalign_tensor::rng::Pcg32;

    fn model() -> Arc<TinyLm> {
        let mut arch = ArchSpec::tiny("kv");
        arch.vocab_size = 99;
        Arc::new(TinyLm::new(&arch, &mut Pcg32::seed(77)).expect("valid"))
    }

    #[test]
    fn cached_logits_match_full_forward() {
        let m = model();
        let tokens = [4u32, 9, 14, 19, 24, 29];
        let full = m.logits(&tokens).expect("ok");
        let mut cache = KvCache::new(&m);
        for (t, &tok) in tokens.iter().enumerate() {
            let row = cache.decode_step(tok).expect("ok");
            for (v, &b) in row.iter().enumerate() {
                let a = full.get(t, v).expect("in range");
                assert!(
                    (a - b).abs() < 1e-3,
                    "mismatch at pos {t} vocab {v}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn prefill_matches_stepwise() {
        let m = model();
        let mut a = KvCache::new(&m);
        let last_a = a.prefill(&[5, 10, 15]).expect("ok");
        let mut b = KvCache::new(&m);
        b.decode_step(5).expect("ok");
        b.decode_step(10).expect("ok");
        let last_b = b.decode_step(15).expect("ok");
        assert_eq!(last_a, last_b);
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn cache_enforces_context_limit() {
        let m = model(); // max_seq_len = 32
        let mut cache = KvCache::new(&m);
        for i in 0..32 {
            cache.decode_step(4 + (i % 90) as u32).expect("ok");
        }
        assert!(matches!(
            cache.decode_step(4),
            Err(NnError::BadSequence { .. })
        ));
    }

    #[test]
    fn reset_cache_replays_like_a_fresh_one() {
        let m = model();
        let mut used = KvCache::new(&m);
        used.prefill(&[5, 10, 15, 20]).expect("ok");
        used.reset();
        assert!(used.is_empty());
        let replayed = used.prefill(&[7, 12, 17]).expect("ok");
        let mut fresh = KvCache::new(&m);
        let reference = fresh.prefill(&[7, 12, 17]).expect("ok");
        assert_eq!(replayed, reference, "reset must fully clear cached state");
        assert_eq!(used.len(), fresh.len());
    }

    #[test]
    fn decode_goes_through_matvec_fast_path() {
        // Per token: 7 projections (q,k,v,o,gate,up,down) × 2 layers plus
        // the LM head = 15 matvec calls; 3 tokens = 45. The counter is
        // process-wide, so assert a lower bound on the delta rather than an
        // exact count (other tests may decode concurrently).
        // Stepped, not prefilled: a prefill stacks its rows into one GEMM
        // per projection (`tests/prefill_counter.rs` pins that side).
        let m = model();
        let mut cache = KvCache::new(&m);
        let before = chipalign_tensor::tune::matvec_calls();
        for t in [5, 10, 15] {
            cache.decode_step(t).expect("ok");
        }
        let delta = chipalign_tensor::tune::matvec_calls() - before;
        assert!(delta >= 45, "expected >= 45 matvec calls, saw {delta}");
    }

    #[test]
    fn rejects_bad_tokens_and_empty_prefill() {
        let m = model();
        let mut cache = KvCache::new(&m);
        assert!(matches!(
            cache.decode_step(200),
            Err(NnError::BadToken { .. })
        ));
        assert!(cache.prefill(&[]).is_err());
        assert!(cache.is_empty());
    }

    #[test]
    fn decode_batch_is_bitwise_identical_to_sequential() {
        // Ragged histories: every session enters the batch at a different
        // cache length, and the batch runs for several rounds so the
        // lengths stay staggered throughout.
        let m = model();
        let histories: [&[u32]; 4] = [&[5], &[5, 10], &[5, 10, 15, 20], &[7, 3, 9, 22, 41, 2, 8]];
        let mk = |h: &&[u32]| {
            let mut c = KvCache::new(&m);
            c.prefill(h).expect("ok");
            c
        };
        let mut seq: Vec<KvCache> = histories.iter().map(mk).collect();
        let mut bat: Vec<KvCache> = histories.iter().map(mk).collect();

        for round in 0..3u32 {
            let toks: Vec<u32> = [11u32, 22, 33, 44].iter().map(|&t| t + round).collect();
            let expected: Vec<Vec<f32>> = seq
                .iter_mut()
                .zip(&toks)
                .map(|(c, &t)| c.decode_step(t).expect("ok"))
                .collect();
            let mut refs: Vec<&mut KvCache> = bat.iter_mut().collect();
            let got = KvCache::decode_batch(&mut refs, &toks).expect("ok");
            assert_eq!(got, expected, "round {round} drifted from sequential");
        }
        for (a, b) in seq.iter().zip(&bat) {
            assert_eq!(a.len(), b.len());
        }
    }

    fn quant_model() -> Arc<TinyLm> {
        let mut arch = ArchSpec::tiny("kv");
        arch.vocab_size = 99;
        let mut m = TinyLm::new(&arch, &mut Pcg32::seed(77)).expect("valid");
        m.quantize();
        Arc::new(m)
    }

    #[test]
    fn quantized_decode_tracks_f32_within_tolerance() {
        // Same weights, same token stream (teacher-forced): the int8 decode
        // may drift from the f32 oracle only by the quantization error,
        // which for this architecture stays well under 0.25 per logit.
        let f32_m = model();
        let int8_m = quant_model();
        let mut f32_c = KvCache::new(&f32_m);
        let mut int8_c = KvCache::new(&int8_m);
        let tokens = [4u32, 9, 14, 19, 24, 29, 7, 3];
        for &t in &tokens {
            let a = f32_c.decode_step(t).expect("ok");
            let b = int8_c.decode_step(t).expect("ok");
            let max_diff = a
                .iter()
                .zip(&b)
                .fold(0.0f32, |acc, (x, y)| acc.max((x - y).abs()));
            assert!(
                max_diff <= 0.25,
                "int8 logits drifted {max_diff} from f32 at token {t}"
            );
        }
    }

    #[test]
    fn quantized_decode_is_deterministic() {
        // Two independent caches over the same quantized model agree
        // bitwise — int8 decode is as reproducible as f32 decode.
        let m = quant_model();
        let mut a = KvCache::new(&m);
        let mut b = KvCache::new(&m);
        for t in [5u32, 11, 42, 8] {
            assert_eq!(a.decode_step(t).expect("ok"), b.decode_step(t).expect("ok"));
        }
    }

    #[test]
    fn quantized_decode_batch_is_bitwise_identical_to_sequential() {
        // The int8 twin of the f32 batched-decode bit-identity pin.
        let m = quant_model();
        let histories: [&[u32]; 3] = [&[5], &[5, 10, 15], &[7, 3, 9, 22, 41]];
        let mk = |h: &&[u32]| {
            let mut c = KvCache::new(&m);
            c.prefill(h).expect("ok");
            c
        };
        let mut seq: Vec<KvCache> = histories.iter().map(mk).collect();
        let mut bat: Vec<KvCache> = histories.iter().map(mk).collect();
        for round in 0..3u32 {
            let toks: Vec<u32> = [11u32, 22, 33].iter().map(|&t| t + round).collect();
            let expected: Vec<Vec<f32>> = seq
                .iter_mut()
                .zip(&toks)
                .map(|(c, &t)| c.decode_step(t).expect("ok"))
                .collect();
            let mut refs: Vec<&mut KvCache> = bat.iter_mut().collect();
            let got = KvCache::decode_batch(&mut refs, &toks).expect("ok");
            assert_eq!(got, expected, "int8 round {round} drifted from sequential");
        }
    }

    #[test]
    fn decode_batch_handles_empty_and_single() {
        let m = model();
        let mut none: Vec<&mut KvCache> = Vec::new();
        assert!(KvCache::decode_batch(&mut none, &[])
            .expect("ok")
            .is_empty());

        let mut a = KvCache::new(&m);
        a.prefill(&[5, 6]).expect("ok");
        let mut reference = KvCache::new(&m);
        reference.prefill(&[5, 6]).expect("ok");
        let expected = reference.decode_step(7).expect("ok");
        let mut batch = [&mut a];
        let got = KvCache::decode_batch(&mut batch, &[7]).expect("ok");
        assert_eq!(got, vec![expected]);
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn decode_batch_validates_before_touching_any_session() {
        let m = model();
        let mut a = KvCache::new(&m);
        a.prefill(&[5, 6]).expect("ok");
        let mut b = KvCache::new(&m);
        b.prefill(&[5]).expect("ok");

        // Session/token count mismatch.
        {
            let mut batch = [&mut a, &mut b];
            assert!(matches!(
                KvCache::decode_batch(&mut batch, &[1]),
                Err(NnError::BadConfig { .. })
            ));
        }
        // Out-of-vocabulary token in the *second* slot: the first session
        // must not have advanced either.
        {
            let mut batch = [&mut a, &mut b];
            assert!(matches!(
                KvCache::decode_batch(&mut batch, &[1, 200]),
                Err(NnError::BadToken { .. })
            ));
        }
        // Same weights, different allocation: batching requires one Arc.
        let other = model();
        let mut c = KvCache::new(&other);
        c.prefill(&[5]).expect("ok");
        {
            let mut batch = [&mut a, &mut c];
            assert!(matches!(
                KvCache::decode_batch(&mut batch, &[1, 2]),
                Err(NnError::BadConfig { .. })
            ));
        }
        assert_eq!(a.len(), 2, "failed batches must not advance any session");
        assert_eq!(b.len(), 1);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn decode_batch_rejects_full_cache_without_side_effects() {
        let m = model(); // max_seq_len = 32
        let mut full = KvCache::new(&m);
        for i in 0..32 {
            full.decode_step(4 + (i % 90) as u32).expect("ok");
        }
        let mut fresh = KvCache::new(&m);
        fresh.prefill(&[5]).expect("ok");
        let mut batch = [&mut fresh, &mut full];
        assert!(matches!(
            KvCache::decode_batch(&mut batch, &[1, 2]),
            Err(NnError::BadSequence { .. })
        ));
        assert_eq!(fresh.len(), 1);
        assert_eq!(full.len(), 32);
    }

    #[test]
    fn chunked_prefill_is_bitwise_identical_to_one_shot() {
        let m = model();
        let prompt: Vec<u32> = (0..12).map(|i| 4 + (i * 7) % 90).collect();
        let mut one_shot = KvCache::new(&m);
        let reference = one_shot.prefill(&prompt).expect("ok");
        for split in [1usize, 3, 5, 11] {
            let mut chunked = KvCache::new(&m);
            let mut last = Vec::new();
            for chunk in prompt.chunks(split) {
                last = chunked.prefill_chunk(chunk).expect("ok");
            }
            assert_eq!(last, reference, "chunk size {split} drifted");
            assert_eq!(chunked.len(), one_shot.len());
            assert_eq!(chunked.tokens(), one_shot.tokens());
            // And the caches must continue identically.
            let a = chunked.decode_step(42).expect("ok");
            let b = one_shot.clone().decode_step(42).expect("ok");
            assert_eq!(a, b);
        }
    }

    #[test]
    fn empty_prefill_chunk_is_a_no_op() {
        let m = model();
        let mut cache = KvCache::new(&m);
        cache.prefill(&[5, 6]).expect("ok");
        let logits = cache.prefill_chunk(&[]).expect("ok");
        assert!(logits.is_empty());
        assert_eq!(cache.len(), 2);
        // One-shot prefill still rejects empty prompts.
        assert!(cache.prefill(&[]).is_err());
    }

    #[test]
    fn forked_prefix_continues_like_a_fresh_prefill() {
        let m = model();
        let prompt = [5u32, 10, 15, 20, 25, 30];
        let mut donor = KvCache::new(&m);
        donor.prefill(&prompt).expect("ok");
        // Advance the donor past the fork point: the fork must not see it.
        donor.decode_step(77).expect("ok");

        for p in [1usize, 3, 6] {
            let mut forked = donor.fork_from(p).expect("ok");
            assert_eq!(forked.len(), p);
            assert_eq!(forked.tokens(), &prompt[..p]);
            assert!(Arc::ptr_eq(forked.model(), donor.model()));

            let mut fresh = KvCache::new(&m);
            fresh.prefill(&prompt[..p]).expect("ok");
            let a = forked.decode_step(50).expect("ok");
            let b = fresh.decode_step(50).expect("ok");
            assert_eq!(a, b, "fork at {p} positions drifted from fresh prefill");
        }
    }

    #[test]
    fn fork_from_validates_positions_and_supports_zero() {
        let m = model();
        let mut donor = KvCache::new(&m);
        donor.prefill(&[5, 6, 7]).expect("ok");
        assert!(matches!(
            donor.fork_from(4),
            Err(NnError::BadSequence { .. })
        ));
        let empty = donor.fork_from(0).expect("ok");
        assert!(empty.is_empty());
        assert_eq!(empty.kv_bytes(), 0);
    }

    #[test]
    fn token_history_tracks_every_path() {
        let m = model();
        let mut a = KvCache::new(&m);
        a.prefill(&[5, 10]).expect("ok");
        a.decode_step(15).expect("ok");
        assert_eq!(a.tokens(), &[5, 10, 15]);

        let mut b = KvCache::new(&m);
        b.prefill(&[5]).expect("ok");
        {
            let mut batch = [&mut a, &mut b];
            KvCache::decode_batch(&mut batch, &[20, 25]).expect("ok");
        }
        assert_eq!(a.tokens(), &[5, 10, 15, 20]);
        assert_eq!(b.tokens(), &[5, 25]);

        a.reset();
        assert!(a.tokens().is_empty());
    }

    #[test]
    fn kv_bytes_counts_cached_rows() {
        let m = model();
        let arch = m.arch().clone();
        let mut cache = KvCache::new(&m);
        assert_eq!(cache.kv_bytes(), 0);
        cache.prefill(&[5, 6, 7]).expect("ok");
        assert_eq!(cache.kv_bytes(), arch.n_layers * 3 * 2 * arch.d_model * 4);
    }

    #[test]
    fn sessions_share_one_model_allocation() {
        let m = model();
        let base = Arc::strong_count(&m);
        let caches: Vec<KvCache> = (0..8).map(|_| KvCache::new(&m)).collect();
        assert_eq!(
            Arc::strong_count(&m),
            base + 8,
            "each cache must hold an Arc, not a model clone"
        );
        for c in &caches {
            assert!(Arc::ptr_eq(c.model(), &m));
        }
    }

    fn small_pool(max_blocks: usize) -> Arc<crate::KvPool> {
        crate::KvPool::new(crate::KvPoolConfig {
            block_tokens: 4,
            max_blocks,
            ..crate::KvPoolConfig::default()
        })
        .expect("valid pool config")
    }

    fn small_pool_q8(max_blocks: usize) -> Arc<crate::KvPool> {
        crate::KvPool::new(crate::KvPoolConfig {
            block_tokens: 4,
            max_blocks,
            dtype: crate::KvDtype::Int8,
        })
        .expect("valid pool config")
    }

    /// Asserts the KV8 serving contract for one logit row: every logit
    /// within [`KV8_LOGIT_TOL`] of the f32 oracle, and argmax agreement
    /// whenever the oracle's runner-up margin clears `2 × tol`.
    fn assert_kv8_tracks(f32_logits: &[f32], kv8_logits: &[f32], what: &str) {
        let max_diff = f32_logits
            .iter()
            .zip(kv8_logits)
            .fold(0.0f32, |acc, (a, b)| acc.max((a - b).abs()));
        assert!(
            max_diff <= KV8_LOGIT_TOL,
            "{what}: int8-KV logits drifted {max_diff} (> {KV8_LOGIT_TOL}) from f32"
        );
        let am = ops::argmax(f32_logits).expect("non-empty");
        let top = f32_logits[am];
        let runner_up = f32_logits
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != am)
            .fold(f32::NEG_INFINITY, |acc, (_, &v)| acc.max(v));
        if top - runner_up > 2.0 * KV8_LOGIT_TOL {
            assert_eq!(
                ops::argmax(kv8_logits).expect("non-empty"),
                am,
                "{what}: argmax flipped despite a {}-wide margin",
                top - runner_up
            );
        }
    }

    #[test]
    fn paged_decode_is_bitwise_identical_to_contiguous() {
        let m = model();
        let pool = small_pool(64);
        // 13 tokens with block_tokens = 4: three full blocks + a partial.
        let prompt: Vec<u32> = (0..13).map(|i| 4 + (i * 7) % 90).collect();
        let mut paged = KvCache::new_paged(&m, &pool);
        let mut flat = KvCache::new(&m);
        assert_eq!(
            (paged.pool().block_tokens(), flat.pool().block_tokens()),
            (4, 1)
        );
        let a = paged.prefill(&prompt).expect("ok");
        let b = flat.prefill(&prompt).expect("ok");
        assert_eq!(a, b, "paged prefill logits must equal contiguous exactly");
        for t in [42u32, 7, 88] {
            assert_eq!(
                paged.decode_step(t).expect("ok"),
                flat.decode_step(t).expect("ok"),
                "paged decode drifted at token {t}"
            );
        }
        assert_eq!(paged.tokens(), flat.tokens());
        assert_eq!(paged.kv_bytes(), flat.kv_bytes());
        assert_eq!(paged.block_count(), pool.blocks_for(paged.len()));
        assert_eq!(pool.blocks_in_use(), paged.block_count());
    }

    #[test]
    fn paged_fork_aliases_blocks_and_cow_protects_both_branches() {
        let m = model();
        let pool = small_pool(64);
        let prompt = [5u32, 10, 15, 20, 25, 30]; // 2 blocks, tail half full
        let mut donor = KvCache::new_paged(&m, &pool);
        donor.prefill(&prompt).expect("ok");
        let blocks_before = pool.blocks_in_use();

        let mut fork = donor.fork_from(prompt.len()).expect("ok");
        assert_eq!(
            pool.blocks_in_use(),
            blocks_before,
            "a fork must allocate zero blocks"
        );
        assert_eq!(fork.block_ids(), donor.block_ids(), "blocks are aliased");

        // Diverge BOTH branches: each write into the shared tail block
        // must privatise it, never scribble over the other branch's rows.
        let fork_logits = fork.decode_step(50).expect("ok");
        let donor_logits = donor.decode_step(60).expect("ok");
        assert!(pool.cow_copies() >= 1, "shared tail writes must copy");
        assert_ne!(
            fork.block_ids().last(),
            donor.block_ids().last(),
            "diverged tails must be distinct blocks"
        );

        // Contiguous twins as the differential oracle.
        let mut ref_fork = KvCache::new(&m);
        ref_fork.prefill(&prompt).expect("ok");
        let mut ref_donor = ref_fork.clone();
        assert_eq!(fork_logits, ref_fork.decode_step(50).expect("ok"));
        assert_eq!(donor_logits, ref_donor.decode_step(60).expect("ok"));
        // And both branches keep decoding identically after the split.
        assert_eq!(
            fork.decode_step(51).expect("ok"),
            ref_fork.decode_step(51).expect("ok")
        );
        assert_eq!(
            donor.decode_step(61).expect("ok"),
            ref_donor.decode_step(61).expect("ok")
        );
    }

    #[test]
    fn pool_exhaustion_fails_cleanly_and_reset_releases_blocks() {
        let m = model();
        let pool = small_pool(2); // 8 positions at block_tokens = 4
        let mut cache = KvCache::new_paged(&m, &pool);
        cache
            .prefill(&[5, 6, 7, 8, 9, 10, 11, 12])
            .expect("8 positions fit in 2 blocks");
        assert_eq!(pool.blocks_free(), 0);
        let err = cache
            .decode_step(13)
            .expect_err("third block must be refused");
        assert!(matches!(err, NnError::PoolExhausted { .. }));
        assert_eq!(cache.len(), 8, "a refused step must not advance the cache");
        assert_eq!(cache.block_count(), 2);

        cache.reset();
        assert_eq!(pool.blocks_in_use(), 0, "reset returns blocks to the pool");
        cache
            .prefill(&[5, 6, 7])
            .expect("freed blocks are allocatable");
    }

    #[test]
    fn decode_batch_rejects_pool_exhaustion_without_side_effects() {
        let m = model();
        let pool = small_pool(3);
        let mk = |toks: &[u32]| {
            let mut c = KvCache::new_paged(&m, &pool);
            c.prefill(toks).expect("ok");
            c
        };
        // Both sessions sit exactly at a block boundary: the next token
        // needs one fresh block each, but only one is left in the pool.
        let mut a = mk(&[5, 6, 7, 8]);
        let mut b = mk(&[9, 10, 11, 12]);
        assert_eq!(pool.blocks_free(), 1);
        {
            let mut batch = [&mut a, &mut b];
            let err = KvCache::decode_batch(&mut batch, &[1, 2]).expect_err("pool short");
            assert!(matches!(err, NnError::PoolExhausted { .. }));
        }
        assert_eq!(a.len(), 4, "failed batches must not advance any session");
        assert_eq!(b.len(), 4);
        assert_eq!(
            pool.blocks_in_use(),
            2,
            "the first session's speculative block must be returned"
        );
        // Freeing one session lets the other proceed.
        b.reset();
        a.decode_step(1).expect("pool has room again");
    }

    #[test]
    fn mixed_paged_and_contiguous_batch_matches_sequential() {
        let m = model();
        let pool = small_pool(64);
        let histories: [&[u32]; 3] = [&[5], &[5, 10, 15, 20], &[7, 3, 9, 22, 41]];
        let mk = |h: &&[u32], paged: bool| {
            let mut c = if paged {
                KvCache::new_paged(&m, &pool)
            } else {
                KvCache::new(&m)
            };
            c.prefill(h).expect("ok");
            c
        };
        let mut seq: Vec<KvCache> = histories
            .iter()
            .enumerate()
            .map(|(i, h)| mk(h, i % 2 == 0))
            .collect();
        let mut bat: Vec<KvCache> = histories
            .iter()
            .enumerate()
            .map(|(i, h)| mk(h, i % 2 == 0))
            .collect();
        for round in 0..3u32 {
            let toks: Vec<u32> = [11u32, 22, 33].iter().map(|&t| t + round).collect();
            let expected: Vec<Vec<f32>> = seq
                .iter_mut()
                .zip(&toks)
                .map(|(c, &t)| c.decode_step(t).expect("ok"))
                .collect();
            let mut refs: Vec<&mut KvCache> = bat.iter_mut().collect();
            let got = KvCache::decode_batch(&mut refs, &toks).expect("ok");
            assert_eq!(got, expected, "round {round} drifted from sequential");
        }
    }

    #[test]
    fn private_cache_reports_its_own_pool_state() {
        let m = model();
        let mut flat = KvCache::new(&m);
        flat.prefill(&[5, 6, 7]).expect("ok");
        assert_eq!(flat.pool().dtype(), crate::KvDtype::F32);
        assert_eq!(flat.pool().block_tokens(), 1);
        assert_eq!(flat.block_count(), 3);
        assert_eq!(flat.block_ids().len(), 3);
        assert!(!Arc::ptr_eq(flat.pool(), KvCache::new(&m).pool()));
    }

    #[test]
    fn private_pool_keeps_the_per_row_contract() {
        let m = model();
        let mut rng = Pcg32::seed(31);
        let mut donor = KvCache::new(&m);
        let prompt: Vec<u32> = (0..24).map(|i| 4 + (i * 7) % 90).collect();
        donor.prefill(&prompt).expect("ok");
        let pool = Arc::clone(donor.pool());
        assert_eq!(pool.block_tokens(), 1);
        assert_eq!(donor.kv_bytes(), pool.bytes_in_use(), "bytes are per row");

        // Forks at random points alias whole rows: writing past any cut
        // opens a fresh block, so nothing is ever copied, and an uncapped
        // pool never refuses a block.
        let forks: Vec<KvCache> = (0..64)
            .map(|_| {
                let mut fork = donor.fork_from(rng.below(donor.len() + 1)).expect("ok");
                for _ in 0..8 {
                    let t = 4 + rng.below(90) as u32;
                    fork.decode_step(t).expect("a private pool never runs out");
                }
                fork
            })
            .collect();
        assert_eq!(pool.cow_copies(), 0, "one-token blocks are never copied");

        // Rewinds are exact at every position.
        for len in 0..=donor.len() {
            let mut c = donor.fork_from(donor.len()).expect("ok");
            c.truncate(len).expect("truncation is exact anywhere");
            assert_eq!((c.len(), c.block_count()), (len, len));
        }

        drop(forks);
        assert_eq!(donor.kv_bytes(), pool.bytes_in_use());
        drop(donor);
        assert_eq!(pool.bytes_in_use(), 0, "every block went back");
        assert_eq!(pool.blocks_in_use(), 0);
    }

    #[test]
    fn kv8_decode_tracks_f32_within_tolerance() {
        // Teacher-forced greedy pin: same weights, same token stream, the
        // only difference is int8-sealed KV blocks. Covers several sealed
        // blocks plus a partial f32 tail at every step.
        let m = model();
        let pool = small_pool_q8(64);
        let mut kv8 = KvCache::new_paged(&m, &pool);
        let mut oracle = KvCache::new(&m);
        let tokens: Vec<u32> = (0..14).map(|i| 4 + (i * 7) % 90).collect();
        for &t in &tokens {
            let a = oracle.decode_step(t).expect("ok");
            let b = kv8.decode_step(t).expect("ok");
            assert_kv8_tracks(&a, &b, &format!("decode at token {t}"));
        }
    }

    #[test]
    fn kv8_chunked_prefill_is_bitwise_identical_to_one_shot() {
        // Sealing is a pure function of position, so chunk boundaries must
        // not change which rows get quantized — the logits are bit-equal,
        // not merely within tolerance.
        let m = model();
        let prompt: Vec<u32> = (0..11).map(|i| 4 + (i * 13) % 90).collect();
        let mut one_shot = KvCache::new_paged(&m, &small_pool_q8(64));
        let a = one_shot.prefill(&prompt).expect("ok");
        let mut chunked = KvCache::new_paged(&m, &small_pool_q8(64));
        let mut b = Vec::new();
        for chunk in prompt.chunks(3) {
            b = chunked.prefill_chunk(chunk).expect("ok");
        }
        assert_eq!(a, b, "chunk boundaries changed int8 sealing");
        for t in [42u32, 7, 88] {
            assert_eq!(
                one_shot.decode_step(t).expect("ok"),
                chunked.decode_step(t).expect("ok"),
                "post-prefill decode drifted at token {t}"
            );
        }
    }

    #[test]
    fn kv8_decode_batch_is_bitwise_identical_to_sequential() {
        let m = model();
        let pool = small_pool_q8(64);
        let histories: [&[u32]; 3] = [&[5, 10], &[5, 10, 15, 20, 25], &[7, 3, 9, 22, 41, 2, 8]];
        let mk = |h: &&[u32]| {
            let mut c = KvCache::new_paged(&m, &pool);
            c.prefill(h).expect("ok");
            c
        };
        let mut seq: Vec<KvCache> = histories.iter().map(mk).collect();
        let mut bat: Vec<KvCache> = histories.iter().map(mk).collect();
        for round in 0..4u32 {
            let toks: Vec<u32> = [11u32, 22, 33].iter().map(|&t| t + round).collect();
            let expected: Vec<Vec<f32>> = seq
                .iter_mut()
                .zip(&toks)
                .map(|(c, &t)| c.decode_step(t).expect("ok"))
                .collect();
            let mut refs: Vec<&mut KvCache> = bat.iter_mut().collect();
            let got = KvCache::decode_batch(&mut refs, &toks).expect("ok");
            assert_eq!(got, expected, "round {round} drifted from sequential");
        }
    }

    #[test]
    fn kv8_fork_at_block_boundary_is_lossless_and_aliases_blocks() {
        // A fork cut on a block boundary only shares sealed blocks, so the
        // branch continues exactly like a fresh int8 cache replaying the
        // same prefix (no dequant→requant anywhere).
        let m = model();
        let pool = small_pool_q8(64);
        let prompt = [5u32, 10, 15, 20, 25, 30, 35, 40]; // 2 sealed blocks
        let mut donor = KvCache::new_paged(&m, &pool);
        donor.prefill(&prompt).expect("ok");
        let blocks_before = pool.blocks_in_use();
        let mut fork = donor.fork_from(prompt.len()).expect("ok");
        assert_eq!(pool.blocks_in_use(), blocks_before);

        let mut replay = KvCache::new_paged(&m, &pool);
        replay.prefill(&prompt).expect("ok");
        for t in [50u32, 51, 52] {
            assert_eq!(
                fork.decode_step(t).expect("ok"),
                replay.decode_step(t).expect("ok"),
                "boundary fork drifted at token {t}"
            );
        }
    }

    #[test]
    fn kv8_fork_inside_sealed_block_unseals_and_stays_within_tolerance() {
        // Cutting strictly inside a sealed block forces the lossy unseal
        // path (dequant the kept prefix rows back to f32). The branch must
        // still track the f32 oracle within the serving tolerance.
        let m = model();
        let pool = small_pool_q8(64);
        let prompt = [5u32, 10, 15, 20, 25, 30, 35, 40];
        let mut donor = KvCache::new_paged(&m, &pool);
        donor.prefill(&prompt).expect("ok");
        assert_eq!(
            donor.aligned_fork_len(6),
            4,
            "cut at 6 lands in a sealed block"
        );

        let cows_before = pool.cow_copies();
        let mut fork = donor.fork_from(6).expect("ok");
        let mut oracle = KvCache::new(&m);
        oracle.prefill(&prompt[..6]).expect("ok");
        for t in [50u32, 51, 52] {
            let a = oracle.decode_step(t).expect("ok");
            let b = fork.decode_step(t).expect("ok");
            assert_kv8_tracks(&a, &b, &format!("unsealed fork at token {t}"));
        }
        assert!(
            pool.cow_copies() > cows_before,
            "unsealing must be counted as a CoW copy"
        );
        // The donor's own blocks are untouched by the fork's unseal.
        let mut ref_donor = KvCache::new_paged(&m, &small_pool_q8(64));
        ref_donor.prefill(&prompt).expect("ok");
        assert_eq!(
            donor.decode_step(60).expect("ok"),
            ref_donor.decode_step(60).expect("ok")
        );
    }

    #[test]
    fn kv8_window_slide_replay_stays_within_tolerance() {
        // Window slide = reset + replay of the kept window, exactly how
        // StepDecoder::begin_slide drives it.
        let m = model();
        let pool = small_pool_q8(64);
        let mut kv8 = KvCache::new_paged(&m, &pool);
        let mut oracle = KvCache::new(&m);
        let history: Vec<u32> = (0..12).map(|i| 4 + (i * 11) % 90).collect();
        kv8.prefill(&history).expect("ok");
        oracle.prefill(&history).expect("ok");

        let window = &history[6..];
        kv8.reset();
        oracle.reset();
        let b = kv8.prefill(window).expect("ok");
        let a = oracle.prefill(window).expect("ok");
        assert_kv8_tracks(&a, &b, "slide replay prefill");
        for t in [50u32, 51] {
            let a = oracle.decode_step(t).expect("ok");
            let b = kv8.decode_step(t).expect("ok");
            assert_kv8_tracks(&a, &b, &format!("post-slide decode at token {t}"));
        }
    }

    #[test]
    fn kv8_block_ids_report_sealed_bytes() {
        let m = model();
        let pool = small_pool_q8(64);
        let arch = m.arch();
        let sealed = pool.sealed_block_bytes(arch.n_layers, arch.d_model, arch.n_heads);
        let born = pool.block_bytes(arch.n_layers, arch.d_model);
        assert!(sealed < born, "int8 sealing must shrink blocks");

        let mut cache = KvCache::new_paged(&m, &pool);
        cache.prefill(&[5, 6, 7, 8, 9, 10]).expect("ok"); // 1 sealed + tail
        let ids = cache.block_ids();
        assert_eq!(ids.len(), 2);
        assert_eq!(ids[0].1, sealed, "sealed block charged at int8 size");
        assert_eq!(ids[1].1, born, "open tail still charged at f32 size");
        assert_eq!(pool.bytes_in_use(), sealed + born);

        cache.reset();
        assert_eq!(pool.bytes_in_use(), 0, "reset returns every byte");
    }

    #[test]
    fn aligned_fork_len_rounds_only_into_sealed_blocks() {
        let m = model();
        let mut kv8 = KvCache::new_paged(&m, &small_pool_q8(64));
        kv8.prefill(&[5, 6, 7, 8, 9, 10]).expect("ok"); // sealed block + 2-row tail
        assert_eq!(kv8.aligned_fork_len(4), 4, "boundary cuts pass through");
        assert_eq!(kv8.aligned_fork_len(3), 0, "mid-sealed cuts round down");
        assert_eq!(kv8.aligned_fork_len(6), 6, "cuts in the f32 tail are exact");
        assert_eq!(kv8.aligned_fork_len(99), 6, "lengths clamp to the cache");

        let mut f32_paged = KvCache::new_paged(&m, &small_pool(64));
        f32_paged.prefill(&[5, 6, 7, 8, 9, 10]).expect("ok");
        assert_eq!(f32_paged.aligned_fork_len(3), 3, "f32 blocks never seal");

        let mut flat = KvCache::new(&m);
        flat.prefill(&[5, 6, 7]).expect("ok");
        assert_eq!(flat.aligned_fork_len(2), 2, "contiguous caches are exact");
    }

    #[test]
    fn kv8_pool_bytes_shrink_as_blocks_seal() {
        let m = model();
        let pool = small_pool_q8(64);
        let arch = m.arch();
        let born = pool.block_bytes(arch.n_layers, arch.d_model);
        let sealed = pool.sealed_block_bytes(arch.n_layers, arch.d_model, arch.n_heads);
        let mut cache = KvCache::new_paged(&m, &pool);
        cache.prefill(&[5, 6, 7]).expect("ok"); // tail only, still f32
        assert_eq!(pool.bytes_in_use(), born);
        cache.decode_step(8).expect("ok"); // fills row 3 → block seals
        assert_eq!(pool.bytes_in_use(), sealed);
    }

    #[test]
    fn verify_chunk_is_bitwise_identical_to_sequential() {
        // The speculative-verification forward must agree bit-for-bit with
        // stepping the same tokens one at a time, on every storage layout
        // and weight dtype — chunks crossing block (and int8 seal)
        // boundaries included.
        let chunk = [11u32, 22, 33, 44, 55, 66];
        let prompt = [5u32, 10, 15];
        let cases: Vec<(&str, KvCache)> = vec![
            ("contiguous", KvCache::new(&model())),
            ("paged f32", KvCache::new_paged(&model(), &small_pool(64))),
            ("int8 weights", KvCache::new(&quant_model())),
            ("int8 kv", KvCache::new_paged(&model(), &small_pool_q8(64))),
        ];
        for (what, mut bat) in cases {
            bat.prefill(&prompt).expect("ok");
            let mut seq = bat.clone();
            let expected: Vec<Vec<f32>> = chunk
                .iter()
                .map(|&t| seq.decode_step(t).expect("ok"))
                .collect();
            let got = bat.verify_chunk(&chunk).expect("ok");
            assert_eq!(got, expected, "{what}: chunk drifted from sequential");
            assert_eq!(bat.len(), seq.len(), "{what}");
            assert_eq!(bat.tokens(), seq.tokens(), "{what}");
            // And both caches keep decoding identically afterwards.
            assert_eq!(
                bat.decode_step(42).expect("ok"),
                seq.decode_step(42).expect("ok"),
                "{what}: post-chunk decode drifted"
            );
        }
    }

    #[test]
    fn verify_chunk_validates_and_rolls_back_without_side_effects() {
        let m = model();
        // Empty chunk is a no-op; single token takes the matvec path.
        let mut a = KvCache::new(&m);
        a.prefill(&[5, 6]).expect("ok");
        assert!(a.verify_chunk(&[]).expect("ok").is_empty());
        assert_eq!(a.len(), 2);

        // Out-of-vocabulary token in the *second* slot: nothing advances.
        assert!(matches!(
            a.verify_chunk(&[1, 200]),
            Err(NnError::BadToken { .. })
        ));
        assert_eq!(a.len(), 2);

        // Chunks past the skinny-GEMM bound lose the bit-identity
        // guarantee and are refused outright.
        let huge = vec![1u32; chipalign_tensor::tune::GEMM_SKINNY_M_MAX + 1];
        assert!(matches!(
            a.verify_chunk(&huge),
            Err(NnError::BadConfig { .. })
        ));

        // Context overflow: 2 cached + 31 > 32.
        let wide = vec![1u32; 31];
        assert!(matches!(
            a.verify_chunk(&wide),
            Err(NnError::BadSequence { .. })
        ));
        assert_eq!(a.len(), 2);

        // Pool exhaustion mid-chunk unwinds every reserved block.
        let pool = small_pool(2); // 8 positions
        let mut p = KvCache::new_paged(&m, &pool);
        p.prefill(&[5, 6, 7]).expect("ok");
        let err = p
            .verify_chunk(&[1, 2, 3, 4, 5, 6])
            .expect_err("9 positions need 3 blocks");
        assert!(matches!(err, NnError::PoolExhausted { .. }));
        assert_eq!(p.len(), 3, "failed chunks must not advance the cache");
        assert_eq!(p.block_count(), 1, "reserved blocks must be returned");
        assert_eq!(pool.blocks_in_use(), 1);
        // The cache still works — and matches a never-failed twin.
        let mut twin = KvCache::new_paged(&m, &small_pool(2));
        twin.prefill(&[5, 6, 7]).expect("ok");
        assert_eq!(
            p.verify_chunk(&[1, 2, 3]).expect("ok"),
            twin.verify_chunk(&[1, 2, 3]).expect("ok")
        );
    }

    #[test]
    fn truncate_rewinds_exactly_on_f32_stores() {
        // Decode past the cut, truncate back, re-decode different tokens:
        // the result must be bit-identical to a cache that never saw the
        // rejected rows. Exercises both storage layouts; with 4-token
        // blocks the chunk opens block 4 (positions 16..) and the cut at 15
        // lands mid-block 3, so the tail block really is released.
        let m = model();
        for paged in [false, true] {
            let pool = small_pool(64);
            let mk = || {
                if paged {
                    KvCache::new_paged(&m, &pool)
                } else {
                    KvCache::new(&m)
                }
            };
            let prompt: Vec<u32> = (0..14).map(|i| 5 + 5 * i).collect();
            let mut kept = prompt.clone();
            kept.push(77);
            let mut cache = mk();
            cache.prefill(&prompt).expect("ok");
            cache.verify_chunk(&[77, 78, 79, 80]).expect("ok");
            let blocks_grown = cache.block_count();
            cache.truncate(15).expect("cut lands mid-block");
            assert_eq!(cache.len(), 15);
            assert_eq!(cache.tokens(), &kept[..]);
            if paged {
                assert_eq!(cache.block_count(), pool.blocks_for(15));
                assert!(cache.block_count() < blocks_grown, "tail block released");
            }

            let mut fresh = mk();
            fresh.prefill(&kept).expect("ok");
            for t in [81u32, 82, 83] {
                assert_eq!(
                    cache.decode_step(t).expect("ok"),
                    fresh.decode_step(t).expect("ok"),
                    "paged={paged}: truncated cache drifted at token {t}"
                );
            }
        }
    }

    #[test]
    fn truncate_validates_length_and_sealed_cuts() {
        let m = model();
        let mut flat = KvCache::new(&m);
        flat.prefill(&[5, 6, 7]).expect("ok");
        assert!(matches!(flat.truncate(4), Err(NnError::BadSequence { .. })));
        flat.truncate(3).expect("no-op truncate is fine");
        assert_eq!(flat.len(), 3);

        // Int8 pool: cuts inside a sealed block are refused (the rewind
        // would be lossy); boundary cuts and f32-tail cuts are exact.
        let mut kv8 = KvCache::new_paged(&m, &small_pool_q8(64));
        kv8.prefill(&[5, 6, 7, 8, 9, 10]).expect("ok"); // sealed + 2-row tail
        assert!(matches!(kv8.truncate(3), Err(NnError::BadSequence { .. })));
        assert_eq!(kv8.len(), 6, "a refused truncate must not change the cache");
        kv8.truncate(5).expect("cut in the open f32 tail is exact");
        kv8.truncate(4)
            .expect("boundary cut keeps the sealed block whole");
        let mut replay = KvCache::new_paged(&m, &small_pool_q8(64));
        replay.prefill(&[5, 6, 7, 8]).expect("ok");
        assert_eq!(
            kv8.decode_step(50).expect("ok"),
            replay.decode_step(50).expect("ok"),
            "boundary-truncated kv8 cache drifted from a fresh replay"
        );
    }

    #[test]
    fn lossless_run_measures_distance_to_the_next_seal() {
        let m = model();
        assert_eq!(KvCache::new(&m).lossless_run(), usize::MAX);

        let mut f32_paged = KvCache::new_paged(&m, &small_pool(64));
        f32_paged.prefill(&[5, 6, 7]).expect("ok");
        assert_eq!(
            f32_paged.lossless_run(),
            usize::MAX,
            "f32 blocks never seal"
        );

        let mut kv8 = KvCache::new_paged(&m, &small_pool_q8(64)); // bt = 4
        assert_eq!(kv8.lossless_run(), 3);
        kv8.prefill(&[5, 6]).expect("ok");
        assert_eq!(kv8.lossless_run(), 1);
        kv8.decode_step(7).expect("ok");
        assert_eq!(kv8.lossless_run(), 0, "the very next write would seal");
        kv8.decode_step(8).expect("ok"); // seals block 0, opens nothing yet
        assert_eq!(kv8.lossless_run(), 3, "a fresh block has 3 free rows");

        // The contract in action: a run within the bound truncates exactly.
        let run = kv8.lossless_run();
        kv8.verify_chunk(&[30, 35, 40][..run]).expect("ok");
        kv8.truncate(4)
            .expect("rewind within the lossless run is exact");
        let mut replay = KvCache::new_paged(&m, &small_pool_q8(64));
        replay.prefill(&[5, 6, 7, 8]).expect("ok");
        assert_eq!(
            kv8.decode_step(60).expect("ok"),
            replay.decode_step(60).expect("ok")
        );
    }

    /// Wider than `GEMM_K_BLOCK`, so a stack of more than
    /// `GEMM_SKINNY_M_MAX` rows sent to `matmul_bt` would take the
    /// k-panelled kernel and round differently from `matvec`: on this model
    /// the pins below also prove long chunks are cut into skinny blocks.
    fn wide_model(int8_weights: bool) -> Arc<TinyLm> {
        let arch = ArchSpec {
            name: "kv-wide".into(),
            vocab_size: 99,
            d_model: 288,
            n_layers: 2,
            n_heads: 2,
            d_ff: 48,
            max_seq_len: 96,
        };
        assert!(arch.d_model > chipalign_tensor::tune::GEMM_K_BLOCK);
        let mut m = TinyLm::new(&arch, &mut Pcg32::seed(78)).expect("valid");
        if int8_weights {
            m.quantize();
        }
        Arc::new(m)
    }

    /// The layouts every cross-path pin runs on; pools use the default
    /// 16-token blocks, except the 5-token one, whose blocks are shorter
    /// than an eight-position lane group, so every score takes the tile
    /// kernel's tail path.
    const LAYOUTS: [&str; 5] = [
        "contiguous",
        "paged f32",
        "paged f32, 5-token blocks",
        "int8 weights",
        "int8 kv",
    ];

    /// A fresh cache of the given layout, on a pool of its own.
    fn wide_cache(layout: &str, f32_m: &Arc<TinyLm>, int8_m: &Arc<TinyLm>) -> KvCache {
        let pool = |dtype, block_tokens| {
            crate::KvPool::new(crate::KvPoolConfig {
                dtype,
                block_tokens,
                ..crate::KvPoolConfig::default()
            })
            .expect("valid pool config")
        };
        match layout {
            "contiguous" => KvCache::new(f32_m),
            "paged f32" => KvCache::new_paged(f32_m, &pool(crate::KvDtype::F32, 16)),
            "paged f32, 5-token blocks" => KvCache::new_paged(f32_m, &pool(crate::KvDtype::F32, 5)),
            "int8 weights" => KvCache::new(int8_m),
            "int8 kv" => KvCache::new_paged(f32_m, &pool(crate::KvDtype::Int8, 16)),
            other => panic!("unknown layout {other}"),
        }
    }

    fn random_tokens(rng: &mut Pcg32, n: usize) -> Vec<u32> {
        (0..n).map(|_| 4 + rng.below(95) as u32).collect()
    }

    #[test]
    fn prefill_is_bitwise_stepwise_on_every_layout_at_block_boundaries() {
        // One-shot prefill ≡ token-by-token decode_step ≡ 32-chunked
        // prefill (the scheduler's default), in the final logits, the
        // cache bookkeeping and the decode that follows — at prompt lengths
        // straddling the 16-token seal boundary and the 32-row GEMM block.
        let (f32_m, int8_m) = (wide_model(false), wide_model(true));
        let mut rng = Pcg32::seed(2024);
        for layout in LAYOUTS {
            for len in [15usize, 16, 17, 31, 32, 33, 70] {
                let what = format!("{layout}, {len} tokens");
                let prompt = random_tokens(&mut rng, len);
                let mut stepped = wide_cache(layout, &f32_m, &int8_m);
                let mut by_step = Vec::new();
                for &t in &prompt {
                    by_step = stepped.decode_step(t).expect("ok");
                }
                let mut one_shot = wide_cache(layout, &f32_m, &int8_m);
                assert_eq!(one_shot.prefill(&prompt).expect("ok"), by_step, "{what}");
                let mut chunked = wide_cache(layout, &f32_m, &int8_m);
                let mut by_chunk = Vec::new();
                for chunk in prompt.chunks(32) {
                    by_chunk = chunked.prefill_chunk(chunk).expect("ok");
                }
                assert_eq!(by_chunk, by_step, "{what}: 32-chunked");
                for c in [&one_shot, &chunked] {
                    assert_eq!(c.len(), stepped.len(), "{what}");
                    assert_eq!(c.tokens(), stepped.tokens(), "{what}");
                    assert_eq!(c.block_count(), stepped.block_count(), "{what}");
                }
                for t in random_tokens(&mut rng, 3) {
                    let expected = stepped.decode_step(t).expect("ok");
                    assert_eq!(one_shot.decode_step(t).expect("ok"), expected, "{what}");
                    assert_eq!(chunked.decode_step(t).expect("ok"), expected, "{what}");
                }
            }
        }
    }

    #[test]
    fn random_forward_schedules_agree_with_stepping_bitwise() {
        // Seeded case loop over the shims: every session is fed a random
        // mix of prefill_chunk (any size), verify_chunk (every row
        // compared) and decode_step, then all sessions of one model advance
        // together through decode_batch — mixed paged/contiguous members —
        // against twins that only ever call decode_step.
        let (f32_m, int8_m) = (wide_model(false), wide_model(true));
        for case in 0..12u64 {
            let mut rng = Pcg32::seed(9000 + case);
            let n = 2 + rng.below(3);
            let layouts: Vec<&str> = (0..n)
                .map(|_| *rng.choose(&["contiguous", "paged f32", "int8 kv"]))
                .collect();
            let mut fast: Vec<KvCache> = layouts
                .iter()
                .map(|l| wide_cache(l, &f32_m, &int8_m))
                .collect();
            let mut slow: Vec<KvCache> = layouts
                .iter()
                .map(|l| wide_cache(l, &f32_m, &int8_m))
                .collect();
            for (f, s) in fast.iter_mut().zip(&mut slow) {
                let mut left = 1 + rng.below(80);
                while left > 0 {
                    let take = (1 + rng.below(40)).min(left);
                    let toks = random_tokens(&mut rng, take);
                    let expected: Vec<Vec<f32>> = toks
                        .iter()
                        .map(|&t| s.decode_step(t).expect("ok"))
                        .collect();
                    match rng.below(3) {
                        0 if take <= GEMM_SKINNY_M_MAX => {
                            assert_eq!(f.verify_chunk(&toks).expect("ok"), expected, "case {case}");
                        }
                        1 => {
                            let mut last = Vec::new();
                            for &t in &toks {
                                last = f.decode_step(t).expect("ok");
                            }
                            assert_eq!(&last, expected.last().expect("take >= 1"), "case {case}");
                        }
                        _ => {
                            let last = f.prefill_chunk(&toks).expect("ok");
                            assert_eq!(&last, expected.last().expect("take >= 1"), "case {case}");
                        }
                    }
                    left -= take;
                }
            }
            for round in 0..3 {
                let toks = random_tokens(&mut rng, n);
                let expected: Vec<Vec<f32>> = slow
                    .iter_mut()
                    .zip(&toks)
                    .map(|(s, &t)| s.decode_step(t).expect("ok"))
                    .collect();
                let mut refs: Vec<&mut KvCache> = fast.iter_mut().collect();
                let got = KvCache::decode_batch(&mut refs, &toks).expect("ok");
                assert_eq!(got, expected, "case {case} round {round}: batch drifted");
            }
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.tokens(), s.tokens(), "case {case}");
                assert_eq!(f.block_count(), s.block_count(), "case {case}");
            }
        }
    }

    #[test]
    fn forward_rows_stacks_ragged_chunks_of_several_sessions() {
        // The general shape no public shim reaches: several sessions, each
        // with its own chunk length (one longer than a GEMM block), in one
        // forward — every row's logits as if each session ran alone.
        let (f32_m, int8_m) = (wide_model(false), wide_model(true));
        let mut rng = Pcg32::seed(41);
        let layouts = ["paged f32", "contiguous", "int8 kv"];
        let chunks: Vec<Vec<u32>> = [3usize, 40, 17]
            .iter()
            .map(|&n| random_tokens(&mut rng, n))
            .collect();
        let mut alone: Vec<KvCache> = layouts
            .iter()
            .map(|l| wide_cache(l, &f32_m, &int8_m))
            .collect();
        let mut expected = Vec::new();
        for (c, chunk) in alone.iter_mut().zip(&chunks) {
            for &t in chunk {
                expected.push(c.decode_step(t).expect("ok"));
            }
        }
        let mut stacked: Vec<KvCache> = layouts
            .iter()
            .map(|l| wide_cache(l, &f32_m, &int8_m))
            .collect();
        let mut refs: Vec<&mut KvCache> = stacked.iter_mut().collect();
        let slices: Vec<&[u32]> = chunks.iter().map(Vec::as_slice).collect();
        let got = KvCache::forward_rows(&mut refs, &slices, Logits::All).expect("ok");
        assert_eq!(got, expected);
        for (a, b) in stacked.iter().zip(&alone) {
            assert_eq!(a.tokens(), b.tokens());
        }
    }

    #[test]
    fn prefill_chunk_is_atomic_under_pool_exhaustion() {
        let m = model();
        let pool = small_pool(2); // 8 positions at block_tokens = 4
        let mut cache = KvCache::new_paged(&m, &pool);
        cache.prefill(&[5, 6, 7]).expect("ok");
        // Positions 3..9 need a third block for the last one: the chunk
        // must be refused whole, not leave its first five rows behind.
        let err = cache
            .prefill_chunk(&[8, 9, 10, 11, 12, 13])
            .expect_err("9 positions need 3 blocks");
        assert!(matches!(err, NnError::PoolExhausted { .. }));
        assert_eq!(cache.len(), 3, "a refused chunk must not advance the cache");
        assert_eq!(cache.tokens(), &[5, 6, 7]);
        assert_eq!(cache.block_count(), 1, "reserved blocks must be returned");
        assert_eq!(pool.blocks_in_use(), 1);
        // So is a chunk that overflows the context window (32 here).
        let wide = vec![9u32; 30];
        assert!(matches!(
            cache.prefill_chunk(&wide),
            Err(NnError::BadSequence { .. })
        ));
        assert_eq!(cache.len(), 3);
        // Retrying what fits continues like a cache that never failed.
        let mut twin = KvCache::new_paged(&m, &small_pool(2));
        twin.prefill(&[5, 6, 7]).expect("ok");
        assert_eq!(
            cache.prefill_chunk(&[8, 9, 10, 11, 12]).expect("8 fit"),
            twin.prefill_chunk(&[8, 9, 10, 11, 12]).expect("8 fit")
        );
    }
}
