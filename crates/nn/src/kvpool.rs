//! Block-based KV pool: paged allocation for decoding sessions.
//!
//! Every [`crate::KvCache`] keeps its K/V rows in a [`KvPool`], vLLM
//! style: K/V storage is carved into fixed-size *blocks* of
//! [`KvPoolConfig::block_tokens`] positions (all layers of a block live
//! together), sessions hold *block tables* — vectors of refcounted block
//! handles — and forking a prefix aliases blocks instead of copying rows.
//! Serving sessions share one bounded pool per model, so capacity is
//! admitted by free blocks; a cache from [`crate::KvCache::new`] gets a
//! private, uncapped f32 pool of one-token blocks, which is what a cache
//! with per-row storage looks like in this scheme.
//!
//! Sharing is safe because blocks are copy-on-write: before a session
//! writes into a partially filled tail block it checks whether the block
//! is uniquely owned ([`Arc::strong_count`] observed through
//! [`Arc::get_mut`]) and, if not, allocates a private copy from the pool
//! first. Forks take `&self` on the donor and writes take `&mut self`, so
//! a racing fork can only make a block look *more* shared than it is — a
//! spurious copy, never a missed one. Rows already written are immutable
//! (each position's K/V depends only on the tokens before it), which is
//! what makes aliasing the filled prefix of a block sound.
//!
//! # KV dtypes
//!
//! A pool is created at a [`KvDtype`]: [`KvDtype::F32`] blocks store plain
//! `f32` rows forever, while [`KvDtype::Int8`] pools *seal* each block
//! layer the moment its last position is written — the `f32` rows are
//! replaced in place by `i8` codes plus per-head absmax scales, cutting
//! resident bytes ~4×. The open tail block always stays `f32`, so writes
//! and copy-on-write semantics are identical across dtypes, and the seal
//! trigger depends only on the token position, so chunked prefill, batched
//! decode, and one-shot prefill all quantize the exact same rows at the
//! exact same moment. Sealed blocks are immutable; the one way back is
//! `KvPool::alloc_block_unsealed`, used when a fork lands mid-way into a
//! sealed block and the adopting session must regrow an `f32` tail from
//! the dequantized prefix.
//!
//! The pool itself is an accounting object, not an arena: blocks own their
//! own heap buffers, and the pool tracks how many are alive against a
//! configured capacity so the serving layer can admit sessions by free
//! blocks and reject with a structured overload error instead of dying
//! mid-prefill. A `BlockPermit` drop guard inside every block returns
//! its slot (and its resident bytes, kept current across sealing) when the
//! last [`Arc`] clone is dropped.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::NnError;

/// Process-global block id source. Ids are unique across *every* pool, not
/// just within one, so downstream accounting (the serve prefix cache keys
/// block refcounts by bare id) stays correct when several models' pools
/// coexist. Starts at 1; 0 is never a valid id.
static NEXT_BLOCK_ID: AtomicU64 = AtomicU64::new(1);

fn next_block_id() -> u64 {
    NEXT_BLOCK_ID.fetch_add(1, Ordering::Relaxed)
}

/// Storage element type for a pool's sealed KV blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum KvDtype {
    /// Plain `f32` rows, bit-exact at every block size. The default, the
    /// private pool behind [`crate::KvCache::new`], and the differential
    /// oracle for everything else.
    #[default]
    F32,
    /// Sealed blocks hold `i8` codes with per-head, per-block absmax
    /// scales (the open tail block stays `f32`). Transcripts are pinned
    /// within [`crate::kv::KV8_LOGIT_TOL`] of the f32 oracle.
    Int8,
}

impl KvDtype {
    /// Short stable identifier (`"f32"` / `"int8"`), used in metrics
    /// labels and bench columns.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KvDtype::F32 => "f32",
            KvDtype::Int8 => "int8",
        }
    }
}

/// Configuration for a [`KvPool`].
#[derive(Debug, Clone)]
pub struct KvPoolConfig {
    /// Positions per block. Every block stores `block_tokens` K rows and
    /// `block_tokens` V rows for *every* layer, so a fork point is a token
    /// position, uniform across layers. Default 16.
    pub block_tokens: usize,
    /// Capacity of the pool in blocks. Allocation past this fails with
    /// [`NnError::PoolExhausted`]. Default 8192.
    pub max_blocks: usize,
    /// Element type sealed blocks are stored at. Default [`KvDtype::F32`].
    pub dtype: KvDtype,
}

impl Default for KvPoolConfig {
    fn default() -> Self {
        KvPoolConfig {
            block_tokens: 16,
            max_blocks: 8192,
            dtype: KvDtype::F32,
        }
    }
}

/// A bounded allocator of fixed-size KV blocks, shared by every paged
/// session decoding against one model allocation.
///
/// Cheap to clone behind an [`Arc`]; all counters are atomic. See the
/// module docs for the sharing/copy-on-write protocol.
#[derive(Debug)]
pub struct KvPool {
    block_tokens: usize,
    max_blocks: usize,
    dtype: KvDtype,
    in_use: AtomicUsize,
    bytes_in_use: AtomicUsize,
    cow_copies: AtomicU64,
}

impl KvPool {
    /// Creates a pool.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadConfig`] if `block_tokens` or `max_blocks`
    /// is zero.
    pub fn new(cfg: KvPoolConfig) -> Result<Arc<Self>, NnError> {
        if cfg.block_tokens == 0 {
            return Err(NnError::BadConfig {
                detail: "kv pool block_tokens must be >= 1".into(),
            });
        }
        if cfg.max_blocks == 0 {
            return Err(NnError::BadConfig {
                detail: "kv pool max_blocks must be >= 1".into(),
            });
        }
        Ok(Arc::new(KvPool {
            block_tokens: cfg.block_tokens,
            max_blocks: cfg.max_blocks,
            dtype: cfg.dtype,
            in_use: AtomicUsize::new(0),
            bytes_in_use: AtomicUsize::new(0),
            cow_copies: AtomicU64::new(0),
        }))
    }

    /// Positions stored per block.
    #[must_use]
    pub fn block_tokens(&self) -> usize {
        self.block_tokens
    }

    /// Pool capacity in blocks.
    #[must_use]
    pub fn max_blocks(&self) -> usize {
        self.max_blocks
    }

    /// The element type this pool seals blocks at.
    #[must_use]
    pub fn dtype(&self) -> KvDtype {
        self.dtype
    }

    /// Blocks currently alive (allocated and not yet dropped).
    #[must_use]
    pub fn blocks_in_use(&self) -> usize {
        self.in_use.load(Ordering::Relaxed)
    }

    /// Heap bytes of all live blocks at their *current* representation:
    /// open tail blocks count at f32 width, sealed int8 blocks at code +
    /// scale width. This is the gauge the serving layer exports.
    #[must_use]
    pub fn bytes_in_use(&self) -> usize {
        self.bytes_in_use.load(Ordering::Relaxed)
    }

    /// Blocks still allocatable before the pool is exhausted.
    #[must_use]
    pub fn blocks_free(&self) -> usize {
        self.max_blocks.saturating_sub(self.blocks_in_use())
    }

    /// Copy-on-write block duplications performed so far (a shared tail
    /// block was about to be written and had to be privatised first, or a
    /// sealed tail had to be dequantized back to an `f32` working copy).
    #[must_use]
    pub fn cow_copies(&self) -> u64 {
        self.cow_copies.load(Ordering::Relaxed)
    }

    /// Blocks needed to store `tokens` positions at this pool's block size.
    #[must_use]
    pub fn blocks_for(&self, tokens: usize) -> usize {
        tokens.div_ceil(self.block_tokens)
    }

    /// Heap bytes of one block's K/V buffers at f32 width for the given
    /// architecture shape: `n_layers × 2 (K and V) × block_tokens ×
    /// d_model` floats. Every block is born at this size (the open tail is
    /// always f32); see [`KvPool::sealed_block_bytes`] for the steady-state
    /// size after sealing.
    #[must_use]
    pub fn block_bytes(&self, n_layers: usize, d_model: usize) -> usize {
        n_layers * 2 * self.block_tokens * d_model * std::mem::size_of::<f32>()
    }

    /// Heap bytes of one *sealed* block at this pool's dtype: the f32 size
    /// for [`KvDtype::F32`], or `i8` codes plus `2 × n_heads` f32 scales
    /// per layer for [`KvDtype::Int8`] — the number that determines
    /// sessions-per-GB at steady state.
    #[must_use]
    pub fn sealed_block_bytes(&self, n_layers: usize, d_model: usize, n_heads: usize) -> usize {
        match self.dtype {
            KvDtype::F32 => self.block_bytes(n_layers, d_model),
            KvDtype::Int8 => {
                n_layers
                    * (2 * self.block_tokens * d_model + 2 * n_heads * std::mem::size_of::<f32>())
            }
        }
    }

    /// Allocates a zeroed f32 block (blocks are always born f32; int8
    /// pools quantize at seal time).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::PoolExhausted`] when the pool is at capacity.
    pub(crate) fn alloc_block(
        self: &Arc<Self>,
        n_layers: usize,
        d_model: usize,
    ) -> Result<KvBlock, NnError> {
        let bytes = self.block_bytes(n_layers, d_model);
        let permit = self.take_permit(bytes)?;
        let row_floats = self.block_tokens * d_model;
        Ok(KvBlock {
            layers: (0..n_layers)
                .map(|_| BlockLayer::F32 {
                    k: vec![0.0; row_floats],
                    v: vec![0.0; row_floats],
                })
                .collect(),
            id: next_block_id(),
            permit,
        })
    }

    /// Allocates a private copy of `src` (the copy-on-write step) and
    /// counts it in [`KvPool::cow_copies`]. The copy keeps `src`'s
    /// representation byte-for-byte (sealed stays sealed, f32 stays f32).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::PoolExhausted`] when the pool is at capacity.
    pub(crate) fn alloc_block_from(self: &Arc<Self>, src: &KvBlock) -> Result<KvBlock, NnError> {
        let bytes = src.bytes();
        let permit = self.take_permit(bytes)?;
        self.cow_copies.fetch_add(1, Ordering::Relaxed);
        Ok(KvBlock {
            layers: src.layers.clone(),
            id: next_block_id(),
            permit,
        })
    }

    /// Allocates a fresh f32 block seeded with the first `rows` positions
    /// of `src` dequantized (the *unseal* step: a fork landed mid-way into
    /// a sealed block, so the adopting session needs a writable f32 tail
    /// carrying the aliased prefix rows). Counted as a copy-on-write.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::PoolExhausted`] when the pool is at capacity.
    pub(crate) fn alloc_block_unsealed(
        self: &Arc<Self>,
        src: &KvBlock,
        rows: usize,
        d_model: usize,
        n_heads: usize,
    ) -> Result<KvBlock, NnError> {
        let n_layers = src.layers.len();
        let bytes = self.block_bytes(n_layers, d_model);
        let permit = self.take_permit(bytes)?;
        self.cow_copies.fetch_add(1, Ordering::Relaxed);
        let row_floats = self.block_tokens * d_model;
        Ok(KvBlock {
            layers: src
                .layers
                .iter()
                .map(|layer| layer.to_f32(rows, row_floats, d_model, n_heads))
                .collect(),
            id: next_block_id(),
            permit,
        })
    }

    fn take_permit(self: &Arc<Self>, bytes: usize) -> Result<BlockPermit, NnError> {
        let admitted = self
            .in_use
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                (n < self.max_blocks).then_some(n + 1)
            });
        match admitted {
            Ok(_) => {
                self.bytes_in_use.fetch_add(bytes, Ordering::Relaxed);
                Ok(BlockPermit {
                    pool: Arc::clone(self),
                    bytes,
                })
            }
            Err(in_use) => Err(NnError::PoolExhausted {
                in_use,
                capacity: self.max_blocks,
            }),
        }
    }
}

/// Quantizes one f32 buffer of `block_tokens` rows (each `d` wide) to i8
/// codes with one absmax scale per head: `scale[h] = absmax(head h) / 127`,
/// `code = round(x / scale[h])`. An all-zero head gets scale 0 and all-zero
/// codes (dequantization multiplies by the scale, so 0 round-trips
/// exactly without dividing by zero).
fn quantize_per_head(values: &[f32], d: usize, n_heads: usize) -> (Vec<i8>, Vec<f32>) {
    let head_dim = d / n_heads;
    let mut scales = vec![0.0f32; n_heads];
    for (i, &x) in values.iter().enumerate() {
        let h = (i % d) / head_dim;
        if x.abs() > scales[h] {
            scales[h] = x.abs();
        }
    }
    for s in &mut scales {
        *s /= 127.0;
    }
    let codes = values
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let s = scales[(i % d) / head_dim];
            if s > 0.0 {
                (x / s).round().clamp(-127.0, 127.0) as i8
            } else {
                0
            }
        })
        .collect();
    (codes, scales)
}

/// Where key element (`pos`, `col`) of an f32 block layer sits in its `k`
/// buffer: column-major, `col · block_tokens + pos`. With `col = h·hd + e`
/// that is `h·hd·bt + e·bt + pos`, so head `h` owns one contiguous
/// `hd × bt` tile whose rows are key elements and whose columns are
/// positions — attention scores consecutive positions of a head from
/// consecutive floats. The one place the layout is spelled out.
pub(crate) fn key_slot(pos: usize, col: usize, block_tokens: usize) -> usize {
    col * block_tokens + pos
}

/// Row-major copy (`block_tokens × d`) of a tiled f32 key buffer.
fn keys_row_major(k: &[f32], d: usize) -> Vec<f32> {
    let bt = k.len() / d;
    (0..k.len())
        .map(|i| k[key_slot(i / d, i % d, bt)])
        .collect()
}

/// Tiled copy of a row-major (`block_tokens × d`) key buffer; the inverse
/// of [`keys_row_major`].
fn keys_tiled(rows: &[f32], d: usize) -> Vec<f32> {
    let bt = rows.len() / d;
    let mut k = vec![0.0f32; rows.len()];
    for (i, &x) in rows.iter().enumerate() {
        k[key_slot(i / d, i % d, bt)] = x;
    }
    k
}

/// One layer's slice of a block: `block_tokens` rotary-encoded keys and
/// as many values, each `d_model` wide. Born [`BlockLayer::F32`]
/// (zero-filled until written); int8 pools convert the layer to
/// [`BlockLayer::Q8`] in place the moment its last position is written.
#[derive(Debug, Clone)]
pub(crate) enum BlockLayer {
    /// Plain f32 — the only writable representation.
    F32 {
        /// Keys as `n_heads` per-head tiles of `head_dim × block_tokens`,
        /// position-minor: element (position, column) sits at
        /// [`key_slot`]. Sealing un-tiles them before quantizing.
        k: Vec<f32>,
        /// Values, `block_tokens × d_model` row-major.
        v: Vec<f32>,
    },
    /// Sealed rows: i8 codes with one absmax scale per head (shared by
    /// every position in the block). Immutable.
    Q8 {
        /// Key codes, `block_tokens × d_model` row-major.
        k_codes: Vec<i8>,
        /// Value codes, same shape.
        v_codes: Vec<i8>,
        /// Per-head key scales (`n_heads` entries).
        k_scales: Vec<f32>,
        /// Per-head value scales (`n_heads` entries).
        v_scales: Vec<f32>,
    },
}

impl BlockLayer {
    /// Current heap bytes of this layer's buffers.
    pub(crate) fn bytes(&self) -> usize {
        match self {
            BlockLayer::F32 { k, v } => (k.len() + v.len()) * std::mem::size_of::<f32>(),
            BlockLayer::Q8 {
                k_codes,
                v_codes,
                k_scales,
                v_scales,
            } => {
                k_codes.len()
                    + v_codes.len()
                    + (k_scales.len() + v_scales.len()) * std::mem::size_of::<f32>()
            }
        }
    }

    /// Whether the layer has been quantized.
    pub(crate) fn is_sealed(&self) -> bool {
        matches!(self, BlockLayer::Q8 { .. })
    }

    /// Quantizes the layer in place (no-op if already sealed). Keys are
    /// un-tiled first, so sealed codes are row-major like the values.
    fn seal(&mut self, d: usize, n_heads: usize) {
        if let BlockLayer::F32 { k, v } = self {
            let (k_codes, k_scales) = quantize_per_head(&keys_row_major(k, d), d, n_heads);
            let (v_codes, v_scales) = quantize_per_head(v, d, n_heads);
            *self = BlockLayer::Q8 {
                k_codes,
                v_codes,
                k_scales,
                v_scales,
            };
        }
    }

    /// An f32 working copy carrying the first `rows` positions (dequantized
    /// and, for keys, re-tiled when sealed), zero elsewhere.
    fn to_f32(&self, rows: usize, row_floats: usize, d: usize, n_heads: usize) -> BlockLayer {
        match self {
            BlockLayer::F32 { k, v } => BlockLayer::F32 {
                k: k.clone(),
                v: v.clone(),
            },
            BlockLayer::Q8 {
                k_codes,
                v_codes,
                k_scales,
                v_scales,
            } => {
                let head_dim = d / n_heads;
                let expand = |codes: &[i8], scales: &[f32]| {
                    let mut out = vec![0.0f32; row_floats];
                    for (o, (i, &q)) in out.iter_mut().zip(codes.iter().enumerate()) {
                        if i >= rows * d {
                            break;
                        }
                        *o = f32::from(q) * scales[(i % d) / head_dim];
                    }
                    out
                };
                BlockLayer::F32 {
                    k: keys_tiled(&expand(k_codes, k_scales), d),
                    v: expand(v_codes, v_scales),
                }
            }
        }
    }
}

/// A fixed-size span of KV storage: `block_tokens` positions across every
/// layer. Shared between sessions via [`Arc`]; the embedded permit returns
/// the pool slot when the last clone drops.
#[derive(Debug)]
pub(crate) struct KvBlock {
    pub(crate) layers: Vec<BlockLayer>,
    /// Unique, never-reused identity (process-global monotonic counter) so
    /// the serving layer can account shared blocks without pointer-reuse
    /// hazards, even across distinct pools.
    pub(crate) id: u64,
    permit: BlockPermit,
}

impl KvBlock {
    /// Current heap bytes across all layers (tail f32 or sealed q8).
    pub(crate) fn bytes(&self) -> usize {
        self.layers.iter().map(BlockLayer::bytes).sum()
    }

    /// Whether the block has been fully quantized (layer 0 stands for all:
    /// layers seal in ascending order within one decode step, so a block
    /// is either all-f32 or all-q8 between steps, and the tail check in
    /// `prepare_position` runs only between steps).
    pub(crate) fn is_sealed(&self) -> bool {
        self.layers.first().is_some_and(BlockLayer::is_sealed)
    }

    /// Seals one layer in place if this block's pool is int8 (f32 pools
    /// never seal). Requires exclusive access, which the caller already
    /// holds for any write. Keeps the pool byte gauge and this block's
    /// permit in sync with the shrunken representation.
    pub(crate) fn seal_layer(&mut self, li: usize, d: usize, n_heads: usize) {
        if self.permit.pool.dtype != KvDtype::Int8 {
            return;
        }
        let before = self.layers[li].bytes();
        self.layers[li].seal(d, n_heads);
        let after = self.layers[li].bytes();
        self.permit.shrink(before.saturating_sub(after));
    }
}

/// Drop guard decrementing the owning pool's in-use count and resident
/// byte gauge.
#[derive(Debug)]
struct BlockPermit {
    pool: Arc<KvPool>,
    bytes: usize,
}

impl BlockPermit {
    /// Records that the block's buffers shrank by `delta` bytes (sealing).
    fn shrink(&mut self, delta: usize) {
        self.bytes -= delta;
        self.pool.bytes_in_use.fetch_sub(delta, Ordering::Relaxed);
    }
}

impl Drop for BlockPermit {
    fn drop(&mut self) {
        self.pool.in_use.fetch_sub(1, Ordering::Relaxed);
        self.pool
            .bytes_in_use
            .fetch_sub(self.bytes, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(max_blocks: usize) -> Arc<KvPool> {
        KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks,
            dtype: KvDtype::F32,
        })
        .expect("valid config")
    }

    fn pool_q8(max_blocks: usize) -> Arc<KvPool> {
        KvPool::new(KvPoolConfig {
            block_tokens: 4,
            max_blocks,
            dtype: KvDtype::Int8,
        })
        .expect("valid config")
    }

    /// Where row-major index `i` (position `i / d`, column `i % d`) of a
    /// `k_len`-float K buffer lives under the tile layout.
    fn k_at(i: usize, k_len: usize, block_tokens: usize) -> usize {
        let d = k_len / block_tokens;
        key_slot(i / d, i % d, block_tokens)
    }

    /// Writes `val` at row-major index `i` of layer `li`'s K (or V)
    /// buffer; only valid on unsealed layers.
    fn poke(block: &mut KvBlock, li: usize, key_side: bool, i: usize, val: f32) {
        let bt = block.permit.pool.block_tokens();
        match &mut block.layers[li] {
            BlockLayer::F32 { k, v } => {
                if key_side {
                    let at = k_at(i, k.len(), bt);
                    k[at] = val;
                } else {
                    v[i] = val;
                }
            }
            BlockLayer::Q8 { .. } => panic!("poking a sealed layer"),
        }
    }

    fn peek(block: &KvBlock, li: usize, key_side: bool, i: usize) -> f32 {
        let bt = block.permit.pool.block_tokens();
        match &block.layers[li] {
            BlockLayer::F32 { k, v } => {
                if key_side {
                    k[k_at(i, k.len(), bt)]
                } else {
                    v[i]
                }
            }
            BlockLayer::Q8 { .. } => panic!("peeking a sealed layer"),
        }
    }

    #[test]
    fn config_validation() {
        assert!(KvPool::new(KvPoolConfig {
            block_tokens: 0,
            max_blocks: 1,
            dtype: KvDtype::F32,
        })
        .is_err());
        assert!(KvPool::new(KvPoolConfig {
            block_tokens: 1,
            max_blocks: 0,
            dtype: KvDtype::F32,
        })
        .is_err());
        let p = KvPool::new(KvPoolConfig::default()).expect("default is valid");
        assert_eq!(p.block_tokens(), 16);
        assert_eq!(p.dtype(), KvDtype::F32);
        assert_eq!(p.blocks_free(), p.max_blocks());
    }

    #[test]
    fn permits_bound_allocation_and_release_on_drop() {
        let p = pool(2);
        let a = p.alloc_block(2, 8).expect("first");
        let b = p.alloc_block(2, 8).expect("second");
        assert_eq!(p.blocks_in_use(), 2);
        assert_eq!(p.blocks_free(), 0);
        assert_eq!(p.bytes_in_use(), 2 * p.block_bytes(2, 8));
        let err = p.alloc_block(2, 8).expect_err("pool is full");
        assert!(matches!(
            err,
            NnError::PoolExhausted {
                in_use: 2,
                capacity: 2
            }
        ));
        drop(a);
        assert_eq!(p.blocks_free(), 1);
        let c = p.alloc_block(2, 8).expect("slot freed");
        assert_ne!(b.id, c.id, "block ids are never reused");
        drop(b);
        drop(c);
        assert_eq!(p.blocks_in_use(), 0);
        assert_eq!(p.bytes_in_use(), 0);
    }

    #[test]
    fn shared_blocks_hold_one_permit() {
        let p = pool(4);
        let block = Arc::new(p.alloc_block(1, 4).expect("alloc"));
        let aliases: Vec<_> = (0..5).map(|_| Arc::clone(&block)).collect();
        assert_eq!(p.blocks_in_use(), 1, "aliasing is free");
        drop(aliases);
        assert_eq!(p.blocks_in_use(), 1);
        drop(block);
        assert_eq!(p.blocks_in_use(), 0);
    }

    #[test]
    fn cow_copy_duplicates_content_and_counts() {
        let p = pool(4);
        let mut src = p.alloc_block(2, 4).expect("alloc");
        poke(&mut src, 1, true, 3, 7.5);
        poke(&mut src, 0, false, 0, -2.0);
        let copy = p.alloc_block_from(&src).expect("copy");
        assert_eq!(peek(&copy, 1, true, 3), 7.5);
        assert_eq!(peek(&copy, 0, false, 0), -2.0);
        assert_ne!(copy.id, src.id);
        assert_eq!(p.cow_copies(), 1);
        assert_eq!(p.blocks_in_use(), 2);
    }

    #[test]
    fn sizing_helpers() {
        let p = pool(8); // block_tokens = 4
        assert_eq!(p.blocks_for(0), 0);
        assert_eq!(p.blocks_for(1), 1);
        assert_eq!(p.blocks_for(4), 1);
        assert_eq!(p.blocks_for(5), 2);
        // 2 layers × 2 (K,V) × 4 tokens × 8 dims × 4 bytes.
        assert_eq!(p.block_bytes(2, 8), 2 * 2 * 4 * 8 * 4);
        // f32 pool: sealing changes nothing.
        assert_eq!(p.sealed_block_bytes(2, 8, 2), p.block_bytes(2, 8));
        // int8 pool: 1 byte per element plus 2 (K,V) × n_heads scales per
        // layer.
        let q = pool_q8(8);
        assert_eq!(q.sealed_block_bytes(2, 8, 2), 2 * (2 * 4 * 8 + 2 * 2 * 4));
    }

    #[test]
    fn sealing_shrinks_bytes_and_is_idempotent() {
        let q = pool_q8(4);
        let mut block = q.alloc_block(2, 8).expect("alloc");
        let born = q.block_bytes(2, 8);
        assert_eq!(q.bytes_in_use(), born);
        assert!(!block.is_sealed());
        block.seal_layer(0, 8, 2);
        block.seal_layer(1, 8, 2);
        assert!(block.is_sealed());
        assert_eq!(q.bytes_in_use(), q.sealed_block_bytes(2, 8, 2));
        // Re-sealing is a no-op, not a double subtraction.
        block.seal_layer(0, 8, 2);
        assert_eq!(q.bytes_in_use(), q.sealed_block_bytes(2, 8, 2));
        drop(block);
        assert_eq!(q.bytes_in_use(), 0);
        assert_eq!(q.blocks_in_use(), 0);
    }

    #[test]
    fn f32_pools_never_seal() {
        let p = pool(4);
        let mut block = p.alloc_block(1, 8).expect("alloc");
        block.seal_layer(0, 8, 2);
        assert!(!block.is_sealed(), "seal_layer is a no-op on f32 pools");
        assert_eq!(p.bytes_in_use(), p.block_bytes(1, 8));
    }

    #[test]
    fn quantize_round_trip_stays_within_half_step() {
        // One head spans 4 dims; absmax 12.7 gives a step of 0.1.
        let values = [0.05f32, -12.7, 3.21, 0.0, 1.0, -1.0, 0.5, -0.25];
        let (codes, scales) = quantize_per_head(&values, 4, 1);
        // Two rows of d=4, one head: a single scale across all 8 values.
        assert_eq!(scales.len(), 1);
        let step = scales[0];
        assert!((step - 12.7 / 127.0).abs() < 1e-6);
        for (&q, &x) in codes.iter().zip(&values) {
            let back = f32::from(q) * step;
            assert!(
                (back - x).abs() <= step / 2.0 + 1e-6,
                "round-trip of {x} drifted to {back}"
            );
        }
    }

    #[test]
    fn quantize_zero_head_round_trips_exactly() {
        let values = [0.0f32; 8];
        let (codes, scales) = quantize_per_head(&values, 4, 2);
        assert_eq!(scales, vec![0.0, 0.0]);
        assert!(codes.iter().all(|&q| q == 0));
    }

    #[test]
    fn unseal_recovers_prefix_rows_and_counts_cow() {
        let q = pool_q8(4);
        let mut block = q.alloc_block(1, 4).expect("alloc");
        // Fill 4 rows of d=4 with a recognisable ramp, then seal.
        for i in 0..16 {
            poke(&mut block, 0, true, i, i as f32 * 0.5);
            poke(&mut block, 0, false, i, -(i as f32) * 0.25);
        }
        block.seal_layer(0, 4, 2);
        let thawed = q
            .alloc_block_unsealed(&block, 2, 4, 2)
            .expect("unseal copy");
        assert!(!thawed.is_sealed());
        assert_eq!(q.cow_copies(), 1);
        // First 2 rows (8 values) round-trip within a quant step; the rest
        // are zeroed (they will be overwritten by the new tail's writes).
        for i in 0..8 {
            let step_k = 7.5 / 127.0; // absmax of the K ramp is 15·0.5
            assert!((peek(&thawed, 0, true, i) - i as f32 * 0.5).abs() <= step_k + 1e-6);
        }
        for i in 8..16 {
            assert_eq!(peek(&thawed, 0, true, i), 0.0);
            assert_eq!(peek(&thawed, 0, false, i), 0.0);
        }
    }
}
