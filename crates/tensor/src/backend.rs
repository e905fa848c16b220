//! Pluggable dense-kernel backends with one-time runtime selection.
//!
//! Every hot dot-product-shaped kernel in [`crate::Matrix`] (and the int8
//! kernels in [`crate::QuantizedMatrix`]) routes through one process-wide
//! [`KernelBackend`], selected once at first use:
//!
//! * [`ScalarBackend`] — the naive single-accumulator loops; the
//!   differential-testing oracle, never fast.
//! * `BlockedBackend` — the autovectorized lane-split/column-tiled kernels
//!   this workspace shipped with (see [`crate::tune`]); the portable fast
//!   tier.
//! * `SimdBackend` — explicit `std::arch` x86_64 AVX2/FMA intrinsics,
//!   used only when runtime feature detection confirms the CPU supports
//!   them; on any other machine its methods fall back to the blocked
//!   kernels, so the type exists (and benches) everywhere.
//!
//! Selection happens exactly once per process via [`active`]: the
//! `CHIPALIGN_BACKEND` environment variable (`scalar` | `blocked` | `simd`)
//! wins when set to a known value, otherwise AVX2+FMA machines get the SIMD
//! tier and everything else gets the blocked tier.
//!
//! # Tiles reuse loads, never reorder a dot
//!
//! Every projection — a matvec, a batched-decode step, a prefill block —
//! is one call to [`KernelBackend::gemm_bt`] (f32) or
//! [`KernelBackend::gemm_bt_q8`] (int8), and each output element of either
//! is, bit for bit, that backend's [`KernelBackend::dot`] /
//! [`KernelBackend::dot_q8`] of one activation row with one weight row. The
//! default methods *are* that per-element loop, so the `scalar` and
//! `blocked` tiers keep their bits with no code of their own. The `simd`
//! tier overrides both with register tiles that load each weight vector
//! once for several activation rows (and, for int8, keep several
//! independent FMA chains in flight), but every output still runs its dot's
//! accumulation order step for step; the orders are written down once, in
//! the `x86` module docs. Hence a row's result never depends on how many
//! rows it was stacked with, and pinning one backend for the whole process
//! keeps the serving stack's bit-identity invariants intact: batched
//! decode, chunked prefill and per-session decode all accumulate in the
//! *same* order, so transcripts never depend on which code path computed a
//! given row.
//!
//! Backends can also be driven directly (the benchmark times all three in
//! one process via [`all`]) — direct calls bypass the global selection
//! entirely.

use std::sync::OnceLock;

use crate::tune;

/// The kernel primitives a backend must provide. Implementations differ in
/// instruction selection, not semantics: all compute the same products to
/// within floating-point reassociation (bounded at 1e-4 relative by the
/// backend-equivalence property tests).
pub trait KernelBackend: Send + Sync {
    /// Short stable identifier (`"scalar"`, `"blocked"`, `"simd"`), used in
    /// logs, metrics, and bench labels.
    fn name(&self) -> &'static str;

    /// Dense dot product of two equal-length `f32` slices.
    fn dot(&self, a: &[f32], b: &[f32]) -> f32;

    /// One output row of `A·B`: `out_row = a_row · b`, with `b` a
    /// `k × n` row-major block (`k = a_row.len()`).
    fn gemm_row(&self, a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]);

    /// Dot of a per-row-scaled int8 weight row against an `f32` activation
    /// vector: `scale · Σ wᵢ·xᵢ` with the `i8` weights widened in-register.
    fn dot_q8(&self, w_row: &[i8], scale: f32, x: &[f32]) -> f32;

    /// Scaled int8 accumulate: `out[i] += weight · scale · codes[i]`, the
    /// context-accumulation half of quantized attention (the score half is
    /// [`KernelBackend::dot_q8`]). `weight` is the softmax probability for
    /// one KV row; `scale · codes[i]` dequantizes that row in-register, so
    /// the V stream moves 1 byte per element instead of 4.
    fn axpy_q8(&self, weight: f32, codes: &[i8], scale: f32, out: &mut [f32]);

    /// `out = X · Wᵀ`: `x` holds `m` rows of length `k`, `w` holds `n` rows
    /// of length `k` (both row-major), and `out[r·n + c]` is exactly
    /// `self.dot(x_row(r), w_row(c))` — the default method is that loop.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == m·k`, `w.len() == n·k` and
    /// `out.len() == m·n`.
    fn gemm_bt(&self, x: &[f32], m: usize, w: &[f32], n: usize, k: usize, out: &mut [f32]) {
        check_gemm_bt(x.len(), m, w.len(), n, k, out.len());
        for r in 0..m {
            let x_row = &x[r * k..(r + 1) * k];
            for c in 0..n {
                out[r * n + c] = self.dot(x_row, &w[c * k..(c + 1) * k]);
            }
        }
    }

    /// `out = X · Wᵀ` over per-row-scaled int8 weights: `codes` holds `n`
    /// rows of length `k` with one entry of `scales` each, and
    /// `out[r·n + c]` is exactly `self.dot_q8(codes_row(c), scales[c],
    /// x_row(r))` — the default method is that loop.
    ///
    /// # Panics
    ///
    /// Panics unless `x.len() == m·k`, `codes.len() == n·k`,
    /// `scales.len() == n` and `out.len() == m·n`.
    #[allow(clippy::too_many_arguments)]
    fn gemm_bt_q8(
        &self,
        x: &[f32],
        m: usize,
        codes: &[i8],
        scales: &[f32],
        n: usize,
        k: usize,
        out: &mut [f32],
    ) {
        check_gemm_bt(x.len(), m, codes.len(), n, k, out.len());
        assert_eq!(scales.len(), n, "gemm_bt_q8: one scale per weight row");
        for r in 0..m {
            let x_row = &x[r * k..(r + 1) * k];
            for c in 0..n {
                out[r * n + c] = self.dot_q8(&codes[c * k..(c + 1) * k], scales[c], x_row);
            }
        }
    }
}

/// The shape contract of [`KernelBackend::gemm_bt`] and
/// [`KernelBackend::gemm_bt_q8`].
fn check_gemm_bt(x_len: usize, m: usize, w_len: usize, n: usize, k: usize, out_len: usize) {
    assert!(
        x_len == m * k && w_len == n * k && out_len == m * n,
        "gemm_bt: x {x_len}, w {w_len}, out {out_len} do not fit m={m} n={n} k={k}"
    );
}

/// Naive reference backend: single-accumulator loops in source order.
#[derive(Debug, Clone, Copy)]
pub struct ScalarBackend;

/// The autovectorized blocked backend: [`tune::DOT_LANES`]-way lane-split
/// reductions and [`tune::GEMM_COL_TILE`]-wide register-tiled GEMM rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockedBackend;

/// Explicit AVX2/FMA backend (x86_64 only); falls back to
/// `BlockedBackend`'s kernels per call when the CPU (or architecture)
/// lacks the features, so it is safe to invoke unconditionally.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SimdBackend;

/// The scalar backend singleton.
pub static SCALAR: ScalarBackend = ScalarBackend;
/// The blocked backend singleton.
pub(crate) static BLOCKED: BlockedBackend = BlockedBackend;
/// The explicit-SIMD backend singleton.
pub(crate) static SIMD: SimdBackend = SimdBackend;

impl KernelBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(&x, &y)| x * y).sum()
    }

    fn gemm_row(&self, a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
        for (j, o) in out_row.iter_mut().enumerate().take(n) {
            let mut acc = 0.0f32;
            for (kk, &a) in a_row.iter().enumerate() {
                acc += a * b[kk * n + j];
            }
            *o = acc;
        }
    }

    fn dot_q8(&self, w_row: &[i8], scale: f32, x: &[f32]) -> f32 {
        scale
            * w_row
                .iter()
                .zip(x)
                .map(|(&q, &v)| f32::from(q) * v)
                .sum::<f32>()
    }

    fn axpy_q8(&self, weight: f32, codes: &[i8], scale: f32, out: &mut [f32]) {
        let c = weight * scale;
        for (o, &q) in out.iter_mut().zip(codes) {
            *o += c * f32::from(q);
        }
    }
}

impl KernelBackend for BlockedBackend {
    fn name(&self) -> &'static str {
        "blocked"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        dot_lanes_blocked(a, b)
    }

    fn gemm_row(&self, a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
        gemm_row_blocked(a_row, b, n, 0, out_row);
    }

    fn dot_q8(&self, w_row: &[i8], scale: f32, x: &[f32]) -> f32 {
        dot_q8_lanes_blocked(w_row, scale, x)
    }

    fn axpy_q8(&self, weight: f32, codes: &[i8], scale: f32, out: &mut [f32]) {
        axpy_q8_blocked(weight, codes, scale, out);
    }
}

impl KernelBackend for SimdBackend {
    fn name(&self) -> &'static str {
        "simd"
    }

    fn dot(&self, a: &[f32], b: &[f32]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if let Some(v) = x86::dot(a, b) {
            return v;
        }
        dot_lanes_blocked(a, b)
    }

    fn gemm_row(&self, a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::gemm_row(a_row, b, n, out_row) {
            return;
        }
        gemm_row_blocked(a_row, b, n, 0, out_row);
    }

    fn dot_q8(&self, w_row: &[i8], scale: f32, x: &[f32]) -> f32 {
        #[cfg(target_arch = "x86_64")]
        if let Some(v) = x86::dot_q8(w_row, scale, x) {
            return v;
        }
        dot_q8_lanes_blocked(w_row, scale, x)
    }

    fn axpy_q8(&self, weight: f32, codes: &[i8], scale: f32, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::axpy_q8(weight, codes, scale, out) {
            return;
        }
        axpy_q8_blocked(weight, codes, scale, out);
    }

    fn gemm_bt(&self, x: &[f32], m: usize, w: &[f32], n: usize, k: usize, out: &mut [f32]) {
        #[cfg(target_arch = "x86_64")]
        if x86::gemm_bt(x, m, w, n, k, out) {
            return;
        }
        BLOCKED.gemm_bt(x, m, w, n, k, out);
    }

    fn gemm_bt_q8(
        &self,
        x: &[f32],
        m: usize,
        codes: &[i8],
        scales: &[f32],
        n: usize,
        k: usize,
        out: &mut [f32],
    ) {
        #[cfg(target_arch = "x86_64")]
        if x86::gemm_bt_q8(x, m, codes, scales, n, k, out) {
            return;
        }
        BLOCKED.gemm_bt_q8(x, m, codes, scales, n, k, out);
    }
}

/// Whether the explicit-SIMD tier can actually run AVX2/FMA code on this
/// machine. Always `false` off x86_64.
#[must_use]
pub(crate) fn simd_supported() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

static ACTIVE: OnceLock<&'static dyn KernelBackend> = OnceLock::new();

/// The process-wide backend every routed kernel uses, selected on first
/// call and never changed afterwards (see the module docs for why).
#[must_use]
pub fn active() -> &'static dyn KernelBackend {
    *ACTIVE.get_or_init(|| match std::env::var("CHIPALIGN_BACKEND").as_deref() {
        Ok("scalar") => &SCALAR,
        Ok("blocked") => &BLOCKED,
        Ok("simd") => &SIMD,
        _ => {
            if simd_supported() {
                &SIMD
            } else {
                &BLOCKED
            }
        }
    })
}

/// Name of the process-wide active backend (for startup logs and metrics).
/// An explicit `CHIPALIGN_BACKEND=simd` on hardware without AVX2/FMA still
/// runs the blocked fallback and is reported as `"simd(blocked-fallback)"`
/// so dashboards never claim vector throughput that is not happening.
#[must_use]
pub fn active_name() -> &'static str {
    let b = active();
    if b.name() == "simd" && !simd_supported() {
        "simd(blocked-fallback)"
    } else {
        b.name()
    }
}

/// All three backends, for code (benches, differential tests) that sweeps
/// the full matrix in one process instead of using the global selection.
#[must_use]
pub fn all() -> [&'static dyn KernelBackend; 3] {
    [&SCALAR, &BLOCKED, &SIMD]
}

/// Lane-split dot product: [`tune::DOT_LANES`] independent partial sums so
/// the reduction has no serial floating-point dependency chain and
/// autovectorises.
pub(crate) fn dot_lanes_blocked(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0.0f32; tune::DOT_LANES];
    let mut a_chunks = a.chunks_exact(tune::DOT_LANES);
    let mut b_chunks = b.chunks_exact(tune::DOT_LANES);
    for (ca, cb) in (&mut a_chunks).zip(&mut b_chunks) {
        for ((lane, &x), &y) in lanes.iter_mut().zip(ca).zip(cb) {
            *lane += x * y;
        }
    }
    let tail: f32 = a_chunks
        .remainder()
        .iter()
        .zip(b_chunks.remainder())
        .map(|(&x, &y)| x * y)
        .sum();
    lanes.iter().sum::<f32>() + tail
}

/// Lane-split int8×f32 dot: the [`dot_lanes_blocked`] recipe with the `i8`
/// weights widened to `f32` in the inner loop, scaled once at the end.
pub(crate) fn dot_q8_lanes_blocked(w: &[i8], scale: f32, x: &[f32]) -> f32 {
    let mut lanes = [0.0f32; tune::DOT_LANES];
    let mut w_chunks = w.chunks_exact(tune::DOT_LANES);
    let mut x_chunks = x.chunks_exact(tune::DOT_LANES);
    for (cw, cx) in (&mut w_chunks).zip(&mut x_chunks) {
        for ((lane, &q), &v) in lanes.iter_mut().zip(cw).zip(cx) {
            *lane += f32::from(q) * v;
        }
    }
    let tail: f32 = w_chunks
        .remainder()
        .iter()
        .zip(x_chunks.remainder())
        .map(|(&q, &v)| f32::from(q) * v)
        .sum();
    scale * (lanes.iter().sum::<f32>() + tail)
}

/// Scaled int8 accumulate, portable tier: the combined factor
/// `weight · scale` is hoisted once and the widen-multiply-add loop has no
/// cross-iteration dependency, so it autovectorises cleanly.
pub(crate) fn axpy_q8_blocked(weight: f32, codes: &[i8], scale: f32, out: &mut [f32]) {
    let c = weight * scale;
    for (o, &q) in out.iter_mut().zip(codes) {
        *o += c * f32::from(q);
    }
}

/// Columns `[j0, n)` of one output row of `A·B`, swept in
/// [`tune::GEMM_COL_TILE`]-wide tiles whose partial sums live in a stack
/// array the compiler keeps in vector registers. `j0 = 0` is the full
/// blocked GEMM row; the SIMD kernel reuses the tail (`j0 = 16·⌊n/16⌋`)
/// for its ragged trailing columns.
pub(crate) fn gemm_row_blocked(a_row: &[f32], b: &[f32], n: usize, j0: usize, out_row: &mut [f32]) {
    let mut j0 = j0;
    while j0 < n {
        let w = tune::GEMM_COL_TILE.min(n - j0);
        let mut acc = [0.0f32; tune::GEMM_COL_TILE];
        for (kk, &a) in a_row.iter().enumerate() {
            let b_strip = &b[kk * n + j0..kk * n + j0 + w];
            for (ac, &bv) in acc.iter_mut().zip(b_strip) {
                *ac += a * bv;
            }
        }
        out_row[j0..j0 + w].copy_from_slice(&acc[..w]);
        j0 += w;
    }
}

/// The `std::arch` AVX2/FMA kernels, behind safe wrappers that return
/// `None`/`false` when the CPU lacks the features. This is the only module
/// in the crate allowed to contain `unsafe` (the crate-level gate is
/// `#![deny(unsafe_code)]`); every intrinsic call is reachable only after
/// [`simd_supported`] has confirmed AVX2+FMA at runtime, and the
/// raw-pointer loops never read past the slice lengths they check.
///
/// # The two accumulation orders
///
/// Every dot this module computes, alone or inside a tile, runs one of two
/// orders, and the tiles are the single-dot bodies instantiated for more
/// than one row (or column) at a time, so a tile's output is bitwise the
/// dot's:
///
/// * **f32** (`dot_rows_avx2`): four independent 8-lane FMA accumulators
///   over stride 32 (accumulator `j` takes elements `i + 8j .. i + 8j + 8`),
///   then an 8-wide cleanup loop FMA'd into accumulator 0, the fold
///   `(acc0 + acc1) + (acc2 + acc3)`, `hsum256`, and the last `k % 8`
///   elements added one by one as unfused products.
/// * **q8** (`dot_q8_tile_avx2`): one 8-lane FMA chain of widened codes
///   (`i8 → i32 → f32`) times activations, `hsum256`, the last `k % 8`
///   elements added one by one as unfused products, then one multiply by
///   the row scale.
///
/// What the tiles change is only which loads are shared: the f32 tile
/// keeps one weight vector in a register for up to three activation rows,
/// and the q8 tile widens each weight vector once for up to four rows and
/// runs up to eight independent chains (one per output) so the FMA latency
/// of a single chain no longer sets the pace at `m = 1`.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m128i, __m256, _mm256_add_ps, _mm256_cvtepi32_ps, _mm256_cvtepi8_epi32, _mm256_fmadd_ps,
        _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps, _mm256_storeu_ps, _mm_loadl_epi64,
    };

    /// Dispatches to the AVX2 dot when supported. Like the portable tiers'
    /// `zip`, it reads the first `min(a.len(), b.len())` elements of each.
    pub(super) fn dot(a: &[f32], b: &[f32]) -> Option<f32> {
        if !super::simd_supported() {
            return None;
        }
        let k = a.len().min(b.len());
        // SAFETY: AVX2+FMA presence was verified just above; both slices
        // hold at least `k` elements.
        Some(unsafe { dot_rows_avx2::<1>(a.as_ptr(), k, b.as_ptr(), k)[0] })
    }

    /// Dispatches to the AVX2 `X · Wᵀ` tile when supported; `false` means
    /// the caller must run the portable kernel instead.
    pub(super) fn gemm_bt(
        x: &[f32],
        m: usize,
        w: &[f32],
        n: usize,
        k: usize,
        out: &mut [f32],
    ) -> bool {
        if !super::simd_supported() {
            return false;
        }
        super::check_gemm_bt(x.len(), m, w.len(), n, k, out.len());
        // SAFETY: AVX2+FMA presence was verified just above, and the shape
        // check bounds every row the kernel reads and every element it
        // writes.
        unsafe { gemm_bt_avx2(x, m, w, n, k, out) };
        true
    }

    /// Dispatches to the AVX2 int8 `X · Wᵀ` tile when supported; `false`
    /// means the caller must run the portable kernel instead.
    pub(super) fn gemm_bt_q8(
        x: &[f32],
        m: usize,
        codes: &[i8],
        scales: &[f32],
        n: usize,
        k: usize,
        out: &mut [f32],
    ) -> bool {
        if !super::simd_supported() {
            return false;
        }
        super::check_gemm_bt(x.len(), m, codes.len(), n, k, out.len());
        assert_eq!(scales.len(), n, "gemm_bt_q8: one scale per weight row");
        // SAFETY: AVX2+FMA presence was verified just above, and the shape
        // checks bound every row and scale the kernel reads and every
        // element it writes.
        unsafe { gemm_bt_q8_avx2(x, m, codes, scales, n, k, out) };
        true
    }

    /// Dispatches to the AVX2 GEMM row when supported; `false` means the
    /// caller must run the portable kernel instead.
    pub(super) fn gemm_row(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) -> bool {
        if !super::simd_supported() {
            return false;
        }
        // SAFETY: AVX2+FMA presence was verified just above.
        unsafe { gemm_row_avx2(a_row, b, n, out_row) };
        true
    }

    /// Dispatches to the AVX2 int8×f32 dot when supported, over the first
    /// `min(w.len(), x.len())` elements.
    pub(super) fn dot_q8(w: &[i8], scale: f32, x: &[f32]) -> Option<f32> {
        if !super::simd_supported() {
            return None;
        }
        let k = w.len().min(x.len());
        // SAFETY: AVX2+FMA presence was verified just above; both slices
        // hold at least `k` elements.
        Some(unsafe { dot_q8_tile_avx2::<1, 1>(x.as_ptr(), k, w.as_ptr(), &scale, k)[0][0] })
    }

    /// Dispatches to the AVX2 scaled int8 accumulate when supported;
    /// `false` means the caller must run the portable kernel instead.
    pub(super) fn axpy_q8(weight: f32, codes: &[i8], scale: f32, out: &mut [f32]) -> bool {
        if !super::simd_supported() {
            return false;
        }
        // SAFETY: AVX2+FMA presence was verified just above.
        unsafe { axpy_q8_avx2(weight, codes, scale, out) };
        true
    }

    /// Sums the 8 lanes of a `__m256` through a stack spill (the reduction
    /// runs once per dot, off the critical path, so shuffle chains would
    /// buy nothing).
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2 support.
    #[target_feature(enable = "avx2")]
    unsafe fn hsum256(v: __m256) -> f32 {
        let mut tmp = [0.0f32; 8];
        _mm256_storeu_ps(tmp.as_mut_ptr(), v);
        tmp.iter().sum()
    }

    /// The f32 dot of the module docs, for `R` activation rows (at `x`,
    /// `x + x_stride`, …) against one weight row `w`, all of length `k`:
    /// each row has its own four accumulators and each weight vector is
    /// loaded once for all `R` rows. `R = 1` is the plain dot; `R = 3` is
    /// 12 accumulators plus the weight register.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `w` and every row
    /// `x + r·x_stride` (`r < R`) must be readable for `k` elements.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_rows_avx2<const R: usize>(
        x: *const f32,
        x_stride: usize,
        w: *const f32,
        k: usize,
    ) -> [f32; R] {
        let mut acc = [[_mm256_setzero_ps(); 4]; R];
        let mut i = 0usize;
        while i + 32 <= k {
            for j in 0..4 {
                let wv = _mm256_loadu_ps(w.add(i + 8 * j));
                for (r, acc_r) in acc.iter_mut().enumerate() {
                    let xv = _mm256_loadu_ps(x.add(r * x_stride + i + 8 * j));
                    acc_r[j] = _mm256_fmadd_ps(xv, wv, acc_r[j]);
                }
            }
            i += 32;
        }
        while i + 8 <= k {
            let wv = _mm256_loadu_ps(w.add(i));
            for (r, acc_r) in acc.iter_mut().enumerate() {
                acc_r[0] = _mm256_fmadd_ps(_mm256_loadu_ps(x.add(r * x_stride + i)), wv, acc_r[0]);
            }
            i += 8;
        }
        let mut out = [0.0f32; R];
        for (r, (o, a)) in out.iter_mut().zip(&acc).enumerate() {
            let folded = _mm256_add_ps(_mm256_add_ps(a[0], a[1]), _mm256_add_ps(a[2], a[3]));
            let mut total = hsum256(folded);
            let xr = x.add(r * x_stride);
            for t in i..k {
                total += *xr.add(t) * *w.add(t);
            }
            *o = total;
        }
        out
    }

    /// The q8 dot of the module docs as an `MR × NR` tile: `MR` activation
    /// rows (at `x + r·x_stride`) against `NR` consecutive int8 weight rows
    /// (at `codes + c·k`, scales at `scales + c`), one independent chain
    /// per output. Each weight vector is widened once for all `MR` rows.
    /// `1 × 1` is the plain `dot_q8`.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; every activation row
    /// and weight row must be readable for `k` elements and `scales` for
    /// `NR`.
    #[inline]
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn dot_q8_tile_avx2<const MR: usize, const NR: usize>(
        x: *const f32,
        x_stride: usize,
        codes: *const i8,
        scales: *const f32,
        k: usize,
    ) -> [[f32; NR]; MR] {
        let mut acc = [[_mm256_setzero_ps(); NR]; MR];
        let mut i = 0usize;
        while i + 8 <= k {
            let mut xv = [_mm256_setzero_ps(); MR];
            for (r, v) in xv.iter_mut().enumerate() {
                *v = _mm256_loadu_ps(x.add(r * x_stride + i));
            }
            for c in 0..NR {
                let q8 = _mm_loadl_epi64(codes.add(c * k + i).cast::<__m128i>());
                let wf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q8));
                for (acc_r, &x_r) in acc.iter_mut().zip(&xv) {
                    acc_r[c] = _mm256_fmadd_ps(wf, x_r, acc_r[c]);
                }
            }
            i += 8;
        }
        let mut out = [[0.0f32; NR]; MR];
        for (r, (out_r, acc_r)) in out.iter_mut().zip(&acc).enumerate() {
            let xr = x.add(r * x_stride);
            for (c, (o, &a)) in out_r.iter_mut().zip(acc_r).enumerate() {
                let wc = codes.add(c * k);
                let mut total = hsum256(a);
                for t in i..k {
                    total += f32::from(*wc.add(t)) * *xr.add(t);
                }
                *o = *scales.add(c) * total;
            }
        }
        out
    }

    /// Writes an `MR × NR` tile whose top-left output is `(r, c)` into the
    /// row-major `m × n` result.
    fn store<const MR: usize, const NR: usize>(
        out: &mut [f32],
        n: usize,
        r: usize,
        c: usize,
        tile: [[f32; NR]; MR],
    ) {
        for (i, row) in tile.iter().enumerate() {
            let at = (r + i) * n + c;
            out[at..at + NR].copy_from_slice(row);
        }
    }

    /// `out = X · Wᵀ` in f32, column-outer: weight row `c` stays in L1
    /// while the activation rows pass over it in groups of 3 (then 2 or 1),
    /// every output through [`dot_rows_avx2`].
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support and the shapes
    /// (`x` is `m × k`, `w` is `n × k`, `out` is `m × n`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_bt_avx2(x: &[f32], m: usize, w: &[f32], n: usize, k: usize, out: &mut [f32]) {
        let px = x.as_ptr();
        for c in 0..n {
            let wc = w.as_ptr().add(c * k);
            let mut r = 0;
            while r < m {
                let xr = px.add(r * k);
                let mr = match m - r {
                    1 => {
                        store(out, n, r, c, dot_rows_avx2::<1>(xr, k, wc, k).map(|v| [v]));
                        1
                    }
                    2 => {
                        store(out, n, r, c, dot_rows_avx2::<2>(xr, k, wc, k).map(|v| [v]));
                        2
                    }
                    _ => {
                        store(out, n, r, c, dot_rows_avx2::<3>(xr, k, wc, k).map(|v| [v]));
                        3
                    }
                };
                r += mr;
            }
        }
    }

    /// `out = X · Wᵀ` over int8 weights, column-outer: a block of weight
    /// rows stays in L1 while the activation rows pass over it in tiles of
    /// [`dot_q8_tile_avx2`] — `1 × 8` for a single row (eight chains in
    /// flight), `4 × 2` (then 3, 2 or 1 rows) otherwise, and one column at
    /// a time for the columns left over.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support and the shapes (`x` is
    /// `m × k`, `codes` is `n × k`, `scales` has `n` entries, `out` is
    /// `m × n`).
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_bt_q8_avx2(
        x: &[f32],
        m: usize,
        codes: &[i8],
        scales: &[f32],
        n: usize,
        k: usize,
        out: &mut [f32],
    ) {
        let px = x.as_ptr();
        let wide = if m == 1 { 8 } else { 2 };
        let mut c = 0;
        while c < n {
            let nr = if c + wide <= n { wide } else { 1 };
            let (pw, ps) = (codes.as_ptr().add(c * k), scales.as_ptr().add(c));
            let mut r = 0;
            while r < m {
                let mr = (m - r).min(4);
                let xr = px.add(r * k);
                match (mr, nr) {
                    (1, 8) => store(out, n, r, c, dot_q8_tile_avx2::<1, 8>(xr, k, pw, ps, k)),
                    (4, 2) => store(out, n, r, c, dot_q8_tile_avx2::<4, 2>(xr, k, pw, ps, k)),
                    (3, 2) => store(out, n, r, c, dot_q8_tile_avx2::<3, 2>(xr, k, pw, ps, k)),
                    (2, 2) => store(out, n, r, c, dot_q8_tile_avx2::<2, 2>(xr, k, pw, ps, k)),
                    (1, 2) => store(out, n, r, c, dot_q8_tile_avx2::<1, 2>(xr, k, pw, ps, k)),
                    (4, _) => store(out, n, r, c, dot_q8_tile_avx2::<4, 1>(xr, k, pw, ps, k)),
                    (3, _) => store(out, n, r, c, dot_q8_tile_avx2::<3, 1>(xr, k, pw, ps, k)),
                    (2, _) => store(out, n, r, c, dot_q8_tile_avx2::<2, 1>(xr, k, pw, ps, k)),
                    _ => store(out, n, r, c, dot_q8_tile_avx2::<1, 1>(xr, k, pw, ps, k)),
                }
                r += mr;
            }
            c += nr;
        }
    }

    /// AVX2/FMA scaled int8 accumulate: 8 codes at a time are widened
    /// `i8 → i32 → f32` in-register and FMA'd against the broadcast
    /// combined factor `weight · scale` into the output, with a scalar
    /// tail. This is the quantized-attention context kernel: the V rows
    /// stream 1 byte per element.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `out` must be at least
    /// as long as `codes`.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn axpy_q8_avx2(weight: f32, codes: &[i8], scale: f32, out: &mut [f32]) {
        debug_assert!(out.len() >= codes.len());
        let n = codes.len();
        let pq = codes.as_ptr();
        let po = out.as_mut_ptr();
        let c = weight * scale;
        let cv = _mm256_set1_ps(c);
        let mut i = 0usize;
        while i + 8 <= n {
            let q8 = _mm_loadl_epi64(pq.add(i).cast::<__m128i>());
            let qf = _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(q8));
            let acc = _mm256_fmadd_ps(cv, qf, _mm256_loadu_ps(po.add(i)));
            _mm256_storeu_ps(po.add(i), acc);
            i += 8;
        }
        while i < n {
            *po.add(i) += c * f32::from(*pq.add(i));
            i += 1;
        }
    }

    /// AVX2/FMA GEMM row: 16-wide column tiles held in two `ymm`
    /// accumulators across the whole `k` loop (one broadcast + two FMAs
    /// per weight), with the ragged trailing columns delegated to the
    /// blocked scalar tile.
    ///
    /// # Safety
    ///
    /// Caller must have verified AVX2+FMA support; `b` must be
    /// `a_row.len() × n` row-major and `out_row` at least `n` long.
    #[target_feature(enable = "avx2", enable = "fma")]
    unsafe fn gemm_row_avx2(a_row: &[f32], b: &[f32], n: usize, out_row: &mut [f32]) {
        debug_assert!(b.len() >= a_row.len() * n);
        debug_assert!(out_row.len() >= n);
        let pb = b.as_ptr();
        let po = out_row.as_mut_ptr();
        let mut j = 0usize;
        while j + 16 <= n {
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            for (kk, &a) in a_row.iter().enumerate() {
                let av = _mm256_set1_ps(a);
                let strip = pb.add(kk * n + j);
                acc0 = _mm256_fmadd_ps(av, _mm256_loadu_ps(strip), acc0);
                acc1 = _mm256_fmadd_ps(av, _mm256_loadu_ps(strip.add(8)), acc1);
            }
            _mm256_storeu_ps(po.add(j), acc0);
            _mm256_storeu_ps(po.add(j + 8), acc1);
            j += 16;
        }
        if j < n {
            super::gemm_row_blocked(a_row, b, n, j, out_row);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Pcg32;

    fn randv(n: usize, seed: u64) -> Vec<f32> {
        let mut rng = Pcg32::seed(seed);
        (0..n).map(|_| rng.normal()).collect()
    }

    #[test]
    fn names_are_distinct_and_stable() {
        let names: Vec<&str> = all().iter().map(|b| b.name()).collect();
        assert_eq!(names, vec!["scalar", "blocked", "simd"]);
    }

    #[test]
    fn active_is_sticky_and_listed() {
        let first = active().name();
        let second = active().name();
        assert_eq!(first, second, "selection must be one-time");
        assert!(all().iter().any(|b| b.name() == first));
        assert!(active_name().starts_with(first));
    }

    #[test]
    fn dots_agree_across_backends_on_awkward_lengths() {
        // 1, 7, 8, 31, 33: scalar tails, exactly one lane chunk, and the
        // SIMD kernel's 32-wide main loop boundary on both sides.
        for n in [1usize, 7, 8, 31, 32, 33, 100] {
            let a = randv(n, 1 + n as u64);
            let b = randv(n, 100 + n as u64);
            let reference = SCALAR.dot(&a, &b);
            for backend in all() {
                let got = backend.dot(&a, &b);
                let tol = 1e-4 * reference.abs().max(1.0);
                assert!(
                    (got - reference).abs() <= tol,
                    "{} dot drifted at n={n}: {got} vs {reference}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn gemm_rows_agree_across_backends() {
        // n straddles the 16-wide tile boundary; k straddles the lane
        // width.
        for (k, n) in [(5usize, 3usize), (9, 16), (17, 19), (33, 40)] {
            let a_row = randv(k, 7);
            let b = randv(k * n, 8);
            let mut reference = vec![0.0f32; n];
            SCALAR.gemm_row(&a_row, &b, n, &mut reference);
            for backend in all() {
                let mut got = vec![0.0f32; n];
                backend.gemm_row(&a_row, &b, n, &mut got);
                for (g, r) in got.iter().zip(&reference) {
                    assert!(
                        (g - r).abs() <= 1e-4 * r.abs().max(1.0),
                        "{} gemm_row drifted at k={k} n={n}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn q8_dots_agree_across_backends() {
        for n in [1usize, 8, 13, 40] {
            let w: Vec<i8> = (0..n)
                .map(|i| ((i as i32 * 37) % 255 - 127) as i8)
                .collect();
            let x = randv(n, 5 + n as u64);
            let scale = 0.037f32;
            let reference = SCALAR.dot_q8(&w, scale, &x);
            for backend in all() {
                let got = backend.dot_q8(&w, scale, &x);
                assert!(
                    (got - reference).abs() <= 1e-4 * reference.abs().max(1.0),
                    "{} dot_q8 drifted at n={n}: {got} vs {reference}",
                    backend.name()
                );
            }
        }
    }

    #[test]
    fn q8_axpys_agree_across_backends() {
        // Same awkward lengths as the dot tests: scalar-tail-only, exactly
        // one 8-wide chunk, and a ragged tail past the SIMD main loop.
        for n in [1usize, 8, 13, 40] {
            let codes: Vec<i8> = (0..n)
                .map(|i| ((i as i32 * 53) % 255 - 127) as i8)
                .collect();
            let scale = 0.021f32;
            let weight = 0.63f32;
            let base = randv(n, 9 + n as u64);
            let mut reference = base.clone();
            SCALAR.axpy_q8(weight, &codes, scale, &mut reference);
            for backend in all() {
                let mut got = base.clone();
                backend.axpy_q8(weight, &codes, scale, &mut got);
                for (g, r) in got.iter().zip(&reference) {
                    assert!(
                        (g - r).abs() <= 1e-4 * r.abs().max(1.0),
                        "{} axpy_q8 drifted at n={n}: {g} vs {r}",
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn simd_backend_is_safe_everywhere() {
        // Whether or not AVX2 exists here, the SIMD tier must answer (via
        // intrinsics or the blocked fallback).
        let a = randv(50, 2);
        let b = randv(50, 3);
        let got = SIMD.dot(&a, &b);
        assert!((got - SCALAR.dot(&a, &b)).abs() <= 1e-3);
    }
}
