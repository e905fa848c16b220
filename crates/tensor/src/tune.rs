//! Kernel tuning knobs: every block size and shape cut-off used by the
//! dense kernels in [`crate::Matrix`], in one place.
//!
//! The values below were chosen for the small-to-medium matrices this
//! workspace actually multiplies (embedding tables up to a few hundred rows,
//! `d_model`-sized projections, `seq × seq` attention scores) running on
//! ordinary x86-64/aarch64 cores. They are compile-time constants rather
//! than runtime configuration so the optimizer can fully unroll the tiled
//! inner loops; changing them only requires re-running
//! `benchmark/run.sh` (the `tensor.*` per-layer metrics) to re-baseline.

use std::sync::atomic::{AtomicU64, Ordering};

/// Width (in `f32` elements) of the fixed output-column tile used by the
/// `A·B` and `Aᵀ·B` kernels.
///
/// Each tile's partial sums live in a stack array of this size, which the
/// compiler keeps in vector registers across the whole `k` loop — the store
/// to the output row happens once per tile instead of once per
/// multiply-accumulate. 16 floats = one 512-bit or two 256-bit vectors.
pub(crate) const GEMM_COL_TILE: usize = 16;

/// Number of independent partial-sum lanes used by the blocked dot product.
///
/// Splitting the reduction into this many accumulators breaks the serial
/// floating-point dependency chain so the loop vectorises; 8 lanes = one
/// 256-bit vector of `f32`.
pub(crate) const DOT_LANES: usize = 8;

/// Number of `f64` partial sums per quantity in [`crate::reduce`], the one
/// reduction kernel behind Frobenius norms, Frobenius inner products and
/// both sweeps of the geodesic merge.
///
/// Element `k` always lands in partial `k % REDUCE_LANES` and the partials
/// combine in one fixed tree, so a reduction's bits depend only on its
/// input, never on the caller or the thread. 8 independent chains hide the
/// f64 add latency; a product of two `f32`s is exact in `f64`, so the order
/// of additions is the only rounding choice there is.
pub(crate) const REDUCE_LANES: usize = 8;

/// Most left-hand rows one call of the backend's `X·Wᵀ` tile
/// ([`crate::backend::KernelBackend::gemm_bt`] / `gemm_bt_q8`) receives
/// from [`crate::Matrix::matmul_bt`] or
/// [`crate::QuantizedMatrix::matmul_bt`]; a taller product runs the tile
/// once per strip of this many rows.
///
/// This is a cache bound, not a correctness one. The AVX2 tile walks
/// weight rows in its outer loop and loads each once for every activation
/// row of the call, so those rows should stay cache-resident while the
/// weights stream past them: a 32-row strip is 8 KiB at `k` = 64 and
/// 32 KiB at 256. Bits do not
/// depend on it: tiles reuse loads, never reorder a dot, so every output
/// element is the backend's whole-row dot, in exactly
/// [`crate::Matrix::matvec`]'s order, at any height and any `k`. Batched
/// decode and prefill blocks in the serving stack stay within one strip,
/// so each of their projections is one call; `chipalign-nn` and
/// `chipalign-serve` reuse the value for their block, batch and draft
/// bounds, each for its own stated reason.
pub const GEMM_SKINNY_M_MAX: usize = 32;

/// Fewest weights (`n · k`) an `X · Wᵀ` must have before its output
/// columns are split across the compute pool ([`crate::Matrix::matvec`],
/// [`crate::Matrix::matmul_bt`] and both [`crate::QuantizedMatrix`]
/// products).
///
/// A split pays a fixed hand-off whatever the shape, so small products stay
/// on one thread. Measured on a 2-vCPU Xeon at `k` = 384, split against
/// unsplit: with the worker still spinning from the previous call, a
/// one-row product breaks even near 32 Ki weights and an eight-row one
/// below 16 Ki; with the worker parked (50 µs between calls) the wake adds
/// ~1.5 µs, a one-row product breaks even only near 144 Ki (~12 µs either
/// way), and an eight-row one wins from 48 Ki. 64 Ki splits every
/// `bench-384` attention projection (147 456 weights) and MLP matrix
/// (393 216), and neither its `lm_head` (38 016) nor any zoo matrix
/// (≤ 12 288). Bits do not depend on it: every output is one whole-row dot
/// on whichever thread computes it.
pub(crate) const SPLIT_MIN_WEIGHTS: usize = 65_536;

/// Side length of the square tiles used by the blocked transpose.
///
/// A 32×32 `f32` tile is 4 KiB — both the row-major reads and the
/// column-major writes of one tile fit in L1 simultaneously.
pub(crate) const TRANSPOSE_BLOCK: usize = 32;

/// Largest magnitude an int8 quantization code may take (symmetric range
/// `[-127, 127]`; -128 is deliberately unused so every code has an exact
/// negation).
///
/// Kept as `f32` because it only ever appears in the scale computation
/// (`scale = max|row| / QUANT_MAX`) and the pre-cast clamp.
pub(crate) const QUANT_MAX: f32 = 127.0;

/// Process-wide count of matrix–vector fast-path invocations
/// ([`crate::Matrix::matvec`], [`crate::Matrix::vecmat`] and
/// [`crate::QuantizedMatrix::matvec`], including the `m == 1`/`n == 1`
/// dispatches inside the matmul family) — single-row products only; a
/// stacked GEMM is never counted.
static MATVEC_CALLS: AtomicU64 = AtomicU64::new(0);

/// Records one matrix–vector fast-path hit. Relaxed ordering: the counter is
/// a monotonic diagnostic, never a synchronisation point.
pub(crate) fn note_matvec() {
    MATVEC_CALLS.fetch_add(1, Ordering::Relaxed);
}

/// Returns the number of matrix–vector fast-path invocations since process
/// start.
///
/// The counter is monotonic and process-wide; tests assert deltas (`after -
/// before >= expected`) rather than absolute values so they stay correct
/// when other threads decode concurrently. This is how the KV-cached decode
/// path in `chipalign-nn` proves it really runs on the matvec kernel.
#[must_use]
pub fn matvec_calls() -> u64 {
    MATVEC_CALLS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_sane() {
        // Evaluated at compile time: a bad edit fails the build, not the run.
        const {
            assert!(GEMM_COL_TILE.is_power_of_two());
            assert!(DOT_LANES.is_power_of_two());
            assert!(REDUCE_LANES.is_power_of_two());
            assert!(GEMM_SKINNY_M_MAX >= 2);
            assert!(GEMM_SKINNY_M_MAX.is_power_of_two());
            assert!(TRANSPOSE_BLOCK >= 8);
            assert!(QUANT_MAX == 127.0, "i8 symmetric range is fixed");
        }
    }

    #[test]
    fn matvec_counter_is_monotonic() {
        let before = matvec_calls();
        note_matvec();
        note_matvec();
        assert!(matvec_calls() >= before + 2);
    }
}
