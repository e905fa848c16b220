#!/usr/bin/env bash
# The tier-1 gate: offline benchmark smoke, then build, tests, and lints for
# the whole workspace.
# Run before every merge; CHIPALIGN_QUALITY=smoke keeps zoo-training
# tests at seconds-scale.
set -euo pipefail
cd "$(dirname "$0")/.."

export CHIPALIGN_QUALITY="${CHIPALIGN_QUALITY:-smoke}"

# The stack benchmark first: the only step that builds without a registry
# (staged source + the stand-ins in benchmark/vendor), so it also runs
# where everything below cannot. The harness exits 0 on a wrong transcript,
# so require every result line to say `"correct": true` and `"failed": 0`.
bench_quick() { # [run.sh args...]
  local out
  out="$(benchmark/run.sh --quick "$@")"
  printf '%s\n' "$out"
  if ! grep -q '^{"correct"' <<<"$out" ||
    grep '^{"correct"' <<<"$out" | grep -qv '^{"correct": true, "attempted": [0-9]*, "failed": 0,'; then
    echo "ci: benchmark/run.sh --quick $* reported a wrong or failed operation" >&2
    return 1
  fi
}
bench_quick
# Stacked-row ≡ single-row end to end on the non-AVX2 tiers too: prefill
# goes through skinny GEMMs, decode through matvecs, and the harness
# compares sampled transcripts with single-threaded generate().
for backend in scalar blocked; do
  CHIPALIGN_BACKEND="$backend" bench_quick --workload prefill_shared --trace 0
done

cargo build --release
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings

# Chaos suites: deterministic fault injection behind the fault-inject
# feature (never part of release builds), plus a lint pass over the
# feature-gated code paths. The router's fleet chaos suite kills whole
# replicas mid-decode and asserts transcripts survive failover.
cargo test -q -p chipalign-serve --features fault-inject
cargo clippy -p chipalign-serve --all-targets --features fault-inject -- -D warnings
cargo test -q -p chipalign-router --features fault-inject
cargo clippy -p chipalign-router --all-targets --features fault-inject -- -D warnings

# Kernel layer: the tensor, model, nn, and serve crates stay clippy-clean
# at -D warnings, and the kernel + batch + prefill + kvpool micro-benches
# must run end to end (smoke shapes, no JSON).
cargo clippy -p chipalign-tensor -- -D warnings
cargo clippy -p chipalign-model -- -D warnings
cargo clippy -p chipalign-nn -- -D warnings
cargo clippy -p chipalign-serve -- -D warnings
cargo clippy -p chipalign-router -- -D warnings
cargo run --release -p chipalign-bench --bin bench_kernels -- --smoke

# Backend × dtype sweep: bench_kernels times every tier directly, but the
# routed kernels (Matrix::matvec, decode_step) follow the process-wide
# selection, so pin each tier once. The simd run degrades to
# "simd(blocked-fallback)" on machines without AVX2+FMA — still a valid
# smoke of the dispatch path. One native-codegen run catches UB or
# miscompiles that only surface when LLVM is allowed to auto-vectorize
# for the host.
for backend in scalar blocked simd; do
  CHIPALIGN_BACKEND="$backend" \
    cargo run --release -p chipalign-bench --bin bench_kernels -- --smoke
done
RUSTFLAGS="-C target-cpu=native" \
  cargo run --release -p chipalign-bench --bin bench_kernels -- --smoke
cargo run --release -p chipalign-bench --bin bench_batch -- --smoke
cargo run --release -p chipalign-bench --bin bench_prefill -- --smoke

# KV dtype × backend sweep: the paged-pool smoke must hold for both KV
# dtypes under both the scalar oracle and the SIMD tier (the quantized
# row primitives have per-tier implementations; simd degrades to the
# blocked fallback off-AVX2, which is still a valid dispatch smoke).
# The default run (no --dtype) covers both lanes together and asserts
# the int8-over-f32 sessions-per-GB floor.
cargo run --release -p chipalign-bench --bin bench_kvpool -- --smoke
for dtype in f32 int8; do
  for backend in scalar simd; do
    CHIPALIGN_BACKEND="$backend" \
      cargo run --release -p chipalign-bench --bin bench_kvpool -- --smoke --dtype "$dtype"
  done
done
cargo run --release -p chipalign-bench --bin bench_serve -- --smoke
cargo run --release -p chipalign-bench --bin bench_fleet -- --smoke

# Speculative decoding smoke: k ∈ {2,4} over the merge-family draft and
# the truncated self-draft; the binary itself asserts speculative
# transcripts byte-identical to plain decode and acceptance > 0.
cargo run --release -p chipalign-bench --bin bench_spec -- --smoke

echo "ci: build + tests + chaos + clippy + backend-matrix + perf-binary smoke runs all green"
