#!/usr/bin/env bash
# Prints the smoke manifest: the sha256 of every zoo checkpoint and every
# result JSON that the eight experiment binaries write at smoke quality,
# run into a fresh temporary directory on the kernel tier CHIPALIGN_BACKEND
# selects. The loop is byte-deterministic per tier, so the committed
# results/smoke-manifest.<tier>.txt pins what the paper's loop produces end
# to end; scripts/ci.sh regenerates and diffs it for `simd` and `scalar`.
# A change that moves bits on purpose re-pins both files:
#
#   CHIPALIGN_BACKEND=simd   scripts/smoke_manifest.sh > results/smoke-manifest.simd.txt
#   CHIPALIGN_BACKEND=scalar scripts/smoke_manifest.sh > results/smoke-manifest.scalar.txt
#
# The `simd` file holds for an AVX2+FMA x86_64 host; elsewhere that tier
# falls back to `blocked` and its bits differ.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline -q -p chipalign-bench
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
for bin in table1_openroad_qa table3_ifeval table2_industrial_qa fig7_multichoice \
  fig8_lambda_sweep fig2_radar fig5_qualitative fig6_qualitative; do
  if ! CHIPALIGN_ZOO_DIR="$tmp/zoo" CHIPALIGN_QUALITY=smoke \
    "target/release/$bin" >/dev/null 2>"$tmp/stderr"; then
    cat "$tmp/stderr" >&2
    echo "smoke_manifest: $bin failed" >&2
    exit 1
  fi
done
cd "$tmp"
find zoo results -type f | LC_ALL=C sort | xargs sha256sum
