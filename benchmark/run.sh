#!/usr/bin/env bash
# The ChipAlign stack benchmark, one command:
#
#   benchmark/run.sh [--workload W] [--seed S] [--seconds N] [--trace [0|1]]
#                    [--quick] [--repeat N]
#
# Stages a copy of the product source, applies compile-fixes.txt to the copy,
# builds offline against the stand-ins in vendor/, and runs the harness.
# Without --workload it runs all four; without --trace it runs each workload
# untraced (end-to-end metrics) and traced (per-layer metrics, trace file).
# --repeat N runs N untraced sets and prints the spread of every end-to-end
# metric against its bound. The driver's form is
#   run.sh --workload W --seed S --seconds N --trace 0|1
# and the last line of standard output is then the result object.
set -euo pipefail

BENCH="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
ROOT="$(dirname "$BENCH")"
STAGE="$BENCH/stage"
OUT="$BENCH/out"
WORKLOADS=(merge_sweep decode_steady prefill_shared fleet_mixed)

workloads=()
seed=1
seconds=""
trace=""
quick=()
repeat=0
while (($#)); do
  case "$1" in
    --workload) workloads=("$2"); shift 2 ;;
    --seed) seed="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" =~ ^[01]$ ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    --quick) quick=(--quick); shift ;;
    --repeat) repeat="$2"; shift 2 ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
((${#workloads[@]})) || workloads=("${WORKLOADS[@]}")
if [[ -z "$seconds" ]]; then
  seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$ROOT/BENCHMARK.json")"
fi

# --- stage the product source -------------------------------------------
# The path dependencies of benchmark/Cargo.toml point into $STAGE. It is
# rebuilt only when a source file or the fix list changed, and copies keep
# their mtimes, so cargo recompiles nothing it has already compiled.
cd "$ROOT"
if [[ ! -f Cargo.toml || ! -d crates ]]; then
  echo "run.sh: $ROOT holds no product source (Cargo.toml, crates/) to benchmark" >&2
  exit 1
fi
listing="$( { find Cargo.toml src crates -type f -printf '%p %s %T@\n' | sort; cksum "$BENCH/compile-fixes.txt"; } )"
if [[ ! -f "$STAGE/.listing" || "$listing" != "$(cat "$STAGE/.listing")" ]]; then
  rm -rf "$STAGE"
  mkdir -p "$STAGE"
  cp -a Cargo.toml src crates "$STAGE/"
  applied=0
  while IFS=$'\t' read -r file old new _why; do
    [[ -z "$file" || "$file" == \#* ]] && continue
    target="$STAGE/$file"
    [[ -f "$target" ]] || continue
    content="$(<"$target")"
    if [[ "$content" == *"$old"* ]]; then
      printf '%s\n' "${content//"$old"/"$new"}" >"$target.fixed"
      touch -r "$target" "$target.fixed"
      mv "$target.fixed" "$target"
      applied=$((applied + 1))
    fi
  done <"$BENCH/compile-fixes.txt"
  echo "$applied" >"$STAGE/.fixes_applied"
  printf '%s\n' "$listing" >"$STAGE/.listing"
fi

# --- build offline --------------------------------------------------------
# cargo reads .cargo/config.toml from the working directory upwards, so it
# runs from benchmark/; a relative CARGO_TARGET_DIR is relative to $ROOT.
target_dir="${CARGO_TARGET_DIR:-$BENCH/target}"
[[ "$target_dir" == /* ]] || target_dir="$ROOT/$target_dir"
(cd "$BENCH" && CARGO_TARGET_DIR="$target_dir" cargo build --release --offline --quiet >&2)
bin="$target_dir/release/chipalign-benchmark"

meta=(
  --meta "cpu=$(sed -n 's/^model name[^:]*: *//p' /proc/cpuinfo | head -n1)"
  --meta "rustc=$(rustc --version)"
  --meta "commit=$(git -C "$ROOT" rev-parse --short HEAD 2>/dev/null || echo unknown)"
  --meta "compile_fixes_applied=$(cat "$STAGE/.fixes_applied")"
  --meta "standins_linked=$(grep -c '^source = "registry' "$BENCH/Cargo.lock")"
)

mkdir -p "$OUT"
run() { # workload trace [extra args]
  "$bin" run --workload "$1" --seed "$seed" --seconds "$seconds" --trace "$2" \
    --out-dir "$OUT" "${quick[@]}" "${meta[@]}" "${@:3}"
}

if ((repeat > 0)); then
  runs="$OUT/runs.tsv"
  rm -f "$runs"
  for ((set = 1; set <= repeat; set++)); do
    for w in "${workloads[@]}"; do
      echo "-- set $set/$repeat: $w" >&2
      run "$w" 0 --tsv "$runs" >/dev/null
    done
  done
  "$bin" spread "$runs"
  exit 0
fi

for w in "${workloads[@]}"; do
  for t in ${trace:-0 1}; do
    run "$w" "$t"
  done
done
