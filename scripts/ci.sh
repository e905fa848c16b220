#!/usr/bin/env bash
# The tier-1 gate: offline benchmark smoke, then build, tests, and lints for
# the whole workspace.
# Run before every merge; CHIPALIGN_QUALITY=smoke keeps zoo-training
# tests at seconds-scale.
set -euo pipefail
cd "$(dirname "$0")/.."

export CHIPALIGN_QUALITY="${CHIPALIGN_QUALITY:-smoke}"

# The stack benchmark first: every workload end to end on tiny inputs. The
# harness exits 0 on a wrong transcript, so require every result line to
# say `"correct": true` and `"failed": 0`.
bench_quick() { # [run.sh args...]
  local out
  out="$(benchmark/run.sh --quick "$@")"
  printf '%s\n' "$out"
  if ! grep -q '^{"correct"' <<<"$out" ||
    grep '^{"correct"' <<<"$out" | grep -qv '^{"correct": true, "attempted": [0-9]*, "failed": 0,'; then
    echo "ci: benchmark/run.sh --quick $* reported a wrong or failed operation" >&2
    return 1
  fi
  # The wire must not sleep. The traced fleet_mixed leg prints what TCP adds
  # to an in-process reply and what the router adds to that; each is a
  # fraction of a millisecond here, and one accept-poll tick or one
  # write-write-read Nagle stall is 20-100 ms, so 15 ms catches either.
  if grep -q '^== fleet_mixed .* trace 1' <<<"$out"; then
    awk '$1 == "metric" { m[$2] = $4 }
      END {
        if (!("router.hop_ms_p50" in m && "serve.loopback_latency_p50_ms" in m &&
              "serve.direct_latency_p50_ms" in m)) {
          print "ci: the traced fleet_mixed leg printed no wire metrics" > "/dev/stderr"
          exit 1
        }
        wire = m["serve.loopback_latency_p50_ms"] - m["serve.direct_latency_p50_ms"]
        hop = m["router.hop_ms_p50"]
        if (wire > 15 || hop > 15) {
          printf "ci: a timer is back on the wire: loopback - direct = %.1f ms, router hop = %.1f ms (limit 15)\n", wire, hop > "/dev/stderr"
          exit 1
        }
      }' <<<"$out"
  fi
}
bench_quick
# Stacked-row ≡ single-row end to end on the non-AVX2 tiers too: prefill
# goes through skinny GEMMs, decode through matvecs, and the harness
# compares sampled transcripts with single-threaded generate().
for backend in scalar blocked; do
  CHIPALIGN_BACKEND="$backend" bench_quick --workload prefill_shared --trace 0
done

# One build world: the workspace depends on nothing but itself, and the
# committed lock file proves it.
if grep -q '^source = "registry' Cargo.lock; then
  echo "ci: Cargo.lock names a registry package; the workspace must stay dependency-free" >&2
  exit 1
fi
# One blocking line-server: no front end goes back to a polled listener.
if grep -rn 'set_nonblocking(true)' crates/serve/src crates/router/src; then
  echo "ci: a listener is non-blocking again; accept must block (see DESIGN.md, Wire)" >&2
  exit 1
fi
# Non-test lines per crate: every line above a file's `#[cfg(test)] mod`
# block (a whole file when it has none). These are the sizes ROADMAP quotes.
echo "ci: non-test lines per crate"
for src in src crates/*/src; do
  find "$src" -name '*.rs' -exec awk '
    FNR == 1 { prev = "" }
    prev == "#[cfg(test)]" && /^mod / { n--; nextfile }
    { n++; prev = $0 }
    END { print n }' {} + |
    awk -v name="${src%/src}" '{ printf "  %-20s %6d\n", (name == "src" ? "chipalign" : name), $1 }'
done

cargo build --release --offline --locked
# One example end to end: the only leg that drives a real `Server` and the
# default batched scheduler from outside the test harness.
demo="$(cargo run --release --offline --example serve_demo)"
printf '%s\n' "$demo"
if ! grep -q '^served 4 generations' <<<"$demo"; then
  echo "ci: examples/serve_demo did not print 'served 4 generations'" >&2
  exit 1
fi
cargo test -q
cargo test -q --workspace
# Once more on one core: `available_parallelism()` is then 1, so
# `tensor::parallelize` takes its single-worker path in every merge test,
# which must give the same bits as the fan-out above.
taskset -c 0 cargo test -q -p chipalign-tensor -p chipalign-merge
# Once more per portable tier: there `gemm_bt` / `gemm_bt_q8` are the
# trait's default per-element dot loops, not the AVX2 tiles, so every
# stacked ≡ matvec ≡ forward pin in tensor and nn runs on that path too.
for backend in scalar blocked; do
  CHIPALIGN_BACKEND="$backend" cargo test -q -p chipalign-tensor -p chipalign-nn
done
# Once more under AddressSanitizer: the AVX2 tier is the workspace's only
# `unsafe` code, and every tensor and nn test drives it, so an
# out-of-bounds load there fails here instead of reading a neighbour's
# bytes. Nightly-only flag, own target directory (instrumented artefacts
# never mix with the plain ones); doctests stay out because they do not
# link under ASan.
RUSTFLAGS=-Zsanitizer=address CARGO_TARGET_DIR=target/asan \
  cargo +nightly test -q --offline --target x86_64-unknown-linux-gnu \
  -p chipalign-tensor -p chipalign-nn --lib --tests

# Chaos suites: deterministic fault injection behind the fault-inject
# feature (never part of release builds). The router's fleet chaos suite
# kills whole replicas mid-decode and asserts transcripts survive failover.
cargo test -q -p chipalign-serve --features fault-inject
cargo test -q -p chipalign-router --features fault-inject

cargo clippy --workspace --all-targets -- -D warnings
cargo clippy -p chipalign-serve --all-targets --features fault-inject -- -D warnings
cargo clippy -p chipalign-router --all-targets --features fault-inject -- -D warnings
# Rustdoc with warnings denied: an intra-doc link left stale by a moved
# item or field fails here, not in a reader's browser.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "ci: benchmark smoke + build + tests + chaos + clippy + rustdoc all green"
