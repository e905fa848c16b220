#!/usr/bin/env bash
# The tier-1 gate: offline benchmark smoke, then build, tests, and lints for
# the whole workspace.
# Run before every merge; CHIPALIGN_QUALITY=smoke keeps zoo-training
# tests at seconds-scale.
set -euo pipefail
cd "$(dirname "$0")/.."

export CHIPALIGN_QUALITY="${CHIPALIGN_QUALITY:-smoke}"

# Formatting first: it takes a second and fails before any build.
# `benchmark/` is not a workspace member, so this leaves it alone.
cargo fmt --all -- --check

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
# One wire client: the router reaches replicas through serve::Client only.
if grep -rn 'TcpStream::connect' crates/router/src; then
  echo "ci: the router opens its own socket again; use chipalign_serve::Client" >&2
  exit 1
fi
# One checkpoint checksum: XXH64 is the only hash the formats read or write.
if grep -rn 'Fnv1a\|fnv1a' crates/model/src; then
  echo "ci: crates/model names FNV-1a again; there is one checkpoint checksum (XXH64)" >&2
  exit 1
fi
# One clock: the scheduler takes the time as an argument. Outside its tests
# only the thread shell reads the wall clock (the worker loop and
# `Scheduler::submit`, two `Instant::now` calls), and its tests step a
# virtual clock instead of sleeping or spinning.
sched=crates/serve/src/scheduler.rs
sched_body="$(awk 'prev == "#[cfg(test)]" && /^mod / { exit } { print; prev = $0 }' "$sched")"
sched_tests="$(awk 'prev == "#[cfg(test)]" && /^mod / { tests = 1 } tests { print } { prev = $0 }' "$sched")"
if [ "$(grep -o 'Instant::now' <<<"$sched_body" | wc -l)" -gt 2 ] || grep -q '\.elapsed()' <<<"$sched_body"; then
  echo "ci: $sched reads the wall clock outside its thread shell; pass the time in" >&2
  exit 1
fi
if grep -qE 'thread::sleep|yield_now' <<<"$sched_tests"; then
  echo "ci: $sched's tests sleep or spin; step the scheduler on a virtual clock" >&2
  exit 1
fi
# One transcript: the decoder owns it (`StepDecoder::generated`), and a
# step that fails without panicking leaves every session resumable, so
# outside its tests the scheduler keeps no token buffer of its own and
# never makes up an `internal` error for a healthy batch-mate.
if grep -qE 'ServeError::Internal|produced: *Vec<' <<<"$sched_body"; then
  echo "ci: $sched keeps a second transcript or ends a session as internal; read the decoder's" >&2
  exit 1
fi
# Non-test lines per crate: every line above a file's `#[cfg(test)] mod`
# block (a whole file when it has none), then their total. These are the
# sizes ROADMAP quotes.
echo "ci: non-test lines per crate"
for src in src crates/*/src; do
  find "$src" -name '*.rs' -exec awk '
    FNR == 1 { prev = "" }
    prev == "#[cfg(test)]" && /^mod / { n--; nextfile }
    { n++; prev = $0 }
    END { print n }' {} + |
    awk -v name="${src%/src}" '{ printf "  %-20s %6d\n", (name == "src" ? "chipalign" : name), $1 }'
done | awk '{ print; total += $2 } END { printf "  %-20s %6d\n", "total", total }'
# Settable values per config: the `pub` fields of every `pub struct *Config`
# under crates/*/src, then their total. A field whose type is itself a
# `*Config` is counted under that struct, not twice. These are the option
# counts ROADMAP quotes.
echo "ci: settable values per config struct"
find crates/*/src -name '*.rs' -exec awk '
  FNR == 1 { name = "" }
  /^pub struct [A-Za-z0-9_]*Config \{/ { split(FILENAME, path, "/"); name = path[2] "::" $3; n = 0; next }
  name != "" && /^}/ { print name, n; name = ""; next }
  name != "" && /^    pub [a-z0-9_]+: / && !/: [A-Za-z0-9_]*Config,$/ { n++ }' {} + |
  sort | awk '{ printf "  %-30s %3d\n", $1, $2; total += $2 } END { printf "  %-30s %3d\n", "total", total }'

cargo build --release --offline --locked
# Every example end to end, each required to print its result line.
# serve_demo is the only leg that drives a real `Server` and the default
# batched scheduler from outside the test harness; quickstart and
# lambda_sweep run `ModelSoup` and `GeodesicMerge` through the `chipalign`
# facade; openroad_qa and industrial_chatbot are its only train → merge →
# answer demos (a few seconds each at smoke quality, the others well
# under one).
run_example() { # NAME REQUIRED-LINE-PREFIX
  local out
  out="$(cargo run --release --offline --example "$1")"
  printf '%s\n' "$out"
  if ! grep -q "^$2" <<<"$out"; then
    echo "ci: examples/$1 did not print '$2'" >&2
    return 1
  fi
}
run_example serve_demo 'served 4 generations'
run_example quickstart 'model-soup norm:'
run_example lambda_sweep 'at lambda = 0.6:'
run_example openroad_qa 'chipalign  (rouge '
run_example industrial_chatbot 'grade    : '
# The paper's loop end to end, bit for bit: every smoke zoo checkpoint and
# result JSON the eight experiment binaries write must hash to the committed
# manifest of its kernel tier. A change that moves a bit anywhere between
# a kernel and a table fails here, naming the artefacts that moved.
for backend in simd scalar; do
  if ! CHIPALIGN_BACKEND="$backend" scripts/smoke_manifest.sh |
    diff "results/smoke-manifest.$backend.txt" -; then
    echo "ci: the $backend smoke loop no longer matches results/smoke-manifest.$backend.txt" >&2
    exit 1
  fi
done
cargo test -q
cargo test -q --workspace
# Once more on one core: `available_parallelism()` is then 1, so the
# compute pool has no workers and every job runs inline on its caller —
# `tensor::parallelize` in every merge test, and every split projection in
# every nn pin — which must give the same bits as the pooled runs above.
# The serve suites run here too: the threaded scheduler tests must hold
# with no second core (the answer-order tests step the scheduler on their
# own thread and need none).
taskset -c 0 cargo test -q -p chipalign-tensor -p chipalign-nn -p chipalign-merge -p chipalign-serve
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

echo "ci: benchmark smoke + build + smoke manifest + tests + chaos + clippy + rustdoc all green"
