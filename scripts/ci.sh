#!/usr/bin/env bash
# The full CI gate, runnable locally: `scripts/ci.sh`.
#
# Everything here is offline-safe: the workspace has no external
# dependencies (the bench harness is plain `std::time::Instant` binaries,
# so even the benchmarks build without registry access).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny rustdoc warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test (HETSIM_THREADS=1, fully serial)"
HETSIM_THREADS=1 cargo test --workspace -q

echo "==> cargo test (HETSIM_THREADS=4, parallel sweep executor)"
HETSIM_THREADS=4 cargo test --workspace -q

echo "==> spec sanitizer gate (hetsim check --all --deny warnings)"
./target/release/hetsim-cli check --all --deny warnings --format json > /dev/null
./target/release/hetsim-cli check --all --deny warnings

echo "==> transfer-mode advisor gate (hetsim advise --all)"
# The static advisor must run clean over the whole registry (text and
# JSON surfaces) — its top-1 accuracy against the simulator is pinned by
# tests/advisor_validation.rs; this gate pins the CLI plumbing. A single
# overlap-free workload is also checked under --deny so the SAN-P lint
# exit path stays wired.
./target/release/hetsim-cli advise --all --size tiny > /dev/null
./target/release/hetsim-cli advise --all --size tiny --format json > /dev/null
if ./target/release/hetsim-cli advise vector_seq --size tiny --deny warnings \
  > /dev/null 2>&1; then
  echo "FAIL: advise --deny warnings did not fail on a workload with advisories"
  exit 1
fi

echo "==> JSON schema golden gate (check/advise --format json)"
scripts/schema_gate.sh

echo "==> crate lint-attribute gate"
for lib in crates/*/src/lib.rs; do
  for attr in '#!\[forbid(unsafe_code)\]' '#!\[warn(missing_docs)\]'; do
    grep -q "$attr" "$lib" \
      || { echo "FAIL: $lib is missing $attr"; exit 1; }
  done
done

echo "==> bench harness smoke test"
scripts/bench.sh --smoke

echo "==> trace smoke test"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
./target/release/hetsim-cli trace vector_seq --mode uvm --size small --out "$out/t.json"
./target/release/hetsim-cli trace vector_seq --mode uvm --size small --out "$out/t2.json"
cmp "$out/t.json" "$out/t2.json"
python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$out/t.json" 2>/dev/null \
  || echo "(python3 not available; skipping JSON validation)"

echo "==> streaming determinism gate (stream vs buffer, threads 1 vs 4)"
# A streamed export must be byte-identical to a buffered export of the
# same deterministic run, in both wire formats, at any thread count —
# the contract that makes --trace-stream a pure memory knob.
HETSIM_THREADS=1 ./target/release/hetsim-cli run vector_seq --size small --runs 2 \
  --trace "$out/buf.json" > /dev/null
HETSIM_THREADS=1 ./target/release/hetsim-cli run vector_seq --size small --runs 2 \
  --trace-stream "$out/stream_t1.json" --trace-format chrome > /dev/null
HETSIM_THREADS=4 ./target/release/hetsim-cli run vector_seq --size small --runs 2 \
  --trace-stream "$out/stream_t4.json" --trace-format chrome > /dev/null
cmp "$out/buf.json" "$out/stream_t1.json" \
  || { echo "FAIL: streamed chrome trace differs from buffered export"; exit 1; }
cmp "$out/stream_t1.json" "$out/stream_t4.json" \
  || { echo "FAIL: streamed chrome trace differs across thread counts"; exit 1; }
HETSIM_THREADS=1 ./target/release/hetsim-cli run vector_seq --size small --runs 2 \
  --trace "$out/buf.jsonl" > /dev/null
HETSIM_THREADS=4 ./target/release/hetsim-cli run vector_seq --size small --runs 2 \
  --trace-stream "$out/stream.jsonl" > /dev/null
cmp "$out/buf.jsonl" "$out/stream.jsonl" \
  || { echo "FAIL: streamed jsonl trace differs from buffered export"; exit 1; }
grep -q '"type":"summary"' "$out/stream.jsonl" \
  || { echo "FAIL: streamed jsonl lacks the summary record"; exit 1; }
grep -q '"dropped":0' "$out/stream.jsonl" \
  || { echo "FAIL: streamed jsonl reports dropped events"; exit 1; }

echo "==> chaos determinism gate (fixed seed matrix, threads 1 vs 4)"
# The same fixed-seed fault plan must produce byte-identical degradation
# reports (table + JSON) and chaos traces at any worker-thread count —
# the chaos layer's determinism contract, enforced on the real binary.
for seed in 7 42; do
  HETSIM_THREADS=1 ./target/release/hetsim-cli chaos --size tiny \
    --seed "$seed" --seeds 4 --rates 0,0.5,1 --format json \
    --trace "$out/chaos_t1_$seed.json" > "$out/chaos1_$seed.json"
  HETSIM_THREADS=4 ./target/release/hetsim-cli chaos --size tiny \
    --seed "$seed" --seeds 4 --rates 0,0.5,1 --format json \
    --trace "$out/chaos_t4_$seed.json" > "$out/chaos4_$seed.json"
  cmp "$out/chaos1_$seed.json" "$out/chaos4_$seed.json" \
    || { echo "FAIL: chaos report differs across thread counts (seed $seed)"; exit 1; }
  cmp "$out/chaos_t1_$seed.json" "$out/chaos_t4_$seed.json" \
    || { echo "FAIL: chaos trace differs across thread counts (seed $seed)"; exit 1; }
done
cmp -s "$out/chaos1_7.json" "$out/chaos1_42.json" \
  && { echo "FAIL: different seeds produced identical chaos reports"; exit 1; }

echo "==> chaos plan verification gate (impossible plans rejected up front)"
if ./target/release/hetsim-cli chaos --size tiny --retries 0 --rates 0.5 \
  > "$out/chaos_bad.txt" 2>&1; then
  echo "FAIL: impossible chaos plan (retries 0, rate 0.5) was accepted"
  exit 1
fi
grep -q "retry budget" "$out/chaos_bad.txt" \
  || { echo "FAIL: rejection lacks the plan diagnostic"; exit 1; }

echo "==> serve determinism gate (fleet reports + streamed traces, threads 1 vs 4)"
# The serving layer's contract: a fixed (policy, mix, seed) cell produces
# byte-identical report JSON and streamed fleet traces at any worker
# thread count, for every shipped policy.
for policy in mode_packing uvm_spillover chaos_failover mode_advisor slo_deadline; do
  HETSIM_THREADS=1 ./target/release/hetsim-cli serve --policy "$policy" \
    --mix bursty --rate 400 --seed 11 --gpus 4 --requests 120 --size tiny \
    --format json --trace-stream "$out/serve_t1_$policy.jsonl" \
    > "$out/serve1_$policy.json" 2> /dev/null
  HETSIM_THREADS=4 ./target/release/hetsim-cli serve --policy "$policy" \
    --mix bursty --rate 400 --seed 11 --gpus 4 --requests 120 --size tiny \
    --format json --trace-stream "$out/serve_t4_$policy.jsonl" \
    > "$out/serve4_$policy.json" 2> /dev/null
  cmp "$out/serve1_$policy.json" "$out/serve4_$policy.json" \
    || { echo "FAIL: serve report differs across thread counts ($policy)"; exit 1; }
  cmp "$out/serve_t1_$policy.jsonl" "$out/serve_t4_$policy.jsonl" \
    || { echo "FAIL: serve trace differs across thread counts ($policy)"; exit 1; }
  grep -q '"dropped":0' "$out/serve_t1_$policy.jsonl" \
    || { echo "FAIL: serve trace reports dropped events ($policy)"; exit 1; }
done
cmp -s "$out/serve1_mode_packing.json" "$out/serve1_uvm_spillover.json" \
  && { echo "FAIL: different policies produced identical serve reports"; exit 1; }

echo "==> serve-resilience determinism gate (availability sweeps + fleet traces, threads 1 vs 4)"
# The resilience layer's contract: a (policy x rate x intensity)
# availability sweep renders byte-identically at any worker-thread count,
# a single resilient cell's streamed fleet trace is thread-invariant and
# carries the lifecycle instants, and intensity 0 reproduces the plain
# serve report exactly (separability on the real binary).
HETSIM_THREADS=1 ./target/release/hetsim-cli serve --chaos --policy all \
  --mix poisson --rates 200,400 --intensities 0,0.5,1 --seed 11 --gpus 3 \
  --requests 80 --size tiny --format json > "$out/avail1.json" 2> /dev/null
HETSIM_THREADS=4 ./target/release/hetsim-cli serve --chaos --policy all \
  --mix poisson --rates 200,400 --intensities 0,0.5,1 --seed 11 --gpus 3 \
  --requests 80 --size tiny --format json > "$out/avail4.json" 2> /dev/null
cmp "$out/avail1.json" "$out/avail4.json" \
  || { echo "FAIL: availability sweep differs across thread counts"; exit 1; }
for t in 1 4; do
  HETSIM_THREADS=$t ./target/release/hetsim-cli serve --chaos \
    --policy chaos_failover --mix poisson --rate 400 --intensities 1 \
    --seed 7 --gpus 3 --requests 80 --size tiny --format json \
    --trace-stream "$out/res_trace_t$t.jsonl" > /dev/null 2> /dev/null
done
cmp "$out/res_trace_t1.jsonl" "$out/res_trace_t4.jsonl" \
  || { echo "FAIL: resilient fleet trace differs across thread counts"; exit 1; }
grep -q 'quarantine\[gpu' "$out/res_trace_t1.jsonl" \
  || { echo "FAIL: resilient trace lacks lifecycle instants"; exit 1; }
HETSIM_THREADS=4 ./target/release/hetsim-cli serve --policy slo_deadline \
  --mix poisson --rate 400 --seed 11 --gpus 3 --requests 80 --size tiny \
  --format json > "$out/plain_cell.json" 2> /dev/null
HETSIM_THREADS=4 ./target/release/hetsim-cli serve --chaos --policy slo_deadline \
  --mix poisson --rate 400 --intensities 0 --seed 11 --gpus 3 --requests 80 \
  --size tiny --format json > "$out/res_cell.json" 2> /dev/null
if command -v python3 > /dev/null; then
  python3 - "$out/plain_cell.json" "$out/res_cell.json" <<'PY' \
    || { echo "FAIL: intensity-0 resilient cell differs from plain serve"; exit 1; }
import json, sys
plain = json.load(open(sys.argv[1]))["cells"][0]
res = json.load(open(sys.argv[2]))["cells"][0]
assert res["intensity"] == 0.0, res["intensity"]
assert res["report"] == plain, "reports diverge at intensity 0"
PY
else
  # Structural fallback: the embedded report must appear verbatim inside
  # the availability cell.
  grep -q "\"policy\": \"slo_deadline\"" "$out/res_cell.json" \
    || { echo "FAIL: resilient cell lacks the embedded report"; exit 1; }
fi

echo "==> result-cache correctness gate (cold vs warm, byte-identical, no warm misses)"
# The incremental-sweep contract on the real binary: a warm rerun against
# the on-disk store must reproduce the cold stdout byte-for-byte while
# reporting zero misses on stderr — and the cache admin subcommand must
# see, then clear, exactly the entries the sweep stored.
cachedir="$out/result-cache"
./target/release/hetsim-cli micro --size tiny --runs 2 --cache "$cachedir" \
  > "$out/cache_cold.txt" 2> "$out/cache_cold.err"
./target/release/hetsim-cli micro --size tiny --runs 2 --cache "$cachedir" \
  > "$out/cache_warm.txt" 2> "$out/cache_warm.err"
cmp "$out/cache_cold.txt" "$out/cache_warm.txt" \
  || { echo "FAIL: warm cached rerun differs from the cold run"; exit 1; }
grep -q 'cache: 0 hits, [1-9][0-9]* misses' "$out/cache_cold.err" \
  || { echo "FAIL: cold run did not report all-miss cache stats"; exit 1; }
grep -q 'cache: [1-9][0-9]* hits, 0 misses' "$out/cache_warm.err" \
  || { echo "FAIL: warm run was not simulation-free (expected all hits)"; exit 1; }
./target/release/hetsim-cli cache stats --cache "$cachedir" > "$out/cache_stats.txt"
grep -q 'entries:    [1-9]' "$out/cache_stats.txt" \
  || { echo "FAIL: cache stats does not see the stored entries"; exit 1; }
./target/release/hetsim-cli cache clear --cache "$cachedir" > "$out/cache_clear.txt"
grep -q 'removed [1-9]' "$out/cache_clear.txt" \
  || { echo "FAIL: cache clear removed nothing"; exit 1; }
./target/release/hetsim-cli cache stats --cache "$cachedir" > "$out/cache_stats2.txt"
grep -q 'entries:    0' "$out/cache_stats2.txt" \
  || { echo "FAIL: cache store not empty after clear"; exit 1; }
# The HETSIM_CACHE env fallback and the --cache off override.
HETSIM_CACHE="$cachedir" ./target/release/hetsim-cli micro --size tiny --runs 2 \
  > /dev/null 2> "$out/cache_env.err"
grep -q '^cache:' "$out/cache_env.err" \
  || { echo "FAIL: HETSIM_CACHE env did not enable the cache"; exit 1; }
HETSIM_CACHE="$cachedir" ./target/release/hetsim-cli micro --size tiny --runs 2 \
  --cache off > /dev/null 2> "$out/cache_off.err"
grep -q '^cache:' "$out/cache_off.err" \
  && { echo "FAIL: --cache off did not override HETSIM_CACHE"; exit 1; }

echo "==> oversubscription golden gate (eviction-path run reports vs golden)"
# The figure sweeps and the benchmark never run a device out of memory, so
# LRU eviction order, refaults, dirty eviction writebacks and prefetch
# under pressure are pinned here instead: full RunReports of bfs and
# kmeans at Large in the three UVM modes, with device capacity at 1/2 and
# 1/4 of the footprint, plus kmeans' oversubscription table.
cargo run --release --quiet --example oversub_golden > "$out/oversub.golden"
cmp scripts/golden/oversub.golden "$out/oversub.golden" \
  || { echo "FAIL: oversubscription reports differ from scripts/golden/oversub.golden"; exit 1; }

echo "==> executor golden gate (per-kernel L1/L2/TLB counters vs golden)"
# The perfbench digests pin only timings; this pins the executor's raw
# cache and TLB hit/miss counters, HBM traffic and instruction mix for
# every registered kernel in all three styles under three environments.
cargo run --release --quiet --example exec_golden > "$out/exec.golden"
cmp scripts/golden/exec.golden "$out/exec.golden" \
  || { echo "FAIL: executor results differ from scripts/golden/exec.golden"; exit 1; }

echo "==> benchmark output gate (perfbench harness tests + seed-1 digests vs golden)"
# The repository benchmark's output digests are a pure function of the
# seed; a change that alters any served or simulated figure moves them.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
for w in sweep_cold serve_steady serve_chaos; do
  cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --threads 1 --workload "$w" --seed 1 --seconds 1 --trace 0 2> /dev/null \
    | grep '^digest '
done > "$out/perfbench.digest"
cmp scripts/golden/perfbench.digest "$out/perfbench.digest" \
  || { echo "FAIL: perfbench digests differ from scripts/golden/perfbench.digest"; exit 1; }

echo "==> bench regression gate (full sweep vs committed baseline, >2x fails)"
BENCH_RESULT="$out/bench_fresh.json" scripts/bench.sh > "$out/bench_fresh.log" 2>&1 \
  || { echo "FAIL: full bench sweep failed"; tail -20 "$out/bench_fresh.log"; exit 1; }
scripts/bench_check.sh BENCH_sweep.json "$out/bench_fresh.json"

echo "CI OK"
