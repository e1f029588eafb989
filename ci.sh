#!/usr/bin/env bash
# Tier-1 gate, fully offline (all deps are vendored path crates; see
# .cargo/config.toml). Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== rustfmt (check only) =="
cargo fmt --all --check

echo "== build (release, all targets) =="
cargo build --release --workspace --all-targets

echo "== tests =="
# Includes the zero-allocation steady-state scheduler check
# (tests/steady_state_alloc.rs, a counting global allocator).
cargo test -q --workspace --release

echo "== clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== benches compile =="
cargo build --benches --release --workspace

echo "== perfbench self-tests (repository benchmark, its own workspace) =="
# perfbench compiles against the metrics and trace APIs, so building and
# self-testing it here catches an API change that would break the
# benchmark before the benchmark itself runs.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "== chaos gate (protocol soak + fault-injected determinism) =="
# Protocol soak: sessions must survive 20% control loss, degrade to
# port-level counting at 100%, and recover; plus the isolation check
# that a panicking cell fails its sweep only after every healthy cell
# ran once, with a per-cell diagnosis, and the check that a
# fault-injected 32-cell sweep is bit-identical across 1 and 8 threads
# (chaos RNG is plan-owned, never scheduling-dependent).
cargo test -q --release -p fancy-core --test chaos_soak --test fsm_chaos
cargo test -q --release -p fancy-bench --test chaos_determinism --test sweep_isolation

echo "== cache gate (cold -> warm round-trip, warm run executes 0 cells) =="
# A 32-cell sweep run twice against one FANCY_CACHE_DIR must execute
# zero cells the second time and reproduce the cold report bit-for-bit
# at 1 and 8 threads; corrupt records must degrade to silent misses.
cargo test -q --release -p fancy-bench --test cache_roundtrip

echo "== trace-report smoke (JSONL round-trip, fails on schema drift) =="
cargo run -q --release --example trace_report

echo "== metrics gate (golden Prometheus diff + merge determinism) =="
# The metrics plane is sim-time-only, so the Prometheus text exposition
# of the metrics_report scenario is byte-identical on any machine at any
# thread count; diffing against the committed golden catches schema or
# semantics drift. The determinism test pins the sweep-level snapshot
# merge: 1-thread == 8-thread, byte-for-byte.
cargo run -q --release --example metrics_report -- --golden tests/golden/metrics_report.prom >/dev/null
cargo test -q --release -p fancy-bench --test metrics_determinism

echo "== network-wide gate (small ISP backbone, FANcY on every edge) =="
# Fails a sample of edges on a 12-switch backbone with every edge
# monitored concurrently: exits non-zero unless coverage is 100%, and
# unless at least one SPIDER-protected edge's flight-recorder-measured
# detect+reroute latency lands inside its analytic bound. The netwide
# determinism test pins 1-thread == 8-thread per-edge outcomes.
cargo run -q --release --example isp_backbone -- --switches 12 --fail 4
cargo test -q --release -p fancy-bench --test netwide_determinism

echo "== shard gate (conservative-parallel DES, FANCY_SHARDS byte-identity) =="
# The same 12-switch netwide runs sharded in every cell; the shard
# layout is a pure function of the topology and FANCY_SHARDS only picks
# the worker-thread count — so the merged reference-run trace, the
# metrics plane, telemetry, and every per-edge outcome record must be
# byte-identical at FANCY_SHARDS=1 and FANCY_SHARDS=4. The unit-level
# contract (1/4/8 workers, serial == threaded) is pinned by
# shard_determinism.
SHARD_DUMP_DIR="$(mktemp -d)"
trap 'rm -rf "$SHARD_DUMP_DIR"' EXIT
FANCY_SHARDS=1 cargo run -q --release --example isp_backbone -- \
    --switches 12 --fail 4 --dump "$SHARD_DUMP_DIR/s1" >/dev/null
FANCY_SHARDS=4 cargo run -q --release --example isp_backbone -- \
    --switches 12 --fail 4 --dump "$SHARD_DUMP_DIR/s4" >/dev/null
for f in trace.jsonl metrics.jsonl telemetry.txt outcomes.jsonl; do
    cmp "$SHARD_DUMP_DIR/s1.$f" "$SHARD_DUMP_DIR/s4.$f" \
        || { echo "shard gate: $f differs between FANCY_SHARDS=1 and 4"; exit 1; }
done
cargo test -q --release -p fancy-bench --test shard_determinism

echo "== multi-failure gate (overlapping gray failures + recovery verifier) =="
# Two simultaneously failed edges per combo on the 12-switch backbone —
# adversarial bursty-loss chaos on one, a hard gray drop on the other —
# with every combo member carrying its own victim entry. The example
# exits non-zero unless every combo is fully detected, every protected
# member's recovery contract (latency bound, loss cessation, damping)
# verifies, and at least one member measured a reroute. The combo
# outcome records must also be byte-identical at FANCY_SHARDS=1 and 4.
FANCY_SHARDS=1 cargo run -q --release --example isp_backbone -- \
    --switches 12 --fail 2 --multi 2 --combos 2 --dump "$SHARD_DUMP_DIR/m1" >/dev/null
FANCY_SHARDS=4 cargo run -q --release --example isp_backbone -- \
    --switches 12 --fail 2 --multi 2 --combos 2 --dump "$SHARD_DUMP_DIR/m4" >/dev/null
cmp "$SHARD_DUMP_DIR/m1.combos.jsonl" "$SHARD_DUMP_DIR/m4.combos.jsonl" \
    || { echo "multi gate: combos.jsonl differs between FANCY_SHARDS=1 and 4"; exit 1; }

echo "== trace gate (compiled .events replay, byte-identical to in-process) =="
# Compile one small Table-5 trace, prove the file self-verifies
# (inspect + re-synthesize + byte-compare), then run the Table 3 smoke
# sweep three ways — in-process, cold compiled dir, warm compiled dir at
# 8 threads — and byte-diff the bit-exact JSONL row dumps pairwise. The
# warm replay path must never fall back to in-process synthesis; the
# trace_pipeline test additionally pins the synthesis-run counts and the
# corrupt-file recompile path.
TRACE_GATE_DIR="$SHARD_DUMP_DIR/traces"
cargo run -q --release --example trace_compile -- compile \
    --trace 1 --scale 0.004 --secs 6 --seed 7 --dir "$TRACE_GATE_DIR" >/dev/null \
    || { echo "trace gate: compile failed"; exit 1; }
TRACE_GATE_FILE="$(ls "$TRACE_GATE_DIR"/caida1-*.events)"
cargo run -q --release --example trace_compile -- inspect --file "$TRACE_GATE_FILE" >/dev/null
cargo run -q --release --example trace_compile -- verify --file "$TRACE_GATE_FILE" >/dev/null \
    || { echo "trace gate: verify failed (synthesizer/frame drift)"; exit 1; }
FANCY_THREADS=1 cargo run -q --release --example trace_compile -- smoke \
    --dump "$SHARD_DUMP_DIR/rows-inproc.jsonl" 2>/dev/null
FANCY_TRACE_DIR="$TRACE_GATE_DIR" FANCY_THREADS=1 cargo run -q --release \
    --example trace_compile -- smoke --dump "$SHARD_DUMP_DIR/rows-cold.jsonl" 2>/dev/null
FANCY_TRACE_DIR="$TRACE_GATE_DIR" FANCY_THREADS=8 cargo run -q --release \
    --example trace_compile -- smoke --dump "$SHARD_DUMP_DIR/rows-warm8.jsonl" 2>/dev/null
for f in rows-cold.jsonl rows-warm8.jsonl; do
    cmp "$SHARD_DUMP_DIR/rows-inproc.jsonl" "$SHARD_DUMP_DIR/$f" \
        || { echo "trace gate: $f differs from the in-process rows"; exit 1; }
done
# The in-process rows are also pinned across commits: the committed
# golden is the bit-exact dump of this smoke sweep (hash-tree zooming
# over many TCP flows), so a change to any simulated byte on the
# Table 3 path fails here even when all three paths agree.
cmp tests/golden/table3_smoke_rows.jsonl "$SHARD_DUMP_DIR/rows-inproc.jsonl" \
    || { echo "trace gate: in-process rows differ from tests/golden/table3_smoke_rows.jsonl"; exit 1; }
cargo test -q --release -p fancy-bench --test trace_pipeline
cargo test -q --release -p fancy-traffic --test events_roundtrip

echo "ci.sh: all green"
