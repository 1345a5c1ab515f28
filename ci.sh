#!/usr/bin/env sh
# Local CI gate: formatting, the maly-audit lint pass, the full test
# suite, and the bench-regression check. Everything runs offline — the
# workspace has no external dependencies.
set -eu

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== maly-audit lint (report archived to target/lint_report.json)"
mkdir -p target
cargo run -q -p xtask -- lint --json target/lint_report.json
# The report must self-describe as clean: a violation in any family
# (the determinism / lock-order / stale-escape families included)
# already failed the command above, but the archived artifact is what
# downstream tooling consumes, so sanity-check it too.
grep -q '"schema": "maly-audit/v2"' target/lint_report.json
grep -q '"clean": true' target/lint_report.json

echo "== rustdoc (warnings denied: broken and ambiguous intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --keep-going

echo "== compiler warnings denied (every target, own target dir)"
# RUSTFLAGS changes the build fingerprint, so this check builds into
# its own target dir instead of invalidating the test builds below.
RUSTFLAGS="-D warnings" CARGO_TARGET_DIR=target/deny-warnings \
    cargo check --workspace --all-targets

echo "== cargo test (MALY_PAR_THREADS=1, serial)"
MALY_PAR_THREADS=1 cargo test --workspace -q

echo "== cargo test (default parallelism)"
cargo test --workspace -q

echo "== cargo test (MALY_OBS=1, traced)"
MALY_OBS=1 cargo test --workspace -q

echo "== examples (each runs once to a clean exit)"
# cargo test only compiles the examples; running them keeps the
# commands README.md lists from rotting.
for EX in examples/*.rs; do
    NAME=$(basename "$EX" .rs)
    cargo run -q --release --example "$NAME" > /dev/null
done

echo "== serve loopback suite (MALY_OBS=1, real sockets)"
MALY_OBS=1 cargo test -q -p maly-serve --test loopback

echo "== perfbench (the benchmark's own tests and determinism self-test)"
# perfbench builds against crates/* by path in a workspace of its own,
# so the workspace test runs above never compile it: a crate API change
# that breaks the benchmark must fail here, not at benchmark time.
cargo test --release --manifest-path perfbench/Cargo.toml
python3 perfbench/run.py --selftest

echo "== repro all vs the committed EXPERIMENTS.md (1 and 8 threads)"
# EXPERIMENTS.md is `repro all`'s stdout: any change to a report (or
# drift between the two) must come with a regenerated file, and the
# output must not depend on the executor width.
cargo build -q --release -p maly-repro --bin all
for T in 1 2 8; do
    MALY_PAR_THREADS=$T ./target/release/all | cmp - EXPERIMENTS.md
done

echo "== trace-check (serve protocol trace via query --file)"
mkdir -p target
cat > target/ci_requests.jsonl <<'REQ'
{"id": 1, "query": {"type": "table3_row", "id": 1}}
[{"id": 2, "query": {"type": "scenario2_sweep", "x": 2.4, "steps": 11}}, {"id": 3, "query": {"type": "product_mix", "products": 8}}]
[{"id": 4, "query": {"type": "surface_tile", "lambda_min": 0.52, "lambda_max": 0.92, "lambda_steps": 7, "n_tr_min": 8.0e4, "n_tr_max": 6.0e5, "n_tr_steps": 6}}]
[{"id": 5, "query": {"type": "surface_tile", "lambda_min": 0.52, "lambda_max": 0.92, "lambda_steps": 7, "n_tr_min": 8.0e4, "n_tr_max": 6.0e5, "n_tr_steps": 6}}]
{"v": 1, "id": 6, "query": {"type": "chiplet_partition_sweep", "transistors": 2.0e6, "volume": 50000}}
{"id": 7, "query": {"type": "scenario2_sweep", "x": 2.0, "lambda_min": 0.5, "lambda_max": 200.0, "steps": 3}}
{"id": 8, "query": {"type": "surface_tile", "lambda_min": 0.61, "lambda_max": 1.01, "lambda_steps": 5, "n_tr_min": 1.0e5, "n_tr_max": 9.0e5, "n_tr_steps": 4}}
[{"id": 9, "query": {"type": "surface_tile", "lambda_min": 0.61, "lambda_max": 1.01, "lambda_steps": 5, "n_tr_min": 1.0e5, "n_tr_max": 9.0e5, "n_tr_steps": 4}}]
REQ
cargo run -q -p maly-cli -- query --file target/ci_requests.jsonl \
    --trace-out target/trace_serve_ci.ndjson > target/ci_responses.jsonl
# The warm repeat (id 5) answers from the tile cache's stored body; its
# "ok" payload must be byte-identical to the cold answer (id 4), which
# was serialized from the freshly computed grid.
sed -n '3s/^\[{"id":4,"ok":\(.*\)}\]$/\1/p' target/ci_responses.jsonl \
    > target/ci_tile_cold.json
sed -n '4s/^\[{"id":5,"ok":\(.*\)}\]$/\1/p' target/ci_responses.jsonl \
    > target/ci_tile_warm.json
grep -q '^{"kind":"surface",' target/ci_tile_cold.json
cmp target/ci_tile_cold.json target/ci_tile_warm.json
# A single-object cold tile line (id 8) and its repeat inside an array
# line (id 9) resolve the same way: the same "ok" bytes.
sed -n '7s/^{"id":8,"ok":\(.*\)}$/\1/p' target/ci_responses.jsonl \
    > target/ci_tile_single.json
sed -n '8s/^\[{"id":9,"ok":\(.*\)}\]$/\1/p' target/ci_responses.jsonl \
    > target/ci_tile_array.json
grep -q '^{"kind":"surface",' target/ci_tile_single.json
cmp target/ci_tile_single.json target/ci_tile_array.json
# A Scenario #2 window past the die-size trend's domain (id 7) is
# answered with an error whose kind is in the wire registry.
KIND=$(sed -n '6s/^{"id":7,"error":{"kind":"\([a-z-]*\)".*$/\1/p' target/ci_responses.jsonl)
test -n "$KIND"
sed -n '/^pub const KIND_REGISTRY/,/^];/p' crates/model/src/error.rs | grep -q "\"$KIND\","
grep -q '"name":"serve.request"' target/trace_serve_ci.ndjson
grep -q '"name":"model.queries"' target/trace_serve_ci.ndjson
# The cold surface-tile requests (ids 4 and 8) are the trace's two
# tile-cache misses and their repeats (ids 5 and 9) the two hits: each
# tile query counts once, on single and array lines alike.
grep -q '"name":"model.tile_misses","value":2}' target/trace_serve_ci.ndjson
grep -q '"name":"model.tile_hits","value":2}' target/trace_serve_ci.ndjson
# Only the cold array line (id 4) issues a batch's fused dispatch: the
# single tile line (id 8) moves no plan.* counter.
grep -q '"name":"plan.fused_dispatches","value":1}' target/trace_serve_ci.ndjson
# Every context registers its eviction counter, so a trace tells
# whether misses followed evictions even when none happened.
grep -q '"name":"model.tile_evictions"' target/trace_serve_ci.ndjson
# The served chiplet sweep (id 6, sent under an explicit v:1 envelope)
# must surface the partition-search counters in the same trace.
grep -q '"name":"chiplet.partitions"' target/trace_serve_ci.ndjson
grep -q '"name":"chiplet.die_points"' target/trace_serve_ci.ndjson
# A serving context computes eq. (4) directly, as library sweeps do:
# its cold tiles and its sweep leave no memo entries behind.
if grep -Eq '"name":"wafer_geom.cache.entries","value":[1-9]' target/trace_serve_ci.ndjson; then
    echo "served trace holds eq. (4) memo entries" >&2
    exit 1
fi
cargo run -q -p xtask -- trace-check target/trace_serve_ci.ndjson

echo "== chiplet partition goldens (1/2/8 threads, MALY_OBS=1)"
# The reference optimum (4 chiplets + 0 spares at λ = 1.2 µm,
# 64.95 $/system) must be bit-identical whatever the executor width,
# with tracing on.
for T in 1 2 8; do
    MALY_OBS=1 MALY_PAR_THREADS=$T cargo test -q -p maly-chiplet \
        sweep_golden_reference_partition
    MALY_OBS=1 MALY_PAR_THREADS=$T cargo test -q -p maly-model \
        chiplet_sweep_matches_direct_evaluation_and_pins_the_optimum
done
MALY_OBS=1 cargo test -q -p maly-model --test wire_golden

echo "== f64 writer vs Display (16 M random bit patterns, release)"
# The wire codec's own shortest-round-trip formatter must spell every
# double exactly as `format!("{v}")` does; the ignored variant widens
# the tier-1 sweep from 1 M to 16 M seeded bit patterns.
cargo test --release -q -p maly-model --test f64_format -- --include-ignored

echo "== trace-check (sample CLI --trace-out ndjson)"
mkdir -p target
cargo run -q -p maly-cli -- sweep --transistors 3.1e6 --lambda 0.8 \
    --density 150 --yield 0.7 --c0 700 --x 1.8 \
    --trace-out target/trace_ci.ndjson > /dev/null
cargo run -q -p xtask -- trace-check target/trace_ci.ndjson
# A library sweep computes eq. (4) directly and holds no memo.
if grep -Eq '"name":"wafer_geom.cache.entries","value":[1-9]' target/trace_ci.ndjson; then
    echo "CLI sweep trace holds eq. (4) memo entries" >&2
    exit 1
fi

echo "== bench regression check (MALY_PAR_THREADS=1, serial)"
MALY_PAR_THREADS=1 cargo bench -p maly-bench --bench sweeps -- \
    --json target/bench_sweeps_ci_t1.json
cargo run -q -p xtask -- bench-check target/bench_sweeps_ci_t1.json

echo "== bench regression check (default parallelism, vs BENCH_sweeps.json)"
cargo bench -p maly-bench --bench sweeps -- --json target/bench_sweeps_ci.json
cargo run -q -p xtask -- bench-check target/bench_sweeps_ci.json

# Both recorded baselines must carry the per-eval counter group the
# bench-check median gate rides on, and declare how parallel the run
# really was (the multi-core speedup gate keys on that header).
grep -q '"group": "per_eval"' target/bench_sweeps_ci_t1.json
grep -q '"group": "per_eval"' target/bench_sweeps_ci.json
grep -q '"available_parallelism"' target/bench_sweeps_ci.json

echo "== serve latency smoke (loadgen vs BENCH_serve.json)"
# Default flags replay the committed baseline's exact seeded workload —
# the work-counter section is compared bit-for-bit, so the smoke must
# send the same request sequence the baseline recorded.
MALY_OBS=1 cargo run -q --release -p maly-loadgen -- \
    --json target/bench_serve_ci.json
cargo run -q -p xtask -- bench-check target/bench_serve_ci.json BENCH_serve.json
# The smoke artifact must declare its parallelism header, carry the
# percentile fields the tail gate rides on, and report the
# deterministic work counters fetched over the stats protocol.
grep -q '"available_parallelism"' target/bench_serve_ci.json
grep -q '"p99_ns"' target/bench_serve_ci.json
grep -q '"name": "serve.request_lines"' target/bench_serve_ci.json

echo "== cli stats record appended to a live-server trace"
# A live server's metrics snapshot, retagged by `silicon-cost stats`,
# must append to an existing trace as one more valid ndjson record.
cargo build -q -p maly-cli
MALY_OBS=1 ./target/debug/maly-cli serve --addr 127.0.0.1:7917 &
SERVE_PID=$!
./target/debug/maly-cli stats --addr 127.0.0.1:7917 \
    >> target/trace_serve_ci.ndjson
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
grep -q '"type":"stats"' target/trace_serve_ci.ndjson
cargo run -q -p xtask -- trace-check target/trace_serve_ci.ndjson

echo "ci.sh: all gates passed"
