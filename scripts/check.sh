#!/usr/bin/env bash
# Full pre-merge gate: release build, tests, formatting, lints.
# Run from the workspace root: ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --workspace --release

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo test --test stats_schema (stats JSON schema golden)"
cargo test -q --test stats_schema

echo "==> cargo test -p assoc-serve (serving layer: oracle + wire robustness)"
cargo test -q -p assoc-serve

echo "==> servload --smoke (one-shot TCP load generator)"
cargo run -q --release -p repro-bench --bin servload -- --smoke \
    --json=results/servload_smoke.json

echo "==> cargo test -p eclat-net (distributed runtime: oracle + robustness)"
cargo test -q -p eclat-net

echo "==> distbench --smoke (real loopback workers, checked against sequential)"
cargo run -q --release -p repro-bench --bin distbench -- --smoke \
    --json=results/distbench_smoke.json

echo "==> dmine --spawn-local 4 == mine (measured cluster vs sequential CLI)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run -q --release -p eclat-cli -- generate --out "$tmpdir/t10.ech" \
    --transactions 20000 --seed 7 > /dev/null
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 > "$tmpdir/mine.out"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 4 > "$tmpdir/dmine.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/dmine.out")

echo "==> mine --algorithm parallel == mine (whole frequent set, t10 + t20i6)"
# --min-size 1 --top <huge> prints every itemset, so the diff covers the
# whole result set, not just the per-size counts and the top rows.
whole=(--min-size 1 --top 1000000000)
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 "${whole[@]}" > "$tmpdir/mine_all.out"
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --algorithm parallel "${whole[@]}" > "$tmpdir/mine_par_all.out"
diff <(tail -n +2 "$tmpdir/mine_all.out") <(tail -n +2 "$tmpdir/mine_par_all.out")
cargo run -q --release -p eclat-cli -- generate --out "$tmpdir/t20.ech" \
    --family t20i6 --transactions 10000 --seed 7 > /dev/null
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t20.ech" \
    --support 1 "${whole[@]}" > "$tmpdir/mine_t20_all.out"
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t20.ech" \
    --support 1 --algorithm parallel "${whole[@]}" > "$tmpdir/mine_t20_par_all.out"
diff <(tail -n +2 "$tmpdir/mine_t20_all.out") <(tail -n +2 "$tmpdir/mine_t20_par_all.out")

echo "==> mine --algorithm parallel --stats=json: same op counts as mine (t10)"
# Phase 2 runs by offset placement on the pool, phase 1 blocked; both
# must meter exactly what the serial scans do. Seconds are dropped.
ops_of() { grep -o '"total_ops":{[^}]*}\|"label":"[a-z]*"\|"ops":{[^}]*}' "$1"; }
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --stats=json > "$tmpdir/mine_stats.json"
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --algorithm parallel --stats=json > "$tmpdir/mine_par_stats.json"
test "$(ops_of "$tmpdir/mine_stats.json" | grep -c '"label":')" -eq 3
diff <(ops_of "$tmpdir/mine_stats.json") <(ops_of "$tmpdir/mine_par_stats.json")

echo "==> mine --top 0 prints the report header and no itemset rows (t10)"
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --top 0 > "$tmpdir/mine_top0.out"
test "$(tail -n 1 "$tmpdir/mine_top0.out")" = "top by support (size >= 2):"
test "$(grep -c '^  {' "$tmpdir/mine_top0.out" || true)" = 0

echo "==> mine --algorithm clique|apriori == mine; --maximal parallel == --maximal (t10)"
# Every algorithm reports itemsets of size >= 2, so whole-set bodies
# match; --maximal --algorithm parallel runs MaxEclat on every core.
for algo in clique apriori; do
    cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
        --support 0.25 --algorithm "$algo" "${whole[@]}" > "$tmpdir/mine_${algo}_all.out"
    diff <(tail -n +2 "$tmpdir/mine_all.out") <(tail -n +2 "$tmpdir/mine_${algo}_all.out")
done
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --maximal "${whole[@]}" > "$tmpdir/max_all.out"
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t10.ech" \
    --support 0.25 --maximal --algorithm parallel "${whole[@]}" > "$tmpdir/max_par_all.out"
diff <(tail -n +2 "$tmpdir/max_all.out") <(tail -n +2 "$tmpdir/max_par_all.out")

echo "==> dmine --spawn-local 2 --threads 2 == mine (hybrid W x P workers)"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 > "$tmpdir/dmine_hybrid.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/dmine_hybrid.out")

echo "==> dmine --mem-budget 64k == mine (out-of-core workers, forced spill)"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 --mem-budget 64k \
    > "$tmpdir/dmine_spill.out"
diff <(tail -n +2 "$tmpdir/mine.out") <(tail -n +2 "$tmpdir/dmine_spill.out")

echo "==> dmine == mine on both sides of the per-class kernel choice"
# t10 at 0.25%: every class is below the density threshold (diffsets).
# t20i6 at 2%: every class is above it, so bitmap classes are mined from
# tid-lists that crossed the wire.
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 "${whole[@]}" \
    > "$tmpdir/dmine_sparse_all.out"
diff <(tail -n +2 "$tmpdir/mine_all.out") <(tail -n +2 "$tmpdir/dmine_sparse_all.out")
cargo run -q --release -p eclat-cli -- mine --input "$tmpdir/t20.ech" \
    --support 2 "${whole[@]}" > "$tmpdir/mine_t20_dense_all.out"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t20.ech" \
    --support 2 --spawn-local 2 --threads 2 "${whole[@]}" \
    > "$tmpdir/dmine_t20_dense_all.out"
diff <(tail -n +2 "$tmpdir/mine_t20_dense_all.out") \
    <(tail -n +2 "$tmpdir/dmine_t20_dense_all.out")

echo "==> dmine --trace: merged cluster timeline validates + converts to Chrome JSON"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --threads 2 --trace "$tmpdir/run.jsonl" \
    > /dev/null
test ! -e "$tmpdir/run.jsonl.w0"   # partial worker files must be cleaned up
cargo run -q --release -p eclat-cli -- trace --input "$tmpdir/run.jsonl" \
    --chrome "$tmpdir/run.json" > "$tmpdir/trace.out"
grep -q "valid trace" "$tmpdir/trace.out"
grep -q "3 process(es)" "$tmpdir/trace.out"
grep -q '"traceEvents"' "$tmpdir/run.json"

echo "==> ablations --scale=tiny (incl. representation x density + tracing gates)"
cargo run -q --release -p repro-bench --bin ablations -- --scale=tiny \
    > "$tmpdir/ablations.out"
grep -q "tracing overhead" "$tmpdir/ablations.out"
grep -q "representation × density" "$tmpdir/ablations.out"
grep -q "dense-db bitmap win" "$tmpdir/ablations.out"

echo "==> stats_diff: measured dmine stats vs simulated cluster stats (same schema)"
cargo run -q --release -p eclat-cli -- dmine --input "$tmpdir/t10.ech" \
    --support 0.25 --spawn-local 2 --stats=json > "$tmpdir/dist_stats.json"
cargo run -q --release -p eclat-cli -- simulate --input "$tmpdir/t10.ech" \
    --support 0.25 --hosts 2 --procs 1 --stats=json > "$tmpdir/sim_stats.json"
# Exit 1 (differences reported) is the expected outcome; 2 would be a
# schema error.
./scripts/stats_diff "$tmpdir/dist_stats.json" "$tmpdir/sim_stats.json" \
    > /dev/null || test $? -eq 1

echo "==> cargo test --test incremental_golden (incremental replay == full re-mine)"
cargo test -q --test incremental_golden

echo "==> stream --verify (batched incremental mine, checked per batch)"
cargo run -q --release -p eclat-cli -- stream --input "$tmpdir/t10.ech" \
    --support 1 --batch 5000 --verify --out "$tmpdir/live.snap" \
    > "$tmpdir/stream.out"
grep -q "\[verified\]" "$tmpdir/stream.out"
grep -q "streamed 20000 transactions in 4 batches" "$tmpdir/stream.out"

echo "==> stream -> serve --reload-secs (snapshot hot reload over loopback)"
cargo run -q --release -p eclat-cli -- serve --load "$tmpdir/live.snap" \
    --port 0 --port-file "$tmpdir/port" --serve-secs 6 --reload-secs 0.1 \
    > "$tmpdir/serve.out" &
serve_pid=$!
for _ in $(seq 50); do [ -s "$tmpdir/port" ] && break; sleep 0.1; done
test -s "$tmpdir/port"
# Re-streaming at a different support rewrites the snapshot in place
# (atomic rename); the poller must hot-swap it within a tick or two.
cargo run -q --release -p eclat-cli -- stream --input "$tmpdir/t10.ech" \
    --support 0.5 --batch 5000 --out "$tmpdir/live.snap" > /dev/null
sleep 1
cargo run -q --release -p eclat-cli -- query --addr "127.0.0.1:$(cat "$tmpdir/port")" \
    --server-stats > "$tmpdir/reload_stats.out"
# stream writes a snapshot per batch, so the poller may legitimately
# observe several generations — require at least one hot swap.
grep -Eq '"reloads":[1-9]' "$tmpdir/reload_stats.out"
wait "$serve_pid"
grep -Eq '[1-9][0-9]* reloads' "$tmpdir/serve.out"

echo "==> streambench --smoke (incremental vs full re-mine, equality-asserted)"
cargo run -q --release -p repro-bench --bin streambench -- --smoke \
    --json=results/streambench_smoke.json

echo "==> cargo test -p eclat-seq (SPADE kernel: unit + golden + proptest oracle)"
cargo test -q -p eclat-seq

echo "==> eclat seq --verify (SPADE vs GSP-style reference on generated data)"
cargo run -q --release -p eclat-cli -- generate --out "$tmpdir/c10.ecs" \
    --sequences 500 --seed 11 > /dev/null
cargo run -q --release -p eclat-cli -- seq --input "$tmpdir/c10.ecs" \
    --minsup 6 --verify > "$tmpdir/seq.out"
grep -q "\[verified\]" "$tmpdir/seq.out"

echo "==> eclat seq: parallel thread counts byte-identical to serial"
cargo run -q --release -p eclat-cli -- seq --input "$tmpdir/c10.ecs" \
    --minsup 6 --policy threads > "$tmpdir/seq_cores.out"
cargo run -q --release -p eclat-cli -- seq --input "$tmpdir/c10.ecs" \
    --minsup 6 --policy threads:3 > "$tmpdir/seq_threads.out"
diff <(tail -n +2 "$tmpdir/seq.out") <(tail -n +2 "$tmpdir/seq_cores.out")
diff <(tail -n +2 "$tmpdir/seq_cores.out") <(tail -n +2 "$tmpdir/seq_threads.out")

echo "==> seqbench --smoke (SPADE serial vs threads + maxlen ablation, equality-asserted)"
cargo run -q --release -p repro-bench --bin seqbench -- --smoke \
    --json=results/seqbench.json

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "==> all checks passed"
