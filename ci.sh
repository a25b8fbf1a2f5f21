#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test pass.
# Run from the repo root; any failure aborts with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> fault injection: cargo test --test failure_injection"
cargo test -q --test failure_injection

echo "==> batched/parallel equivalence + zero-copy goldens: cargo test --test batched_equivalence"
cargo test -q --test batched_equivalence

echo "==> telemetry surface (incl. coalescing counter): cargo test --test metrics_endpoint"
cargo test -q --test metrics_endpoint

echo "==> single-flight coalescing (incl. shard race + leader panic): cargo test -p minaret-scholarly coalesc"
cargo test -q -p minaret-scholarly coalesc

echo "==> sharded map primitives: cargo test -p minaret-concurrent"
cargo test -q -p minaret-concurrent

echo "==> sharded vs single-lock equivalence + linearizability smoke: cargo test --test shard_equivalence"
cargo test -q --test shard_equivalence

echo "==> load shedding: cargo test --test load_shedding"
cargo test -q --test load_shedding

echo "==> keep-alive semantics: cargo test --test keep_alive"
cargo test -q --test keep_alive

echo "==> result cache: cargo test --test result_cache"
cargo test -q --test result_cache

echo "==> embedded store (WAL, tables, recovery, crash safety): cargo test -p minaret-store"
cargo test -q -p minaret-store

echo "==> store persistence goldens (RAM vs --data-dir byte-identical): cargo test --test store_persistence"
cargo test -q --test store_persistence

echo "==> HTTP parser property tests (incl. incremental split-feed): cargo test --test http_parser_proptest"
cargo test -q --test http_parser_proptest

echo "==> reactor fault isolation (peer resets): cargo test --test reactor_resilience"
cargo test -q --test reactor_resilience

echo "==> shutdown/drain soak: cargo test --test shutdown_drain"
cargo test -q --test shutdown_drain

echo "==> chunked generation invariance (any chunk size == monolithic): cargo test --test chunk_invariance"
cargo test -q -p minaret-synth --test chunk_invariance

echo "==> lazy profile materialization equivalence: cargo test --test streaming_world"
cargo test -q --test streaming_world

echo "==> batch-assignment solver unit tests: cargo test -p minaret-assign"
cargo test -q -p minaret-assign

echo "==> assignment invariants + goldens + one-fan-out pin: cargo test --test assign_properties"
cargo test -q --test assign_properties

echo "==> concurrent assign/recommend fan-out coalescing: cargo test --test assign_concurrency"
cargo test -q --test assign_concurrency

echo "==> per-request filter/rank vs the per-candidate reference: cargo test --test filter_rank_equivalence"
cargo test -q --test filter_rank_equivalence

echo "==> request strings stay out of the global interner: cargo test --test interner_bound"
cargo test -q --test interner_bound

# The benchmark program is a package of its own that calls crate APIs
# (merge_profiles, Minaret, the registry's report fan-out) for its traced
# replays; build and test it so an API change breaks CI, not the bench.
echo "==> benchmark program builds and passes its tests: perfbench/"
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "==> streaming smoke: minaret synth streams a 10^5-scholar snapshot"
SYNTH_DIR="$(mktemp -d)"
trap 'rm -rf "$SYNTH_DIR"' EXIT
cargo run -q --release -p minaret-cli -- synth --scholars 100000 --seed 231 --data-dir "$SYNTH_DIR"
rm -rf "$SYNTH_DIR"

# The perf smoke also runs the E7 world-size sweep (10^3..10^5) with its
# two same-run gates: uncached recommend p50 flat across world sizes,
# and the lazy cold start beating regeneration at 10^5. Set
# MINARET_WORLD_SWEEP=1 to extend the sweep to 10^6 scholars.
# It also runs the connection-scaling sweep (100 and 1000 idle
# keep-alive connections against the epoll reactor) with two same-run
# gates: serving threads fixed at io_threads + workers (+1 slack)
# regardless of connection count, and the uncached recommend p50 flat
# (<= 1.5x the 100-connection point) as idle sockets pile up. Set
# MINARET_CONN_SWEEP=1 to extend that sweep to 10k connections
# (clamped to the fd budget).
# The assign smoke solves a 50-manuscript batch over a 10^4-scholar
# world and gates flow >= greedy (same-run) plus the batch latency
# against the committed assign_batch50_millis baseline.
echo "==> perf smoke: batched speedup + extraction + served cache hit + store put/get/recovery + lock contention + world-size/conn-scaling sweeps + batch assignment vs BENCH_e7_scalability.json"
cargo run -q --release --example perf_smoke

echo "==> alloc smoke: warm-path allocations vs BENCH_e7_scalability.json (count-allocs)"
cargo run -q --release --features count-allocs --example perf_smoke

echo "CI OK"
