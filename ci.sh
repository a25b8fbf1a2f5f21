#!/usr/bin/env bash
# Local CI gate: formatting, lints, then the tier-1 build + test pass.
# Run from the repo root; any failure aborts with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# A doc link to a deleted or private item is a warning; deny it.
echo "==> cargo doc (workspace, -D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# The root manifest has a [package], so plain `cargo test` runs only the
# root package; this runs every member crate's unit and doc tests too.
echo "==> every workspace member's tests: cargo test --workspace"
cargo test -q --workspace

echo "==> fault injection: cargo test --test failure_injection"
cargo test -q --test failure_injection

echo "==> batched/parallel equivalence + zero-copy goldens: cargo test --test batched_equivalence"
cargo test -q --test batched_equivalence

echo "==> telemetry surface (incl. coalescing counter): cargo test --test metrics_endpoint"
cargo test -q --test metrics_endpoint

echo "==> single-flight coalescing (incl. distinct fan-outs in flight at once + leader panic): cargo test -p minaret-scholarly coalesc"
cargo test -q -p minaret-scholarly coalesc

echo "==> one shared page per paper, listed without the owner, equal to the copying build: cargo test -p minaret-scholarly profiles_list_one_shared_page_per_paper"
cargo test -q -p minaret-scholarly profiles_list_one_shared_page_per_paper

echo "==> order-preserving parallel map + stable hash: cargo test -p minaret-concurrent"
cargo test -q -p minaret-concurrent

echo "==> ASCII normalize path equals the char loop (property test): cargo test -p minaret-ontology ascii_path"
cargo test -q -p minaret-ontology ascii_path

echo "==> load shedding: cargo test --test load_shedding"
cargo test -q --test load_shedding

echo "==> keep-alive semantics: cargo test --test keep_alive"
cargo test -q --test keep_alive

echo "==> result cache: cargo test --test result_cache"
cargo test -q --test result_cache

echo "==> embedded store (CRC, streamed table writer, publish, open-time validation, damaged snapshots): cargo test -p minaret-store"
cargo test -q -p minaret-store

# Release builds wrap integer overflow instead of panicking and drop
# debug assertions: the form a damaged snapshot's offsets and a
# misordered key take in a server build.
echo "==> embedded store in release (damaged snapshots, key order): cargo test --release -p minaret-store"
cargo test -q --release -p minaret-store

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

# Grading against ground truth is offline work: the serving binaries
# must not build the evaluation harness, the baselines or the TF-IDF
# index.
echo "==> serving binaries build no evaluation harness: cargo tree -e normal -p minaret-server / -p minaret-cli"
for pkg in minaret-server minaret-cli; do
    deps="$(cargo tree -e normal -p "$pkg")"
    if grep -E 'minaret-(eval|baselines|index) v' <<<"$deps"; then
        echo "FAIL: $pkg depends on the evaluation harness (see above)" >&2
        exit 1
    fi
done

echo "==> batch-assignment solver unit tests: cargo test -p minaret-assign"
cargo test -q -p minaret-assign

echo "==> assignment invariants + goldens + one-fan-out pin: cargo test --test assign_properties"
cargo test -q --test assign_properties

echo "==> concurrent assign/recommend fan-out coalescing: cargo test --test assign_concurrency"
cargo test -q --test assign_concurrency

echo "==> per-request filter/rank vs the per-candidate reference: cargo test --test filter_rank_equivalence"
cargo test -q --test filter_rank_equivalence

echo "==> candidates that hold their profiles vs the copying merge and key-text retrieval: cargo test --test merge_equivalence"
cargo test -q --test merge_equivalence

echo "==> request strings never fill the world's id-indexed vocabulary slots or grow a profile store: cargo test --test interner_bound"
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
files="$(ls -A "$SYNTH_DIR")"
if [ "$files" != "snapshot.sst" ]; then
    echo "FAIL: the data dir holds '$files', not the one snapshot file snapshot.sst" >&2
    exit 1
fi

# A boot over that dir must load the snapshot (no chunk written) and
# serve without writing to the data dir (every file's checksum the same).
echo "==> restart smoke: minaret stats over the snapshot loads it and leaves every file unchanged"
listing() { (cd "$SYNTH_DIR" && for f in $(ls -A); do cksum "$f"; done); }
before="$(listing)"
STATS="$(cargo run -q --release -p minaret-cli -- stats --scholars 100000 --seed 231 --data-dir "$SYNTH_DIR")"
metric() { awk -v name="$1" '$1 == name { print $NF }' <<<"$STATS"; }
chunk_writes="$(metric minaret_world_chunk_writes_total)"
if [ "$chunk_writes" != "0" ]; then
    echo "FAIL: minaret_world_chunk_writes_total is '${chunk_writes:-absent}', not 0: the boot did not load the snapshot" >&2
    exit 1
fi
after="$(listing)"
if [ "$after" != "$before" ]; then
    echo "FAIL: the boot and its serving changed the data dir" >&2
    echo "before: $before" >&2
    echo "after:  $after" >&2
    exit 1
fi
rm -rf "$SYNTH_DIR"

# Wall-clock claims about the serving paths live in perfbench/. The
# perf smoke keeps the checks nothing else covers: the connection-scaling
# sweep (100 and 1000 idle keep-alive connections against the epoll
# reactor) with two same-run gates, serving threads fixed at
# io_threads + workers (+1 slack) regardless of connection count and the
# uncached recommend p50 flat (<= 1.5x the 100-connection point); and
# the 10^5-scholar lazy cold start, which must beat regenerating the
# world in the same run. Under count-allocs it also gates allocations:
# none per candidate in decide and score, a merge whose allocations
# stay within a constant per candidate (its profile list, plus a bit
# set per deduped list that drops a copy), however many records the
# candidate's profiles list, and the builds of every profile of the six
# sources against the baseline.
echo "==> perf smoke: conn-scaling sweep + 10^5 lazy cold start vs regeneration"
cargo run -q --release --example perf_smoke

echo "==> alloc smoke: the perf smoke plus warm-path allocations per recommendation and profile-build allocations vs BENCH_e7_scalability.json (count-allocs)"
cargo run -q --release --features count-allocs --example perf_smoke

echo "CI OK"
