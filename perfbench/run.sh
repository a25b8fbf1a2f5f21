#!/usr/bin/env bash
# Builds the release server and the benchmark program from this checkout,
# then runs the benchmark against the server:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#
# Run it from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); scratch data goes under it, in perfbench-work.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml -p minaret-server >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/minaret-perfbench" \
    --server "$CARGO_TARGET_DIR/release/minaret-server" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" \
    "$@"
