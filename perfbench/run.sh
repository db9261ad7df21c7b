#!/usr/bin/env bash
# Build `orfpredd` and the benchmark from source, then run the benchmark.
#
#   bash perfbench/run.sh --workload <ingest|score_mix|restart|all> \
#       --seed N --seconds S --trace <0|1>
#
# Run it from the root of an orfpred checkout. Build output goes to
# stderr; the benchmark's report goes to stdout and ends with one JSON line.
set -euo pipefail

if [[ ! -f Cargo.toml || ! -d crates/fleet || ! -f perfbench/Cargo.toml ]]; then
    echo "perfbench: run from the root of an orfpred checkout (crates/ not found)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p orfpred-fleet --bin orfpredd >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/orfpred-perfbench" \
    --daemon "$CARGO_TARGET_DIR/release/orfpredd" "$@"
