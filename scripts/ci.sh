#!/usr/bin/env sh
# CI entry point: release build, tier-1 tests, then the deterministic
# fault-injection suites with a pinned seed set (override with
# TESTKIT_SEEDS=1,2,3 scripts/ci.sh — see README "Testing & fault
# injection" and DESIGN.md §9).
set -eu

cd "$(dirname "$0")/.."

# Pinned default so CI runs are reproducible; any failure prints an
# `orfpred faultsim --seed <n> --size <z>` repro line.
TESTKIT_SEEDS="${TESTKIT_SEEDS:-11,12,13,14,15,16}"
export TESTKIT_SEEDS

echo "== build (release) =="
cargo build --release

echo "== daemon smoke: no --tenant flag runs a one-tenant fleet =="
# Drives the real binary end to end, so the single-tenant flags -> implicit
# `default` tenant mapping is exercised exactly as an operator invokes it.
cargo build --release -q -p orfpred-fleet --bin orfpredd
cargo build --release -q -p orfpred-cli --bin orfpred
smoke_dir="$(mktemp -d)"
smoke_out="$(printf '%s\n' \
    '{"type":"sample","disk_id":1,"day":0,"features":[1,2,3]}' \
    '{"type":"failure","disk_id":1,"day":1}' \
    '{"type":"score","features":[1,2,3]}' \
    '{"type":"stats"}' \
    "{\"type\":\"checkpoint\",\"path\":\"$smoke_dir/ck.ckpt\"}" \
    '{"type":"shutdown"}' \
    | target/release/orfpredd --shards 2)"
smoke_count() { printf '%s\n' "$smoke_out" | grep -c "$1" || true; }
if [ "$(smoke_count '"type":"score"')" -ne 1 ] \
    || [ "$(smoke_count '"type":"stats","tenant":"default"')" -ne 1 ] \
    || [ "$(smoke_count '"type":"ok"')" -ne 2 ] \
    || [ ! -s "$smoke_dir/ck.ckpt" ]; then
    echo "daemon smoke: expected score, stats, two ok lines and a checkpoint file:"
    echo "$smoke_out"
    exit 1
fi
# The checkpoint is the CRC-framed binary format, and the CLI reads it.
if [ "$(head -c 7 "$smoke_dir/ck.ckpt")" != "ORFCKP1" ]; then
    echo "daemon smoke: the checkpoint does not start with the ORFCKP1 magic"
    exit 1
fi
if ! target/release/orfpred model inspect --model "$smoke_dir/ck.ckpt" >/dev/null; then
    echo "daemon smoke: orfpred model inspect could not load the daemon checkpoint"
    exit 1
fi
rm -rf "$smoke_dir"

echo "== lint: rustfmt =="
cargo fmt --all --check

echo "== lint: clippy on every target, warnings are errors =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== docs: rustdoc, warnings (e.g. broken intra-doc links) are errors =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== lint: orfpred invariants =="
# Workspace-wide static pass: determinism, unsafe-audit, panic-path and
# lock-discipline rules (DESIGN.md §12). Hard gate — on failure, each
# diagnostic names its rule id; dig deeper with
#   cargo run -p orfpred-analyze -- --explain <rule-id>
cargo run -q -p orfpred-analyze --release -- --deny

echo "== lint: graph invariants =="
# Cross-crate pass (DESIGN.md §17): lock-acquisition cycles across serve
# and fleet, checkpoint save/restore field coverage, and ORFB wire-tag
# exhaustiveness against the fleet_equiv corpus. Also a hard gate.
cargo run -q -p orfpred-analyze --release -- --deny \
    --only lock_order,checkpoint_coverage,wire_exhaustive

echo "== lint: machine-readable output smoke check =="
# The JSON renderer feeds external tooling; a clean run must emit an
# empty violations array and a non-zero scan count.
json_out="$(cargo run -q -p orfpred-analyze --release -- --format json)"
case "$json_out" in
    *'"violations": []'*) : ;;
    *) echo "lint --format json: expected an empty violations array:"; echo "$json_out"; exit 1 ;;
esac

echo "== bench compile gate (benches must not rot, store + prep + score + fleet included) =="
cargo bench --no-run
cargo bench -p orfpred-bench --bench store --no-run
cargo bench -p orfpred-bench --bench prep --no-run
cargo bench -p orfpred-bench --bench score --no-run
cargo bench -p orfpred-bench --bench fleet --no-run

echo "== tier-1: full test suite (every workspace crate) =="
cargo test -q --workspace

echo "== perfbench: the benchmark's own tests (it links the public API) =="
# perfbench is its own cargo workspace; building its tests catches a
# public-API change that would break the end-to-end benchmark.
cargo test -q --manifest-path perfbench/Cargo.toml

echo "== fault suites (TESTKIT_SEEDS=$TESTKIT_SEEDS) =="
cargo test -q \
    --test fault_checkpoint \
    --test fault_shard \
    --test fault_reorder \
    --test fault_protocol \
    --test fault_labeller \
    --test fault_sim \
    --test fault_store \
    --test fault_prep

echo "== closed-loop adaptation suite =="
cargo test -q --test serve_adapt

echo "== pluggable-domain equivalence suite (schema + window stage) =="
cargo test -q --test domain_equiv

echo "== store golden-trace property suite =="
cargo test -q --test store_roundtrip

echo "== batch kernel equivalence suite =="
cargo test -q --test batch_equiv --test frozen_equiv

echo "== fleet: multi-tenant serving equivalence suite =="
cargo test -q -p orfpred-fleet
cargo test -q --test fleet_equiv

echo "ci: all green"
