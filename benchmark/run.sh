#!/usr/bin/env bash
# Builds the release lapd/lapq binaries and the benchmark, then runs it.
# Usage (from anywhere in a checkout):
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <n> --trace <0|1>
#   bash benchmark/run.sh compare <old.jsonl> <new.jsonl>
# Builds go to $CARGO_TARGET_DIR, or benchmark/target when it is unset.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --quiet --bin lapd --bin lapq --target-dir "$target" >&2
cargo build --release --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
exec "$target/release/lapbench" "$@"
