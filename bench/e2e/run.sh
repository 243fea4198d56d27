#!/usr/bin/env bash
# Build mic-e2e in release and run it.
#
#   bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#   bench/e2e/run.sh --self-test
#
# Every metric goes to stderr by name and unit; the last stdout line is the
# result JSON. Works from any directory: paths are taken from this script.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"

# A relative CARGO_TARGET_DIR (the driver sets one) is relative to here.
target="${CARGO_TARGET_DIR:-bench/e2e/target}"

# Path dependencies only: nothing to fetch. Cargo's own output goes to
# stderr, so stdout carries the result line alone.
cargo build --release --offline --quiet --manifest-path bench/e2e/Cargo.toml >&2

exec "$target/release/mic-e2e" "$@"
