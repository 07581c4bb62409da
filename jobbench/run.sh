#!/usr/bin/env bash
# Builds the `qob` CLI and the benchmark from source, then runs the
# benchmark from the checkout root.  Arguments go to `jobbench`, e.g.
#   bash jobbench/run.sh --workload job-exec --seed 1 --seconds 25 --trace 0
#   bash jobbench/run.sh compare a.trace.json b.trace.json
# Build output goes to standard error; the result line is the last line of
# standard output.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
if [[ ! -f Cargo.toml || ! -d crates ]]; then
    echo "jobbench: run from a checkout of the repository (no Cargo.toml or crates/ here)" >&2
    exit 1
fi
target="${CARGO_TARGET_DIR:-jobbench/.target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --offline -p qob-cli >&2
cargo build --release --quiet --offline --manifest-path jobbench/Cargo.toml >&2
JOBBENCH_QOB="$target/release/qob" exec "$target/release/jobbench" "$@"
