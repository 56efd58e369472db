#!/usr/bin/env bash
# Builds bench_e2e (release, offline) and runs it with the given
# arguments, from the repo root:
#
#   bench_e2e/run.sh                       the full set -> bench_e2e/results/
#   bench_e2e/run.sh --seed 7 --out DIR    the full set on another seed
#   bench_e2e/run.sh --workload agg_part_chan --seed 1 --seconds 10 --trace 0
#   bench_e2e/run.sh compare A.json B.json
#
# The build goes to $CARGO_TARGET_DIR when set, else bench_e2e/target.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/bench_e2e" "$@"
