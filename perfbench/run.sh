#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root. All arguments go to the benchmark binary (see README.md), e.g.
#   bash perfbench/run.sh --workload paper_quick --seed 1 --seconds 20 --trace 0
# Build output goes to standard error; the result line is the last line of
# standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
# Not `exec`: the benchmark reads its own peak RSS, which Linux would
# carry over from this shell across an exec.
"$target/release/perfbench" "$@"
