#!/usr/bin/env bash
# Builds the benchmark and runs it: see README.md, or --help.
#
# The pipeline calls this from the root of a checkout as
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# and reads the last line of standard output.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The engine reads these; the benchmark fixes its own shard and thread counts.
unset BFC_SHARDS BFC_THREADS

# Cargo puts the build in $CARGO_TARGET_DIR when set (relative to this
# directory, the checkout's root), else next to the benchmark's manifest.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-benchmark/target}/release/bfc-benchmark" "$@"
