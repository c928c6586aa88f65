#!/usr/bin/env bash
# Standing pre-commit check for this repository (see also README "Tests"):
#   1. tier-1: release build + the root test suites — end-to-end, properties,
#      engine equivalence, snapshots, tracing, and `tests/cli.rs`, which
#      drives every command of the CLI in-process (flags, exit codes, the
#      files written, the scrape socket's protocol, malformed and unbounded
#      inputs); the command line is tested there, not here
#   2. the bfc-testkit harness's own unit tests, and the two CLI gates that
#      need a process of their own (`crates/bfc-experiments/tests/
#      cli_flags.rs`: `BFC_SHARDS` ≡ unset on `fig 05`, a safety violation's
#      flight dump into a private working directory)
#   3. with --workspace: every crate's unit tests
#   4. the repo's benchmark (`benchmark/`, read here, never edited): its own
#      tests — one of which pins the umbrella-crate API surface it calls —
#      and its `--quick` smoke, which runs all four workloads with every
#      digest and resume check on, so a change that breaks either fails
#      here before the pipeline sees it
#   5. a quick bfc-bench run diffed against the committed BENCH.json — any
#      benchmark whose median regresses more than 25% fails the check
#      (benchmarks without a committed baseline entry are reported, not
#      compared)
#
# Usage: scripts/verify.sh [--workspace]
#
# Refresh the committed baseline after an intentional perf change with:
#   cargo run --release -p bfc-bench            # full-fidelity run, writes BENCH.json

set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d -t bfc-verify-XXXXXX)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== testkit + spawned CLI gates"
cargo test -q -p bfc-testkit
cargo test -q -p bfc-experiments --test cli_flags

if [[ "${1:-}" == "--workspace" ]]; then
    echo "== workspace: cargo test -q --workspace"
    cargo test -q --workspace
fi

# Before the timing gate below: these two are deterministic, that one is at
# the mercy of the host.
echo "== benchmark: cargo test --manifest-path benchmark/Cargo.toml"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark: benchmark/run.sh --quick"
bash benchmark/run.sh --quick --out "$tmpdir/benchmark-out"

echo "== bench: cargo run --release -p bfc-bench -- --quick"
# The committed baseline records absolute ns on the machine that wrote it at
# full fidelity, while this check runs in quick mode — noise and machine
# differences eat into the margin. 25% is the standing tolerance on the
# baseline machine; on different hardware raise it via
#   BFC_BENCH_MAX_REGRESS=60 scripts/verify.sh
# or refresh the baseline (see above) from that machine instead.
max_regress="${BFC_BENCH_MAX_REGRESS:-25}"
baseline="BENCH.json"
if [[ -f "$baseline" ]]; then
    # Don't clobber the committed baseline during routine verification;
    # write to a temp file and diff the medians against the baseline.
    cargo run --release -q -p bfc-bench -- --quick --out "$tmpdir/bench.json" \
        --compare "$baseline" --max-regress "$max_regress"
else
    # First run on a fresh checkout: establish the baseline.
    cargo run --release -q -p bfc-bench -- --quick --out "$baseline" >/dev/null
    echo "wrote initial $baseline (no baseline to compare against)"
fi

echo "verify: OK"
