#!/usr/bin/env bash
# Standing pre-commit check for this repository (see also README "Tests"):
#   1. tier-1: release build + the root test suites — end-to-end, properties,
#      engine equivalence, snapshots, tracing, and `tests/cli.rs`, which
#      drives every command of the CLI in-process (flags, exit codes, the
#      files written, the scrape socket's protocol, malformed and unbounded
#      inputs); the command line is tested there, not here
#   2. the declared MSRV (`rust-version` in Cargo.toml): clippy's
#      `incompatible_msrv` lint, alone, over every target of the workspace
#      (a few seconds once built). It flags std APIs stabilized after that
#      version; no older toolchain is installed, so language features and
#      the compiler itself are not checked
#   3. `cargo fmt --all -- --check`: every file of the workspace is kept
#      rustfmt-clean (`benchmark/` is its own package and is not checked)
#   4. the unit tests tier-1 leaves out and a change is most likely to need:
#      the bfc-testkit harness's own; bfc-sim's — the epoch barrier (nobody
#      released early, nobody lapped, abort in every wait stage) and the
#      epoch driver's ring tests live there (2.4 s); the packet path's, under
#      a second together once built — bfc-net (`port.rs`: the queue table,
#      DRR order, what `restore_state` rejects; `policy.rs`, `switch.rs`,
#      `buffer.rs`, `queue.rs`), bfc-core (`policy.rs`, the flow table, the
#      bloom filters), bfc-transport (`host.rs`, `dcqcn.rs`, `hpcc.rs`,
#      `config.rs`), bfc-metrics (`safety.rs`, `series.rs`, `recovery.rs`,
#      the registry) and bfc-workloads (the CSV parser, the CSV tail — the
#      one reader of a trace file, followed or not — and the synthesized
#      trace's input check);
#      bfc-experiments' own (about 3 s in debug: the end-of-run assembly,
#      the serve loop, metrics hub and scrape server in `service.rs`, the
#      results-table renderer, the `.scn` reproducer's header checks); and
#      the two CLI gates that need a process of their own
#      (`crates/bfc-experiments/tests/cli_flags.rs`: a malformed
#      `BFC_THREADS`, a safety violation's flight dump into a private
#      working directory)
#   5. with --workspace: every crate's unit tests
#   6. the repo's benchmark (`benchmark/`, read here, never edited): its own
#      tests — one of which pins the umbrella-crate API surface it calls —
#      and its `--quick` smoke, which runs all four workloads with every
#      digest and resume check on, so a change that breaks either fails
#      here before the pipeline sees it
#   7. bfc-bench's own tests (the harness's statistics and its command line,
#      which otherwise run only under --workspace) and the quick
#      microbenchmarks whose names contain `port_` (the five port kernels and
#      the idle-port hop), so the measuring tool cannot rot unbuilt and their
#      set-up assertions (paused and all-paused ports, a 1 000-queue port
#      with one packet in each of 512 queues) run; it prints a
#      table and judges nothing (exact costs are judged in step 1 by
#      `tests/exact_costs.rs`, wall-clock by `benchmark/run.sh` pairs, see
#      README "How a perf change is judged")
#
# Usage: scripts/verify.sh [--workspace]

set -euo pipefail
cd "$(dirname "$0")/.."

tmpdir="$(mktemp -d -t bfc-verify-XXXXXX)"
trap 'rm -rf "$tmpdir"' EXIT

echo "== tier-1: cargo build --release"
cargo build --release

echo "== tier-1: cargo test -q"
cargo test -q

echo "== MSRV: cargo clippy, incompatible_msrv only"
cargo clippy -q --workspace --all-targets -- -A clippy::all -D clippy::incompatible_msrv

echo "== format: cargo fmt --all -- --check"
cargo fmt --all -- --check

echo "== testkit, bfc-sim, packet-path, ingest and bfc-experiments unit tests + spawned CLI gates"
cargo test -q -p bfc-testkit
cargo test -q -p bfc-sim
cargo test -q -p bfc-net -p bfc-core -p bfc-transport -p bfc-metrics -p bfc-workloads
cargo test -q -p bfc-experiments --lib
cargo test -q -p bfc-experiments --test cli_flags

if [[ "${1:-}" == "--workspace" ]]; then
    echo "== workspace: cargo test -q --workspace"
    cargo test -q --workspace
fi

echo "== benchmark: cargo test --manifest-path benchmark/Cargo.toml"
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== benchmark: benchmark/run.sh --quick"
bash benchmark/run.sh --quick --out "$tmpdir/benchmark-out"

echo "== bench: cargo test -p bfc-bench, then --quick --filter port_"
cargo test -q -p bfc-bench
cargo run --release -q -p bfc-bench -- --quick --filter port_

echo "verify: OK"
