#!/usr/bin/env bash
# Standing pre-commit check for this repository (see also README "Tests"):
#   1. tier-1: release build + the root test suites (end-to-end, properties,
#      trace round-trip/replay, doctest)
#   2. the bfc-testkit harness's own unit tests
#   3. a trace-tool smoke: synth -> stats -> replay on a tiny CSV trace,
#      plus a `scenario` run (link down/up + flap fault injection)
#   4. fuzz + safety: a fixed-seed `trace-tool fuzz` run must be
#      deterministic (same bytes out twice, second run sharded) and its
#      reproducer must replay; a lineup scenario run must print one
#      violation-free safety line per scheme
#   5. malformed-CSV rejection: every trace-consuming subcommand must exit
#      nonzero and name the offending line
#   6. service mode: run -> snapshot -> resume must reproduce the
#      uninterrupted replay byte-for-byte — from a 1-shard cut and from a
#      2-shard cut at an instant that is no multiple of the fabric's 1 us
#      epoch lookahead — and `serve --tail` must complete
#   7. a quick benchmark run diffed against the committed BENCH.json —
#      any benchmark whose median regresses more than 25% fails the check
#      (benchmarks without a committed baseline entry are reported, not
#      compared)
#   8. configuration cross-checks: the quickstart at BFC_SHARDS=2 and at
#      BFC_SHARDS=1 (the variable is read once, into a value) and a batched
#      2-shard replay must be byte-identical to their default one-shard
#      counterparts
#   9. observability: the flight recorder's record -> inspect -> filter ->
#      top pipeline works on a recorded run, a safety-violating scenario
#      auto-dumps a non-empty readable trace, and a `serve --metrics`
#      scrape returns well-formed Prometheus-style exposition text with a
#      native histogram; the persistent-connection protocol serves two
#      scrapes over one socket, the ninth concurrent connection is closed at
#      accept, and the scraped run prints the unscraped run's results
#  10. divergence profiler: `trace diff` on two same-config recordings is
#      silent and exits 0 at 1/2/4 shards, and `scenario --diff-schemes
#      bfc,dcqcn` on the committed deadlock reproducer exits nonzero naming
#      the first diverging record
#  11. the repo's benchmark (`benchmark/`, read here, never edited): its own
#      tests — one of which pins the umbrella-crate API surface it calls —
#      and its `--quick` smoke, which runs all four workloads with every
#      digest and resume check on, so a change that breaks either fails
#      here before the pipeline sees it
#
# Usage: scripts/verify.sh [--workspace]
#   --workspace  additionally run every crate's unit tests
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

echo "== testkit: cargo test -q -p bfc-testkit"
cargo test -q -p bfc-testkit

if [[ "${1:-}" == "--workspace" ]]; then
    echo "== workspace: cargo test -q --workspace"
    cargo test -q --workspace
fi

echo "== trace-tool: synth -> stats -> replay round-trip"
trace_csv="$tmpdir/trace.csv"
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    synth --out "$trace_csv" --duration-us 120 --seed 7
cargo run --release -q -p bfc-experiments --bin trace-tool -- stats "$trace_csv"
cargo run --release -q -p bfc-experiments --bin trace-tool -- replay "$trace_csv" --scheme bfc

echo "== shard count from the environment: quickstart at BFC_SHARDS=2 and =1 diffed against unset"
# Results must be bit-identical at any shard count; the quickstart example
# prints FCT tables and scalar metrics, so a byte-level diff of its output is
# a cheap end-to-end witness — and of BFC_SHARDS being read (once, into a
# value on the runner) at all.
serial_out="$tmpdir/quickstart-serial.txt"
env -u BFC_SHARDS cargo run --release -q --example quickstart > "$serial_out"
for shards in 2 1; do
    sharded_out="$tmpdir/quickstart-shards-$shards.txt"
    BFC_SHARDS=$shards cargo run --release -q --example quickstart > "$sharded_out"
    if ! diff -u "$serial_out" "$sharded_out"; then
        echo "verify: FAILED — BFC_SHARDS=$shards quickstart output differs from BFC_SHARDS unset" >&2
        exit 1
    fi
done

echo "== epoch batching: sharded replay (--shards 2) diffed against serial"
# Adaptive epoch batching is on by default, so the sharded replay exercises
# the batched driver; its stdout must match the serial replay byte-for-byte
# (the epoch counters go to stderr for exactly this reason).
replay_serial="$tmpdir/replay-serial.txt"
replay_batched="$tmpdir/replay-batched.txt"
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    replay "$trace_csv" --scheme bfc > "$replay_serial"
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    replay "$trace_csv" --scheme bfc --shards 2 > "$replay_batched"
if ! diff -u "$replay_serial" "$replay_batched"; then
    echo "verify: FAILED — batched sharded replay differs from serial replay" >&2
    exit 1
fi

echo "== trace-tool: scenario (fault injection) smoke"
scenario_txt="$tmpdir/scenario.txt"
cat > "$scenario_txt" <<'EOF'
# verify.sh smoke scenario: one failure with repair, plus a flap
at 40us down tor0 spine0
at 90us up   tor0 spine0
flap tor1 spine1 from 30us every 20us until 100us
EOF
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    scenario "$scenario_txt" --scheme bfc --duration-us 120 --seed 7
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    scenario "$scenario_txt" --trace "$trace_csv" --scheme dcqcn-win --seed 7

echo "== fuzz: fixed-seed search is deterministic and emits a replayable reproducer"
# Same seed/budget twice must write byte-identical reproducers, and the
# written artifact (re-read from disk) must replay; --shards 2 on the second
# run doubles as a sharded-evaluation witness since results are bit-identical.
fuzz_a="$tmpdir/fuzz-a.scn"
fuzz_b="$tmpdir/fuzz-b.scn"
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    fuzz --out "$fuzz_a" --seed 3 --budget 6 --shrink-evals 8 --objective dip --replay
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    fuzz --out "$fuzz_b" --seed 3 --budget 6 --shrink-evals 8 --objective dip --shards 2
if ! cmp -s "$fuzz_a" "$fuzz_b"; then
    echo "verify: FAILED — same-seed fuzz runs wrote different reproducers" >&2
    diff -u "$fuzz_a" "$fuzz_b" >&2 || true
    exit 1
fi

echo "== safety: paper lineup stays violation-free under fault injection"
# The scenario table now carries one safety line per scheme; all six must be
# present and none may be a violation (the constructed-positive direction is
# covered by bfc-metrics' unit tests).
safety_out="$tmpdir/safety.txt"
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    scenario "$scenario_txt" --scheme lineup --duration-us 120 --seed 7 > "$safety_out"
if [[ "$(grep -c '^safety\[' "$safety_out")" -ne 6 ]]; then
    echo "verify: FAILED — expected 6 safety lines in the lineup scenario run:" >&2
    cat "$safety_out" >&2
    exit 1
fi
if grep -q 'VIOLATION' "$safety_out"; then
    echo "verify: FAILED — safety violation reported for a paper-lineup scheme:" >&2
    grep '^safety\[' "$safety_out" >&2
    exit 1
fi

echo "== trace-tool: malformed CSV exits nonzero with a line number"
# Line 3 holds a bare-trailing-dot start_ns — every subcommand that consumes
# a trace must refuse it with a nonzero exit and name the line.
bad_csv="$tmpdir/bad.csv"
printf 'src,dst,size_bytes,start_ns,is_incast\n0,1,100,2,0\n1,2,300,5.,0\n' > "$bad_csv"
for sub in "stats $bad_csv" \
           "replay $bad_csv --scheme bfc" \
           "snapshot $bad_csv --at-us 10 --out $tmpdir/bad.snap" \
           "resume $bad_csv --snapshot $tmpdir/nonexistent.snap" \
           "scenario $scenario_txt --trace $bad_csv --scheme bfc"; do
    err="$tmpdir/bad.err"
    if cargo run --release -q -p bfc-experiments --bin trace-tool -- $sub 2> "$err"; then
        echo "verify: FAILED — trace-tool $sub accepted a malformed trace" >&2
        exit 1
    fi
    if ! grep -q "line 3" "$err"; then
        echo "verify: FAILED — trace-tool $sub did not name the bad line:" >&2
        cat "$err" >&2
        exit 1
    fi
done

echo "== service mode: snapshot -> resume diffed against uninterrupted replay"
# A resumed run must be bit-identical to the uninterrupted one; the results
# table (FCT percentiles, utilization, drops) is the end-to-end witness.
# A cut is a time at any shard count: the 2-shard snapshot is taken at an
# instant that is no multiple of the fabric's 1 us epoch lookahead.
replay_out="$tmpdir/replay.txt"
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    replay "$trace_csv" --scheme bfc > "$replay_out"
for snap_cut in 1:60 2:60.37; do
    snap_shards="${snap_cut%%:*}"
    snap="$tmpdir/run-$snap_shards.snap"
    resume_out="$tmpdir/resume-$snap_shards.txt"
    cargo run --release -q -p bfc-experiments --bin trace-tool -- \
        snapshot "$trace_csv" --at-us "${snap_cut##*:}" --out "$snap" --shards "$snap_shards"
    cargo run --release -q -p bfc-experiments --bin trace-tool -- \
        resume "$trace_csv" --snapshot "$snap" > "$resume_out"
    # First line is the banner (replayed... vs resumed...); the table below
    # it must match byte-for-byte.
    if ! diff -u <(tail -n +2 "$replay_out") <(tail -n +2 "$resume_out"); then
        echo "verify: FAILED — resume ($snap_shards-shard snapshot) differs from uninterrupted replay" >&2
        exit 1
    fi
done

echo "== service mode: serve --tail streaming smoke"
cargo run --release -q -p bfc-experiments --bin trace-tool -- \
    serve --tail "$trace_csv" --cap 16 --horizon-us 120 --seed 7

echo "== flight recorder: record -> inspect -> filter -> top smoke"
trace_tool="$PWD/target/release/trace-tool"
flight="$tmpdir/run.flight"
"$trace_tool" trace record "$trace_csv" --out "$flight" --last 500000 --scheme bfc
"$trace_tool" trace inspect "$flight" --limit 5 > "$tmpdir/inspect.txt"
if ! grep -q '^records:' "$tmpdir/inspect.txt" || ! grep -q '  enqueue' "$tmpdir/inspect.txt"; then
    echo "verify: FAILED — trace inspect did not summarize the recording:" >&2
    cat "$tmpdir/inspect.txt" >&2
    exit 1
fi
"$trace_tool" trace inspect "$flight" --stats > "$tmpdir/stats.txt"
if ! grep -q '  enqueue' "$tmpdir/stats.txt" || grep -q 'records (' "$tmpdir/stats.txt"; then
    echo "verify: FAILED — trace inspect --stats must print kind counts only:" >&2
    cat "$tmpdir/stats.txt" >&2
    exit 1
fi
"$trace_tool" trace filter "$flight" --kind dequeue --limit 3 > "$tmpdir/filter.txt"
if ! grep -q 'records match' "$tmpdir/filter.txt"; then
    echo "verify: FAILED — trace filter did not report matches" >&2
    exit 1
fi
"$trace_tool" trace top "$flight" --n 5 > /dev/null
"$trace_tool" trace top "$flight" --tree > /dev/null

echo "== divergence profiler: identical runs diff empty at 1/2/4 shards"
# Ring capacity is per shard, so cross-shard-count trace identity needs
# rings sized so nothing is shed: halve --last as the shard count doubles.
diff_base="$tmpdir/diff-base.flight"
"$trace_tool" trace record "$trace_csv" --out "$diff_base" --last 300000 --scheme bfc
for shards in 1 2 4; do
    other="$tmpdir/diff-$shards.flight"
    "$trace_tool" trace record "$trace_csv" --out "$other" \
        --last $((300000 / shards)) --scheme bfc --shards "$shards"
    diff_out="$tmpdir/diff-$shards.txt"
    if ! "$trace_tool" trace diff "$diff_base" "$other" > "$diff_out"; then
        echo "verify: FAILED — same-run traces diverged at $shards shard(s):" >&2
        cat "$diff_out" >&2
        exit 1
    fi
    if [[ -s "$diff_out" ]]; then
        echo "verify: FAILED — self-diff at $shards shard(s) was not silent:" >&2
        cat "$diff_out" >&2
        exit 1
    fi
done

echo "== divergence profiler: deadlock reproducer diverges before it deadlocks"
# bfc-vs-dcqcn on the committed reproducer must exit nonzero and name the
# first diverging record; run inside tmpdir because the DCQCN violation
# auto-dumps its flight trace into the working directory.
schemes_out="$tmpdir/diff-schemes.txt"
if ( cd "$tmpdir" && "$trace_tool" scenario "$OLDPWD/tests/scenarios/pfc_deadlock_dcqcn_t1.scn" \
        --diff-schemes bfc,dcqcn --trace-cap 4000000 > "$schemes_out" ); then
    echo "verify: FAILED — bfc-vs-dcqcn diff on the deadlock reproducer exited 0:" >&2
    cat "$schemes_out" >&2
    exit 1
fi
if ! grep -q 'first divergence at canonical record' "$schemes_out"; then
    echo "verify: FAILED — diff report does not name the first diverging record:" >&2
    cat "$schemes_out" >&2
    exit 1
fi

echo "== flight recorder: safety violation auto-dumps a readable trace"
# The committed livelock reproducer carries its own topology/scheme/workload;
# the scenario run must convict it and auto-dump the flight trace into the
# working directory, and the dump must hold the PFC pause deliveries the
# wait-for analysis was built from.
dump_dir="$tmpdir/dump"
mkdir -p "$dump_dir"
( cd "$dump_dir" && "$trace_tool" scenario "$OLDPWD/tests/scenarios/pfc_livelock_dcqcn_tiny.scn" \
    --trace-cap 500000 > scenario.out 2> scenario.err )
if ! grep -q 'VIOLATION' "$dump_dir/scenario.out"; then
    echo "verify: FAILED — committed livelock scenario no longer convicts:" >&2
    cat "$dump_dir/scenario.out" >&2
    exit 1
fi
flight_dump="$dump_dir/pfc_livelock_dcqcn_tiny-dcqcn.flight"
if [[ ! -s "$flight_dump" ]]; then
    echo "verify: FAILED — safety violation did not auto-dump a flight trace" >&2
    cat "$dump_dir/scenario.err" >&2
    exit 1
fi
"$trace_tool" trace inspect "$flight_dump" --limit 0 > "$tmpdir/dump-inspect.txt"
if ! grep -q '  pfc-delivered' "$tmpdir/dump-inspect.txt"; then
    echo "verify: FAILED — auto-dumped trace holds no PFC pause deliveries:" >&2
    cat "$tmpdir/dump-inspect.txt" >&2
    exit 1
fi

echo "== live metrics: persistent scrapes return exposition with histograms"
# The run follows its CSV (`--follow`): once every flow is admitted it waits
# for more until the end marker is appended below, so the scrapes land on a
# live server however fast the run is. Port 0 lets the OS pick, and the bound
# address is announced on stderr. `--cap 4` keeps the inflight window far
# below the flow count so the sim advances between admissions and the live
# render carries real series.
long_csv="$tmpdir/long.csv"
"$trace_tool" synth --out "$long_csv" --duration-us 3000 --seed 7 > /dev/null
"$trace_tool" serve --tail "$long_csv" --cap 4 --horizon-us 3000 --seed 7 \
    > "$tmpdir/serve-unscraped.out"
serve_err="$tmpdir/serve.err"
"$trace_tool" serve --tail "$long_csv" --follow --cap 4 --horizon-us 3000 --seed 7 \
    --metrics 127.0.0.1:0 > "$tmpdir/serve.out" 2> "$serve_err" &
serve_pid=$!
metrics_addr=""
for _ in $(seq 1 100); do
    metrics_addr="$(sed -n 's/^metrics listening on //p' "$serve_err" | head -n1)"
    [[ -n "$metrics_addr" ]] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then break; fi
    sleep 0.1
done
if [[ -z "$metrics_addr" ]]; then
    echo "verify: FAILED — serve --metrics never announced its listener:" >&2
    cat "$serve_err" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
scrape_fail() {
    echo "verify: FAILED — $1" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
}
# Each connection streams one `# EOF`-terminated render immediately; a
# newline on the same socket requests a fresh one (continuous scraping).
# read_scrape <fd> <file>
read_scrape() {
    : > "$2"
    local line
    while IFS= read -r -t 5 -u "$1" line; do
        [[ "$line" == "# EOF" ]] && return 0
        printf '%s\n' "$line" >> "$2"
    done
    return 1
}
scrape="$tmpdir/scrape.txt"
rescrape="$tmpdir/rescrape.txt"
scraped=0
for _ in $(seq 1 100); do
    # The braces keep `2>/dev/null` off the shell itself: on a bare `exec` it
    # would silence every later message of this script.
    if { exec 3<>"/dev/tcp/${metrics_addr%:*}/${metrics_addr##*:}"; } 2>/dev/null; then
        if read_scrape 3 "$scrape" && grep -q '_bucket{' "$scrape"; then
            # Double-scrape over the same connection, which stays open: it is
            # the first of the connections that fill the cap below.
            if printf '\n' >&3 && read_scrape 3 "$rescrape"; then
                scraped=1
                break
            fi
        fi
        exec 3<&- 3>&-
    fi
    if ! kill -0 "$serve_pid" 2>/dev/null; then break; fi
    sleep 0.1
done
if [[ "$scraped" -ne 1 ]]; then
    scrape_fail "no double scrape with histogram data from $metrics_addr while serve was running"
fi
# The scrape connection cap (MAX_SCRAPE_CONNECTIONS in trace_tool.rs): with
# fd 3 still open, seven more connections are served and the ninth is closed
# at accept — end of input before a single line.
scrape_cap=8
for fd in $(seq 4 $((scrape_cap + 2))); do
    eval "exec $fd<>/dev/tcp/${metrics_addr%:*}/${metrics_addr##*:}" \
        || scrape_fail "connection $((fd - 2)) of $scrape_cap refused"
    read_scrape "$fd" "$tmpdir/scrape-$fd.txt" && grep -q '^# TYPE bfc_' "$tmpdir/scrape-$fd.txt" \
        || scrape_fail "connection $((fd - 2)) of $scrape_cap got no exposition"
done
over_fd=$((scrape_cap + 3))
eval "exec $over_fd<>/dev/tcp/${metrics_addr%:*}/${metrics_addr##*:}" \
    || scrape_fail "connection $((scrape_cap + 1)) was refused, not accepted and closed"
if read_scrape "$over_fd" "$tmpdir/scrape-over.txt" || [[ -s "$tmpdir/scrape-over.txt" ]]; then
    scrape_fail "connection $((scrape_cap + 1)) was served: the cap of $scrape_cap does not hold"
fi
for fd in $(seq 3 "$over_fd"); do
    eval "exec $fd<&- $fd>&-"
done
# End the followed stream; the run drains and prints its results.
echo "#end" >> "$long_csv"
wait "$serve_pid"
if ! cmp -s "$tmpdir/serve.out" "$tmpdir/serve-unscraped.out"; then
    echo "verify: FAILED — scraping changed the run: results differ from the unscraped serve:" >&2
    diff "$tmpdir/serve-unscraped.out" "$tmpdir/serve.out" >&2 || true
    exit 1
fi
if ! grep -q '^# TYPE bfc_' "$scrape" || ! grep -Eq '^bfc_[a-z_]+({[^}]*})? [0-9]' "$scrape"; then
    echo "verify: FAILED — scrape is not well-formed exposition text:" >&2
    cat "$scrape" >&2
    exit 1
fi
if ! grep -q '^# TYPE bfc_switch_queue_depth_bytes histogram' "$scrape" \
    || ! grep -q 'le="+Inf"' "$scrape" \
    || ! grep -q '^bfc_switch_queue_depth_bytes_count{' "$scrape"; then
    echo "verify: FAILED — live scrape is missing the native histogram series:" >&2
    grep 'queue_depth' "$scrape" >&2 || true
    exit 1
fi
if ! grep -q '^# TYPE bfc_' "$rescrape"; then
    echo "verify: FAILED — second scrape over the same connection is not exposition text:" >&2
    cat "$rescrape" >&2
    exit 1
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
    out="$tmpdir/bench.json"
    cargo run --release -q -p bfc-bench -- --quick --out "$out" --compare "$baseline" --max-regress "$max_regress"
else
    # First run on a fresh checkout: establish the baseline.
    cargo run --release -q -p bfc-bench -- --quick --out "$baseline" >/dev/null
    echo "wrote initial $baseline (no baseline to compare against)"
fi

echo "verify: OK"
