//! The command-line shell, driven in-process: every `trace-tool` command's
//! flags, exit code, files and output, the scrape socket's protocol, and the
//! outside surfaces that must fail with a line instead of a panic or a hang.
//! These were `scripts/verify.sh`'s bash gates. The two that need a private
//! working directory or environment are spawned processes in
//! `crates/bfc-experiments/tests/cli_flags.rs`.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use backpressure_flow_control::experiments::cli::{self, Io};

/// What one in-process invocation did.
struct Ran {
    ok: bool,
    out: String,
    err: String,
}

fn succeeded(code: ExitCode) -> bool {
    // `ExitCode` is opaque but for its `Debug` form.
    format!("{code:?}") == format!("{:?}", ExitCode::SUCCESS)
}

fn words(args: &[&str]) -> Vec<String> {
    args.iter().map(|a| a.to_string()).collect()
}

/// One of the two binaries' entry points.
type Tool = fn(&[String], &mut Io<'_>) -> ExitCode;

fn drive(tool: Tool, args: &[&str]) -> Ran {
    let (mut out, mut err) = (Vec::new(), Vec::new());
    let code = tool(
        &words(args),
        &mut Io {
            out: &mut out,
            err: &mut err,
        },
    );
    Ran {
        ok: succeeded(code),
        out: String::from_utf8(out).expect("stdout is UTF-8"),
        err: String::from_utf8(err).expect("stderr is UTF-8"),
    }
}

fn trace_tool(args: &[&str]) -> Ran {
    drive(cli::trace_tool, args)
}

/// Runs a command that must succeed and returns its stdout.
fn ok(args: &[&str]) -> String {
    let ran = trace_tool(args);
    assert!(ran.ok, "trace-tool {args:?} failed:\n{}", ran.err);
    ran.out
}

/// A scratch directory of this test's own, removed when the test ends.
struct Scratch(PathBuf);

impl Scratch {
    fn new(test: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("bfc-cli-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0
            .join(name)
            .to_str()
            .expect("UTF-8 temp path")
            .to_string()
    }

    /// `synth --duration-us 120 --seed 7` on the tiny fat-tree: the trace
    /// most gates run over.
    fn trace(&self) -> String {
        let csv = self.path("trace.csv");
        ok(&[
            "synth",
            "--out",
            &csv,
            "--duration-us",
            "120",
            "--seed",
            "7",
        ]);
        csv
    }

    /// One failure with repair, plus a flap.
    fn scenario(&self) -> String {
        let path = self.path("scenario.txt");
        let text = "# smoke scenario\nat 40us down tor0 spine0\nat 90us up   tor0 spine0\n\
                    flap tor1 spine1 from 30us every 20us until 100us\n";
        std::fs::write(&path, text).expect("write scenario");
        path
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Everything after the banner line (`replayed …` / `resumed …`).
fn below_banner(out: &str) -> &str {
    out.split_once('\n').expect("a banner line").1
}

#[test]
fn usage_errors_print_the_usage_and_help_succeeds() {
    let help = trace_tool(&["help"]);
    assert!(help.ok && help.err.is_empty());
    assert!(help
        .out
        .starts_with("usage: trace-tool <command> [options]"));
    for (args, message) in [
        (&[][..], "trace-tool: missing command\n"),
        (
            &["frobnicate"][..],
            "trace-tool: unknown command `frobnicate`\n",
        ),
        (
            &["stats"][..],
            "trace-tool: stats: exactly one trace path is required\n",
        ),
        (
            &["trace", "top", "a", "--bogus"][..],
            "trace-tool: trace top: unknown option --bogus\n",
        ),
        (
            &["synth", "--out"][..],
            "trace-tool: --out requires a value\n",
        ),
        (
            &["fuzz", "--out", "x", "--budget", "many"][..],
            "trace-tool: --budget: not a valid number: many\n",
        ),
    ] {
        let ran = trace_tool(args);
        assert!(
            !ran.ok && ran.out.is_empty(),
            "{args:?} must fail with nothing on stdout"
        );
        assert!(ran.err.starts_with(message), "{args:?}: {}", ran.err);
        assert!(
            ran.err.ends_with(&format!("\n\n{}", help.out)),
            "{args:?}: usage follows the error"
        );
    }
}

/// A bad input — a file that is not a trace, a snapshot that is not there, a
/// CSV row whose field runs on for 60 000 digits — is one short `trace-tool:`
/// line and nothing more; a bad flag on the same command still brings the
/// usage.
#[test]
fn a_bad_input_is_one_line_and_a_bad_flag_adds_the_usage() {
    let dir = Scratch::new("input-errors");
    let (csv, garbage, missing, long) = (
        dir.trace(),
        dir.path("garbage.flight"),
        dir.path("no.snap"),
        dir.path("long.csv"),
    );
    std::fs::write(&garbage, "not a flight trace").expect("write garbage");
    let digits = "9".repeat(60_000);
    std::fs::write(
        &long,
        format!("src,dst,size_bytes,start_ns,is_incast\n0,1,100,{digits},0\n"),
    )
    .expect("write csv");
    for args in [
        &["trace", "inspect", &garbage][..],
        &["resume", &csv, "--snapshot", &missing][..],
        &["stats", &long][..],
    ] {
        let ran = trace_tool(args);
        assert!(!ran.ok && ran.out.is_empty(), "{args:?} must fail");
        assert!(ran.err.starts_with("trace-tool: "), "{args:?}: {}", ran.err);
        assert_eq!(ran.err.lines().count(), 1, "{args:?}: {}", ran.err);
        assert!(ran.err.len() < 300, "{args:?}: {} bytes", ran.err.len());
    }
    let ran = trace_tool(&["trace", "inspect", &garbage, "--limit", "many"]);
    assert!(!ran.ok);
    assert!(
        ran.err
            .starts_with("trace-tool: --limit: not a valid number: many\n\nusage: trace-tool"),
        "{}",
        ran.err
    );
}

#[test]
fn synth_stats_replay_round_trip_and_sharded_replay_prints_the_serial_table() {
    let dir = Scratch::new("round-trip");
    let csv = dir.trace();
    let stats = ok(&["stats", &csv]);
    assert!(
        stats.contains("flows"),
        "stats summarises the trace:\n{stats}"
    );
    // Epoch batching is on by default, so `--shards 2` exercises the
    // one-crossing-per-window driver; its stdout must match the serial
    // replay byte for byte (the engine counters go to stderr for exactly
    // this reason).
    let serial = trace_tool(&["replay", &csv, "--scheme", "bfc"]);
    assert!(
        serial.ok && serial.out.starts_with("replayed "),
        "{}",
        serial.err
    );
    assert!(serial.err.starts_with("engine[BFC]: "), "{}", serial.err);
    let sharded = trace_tool(&["replay", &csv, "--scheme", "bfc", "--shards", "2"]);
    assert!(sharded.ok, "{}", sharded.err);
    assert_eq!(sharded.out, serial.out);
    // Each worker thread's busy / barrier-wait split follows the counters;
    // one worker crosses no barrier, so the serial run has none to print.
    assert!(!serial.err.contains("shards["), "{}", serial.err);
    let walls = sharded
        .err
        .lines()
        .find(|l| l.starts_with("shards[BFC]: 0: busy "))
        .unwrap_or_else(|| panic!("no per-shard line in:\n{}", sharded.err));
    assert!(
        walls.contains(" ms wait ")
            && walls.contains(" %) parked ")
            && walls.contains(" · 1: busy "),
        "{walls}"
    );
}

#[test]
fn scenarios_run_synthetic_and_replayed_and_the_lineup_stays_violation_free() {
    let dir = Scratch::new("scenario");
    let (csv, scenario) = (dir.trace(), dir.scenario());
    let synthetic = ok(&[
        "scenario",
        &scenario,
        "--scheme",
        "bfc",
        "--duration-us",
        "120",
        "--seed",
        "7",
    ]);
    assert!(
        synthetic.contains("6 fault events over `tiny`"),
        "{synthetic}"
    );
    let replayed = ok(&[
        "scenario",
        &scenario,
        "--trace",
        &csv,
        "--scheme",
        "dcqcn-win",
        "--seed",
        "7",
    ]);
    assert!(replayed.contains("safety[DCQCN+Win]: "), "{replayed}");
    // One safety line per scheme of the paper lineup, none a violation (the
    // constructed-positive direction is covered by bfc-metrics' unit tests).
    let lineup = ok(&[
        "scenario",
        &scenario,
        "--scheme",
        "lineup",
        "--duration-us",
        "120",
        "--seed",
        "7",
    ]);
    assert_eq!(
        lineup.lines().filter(|l| l.starts_with("safety[")).count(),
        6,
        "{lineup}"
    );
    assert!(!lineup.contains("VIOLATION"), "{lineup}");
}

/// `(indent, key, kind)` of every member of a JSON document in the layout
/// `scenario --json` writes — one member per line, two spaces per level —
/// with brackets checked for balance. Not a JSON parser: the layout is part
/// of what is pinned.
fn json_members(doc: &str) -> Vec<(usize, String, &'static str)> {
    let mut members = Vec::new();
    let mut open = Vec::new();
    for line in doc.lines() {
        let text = line.trim_start();
        let indent = line.len() - text.len();
        let value = match text.strip_prefix('"') {
            Some(rest) => {
                let (key, value) = rest.split_once("\": ").expect("a member line");
                let value = value.trim_end_matches(',');
                let kind = match value {
                    "{" => "object",
                    "[" => "array",
                    "null" => "null",
                    "true" | "false" => "bool",
                    v if v.len() >= 2 && v.starts_with('"') && v.ends_with('"') => "string",
                    v if v.parse::<f64>().is_ok_and(f64::is_finite) => "number",
                    v => panic!("`{key}` holds `{v}`, which is no JSON value"),
                };
                members.push((indent, key.to_string(), kind));
                value
            }
            None => text.trim_end_matches(','),
        };
        match value {
            "{" | "[" => open.push((indent, value)),
            "}" => assert_eq!(open.pop(), Some((indent, "{")), "unbalanced: {line}"),
            "]" => assert_eq!(open.pop(), Some((indent, "[")), "unbalanced: {line}"),
            _ => assert!(text.starts_with('"'), "stray line: {line}"),
        }
    }
    assert!(open.is_empty(), "unclosed: {open:?}");
    members
}

#[test]
fn the_scenario_json_schema_is_versioned_and_pinned() {
    // A committed reproducer that carries its own topology, scheme, workload
    // and faults, and recovers without a measurable dip: `time_to_recover_us`
    // is the document's `null`.
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/scenarios/worst_recovery_dcqcn_win_tiny.scn"
    );
    let doc = ok(&["scenario", scenario, "--json"]);
    assert!(
        doc.starts_with("{\n  \"schema\": \"bfc-scenario/v1\",\n"),
        "{doc}"
    );
    // Key set, order, nesting and value kinds of bfc-scenario/v1. A change
    // here is a change of schema: bump the version with it.
    let schema: [(usize, &str, &str); 26] = [
        (2, "schema", "string"),
        (2, "scenario", "string"),
        (2, "topology", "string"),
        (2, "flows", "number"),
        (2, "fault_events", "number"),
        (2, "results", "array"),
        (6, "scheme", "string"),
        (6, "completed", "number"),
        (6, "total", "number"),
        (6, "p99_slowdown", "number|null"),
        (6, "utilization", "number"),
        (6, "drops", "number"),
        (6, "recovery", "object"),
        (8, "blackholed_packets", "number"),
        (8, "reroutes", "number"),
        (8, "faults", "number"),
        (8, "time_to_recover_us", "number|null"),
        (8, "goodput_dip_depth", "number"),
        (6, "safety", "object"),
        (8, "pause_frames", "number"),
        (8, "max_pause_depth", "number"),
        (8, "max_link_window_frames", "number"),
        (8, "cycles_formed", "number"),
        (8, "deadlocks", "number"),
        (8, "livelock", "bool"),
        (8, "violations", "number"),
    ];
    let members = json_members(&doc);
    assert_eq!(members.len(), schema.len(), "{doc}");
    for ((indent, key, kind), (want_indent, want_key, kinds)) in members.iter().zip(schema) {
        assert_eq!((*indent, key.as_str()), (want_indent, want_key), "{doc}");
        assert!(kinds.split('|').any(|k| k == *kind), "`{key}` is a {kind}");
    }
    let kind_of = |key: &str| members.iter().find(|m| m.1 == key).map(|m| m.2);
    assert_eq!(kind_of("time_to_recover_us"), Some("null"), "{doc}");
    assert_eq!(kind_of("p99_slowdown"), Some("number"), "{doc}");
}

#[test]
fn the_shard_count_changes_no_figure() {
    // Results are bit-identical at any shard count, so a byte-level diff of
    // a figure is a cheap end-to-end witness of `--shards` reaching the
    // engine through `fig` and changing nothing it prints.
    let serial = drive(cli::fig, &["05"]);
    assert!(serial.ok && !serial.out.is_empty(), "{}", serial.err);
    let sharded = drive(cli::fig, &["05", "--shards", "2"]);
    assert!(sharded.ok, "{}", sharded.err);
    assert!(sharded.out == serial.out, "--shards 2 changed fig 05");
}

/// `fig 01` is static data, so it runs instantly: its stdout pins the
/// results-table layout byte for byte (column widths from the widest entry,
/// numbers right-aligned, two spaces between columns, a blank line after).
#[test]
fn fig_01_prints_its_table_byte_for_byte() {
    let ran = drive(cli::fig, &["01"]);
    assert!(ran.ok && ran.err.is_empty(), "{}", ran.err);
    assert_eq!(
        ran.out,
        "Fig 1: switch capacity vs buffer (Broadcom)\n\
         chip       year  capacity(Tbps)  buffer(MB)  buffer/capacity(us)\n\
         Trident2   2012            1.28        12.0                 75.0\n\
         Tomahawk   2014            3.20        16.0                 40.0\n\
         Tomahawk2  2016            6.40        42.0                 52.5\n\
         Tomahawk3  2018           12.80        64.0                 40.0\n\n"
    );
}

#[test]
fn fixed_seed_fuzz_writes_the_same_reproducer_twice_and_replays_it() {
    let dir = Scratch::new("fuzz");
    let (a, b) = (dir.path("a.scn"), dir.path("b.scn"));
    let search = [
        "--seed",
        "3",
        "--budget",
        "6",
        "--shrink-evals",
        "8",
        "--objective",
        "dip",
    ];
    let first = ok(&[&["fuzz", "--out", &a, "--replay"][..], &search[..]].concat());
    assert!(
        first.contains(&format!("replayed from {a}:")) && first.contains("safety[BFC]: "),
        "{first}"
    );
    // Same seed and budget, evaluated on two shards: same bytes out.
    ok(&[&["fuzz", "--out", &b, "--shards", "2"][..], &search[..]].concat());
    let read = |path: &str| std::fs::read(path).expect("reproducer written");
    assert!(
        read(&a) == read(&b),
        "same-seed fuzz runs wrote different reproducers"
    );
}

#[test]
fn a_malformed_csv_fails_every_trace_consuming_command_naming_the_line() {
    let dir = Scratch::new("bad-csv");
    // Line 3 holds a bare-trailing-dot start_ns.
    let bad = dir.path("bad.csv");
    std::fs::write(
        &bad,
        "src,dst,size_bytes,start_ns,is_incast\n0,1,100,2,0\n1,2,300,5.,0\n",
    )
    .expect("write csv");
    let (snap, missing, scenario) = (dir.path("bad.snap"), dir.path("no.snap"), dir.scenario());
    for args in [
        &["stats", &bad][..],
        &["replay", &bad, "--scheme", "bfc"][..],
        &["snapshot", &bad, "--at-us", "10", "--out", &snap][..],
        &["resume", &bad, "--snapshot", &missing][..],
        &["scenario", &scenario, "--trace", &bad, "--scheme", "bfc"][..],
    ] {
        let ran = trace_tool(args);
        assert!(!ran.ok, "{args:?} accepted a malformed trace");
        let first = ran.err.lines().next().unwrap_or_default();
        assert!(
            first.contains("line 3"),
            "{args:?} did not name the bad line: {first}"
        );
    }
    assert!(
        !Path::new(&snap).exists(),
        "no snapshot of a trace that did not parse"
    );
}

#[test]
fn a_resumed_snapshot_prints_the_uninterrupted_replays_table() {
    let dir = Scratch::new("resume");
    let csv = dir.trace();
    let replay = ok(&["replay", &csv, "--scheme", "bfc"]);
    // A cut is a time at any shard count: the 2-shard snapshot is taken at
    // an instant that is no multiple of the fabric's 1 µs epoch lookahead.
    for (shards, at_us) in [("1", "60"), ("2", "60.37")] {
        let snap = dir.path(&format!("run-{shards}.snap"));
        let cut = ok(&[
            "snapshot", &csv, "--at-us", at_us, "--out", &snap, "--shards", shards,
        ]);
        assert!(cut.contains(&format!("{shards} shard")), "{cut}");
        let resumed = ok(&["resume", &csv, "--snapshot", &snap]);
        assert!(resumed.starts_with("resumed "));
        assert_eq!(
            below_banner(&resumed),
            below_banner(&replay),
            "{shards}-shard cut at {at_us} µs"
        );
    }
}

#[test]
fn serve_streams_a_tailed_csv_to_completion() {
    let dir = Scratch::new("serve");
    let csv = dir.trace();
    let served = ok(&[
        "serve",
        "--tail",
        &csv,
        "--cap",
        "16",
        "--horizon-us",
        "120",
        "--seed",
        "7",
    ]);
    assert!(served
        .starts_with("served 433 flows (horizon 120.000us) over `tiny` under inflight cap 16\n"));
    assert!(
        served.contains("433/433"),
        "every flow completes:\n{served}"
    );
}

#[test]
fn the_flight_recorder_pipeline_records_inspects_filters_and_ranks() {
    let dir = Scratch::new("flight");
    let (csv, flight) = (dir.trace(), dir.path("run.flight"));
    let recorded = ok(&[
        "trace", "record", &csv, "--out", &flight, "--last", "500000", "--scheme", "bfc",
    ]);
    assert!(
        recorded.contains("(0 shed by the ring of 500000)"),
        "{recorded}"
    );
    let inspect = ok(&["trace", "inspect", &flight, "--limit", "5"]);
    assert!(
        inspect.contains("\nrecords: ") && inspect.contains("\n  enqueue "),
        "{inspect}"
    );
    assert!(inspect.contains("\nlast 5 records ("), "{inspect}");
    let stats = ok(&["trace", "inspect", &flight, "--stats"]);
    assert!(
        stats.contains("\n  enqueue ") && !stats.contains("records ("),
        "kind counts only:\n{stats}"
    );
    let filtered = ok(&[
        "trace", "filter", &flight, "--kind", "dequeue", "--limit", "3",
    ]);
    assert!(
        filtered.contains("records match (showing the last 3;"),
        "{filtered}"
    );
    assert_eq!(filtered.lines().count(), 4, "{filtered}");
    assert!(!ok(&["trace", "top", &flight, "--n", "5"]).is_empty());
    assert!(!ok(&["trace", "top", &flight, "--tree"]).is_empty());
}

#[test]
fn same_run_traces_diff_empty_at_any_shard_count() {
    let dir = Scratch::new("self-diff");
    let (csv, base) = (dir.trace(), dir.path("base.flight"));
    ok(&[
        "trace", "record", &csv, "--out", &base, "--last", "300000", "--scheme", "bfc",
    ]);
    // Ring capacity is per shard, so cross-shard-count trace identity needs
    // rings sized so nothing is shed: halve --last as the shard count doubles.
    for shards in [1, 2, 4] {
        let other = dir.path(&format!("shards-{shards}.flight"));
        let (last, shards) = ((300_000 / shards).to_string(), shards.to_string());
        ok(&[
            "trace", "record", &csv, "--out", &other, "--last", &last, "--scheme", "bfc",
            "--shards", &shards,
        ]);
        let diff = trace_tool(&["trace", "diff", &base, &other]);
        assert!(
            diff.ok && diff.out.is_empty(),
            "{shards} shard(s):\n{}",
            diff.out
        );
    }
}

#[test]
fn diffing_two_schemes_fails_and_names_the_first_diverging_record() {
    let dir = Scratch::new("diff-schemes");
    let scenario = dir.scenario();
    let ran = trace_tool(&[
        "scenario",
        &scenario,
        "--diff-schemes",
        "bfc,dcqcn",
        "--duration-us",
        "60",
        "--load",
        "0.3",
    ]);
    assert!(!ran.ok, "BFC and DCQCN cannot produce the same trace");
    assert!(
        ran.out.contains("\nfirst divergence at canonical record "),
        "{}",
        ran.out
    );
    // The divergence is the command's result, not a usage error.
    assert!(!ran.err.contains("usage:"), "{}", ran.err);
    let same = trace_tool(&[
        "scenario",
        &scenario,
        "--diff-schemes",
        "bfc,bfc",
        "--duration-us",
        "60",
    ]);
    assert!(
        same.ok && !same.out.contains("first divergence"),
        "{}",
        same.out
    );
}

/// A reader that went away after `lines` lines (`trace-tool help | head -1`).
struct ClosedPipe {
    lines: usize,
}

impl Write for ClosedPipe {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.lines == 0 {
            return Err(ErrorKind::BrokenPipe.into());
        }
        let newlines = buf.iter().filter(|&&b| b == b'\n').count();
        self.lines = self.lines.saturating_sub(newlines);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_closed_pipe_changes_no_exit_code_and_panics_nowhere() {
    let dir = Scratch::new("pipe");
    let csv = dir.trace();
    let run = |tool: fn(&[String], &mut Io<'_>) -> ExitCode, args: &[&str]| {
        let (mut out, mut err) = (ClosedPipe { lines: 1 }, ClosedPipe { lines: 1 });
        succeeded(tool(
            &words(args),
            &mut Io {
                out: &mut out,
                err: &mut err,
            },
        ))
    };
    assert!(run(cli::trace_tool, &["help"]));
    assert!(run(cli::trace_tool, &["stats", &csv]));
    assert!(run(cli::trace_tool, &["replay", &csv, "--scheme", "bfc"]));
    assert!(
        !run(cli::trace_tool, &["frobnicate"]),
        "the usage goes to a closed stderr"
    );
    assert!(run(cli::fig, &["01"]));
    assert!(!run(cli::fig, &["99"]));
}

#[test]
fn an_unbounded_horizon_is_refused_on_every_outside_surface() {
    let dir = Scratch::new("horizon");
    let (csv, scenario, out) = (dir.trace(), dir.scenario(), dir.path("never.csv"));
    let late = dir.path("late.csv");
    std::fs::write(
        &late,
        "src,dst,size_bytes,start_ns,is_incast\n0,1,100,0,0\n1,2,300,9000000000000000,0\n",
    )
    .expect("write csv");
    let scn = dir.path("long.scn");
    let committed = std::fs::read_to_string("tests/scenarios/pfc_livelock_dcqcn_tiny.scn")
        .expect("committed reproducer");
    let edited: Vec<&str> = committed
        .lines()
        .map(|l| {
            if l.starts_with("duration-us ") {
                "duration-us 9000000000000"
            } else {
                l
            }
        })
        .collect();
    assert!(edited.contains(&"duration-us 9000000000000"));
    std::fs::write(&scn, edited.join("\n")).expect("write reproducer");

    let started = Instant::now();
    for args in [
        &["replay", &late][..],
        &[
            "serve",
            "--tail",
            &csv,
            "--horizon-us",
            "18446744073709551615",
        ][..],
        &["synth", "--out", &out, "--duration-us", "18446744073709551"][..],
        &["scenario", &scenario, "--duration-us", "18446744073709551"][..],
        &["scenario", &scn][..],
    ] {
        let ran = trace_tool(args);
        assert!(!ran.ok && ran.out.is_empty(), "{args:?} must be refused");
        let first = ran.err.lines().next().unwrap_or_default();
        assert!(
            first.contains("the limit of 10000000.000us"),
            "{args:?}: {first}"
        );
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a refusal must not simulate first"
    );
    assert!(!Path::new(&out).exists());
    // The same helper keeps the flags' older check.
    assert!(trace_tool(&["serve", "--tail", &csv, "--horizon-us", "0"])
        .err
        .contains("must be positive"));
}

/// Trace inputs `synthesize` would panic on, not finish with, abort the
/// process allocating for, or silently run as another trace are one error
/// line, from `synth`'s options and from a `.scn` reproducer's headers alike.
#[test]
fn bad_trace_inputs_are_refused_before_anything_is_synthesized() {
    let dir = Scratch::new("trace-inputs");
    let (out, scn) = (dir.path("never.csv"), dir.path("bad.scn"));
    let committed = std::fs::read_to_string("tests/scenarios/pfc_livelock_dcqcn_tiny.scn")
        .expect("committed reproducer");
    assert!(
        committed.lines().any(|l| l.starts_with("incast-load 0.4")),
        "incast is on"
    );
    let refused = |args: &[&str]| {
        let ran = trace_tool(args);
        assert!(!ran.ok && ran.out.is_empty(), "{args:?} must be refused");
        let ours: Vec<&str> = ran
            .err
            .lines()
            .filter(|l| l.starts_with("trace-tool:"))
            .collect();
        assert_eq!(ours.len(), 1, "{args:?}: {}", ran.err);
        assert!(!ran.err.contains("panicked"), "{args:?}: {}", ran.err);
        ours[0].to_string()
    };
    let started = Instant::now();
    for (key, value, names) in [
        ("load", "2", "load"),
        ("load", "nan", "load"),
        ("incast-bytes", "1", "incast-bytes"),
        ("fan-in", "100000000000", "fan-in"),
        ("fan-in", "0", "fan-in"),
    ] {
        let edited: String = committed
            .lines()
            .map(|l| match l.split_once(' ') {
                Some((k, _)) if k == key => format!("{key} {value}\n"),
                _ => format!("{l}\n"),
            })
            .collect();
        assert!(edited.contains(&format!("\n{key} {value}\n")));
        std::fs::write(&scn, edited).expect("write reproducer");
        let line = refused(&["scenario", &scn]);
        assert!(
            line.contains(&format!(": {names} must be")),
            "{key} {value}: {line}"
        );
    }
    let line = refused(&[
        "synth",
        "--out",
        &out,
        "--fan-in",
        "0",
        "--incast-load",
        "0.5",
    ]);
    assert!(
        line.starts_with("trace-tool: synth: fan-in must be"),
        "{line}"
    );
    // Inputs each in range whose product is not: 45 000 incast events of
    // 10 000 senders, or 10 s of 1.5 × the tiny topology's capacity in
    // Google flows — about 4.5e8 and 8e7 flows, each an allocation that
    // aborts the process.
    let flood = [
        ("incast-load", "1.5"),
        ("incast-bytes", "1000"),
        ("fan-in", "10000"),
        ("duration-us", "300"),
    ];
    let flags: Vec<String> = flood
        .iter()
        .flat_map(|(k, v)| [format!("--{k}"), v.to_string()])
        .collect();
    let mut synth = vec!["synth", "--out", &out, "--topo", "tiny"];
    synth.extend(flags.iter().map(String::as_str));
    for args in [
        &synth[..],
        &[
            "synth",
            "--out",
            &out,
            "--topo",
            "tiny",
            "--load",
            "1.5",
            "--incast-load",
            "0",
            "--duration-us",
            "10000000",
        ][..],
    ] {
        let line = refused(args);
        assert!(
            line.starts_with("trace-tool: synth: load, incast-load") && line.contains("flows"),
            "{args:?}: {line}"
        );
    }
    let edited: String = committed
        .lines()
        .map(|l| {
            let key = l.split_once(' ').map_or(l, |(k, _)| k);
            match flood.iter().find(|(k, _)| *k == key) {
                Some((k, v)) => format!("{k} {v}\n"),
                None => format!("{l}\n"),
            }
        })
        .collect();
    std::fs::write(&scn, edited).expect("write reproducer");
    let line = refused(&["scenario", &scn]);
    assert!(
        line.contains(": load, incast-load") && line.contains("flows"),
        "{line}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a refusal must not synthesize first"
    );
    assert!(!Path::new(&out).exists());
}

/// A `.scn` fault directive can neither exhaust memory nor stop time: a flap
/// of a billion toggles, and a rate at which a packet would take no time on
/// the wire, are one error line each, before anything is expanded or run.
#[test]
fn unbounded_fault_directives_are_refused() {
    let dir = Scratch::new("fault-bounds");
    let scn = dir.path("fault.scn");
    let started = Instant::now();
    for (directive, says) in [
        (
            "flap tor0 spine0 from 1us every 1ns until 1s",
            "at most 1000 toggles",
        ),
        (
            "at 10us rate tor0 spine0 inf",
            "link rate must be in (0, 10000] Gbps, got inf",
        ),
        (
            "at 10us rate tor0 spine0 1e308",
            "link rate must be in (0, 10000] Gbps",
        ),
    ] {
        std::fs::write(&scn, format!("{directive}\n")).expect("write scenario");
        let ran = trace_tool(&["scenario", &scn]);
        assert!(!ran.ok && ran.out.is_empty(), "{directive} must be refused");
        assert!(!ran.err.contains("panicked"), "{directive}: {}", ran.err);
        let ours: Vec<&str> = ran
            .err
            .lines()
            .filter(|l| l.starts_with("trace-tool:"))
            .collect();
        assert_eq!(ours.len(), 1, "{directive}: {}", ran.err);
        assert!(ours[0].contains(says), "{directive}: {}", ours[0]);
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a refusal must not expand or simulate first"
    );
}

/// A rate fault degrades or restores a cable. Raising one above its native
/// rate would let a flow finish below its ideal FCT, which every run asserts
/// no flow does, so the directive is one error line, not a run that panics.
#[test]
fn a_rate_fault_above_the_cables_native_rate_is_refused() {
    let dir = Scratch::new("up-rate");
    let scn = dir.path("up.scn");
    std::fs::write(&scn, "at 0us rate tor0 spine0 400\n").expect("write scenario");
    let ran = trace_tool(&["scenario", &scn, "--duration-us", "50"]);
    assert!(!ran.ok && ran.out.is_empty(), "an up-rate must be refused");
    assert!(!ran.err.contains("panicked"), "{}", ran.err);
    let ours: Vec<&str> = ran
        .err
        .lines()
        .filter(|l| l.starts_with("trace-tool:"))
        .collect();
    assert_eq!(ours.len(), 1, "{}", ran.err);
    assert!(
        ours[0].contains("400 Gbps is above the 100 Gbps native rate"),
        "{}",
        ours[0]
    );
}

#[test]
fn an_unbounded_drain_is_refused_by_every_command_that_takes_the_flag() {
    let dir = Scratch::new("drain");
    let (csv, scenario, out) = (dir.trace(), dir.scenario(), dir.path("never.flight"));
    // A faulted run samples through its drain, one tick scheduled up front
    // per interval: a saturated `horizon x 2^64` used to spin in the
    // allocator until killed. The second value overflows nothing; it is
    // merely one multiple past the 40 s a default run may drain.
    let started = Instant::now();
    for drain_x in ["18446744073709551615", "400001"] {
        for args in [
            &[
                "scenario",
                &scenario,
                "--scheme",
                "bfc",
                "--duration-us",
                "100",
                "--drain-x",
                drain_x,
            ][..],
            &["replay", &csv, "--drain-x", drain_x][..],
            &["trace", "record", &csv, "--out", &out, "--drain-x", drain_x][..],
        ] {
            let ran = trace_tool(args);
            assert!(!ran.ok && ran.out.is_empty(), "{args:?} must be refused");
            let first = ran.err.lines().next().unwrap_or_default();
            assert!(
                first.contains(&format!("--drain-x {drain_x}"))
                    && first.contains("the limit of 40000000.000us"),
                "{args:?}: {first}"
            );
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "a refusal must not simulate first"
    );
    assert!(!Path::new(&out).exists());
}

/// A trace line with no end is refused at the line cap by every command
/// that reads a trace file, with one short line: it is neither buffered to
/// the end of the file nor echoed back.
#[test]
fn every_trace_reader_refuses_a_line_past_the_cap() {
    let dir = Scratch::new("long-line");
    let csv = dir.path("endless.csv");
    let mut text = b"src,dst,size_bytes,start_ns,is_incast\n".to_vec();
    text.resize(text.len() + 64 * 1024 + 1, b'7');
    std::fs::write(&csv, text).expect("write csv");
    let (snap, missing, flight) = (
        dir.path("a.snap"),
        dir.path("no.snap"),
        dir.path("a.flight"),
    );
    let scenario = dir.scenario();
    for args in [
        &["stats", &csv][..],
        &["replay", &csv][..],
        &["snapshot", &csv, "--at-us", "10", "--out", &snap][..],
        &["resume", &csv, "--snapshot", &missing][..],
        &["scenario", &scenario, "--trace", &csv][..],
        &["trace", "record", &csv, "--out", &flight][..],
        &["serve", "--tail", &csv][..],
    ] {
        let ran = trace_tool(args);
        assert!(
            !ran.ok && ran.out.is_empty(),
            "{args:?} accepted an endless line"
        );
        assert!(
            ran.err.len() < 16 * 1024,
            "{args:?} wrote {} bytes of stderr",
            ran.err.len()
        );
        let first = ran.err.lines().next().unwrap_or_default();
        assert!(
            first.starts_with("trace-tool: ")
                && first.ends_with("line 2: line is longer than 65536 bytes"),
            "{args:?}: {first}"
        );
    }
}

/// A streamed flow whose endpoint is a switch, or no node at all, is refused
/// with the line `replay` answers the same row with, not a panic.
#[test]
fn serve_refuses_a_flow_whose_endpoint_is_not_a_host() {
    let dir = Scratch::new("not-a-host");
    let csv = dir.path("flows.csv");
    // The tiny fat-tree (the default topology) has hosts 0–7 and switches 8–11.
    for (row, node) in [("0,8,1000,10,0", 8), ("0,16,1000,10,0", 16)] {
        std::fs::write(
            &csv,
            format!("src,dst,size_bytes,start_ns,is_incast\n{row}\n"),
        )
        .expect("write csv");
        let message = format!("flow 0 uses NodeId({node}), which is not a host of the topology");
        let served = trace_tool(&["serve", "--tail", &csv]);
        assert!(!served.ok && served.out.is_empty(), "{row} must be refused");
        let ours: Vec<&str> = served
            .err
            .lines()
            .filter(|l| l.starts_with("trace-tool:"))
            .collect();
        assert_eq!(ours, [format!("trace-tool: serve: {message}")]);
        let replayed = trace_tool(&["replay", &csv]);
        assert!(!replayed.ok);
        assert!(replayed.err.contains(&message), "{}", replayed.err);
    }
}

/// A stderr several threads can read while a command writes it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn text(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().expect("no writer panics")).into_owned()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("no reader panics")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One scrape connection: every render ends with a `# EOF` line.
struct Scraper(BufReader<TcpStream>);

impl Scraper {
    fn connect(addr: &str) -> Scraper {
        let conn = TcpStream::connect(addr).expect("the metrics listener accepts");
        conn.set_read_timeout(Some(Duration::from_secs(20)))
            .expect("set timeout");
        Scraper(BufReader::new(conn))
    }

    /// The next render, or `None` if the server closed the connection.
    fn read(&mut self) -> Option<String> {
        let mut text = String::new();
        loop {
            let mut line = String::new();
            if self
                .0
                .read_line(&mut line)
                .expect("scrape within the timeout")
                == 0
            {
                return None;
            }
            if line == "# EOF\n" {
                return Some(text);
            }
            text.push_str(&line);
        }
    }

    /// Asks for a fresh render over the same connection.
    fn again(&mut self) -> Option<String> {
        self.0.get_mut().write_all(b"\n").expect("request a scrape");
        self.read()
    }
}

#[test]
fn the_scrape_socket_serves_persistent_connections_up_to_its_cap_without_touching_the_run() {
    let dir = Scratch::new("scrape");
    let csv = dir.path("long.csv");
    // `--cap 4` keeps the inflight window far below the flow count, so the
    // sim advances between admissions and the live render carries real series.
    ok(&[
        "synth",
        "--out",
        &csv,
        "--duration-us",
        "1000",
        "--seed",
        "7",
    ]);
    let flows = std::fs::read_to_string(&csv)
        .expect("trace written")
        .lines()
        .count()
        - 1;
    let run = ["--cap", "4", "--horizon-us", "1000", "--seed", "7"];
    let unscraped = ok(&[&["serve", "--tail", &csv][..], &run[..]].concat());

    // The scraped run follows its CSV: once every flow is admitted it waits
    // for the end marker appended below, so the scrapes land on a live
    // server however fast the run is. Port 0 lets the OS pick; the bound
    // address is announced on stderr.
    let stderr = SharedBuf::default();
    let serve = {
        let args = words(
            &[
                &[
                    "serve",
                    "--tail",
                    &csv,
                    "--follow",
                    "--metrics",
                    "127.0.0.1:0",
                ][..],
                &run[..],
            ]
            .concat(),
        );
        let mut err = stderr.clone();
        std::thread::spawn(move || {
            let mut out = Vec::new();
            let code = cli::trace_tool(
                &args,
                &mut Io {
                    out: &mut out,
                    err: &mut err,
                },
            );
            (
                succeeded(code),
                String::from_utf8(out).expect("stdout is UTF-8"),
            )
        })
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        let text = stderr.text();
        if let Some(rest) = text.strip_prefix("metrics listening on ") {
            if let Some((addr, _)) = rest.split_once('\n') {
                break addr.to_string();
            }
        }
        assert!(
            !serve.is_finished() && Instant::now() < deadline,
            "no listener announced: {text}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };

    // Scrape over one connection until the run has admitted every flow and
    // is waiting on its source: from then on the render is stable.
    let mut first = Scraper::connect(&addr);
    let mut scrape = first.read().expect("a render on connect");
    let settled = format!("\nbfc_flows_admitted {flows}\n");
    while !scrape.contains(&settled) {
        assert!(
            Instant::now() < deadline,
            "the run never admitted all {flows} flows:\n{scrape}"
        );
        std::thread::sleep(Duration::from_millis(5));
        scrape = first.again().expect("a render per request line");
    }
    assert_eq!(
        first.again().as_deref(),
        Some(scrape.as_str()),
        "a settled run renders the same text"
    );

    // Well-formed exposition with the native histogram series.
    assert!(scrape.starts_with("# TYPE bfc_"), "{scrape}");
    let sample = scrape
        .lines()
        .find(|l| l.starts_with("bfc_switch_rx_packets{"))
        .expect("a labelled counter");
    assert!(
        sample
            .rsplit(' ')
            .next()
            .is_some_and(|v| v.parse::<u64>().is_ok()),
        "{sample}"
    );
    for series in [
        "\n# TYPE bfc_switch_queue_depth_bytes histogram\n",
        "_bucket{",
        "le=\"+Inf\"",
        "\nbfc_switch_queue_depth_bytes_count{",
    ] {
        assert!(scrape.contains(series), "live scrape is missing {series:?}");
    }

    // The connection cap (`MAX_SCRAPE_CONNECTIONS`): with the first still
    // open, seven more are served and the ninth is closed at accept — end of
    // input before a single byte.
    let mut held: Vec<Scraper> = (2..=8).map(|_| Scraper::connect(&addr)).collect();
    for (i, conn) in held.iter_mut().enumerate() {
        let text = conn
            .read()
            .unwrap_or_else(|| panic!("connection {} of 8 was closed", i + 2));
        assert!(
            text.starts_with("# TYPE bfc_"),
            "connection {} of 8 got no exposition",
            i + 2
        );
    }
    let mut ninth = Scraper::connect(&addr);
    let mut bytes = Vec::new();
    ninth
        .0
        .read_to_end(&mut bytes)
        .expect("the ninth connection ends cleanly");
    assert!(
        bytes.is_empty(),
        "the ninth connection was served: the cap of 8 does not hold"
    );
    drop((first, held, ninth));

    // End the followed stream; the run drains and prints its results.
    let mut file = std::fs::OpenOptions::new()
        .append(true)
        .open(&csv)
        .expect("reopen the trace");
    file.write_all(b"#end\n").expect("append the end marker");
    let (ok, scraped) = serve.join().expect("serve does not panic");
    assert!(ok, "{}", stderr.text());
    assert_eq!(scraped, unscraped, "scraping changed the run");
}
