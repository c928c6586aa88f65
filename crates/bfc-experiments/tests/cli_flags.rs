//! The gates that need a process of their own — a private environment or
//! working directory — so they spawn the binaries (everything else about the
//! command line is tested in-process, in the root `tests/cli.rs`).
//!
//! A bad `--shards` value is a usage error, not a crash: `fig` prints one
//! line on stderr, nothing on stdout, and exits 1 — never the panic exit
//! code 101 — and so does anything else it does not understand. A malformed
//! `BFC_THREADS` is reported once and ignored. A scenario run that convicts
//! its scheme dumps the flight trace into the working directory.

use std::process::{Command, Output};

fn fig(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig"))
        .args(args)
        .env_remove("BFC_THREADS")
        .envs(env.iter().copied())
        .output()
        .expect("fig runs")
}

fn fig05(args: &[&str], env: &[(&str, &str)]) -> Output {
    fig(&[&["05"], args].concat(), env)
}

#[test]
fn figure_binaries_reject_a_bad_shards_flag_without_panicking() {
    for (args, message) in [
        (
            &["--shards", "0"][..],
            "--shards requires a positive count, got 0",
        ),
        (&["--shards", "x"][..], "--shards: not a valid number: x"),
        (&["--shards"][..], "--shards requires a value"),
        // A typo'd `--full` must not print the quick-scale figure.
        (&["--ful"][..], "fig: unknown option --ful"),
        (&["extra"][..], "fig: unexpected argument extra"),
    ] {
        let out = fig05(args, &[]);
        assert_eq!(out.status.code(), Some(1), "{args:?}: exit code");
        assert_eq!(
            String::from_utf8_lossy(&out.stderr),
            format!("error: {message}\n"),
            "{args:?}: stderr"
        );
        assert!(out.stdout.is_empty(), "{args:?}: stdout must stay empty");
    }
}

#[test]
fn an_unknown_or_missing_figure_lists_the_fifteen() {
    for (args, message) in [
        (
            &["99"][..],
            "error: fig: no figure `99`; pick one by number, or `all`:\n",
        ),
        (
            &[][..],
            "error: fig: no figure given; pick one by number, or `all`:\n",
        ),
    ] {
        let out = fig(args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: exit code");
        assert!(out.stdout.is_empty(), "{args:?}: stdout must stay empty");
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
        let listed: Vec<&str> = stderr.lines().skip(1).map(|l| &l[..4]).collect();
        let numbers: Vec<String> = (1..=15).map(|n| format!("  {n:02}")).collect();
        assert_eq!(listed, numbers, "{args:?}: {stderr}");
    }
    let out = fig(&["01"], &[]);
    assert!(out.status.success() && out.stderr.is_empty());
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("Fig 1: "));
}

#[test]
fn a_malformed_environment_count_is_reported_once_and_ignored() {
    // `--shards 0` stops the binary right after the environment is read, so
    // this does not pay for a figure.
    let out = fig05(&["--shards", "0"], &[("BFC_THREADS", "0")]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let warnings: Vec<&str> = stderr
        .lines()
        .filter(|l| l.starts_with("warning: "))
        .collect();
    assert_eq!(warnings.len(), 1, "one warning, got {stderr:?}");
    assert!(
        warnings[0].contains("BFC_THREADS requires a positive count, got 0")
            && warnings[0].contains("using the default"),
        "{stderr}"
    );
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn a_safety_violation_dumps_a_readable_flight_trace_into_the_working_directory() {
    // The committed livelock reproducer carries its own topology, scheme and
    // workload; the run must convict it and auto-dump the flight trace, and
    // the dump must hold the PFC pause deliveries the wait-for analysis was
    // built from.
    let scenario = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/scenarios/pfc_livelock_dcqcn_tiny.scn"
    );
    let dir = std::env::temp_dir().join(format!("bfc-cli-flags-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the private working directory");
    let trace_tool = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_trace-tool"))
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("trace-tool runs")
    };
    let run = trace_tool(&["scenario", scenario, "--trace-cap", "500000"]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    assert!(
        String::from_utf8_lossy(&run.stdout).contains("VIOLATION"),
        "the scenario no longer convicts"
    );
    let dump = "pfc_livelock_dcqcn_tiny-dcqcn.flight";
    assert!(
        std::fs::metadata(dir.join(dump)).is_ok_and(|m| m.len() > 0),
        "no flight trace dumped: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    let inspect = trace_tool(&["trace", "inspect", dump, "--limit", "0"]);
    let listing = String::from_utf8_lossy(&inspect.stdout);
    assert!(
        inspect.status.success() && listing.contains("\n  pfc-delivered "),
        "{listing}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
