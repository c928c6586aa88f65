//! A bad `--shards` value is a usage error, not a crash: the figure binaries
//! print one line on stderr, nothing on stdout, and exit 1 — never the
//! panic exit code 101. A malformed `BFC_SHARDS` / `BFC_THREADS` is reported
//! once and ignored.

use std::process::{Command, Output};

fn fig05(args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fig05_main_fct"))
        .args(args)
        .env_remove("BFC_SHARDS")
        .env_remove("BFC_THREADS")
        .envs(env.iter().copied())
        .output()
        .expect("fig05_main_fct runs")
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
fn a_malformed_environment_count_is_reported_once_and_ignored() {
    // `--shards 0` stops the binary right after the environment is read, so
    // this does not pay for a figure.
    let env = [("BFC_SHARDS", "banana"), ("BFC_THREADS", "0")];
    let out = fig05(&["--shards", "0"], &env);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (name, value) in env {
        let warnings: Vec<&str> = stderr
            .lines()
            .filter(|l| l.starts_with("warning: ") && l.contains(name))
            .collect();
        assert_eq!(warnings.len(), 1, "{name}: one warning, got {stderr:?}");
        assert!(warnings[0].contains(value) && warnings[0].contains("using the default"));
    }
    assert_eq!(out.status.code(), Some(1));
}
