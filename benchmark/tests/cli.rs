//! The binary's exit codes on bad input: each must fail fast with code 1 and
//! print no result line.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_bfc-benchmark"))
        .args(args)
        .output()
        .expect("the benchmark binary starts");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn unknown_workload_exits_1() {
    let (code, stdout, stderr) = run(&["--workload", "lineup_t9"]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("unknown workload: lineup_t9"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn unknown_flag_exits_1() {
    let (code, stdout, stderr) = run(&["--frobnicate"]);
    assert_eq!(code, Some(1));
    assert!(
        stderr.contains("unknown argument: --frobnicate"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(stdout.is_empty(), "{stdout}");
}

#[test]
fn unwritable_out_exits_1() {
    // A directory cannot be created below a regular file.
    let (code, stdout, stderr) = run(&[
        "--workload",
        "lineup_t2",
        "--quick",
        "--out",
        "/dev/null/out",
    ]);
    assert_eq!(code, Some(1));
    assert!(stderr.contains("cannot create /dev/null/out"), "{stderr}");
    assert!(!stdout.contains('{'), "{stdout}");
}

#[test]
fn help_exits_0() {
    let (code, stdout, _) = run(&["--help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("usage:"));
}
