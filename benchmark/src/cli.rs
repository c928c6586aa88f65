//! The command line: one workload in this process, or — without
//! `--workload` — every workload, each in a process of its own.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use crate::json::Json;
use crate::names::{END_TO_END, RUN_SECONDS};
use crate::run::{timed_run, Opts, Outcome};
use crate::traced::traced_run;
use crate::workload::Workload;

pub const USAGE: &str = "\
usage: benchmark/run.sh [--workload NAME] [--seed N] [--seconds N] [--trace 0|1 | --traced]
                        [--quick] [--selfcheck] [--out DIR]

  --workload NAME  lineup_t2 | incast_t1 | incast_t1_shard2 | service_t2
                   (default: all four, each in its own process)
  --seed N         seed of the synthesized trace (default 42)
  --seconds N      length of the timed window (default: BENCHMARK.json's run_seconds)
  --trace 1        the traced run: per-layer metrics and a span file (--traced is the same)
  --quick          3 reps, kernels at 1/10 size, every check; prints no result line
  --selfcheck      two complete sets back to back, compared against the bounds
  --out DIR        where span files and the service CSV go (default benchmark/out)";

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub quick: bool,
    pub selfcheck: bool,
    pub out_dir: PathBuf,
}

/// Parses the arguments after the program name. `Ok(None)` is `--help`.
pub fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut parsed = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS,
        traced: false,
        quick: false,
        selfcheck: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} requires {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload: {name}"))?);
            }
            "--seed" => {
                let v = value("a number")?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed: not a number: {v}"))?;
            }
            "--seconds" => {
                let v = value("a number")?;
                parsed.seconds = match v.parse() {
                    Ok(s) if (1..=3600).contains(&s) => s,
                    _ => return Err(format!("--seconds: not a number from 1 to 3600: {v}")),
                };
            }
            "--trace" => {
                parsed.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace: expected 0 or 1, got {v}")),
                };
            }
            "--traced" => parsed.traced = true,
            "--quick" => parsed.quick = true,
            "--selfcheck" => parsed.selfcheck = true,
            "--out" => parsed.out_dir = PathBuf::from(value("a directory")?),
            "--help" | "-h" => return Ok(None),
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    if parsed.selfcheck && (parsed.quick || parsed.traced) {
        return Err(
            "--selfcheck compares timed runs: it excludes --quick and --trace 1".to_string(),
        );
    }
    Ok(Some(parsed))
}

/// The line the pipeline reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value and unit.
pub fn result_line(outcome: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(outcome.checks.failed() == 0)),
        ("attempted", Json::Int(outcome.checks.attempted)),
        ("failed", Json::Int(outcome.checks.failed())),
        (
            "metrics",
            Json::obj(outcome.metrics.iter().map(|&(name, unit, value)| {
                let metric = Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str(unit.to_string())),
                ]);
                (name, metric)
            })),
        ),
    ])
}

/// Runs one workload in this process and prints its result line last.
fn run_child(args: &Args, workload: Workload) -> Result<bool, String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let opts = Opts {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        quick: args.quick,
        out_dir: args.out_dir.clone(),
    };
    let outcome = if args.traced {
        traced_run(&opts)
    } else {
        timed_run(&opts)
    }?;
    if let Some((name, _, value)) = outcome.metrics.iter().find(|m| !m.2.is_finite()) {
        return Err(format!("metric {name} is not a finite number: {value}"));
    }
    for failure in &outcome.checks.failures {
        println!("  FAILED check: {failure}");
    }
    println!(
        "  checks: {} attempted, {} failed",
        outcome.checks.attempted,
        outcome.checks.failed()
    );
    if args.quick {
        println!("quick: not comparable");
    } else {
        println!("{}", result_line(&outcome).render());
    }
    Ok(outcome.checks.failed() == 0)
}

/// One child's result: did it exit 0, and the result line it printed.
struct ChildResult {
    ok: bool,
    line: Option<Json>,
}

/// Runs one workload in a process of its own, echoing its output.
fn spawn_child(args: &Args, workload: Workload) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdout(Stdio::piped());
    if args.quick {
        command.arg("--quick");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("cannot start a child process: {e}"))?;
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("cannot read the child's output: {e}"))?;
        // The result line is for machines; everything else is echoed.
        if !line.starts_with('{') {
            println!("{line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("cannot wait for the child: {e}"))?;
    Ok(ChildResult {
        ok: status.success(),
        line: Json::parse(&last)
            .ok()
            .filter(|j| j.get("metrics").is_some()),
    })
}

/// Every workload, each in its own process.
fn run_set(args: &Args) -> Result<Vec<(Workload, ChildResult)>, String> {
    Workload::ALL
        .into_iter()
        .map(|workload| Ok((workload, spawn_child(args, workload)?)))
        .collect()
}

fn all_ok(set: &[(Workload, ChildResult)]) -> bool {
    set.iter().all(|(_, child)| child.ok)
}

fn metric_of(line: &Option<Json>, name: &str) -> Option<f64> {
    line.as_ref()?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

fn print_summary(set: &[(Workload, ChildResult)]) {
    println!("\nsummary (end-to-end, median over reps):");
    print!("  {:<18}", "workload");
    for (name, unit, _, _) in END_TO_END {
        print!(" {:>24}", format!("{name} [{unit}]"));
    }
    println!();
    for (workload, child) in set {
        print!("  {:<18}", workload.name());
        for (name, ..) in END_TO_END {
            match metric_of(&child.line, name) {
                Some(v) => print!(" {v:>24.4}"),
                None => print!(" {:>24}", "-"),
            }
        }
        println!();
    }
}

/// Two complete sets of timed runs of the same code: every workload ×
/// end-to-end metric must agree within its bound.
fn selfcheck(args: &Args) -> Result<bool, String> {
    println!("selfcheck: set A");
    let a = run_set(args)?;
    println!("selfcheck: set B");
    let b = run_set(args)?;
    let mut ok = all_ok(&a) && all_ok(&b);
    println!("\nselfcheck: set A vs set B (relative difference, bound)");
    for ((workload, child_a), (_, child_b)) in a.iter().zip(&b) {
        for (name, unit, _, bound) in END_TO_END {
            let (Some(va), Some(vb)) = (
                metric_of(&child_a.line, name),
                metric_of(&child_b.line, name),
            ) else {
                println!("  {:<18} {name:<16} missing", workload.name());
                ok = false;
                continue;
            };
            let diff = (vb - va) / va;
            let verdict = if diff.abs() <= bound {
                "ok"
            } else {
                "EXCEEDS BOUND"
            };
            ok &= diff.abs() <= bound;
            println!(
                "  {:<18} {name:<16} A {va:>16.4}  B {vb:>16.4} {unit:<6} diff {:>+8.4}  bound {bound:.2}  {verdict}",
                workload.name(),
                diff
            );
        }
    }
    Ok(ok)
}

/// The program: exit code 0 only if every check of every run passed.
pub fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let passed = if args.selfcheck {
        selfcheck(&args)
    } else if let Some(workload) = args.workload {
        run_child(&args, workload)
    } else {
        run_set(&args).map(|set| {
            if !args.quick && !args.traced {
                print_summary(&set);
            }
            all_ok(&set)
        })
    };
    match passed {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("benchmark: a check failed");
            ExitCode::FAILURE
        }
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Checks;

    fn parse(args: &[&str]) -> Result<Option<Args>, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_pipeline_command_line_parses() {
        let args = parse(&[
            "--workload",
            "incast_t1",
            "--seed",
            "7",
            "--seconds",
            "5",
            "--trace",
            "1",
        ])
        .unwrap()
        .unwrap();
        assert_eq!(args.workload, Some(Workload::IncastT1));
        assert_eq!((args.seed, args.seconds, args.traced), (7, 5, true));
        let defaults = parse(&[]).unwrap().unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.traced),
            (42, RUN_SECONDS, false)
        );
        assert_eq!(defaults.workload, None);
        assert!(parse(&["--traced"]).unwrap().unwrap().traced);
        assert_eq!(parse(&["--help"]), Ok(None));
    }

    #[test]
    fn bad_command_lines_are_errors() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload"],
            &["--frobnicate"],
            &["--seed", "x"],
            &["--seconds", "0"],
            &["--trace", "2"],
            &["--selfcheck", "--quick"],
            &["--selfcheck", "--trace", "1"],
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        checks.check(false, || "broken".to_string());
        let outcome = Outcome {
            metrics: vec![("pkt_hops_per_s", "1/s", 1234.5), ("setup_s", "s", 0.25)],
            checks,
        };
        let line = result_line(&outcome);
        let text = line.render();
        assert!(!text.contains('\n'));
        let back = Json::parse(&text).unwrap();
        let Json::Obj(members) = &back else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(back.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(back.get("attempted"), Some(&Json::Int(2)));
        assert_eq!(back.get("failed"), Some(&Json::Int(1)));
        assert_eq!(
            metric_of(&Some(back.clone()), "pkt_hops_per_s"),
            Some(1234.5)
        );
        let unit = back
            .get("metrics")
            .unwrap()
            .get("setup_s")
            .unwrap()
            .get("unit")
            .unwrap();
        assert_eq!(unit.as_str(), Some("s"));
    }
}
