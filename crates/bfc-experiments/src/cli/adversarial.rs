//! `scenario` and `fuzz`: fault injection, safety reporting and the
//! worst-case search.

use std::process::ExitCode;

use bfc_net::trace::write_trace;
use bfc_workloads::{synthesize, TraceParams, Workload};

use super::args::{errln, outln};
use super::flight::print_trace_diff;
use super::{
    count, horizon_us, json_str, parse_schemes, print_engine_counters, print_results_table,
    run_config, runner_arg, scheme_arg, single, topo_arg, write_file, Args, Io, Outcome, Usage,
};
use crate::figures::failure_sweep;
use crate::fuzz::{fuzz, topology_by_name, FuzzConfig, Objective};
use crate::table::Cell;
use crate::{ExperimentConfig, ExperimentResult, ReplayTrace, Reproducer, ScenarioSpec, Scheme};

/// `--diff-schemes a,b`: exactly two single schemes.
fn diff_pair(spec: &str) -> Result<[Scheme; 2], Usage> {
    let one = |key: &str| {
        let parsed = parse_schemes(key)
            .ok_or_else(|| Usage(format!("--diff-schemes: unknown scheme {key}")))?;
        single(parsed).ok_or_else(|| {
            Usage("--diff-schemes: lineups are not allowed, name two schemes".into())
        })
    };
    match spec.split(',').collect::<Vec<_>>()[..] {
        [a, b] => Ok([one(a)?, one(b)?]),
        _ => Err(Usage(
            "scenario: --diff-schemes takes exactly two comma-separated schemes".into(),
        )),
    }
}

pub(super) fn cmd_scenario(args: &[String], io: &mut Io<'_>) -> Outcome {
    let mut args = Args::new("scenario", args);
    let json = args.switch("json");
    let runner = runner_arg(&mut args)?;
    let (topo, topo_name) = topo_arg(&mut args)?;
    let schemes = args.keyed("scheme", "scheme", parse_schemes, "lineup")?;
    let trace_path = args.text("trace")?;
    let diff_schemes = args.text("diff-schemes")?;
    let flight_path = args.text("flight")?;
    let trace_cap = args.positive("trace-cap", 65_536)?;
    let load = args.num("load", 0.6f64)?;
    let duration_us = args.num("duration-us", 300u64)?;
    let seed = args.num("seed", 1u64)?;
    let drain_x = args.num("drain-x", 4u64)?;
    let [path] = args.positional::<1>("one scenario path is")?;
    let duration = horizon_us("scenario: --duration-us", duration_us)?;
    let hosts = topo.hosts();
    let params = TraceParams {
        host_gbps: topo.host_uplink(hosts[0]).link.rate_gbps,
        ..TraceParams::background_only(Workload::Google, load, duration, seed)
    };
    params
        .check(hosts.len())
        .map_err(|e| Usage(format!("scenario: {e}")))?;
    let pair = diff_schemes.as_deref().map(diff_pair).transpose()?;

    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // A file whose first directive is an `objective` header is a committed
    // fuzz reproducer: it pins its own topology, scheme, workload and fault
    // schedule, so the scenario-building flags don't apply to it.
    let is_reproducer = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .is_some_and(|l| l.starts_with("objective "));

    // Tracing is always on in scenario runs: the ring is bounded, results
    // are bit-identical either way, and a VIOLATION verdict must be able to
    // dump the events leading up to it.
    let (topo, topo_name, flows, configs, run_seed) = if is_reproducer {
        let repro = Reproducer::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let (topo, flows, config) = repro.materialize().map_err(|e| format!("{path}: {e}"))?;
        let run_seed = config.seed;
        let config = config.with_trace_capacity(trace_cap);
        (topo, repro.topo, flows, vec![config], run_seed)
    } else {
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let schedule = spec.resolve(&topo).map_err(|e| format!("{path}: {e}"))?;
        let (flows, horizon) = match &trace_path {
            Some(csv) => {
                let replay = ReplayTrace::from_csv_path(csv).map_err(|e| format!("{csv}: {e}"))?;
                replay.validate(&topo).map_err(|e| format!("{csv}: {e}"))?;
                (replay.flows().to_vec(), replay.horizon())
            }
            None => (synthesize(&hosts, &params), duration),
        };
        let configs = schemes
            .into_iter()
            .map(|scheme| {
                Ok(run_config(scheme, horizon, seed, drain_x)?
                    .with_dynamics(schedule.clone())
                    .with_trace_capacity(trace_cap))
            })
            .collect::<Result<Vec<ExperimentConfig>, Usage>>()?;
        (topo, topo_name, flows, configs, seed)
    };
    // `--diff-schemes a,b`: same scenario, same inputs, two schemes — run
    // both traced (overriding even a reproducer's pinned scheme) and diff
    // the flight traces in memory at the end.
    let configs: Vec<ExperimentConfig> = match &pair {
        None => configs,
        Some(pair) => {
            let base = &configs[0];
            let with = |scheme: &Scheme| ExperimentConfig {
                scheme: scheme.clone(),
                ..base.clone()
            };
            pair.iter().map(with).collect()
        }
    };
    let fault_events = configs[0].dynamics.events().len();
    if flight_path.is_some() && configs.len() != 1 {
        let lineup = "scenario: --flight requires a single --scheme, not a lineup";
        return Err(Usage(lineup.into()).into());
    }
    let mut results = runner.run_experiments(&topo, &flows, &configs);

    // The scenario file's stem labels the rows; the table itself is the
    // failure-sweep figure's formatter, so the CLI and figure cannot drift.
    let label = std::path::Path::new(&path)
        .file_stem()
        .map_or("scenario".to_string(), |s| s.to_string_lossy().into_owned());

    // Flight dumps: explicit `--flight` always writes; otherwise a safety
    // VIOLATION auto-dumps the last trace events so the pause wait-for
    // chain leading into the deadlock/livelock stays inspectable.
    for r in &results {
        let violated = r.safety.violations() > 0;
        let out = match &flight_path {
            Some(out) => out.clone(),
            None if violated => format!("{label}-{}.flight", scheme_file_key(&r.scheme)),
            None => continue,
        };
        let flight = r
            .flight
            .as_ref()
            .expect("tracing is always on in scenario runs");
        let trace_label = format!("scenario {label} scheme {} seed {run_seed}", r.scheme);
        write_file(&out, &write_trace(&trace_label, flight))?;
        errln!(
            io,
            "flight[{}]: {} events ({} shed) -> {out}{}",
            r.scheme,
            flight.records.len(),
            flight.dropped,
            if violated { " (safety violation)" } else { "" },
        );
    }

    if json {
        outln!(
            io,
            "{}",
            scenario_json(&label, &topo_name, flows.len(), fault_events, &results)
        );
    } else {
        outln!(
            io,
            "scenario `{path}`: {} over `{topo_name}`, {} flows, {}\n",
            count(fault_events, "fault event"),
            flows.len(),
            count(runner.threads(), "worker thread"),
        );
        // The figure's columns, then the hosts' retransmissions.
        let mut table = failure_sweep::recovery_table("");
        table.columns.push("retx".to_string());
        for r in &results {
            let mut row = failure_sweep::recovery_row(&label, r);
            row.push(Cell::Int(r.retransmitted_packets()));
            table.push(row);
        }
        outln!(io, "{table}");
        for r in &results {
            outln!(io, "{}", safety_line(r));
        }
        outln!(
            io,
            "\n(FCT slowdown p99 over non-incast flows; ttr = goodput recovery after the last fault)"
        );
    }
    print_engine_counters(io, &results);

    if pair.is_some() {
        let mut flight = |i: usize| {
            results[i]
                .flight
                .take()
                .expect("tracing is always on in scenario runs")
        };
        let (flight_a, flight_b) = (flight(0), flight(1));
        let desc = format!("scenario {label} seed {run_seed}");
        outln!(io, "");
        return Ok(print_trace_diff(
            io,
            (&results[0].scheme, &desc, &flight_a),
            (&results[1].scheme, &desc, &flight_b),
            5,
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// Filesystem-safe key for a scheme name (`DCQCN+Win` -> `dcqcn-win`).
fn scheme_file_key(name: &str) -> String {
    let mut key = String::with_capacity(name.len());
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            key.push(ch.to_ascii_lowercase());
        } else if !key.ends_with('-') {
            key.push('-');
        }
    }
    key.trim_matches('-').to_string()
}

/// Renders a float as a JSON value (`null` for NaN/infinite, which JSON
/// cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A JSON object whose opening brace stands at `indent`: one `"key": value`
/// line per pair, the values already rendered.
fn json_object(indent: &str, pairs: &[(&str, String)]) -> String {
    let lines: Vec<String> = pairs
        .iter()
        .map(|(key, value)| format!("{indent}  \"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n{indent}}}", lines.join(",\n"))
}

/// The `scenario --json` document: run header plus per-scheme completion,
/// tail latency, recovery and safety reporting. Its first key names the
/// schema; a change to the key set, the nesting or a value's kind bumps the
/// version (`tests/cli.rs` pins all three).
fn scenario_json(
    label: &str,
    topo_name: &str,
    flows: usize,
    fault_events: usize,
    results: &[ExperimentResult],
) -> String {
    let result = |r: &ExperimentResult| {
        let p99 = r.fct.overall.as_ref().map_or(f64::NAN, |o| o.p99);
        let (s, rec) = (&r.safety, &r.recovery);
        let ttr = rec
            .time_to_recover
            .map_or(f64::NAN, |d| d.as_secs_f64() * 1e6);
        let recovery = [
            ("blackholed_packets", rec.blackholed_packets.to_string()),
            ("reroutes", rec.reroutes.to_string()),
            ("faults", rec.faults.to_string()),
            ("time_to_recover_us", json_f64(ttr)),
            ("goodput_dip_depth", json_f64(rec.goodput_dip_depth)),
        ];
        let safety = [
            ("pause_frames", s.pause_frames.to_string()),
            ("max_pause_depth", s.max_pause_depth.to_string()),
            (
                "max_link_window_frames",
                s.max_link_window_frames.to_string(),
            ),
            ("cycles_formed", s.cycles_formed.to_string()),
            ("deadlocks", s.deadlocks.to_string()),
            ("livelock", s.livelock.to_string()),
            ("violations", s.violations().to_string()),
        ];
        let fields = [
            ("scheme", json_str(&r.scheme)),
            ("completed", r.completed_flows.to_string()),
            ("total", r.total_flows.to_string()),
            ("p99_slowdown", json_f64(p99)),
            ("utilization", json_f64(r.utilization())),
            ("drops", r.drops.to_string()),
            ("recovery", json_object("      ", &recovery)),
            ("safety", json_object("      ", &safety)),
        ];
        format!("    {}", json_object("    ", &fields))
    };
    let results: Vec<String> = results.iter().map(result).collect();
    let document = [
        ("schema", json_str("bfc-scenario/v1")),
        ("scenario", json_str(label)),
        ("topology", json_str(topo_name)),
        ("flows", flows.to_string()),
        ("fault_events", fault_events.to_string()),
        ("results", format!("[\n{}\n  ]", results.join(",\n"))),
    ];
    json_object("", &document)
}

/// One per-scheme line from the safety detectors: pause-storm counters,
/// wait-for-graph cycles, confirmed PFC deadlocks and livelock. Violations
/// are marked loudly so scripts can grep for them.
fn safety_line(r: &ExperimentResult) -> String {
    let s = &r.safety;
    let mut line = format!(
        "safety[{}]: pause-frames {} max-depth {} max-window {} cycles {} deadlocks {} livelock {}",
        r.scheme,
        s.pause_frames,
        s.max_pause_depth,
        s.max_link_window_frames,
        s.cycles_formed,
        s.deadlocks,
        if s.livelock { "yes" } else { "no" },
    );
    if let Some(at) = s.first_deadlock_at {
        line.push_str(&format!(" first-deadlock {at}"));
    }
    if s.violations() > 0 {
        line.push_str(" VIOLATION");
    }
    line
}

pub(super) fn cmd_fuzz(args: &[String], io: &mut Io<'_>) -> Outcome {
    let mut args = Args::new("fuzz", args);
    let replay = args.switch("replay");
    let defaults = FuzzConfig::new();
    let cfg = FuzzConfig {
        shards: runner_arg(&mut args)?.shards(),
        seed: args.num("seed", defaults.seed)?,
        budget: args.positive("budget", defaults.budget)?,
        shrink_evals: args.num("shrink-evals", defaults.shrink_evals)?,
        objective: args.keyed("objective", "objective", Objective::from_cli_key, "p99")?,
        scheme: scheme_arg(&mut args)?,
        topos: match args.text("topo")? {
            None => defaults.topos,
            Some(list) => list.split(',').map(str::to_string).collect(),
        },
    };
    let out: String = args.required("out", "path")?;
    if let Some(name) = cfg
        .topos
        .iter()
        .find(|name| topology_by_name(name).is_none())
    {
        return Err(Usage(format!("--topo: unknown topology {name}")).into());
    }
    let [] = args.positional::<0>("")?;

    let outcome = fuzz(&cfg)?;
    let text = format!(
        "# worst case found by `trace-tool fuzz` (seed {}, budget {}, objective {}, \
         score {:.4}, pre-shrink {:.4})\n{}",
        cfg.seed,
        cfg.budget,
        cfg.objective.cli_key(),
        outcome.score,
        outcome.original_score,
        outcome.reproducer,
    );
    write_file(&out, text.as_bytes())?;
    outln!(
        io,
        "fuzzed scheme {} for objective `{}`: {} evaluations, {}, \
         score {:.4} (pre-shrink {:.4})\nwrote reproducer to {out}",
        cfg.scheme.name(),
        cfg.objective.cli_key(),
        outcome.evals,
        count(outcome.shrink_steps, "shrink step"),
        outcome.score,
        outcome.original_score,
    );

    if replay {
        // Prove the artifact (not the in-memory case) is what replays: read
        // the file back, parse it, and run it.
        let text = std::fs::read_to_string(&out).map_err(|e| format!("reading {out}: {e}"))?;
        let repro = Reproducer::parse(&text).map_err(|e| format!("{out}: {e}"))?;
        let result = repro.replay(cfg.shards)?;
        outln!(io, "\nreplayed from {out}:\n");
        print_results_table(io, std::slice::from_ref(&result));
        outln!(io, "{}", safety_line(&result));
    }
    Ok(ExitCode::SUCCESS)
}
