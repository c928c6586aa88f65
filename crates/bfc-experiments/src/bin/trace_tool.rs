//! `trace-tool` — synthesize, summarize and replay workload traces in the
//! CSV format of `bfc_workloads::io`.
//!
//! ```sh
//! cargo run --release -p bfc-experiments --bin trace-tool -- synth --out trace.csv
//! cargo run --release -p bfc-experiments --bin trace-tool -- stats trace.csv
//! cargo run --release -p bfc-experiments --bin trace-tool -- replay trace.csv --scheme lineup
//! ```
//!
//! `synth` generates a trace over the hosts of a built-in fat-tree topology
//! and writes it as CSV; `stats` prints a summary (flow count, offered load,
//! size percentiles); `replay` validates the trace against the same topology
//! and runs it through the experiment driver (all schemes fan out across the
//! `ParallelRunner`; results are bit-identical at any `BFC_THREADS`).
//!
//! Service mode: `snapshot` checkpoints a run's complete simulation state at
//! a chosen instant, `resume` continues it to completion (bit-identical to
//! the uninterrupted replay), and `serve` feeds a live simulation from a
//! tailed CSV file or a TCP socket under an inflight cap.
//!
//! Adversarial mode: `scenario` runs a fault-injection file and reports
//! recovery and safety metrics; `fuzz` searches for the (workload, fault
//! schedule) a scheme handles worst and shrinks it to a minimal reproducer
//! (see `bfc_experiments::fuzz`).

use std::path::PathBuf;
use std::process::ExitCode;

use bfc_experiments::figures::failure_sweep;
use bfc_experiments::parallel::parse_count;
use bfc_experiments::{
    resume_experiment, serve_experiment_with, snapshot_experiment, ExperimentConfig,
    ExperimentResult, MetricsHub, ParallelRunner, ReplayTrace, Reproducer, ScenarioSpec, Scheme,
    ShardPlan,
};
use bfc_net::topology::Topology;
use bfc_net::trace::{kind_index_of, read_trace, write_trace, FlightTrace, TraceFilter};
use bfc_net::types::NodeId;
use bfc_sim::{SimDuration, SimTime};
use bfc_workloads::ingest::{CsvTail, IngestSource, SocketIngest};
use bfc_workloads::io::{read_csv_file, write_csv_file, TraceStats};
use bfc_workloads::{synthesize, ArrivalShape, IncastSchedule, TraceParams, Workload};

const USAGE: &str = "\
usage: trace-tool <command> [options]

commands:
  synth --out <path>      synthesize a trace and write it as CSV
    --topo tiny|t1|t2       topology whose hosts the trace runs over [tiny]
    --workload google|fb-hadoop|websearch   flow-size CDF [google]
    --load <frac>           background offered load [0.6]
    --incast-load <frac>    extra incast load, 0 disables [0.05]
    --fan-in <n>            senders per incast event [6]
    --incast-bytes <n>      aggregate bytes per incast event [500000]
    --duration-us <n>       trace duration in microseconds [300]
    --seed <n>              RNG seed [1]
    --arrivals lognormal|poisson|bursty     background gap shape [lognormal]
    --incast-schedule periodic|lognormal    incast event spacing [periodic]

  stats <path>            print a summary of a trace CSV
    --gbps <rate>           host link rate for the load arithmetic [100]

  replay <path>           replay a trace CSV through the experiment driver
    --topo tiny|t1|t2       topology to replay over (must cover the trace's
                            host ids) [tiny]
    --scheme bfc|bfc-vfid|ideal-fq|dcqcn|dcqcn-win|dcqcn-win-sfq|hpcc|lineup
                            scheme(s) to run [bfc]
    --seed <n>              experiment seed [1]
    --drain-x <n>           drain window as a multiple of the horizon [4]
    --shards <n>            split each run across n engine shards
                            (bit-identical results; same as BFC_SHARDS=n)

  snapshot <path>         run a trace partway and write a checkpoint of the
                          complete simulation state (versioned, checksummed;
                          resuming is bit-identical to the uninterrupted run)
    --at-us <n>             simulated instant to snapshot at, in µs; any
                            instant is a valid cut, fractions included
                            (required)
    --out <snap>            snapshot file to write (required)
    --topo tiny|t1|t2       topology to replay over [tiny]
    --scheme ...            a single scheme (as replay, but not lineup) [bfc]
    --seed <n>              experiment seed [1]
    --drain-x <n>           drain window as a multiple of the horizon [4]
    --shards <n>            run (and snapshot) on n engine shards [1]

  resume <path>           resume a snapshot against the same trace/options
                          and run to completion
    --snapshot <snap>       snapshot file to resume from (required)
    --topo / --scheme / --seed / --drain-x   must match the snapshot run

  serve                   run a live simulation fed by a streaming source,
                          admitting flows under an inflight cap (the cap is
                          the backpressure signal to the feeder)
    --tail <csv>            stream flows from this file; with --follow, keep
                            polling at EOF until a line reading `#end`
    --listen <addr>         accept one TCP feeder (e.g. 127.0.0.1:9000;
                            port 0 picks a free port) speaking the CSV format
    --cap <n>               max flows admitted but not yet completed [64]
    --topo tiny|t1|t2       topology to serve over [tiny]
    --scheme ...            a single scheme (as replay, but not lineup) [bfc]
    --seed <n>              experiment seed [1]
    --horizon-us <n>        measurement horizon in microseconds [300]
    --drain-x <n>           drain window as a multiple of the horizon [4]
    --metrics <addr>        also serve a Prometheus-style text exposition of
                            the live metrics registry on this TCP address
                            (port 0 picks a free port; the bound address
                            prints to stderr). Connections are persistent:
                            each scrape ends with a `# EOF` line, and sending
                            a newline on the same connection requests a fresh
                            scrape

  scenario <path>         run a link-dynamics scenario (fault-injection)
                          file through the experiment driver and report the
                          recovery metrics. The scenario format is one
                          directive per line:
                            at <time> down|up <a> <b>
                            at <time> rate <a> <b> <gbps>
                            flap <a> <b> from <t> every <period> until <t>
                          with times like 100us/2ms and endpoints named by
                          topology label (tor0, spine1, host3) or node id.
                          A fuzz reproducer (`objective ...` header, as
                          written by `fuzz --out` and committed under
                          tests/scenarios/) also works: it pins its own
                          topology, scheme and workload, so the
                          scenario-building flags below don't apply.
    --topo tiny|t1|t2       topology the scenario runs over [tiny]
    --trace <csv>           replay this trace instead of synthesizing one
    --scheme ... (as replay) scheme(s) to run [lineup]
    --load <frac>           background load of the synthetic trace [0.6]
    --duration-us <n>       synthetic trace duration in microseconds [300]
    --seed <n>              experiment seed [1]
    --drain-x <n>           drain window as a multiple of the horizon [4]
    --shards <n>            split each run across n engine shards
                            (bit-identical results; same as BFC_SHARDS=n)
    --json                  report safety/recovery per scheme as JSON on
                            stdout instead of the tables
    --trace-cap <n>         flight-recorder ring capacity for this run
                            [65536]
    --flight <path>         write the (single) scheme's flight trace here
                            unconditionally; without this flag, any run whose
                            safety report is a VIOLATION auto-dumps its last
                            trace events to <scenario-stem>-<scheme>.flight
    --diff-schemes <a,b>    run the scenario under both schemes, diff the two
                            flight traces in memory (see `trace diff`) and
                            exit nonzero if they diverge

  trace <sub>             flight-recorder traces (binary .flight containers)
    record <trace.csv> --out <flight>   replay with the recorder on and write
                                        the canonical trace
      --last <n>            ring capacity: keep the last n events [65536]
      --kind <a,b>          record only these event kinds (record-time
                            filter; filtered events never enter the ring)
      --node <a,b>          record only events at these node ids
      --topo / --scheme / --seed / --drain-x   as replay (single scheme)
      --shards <n>          record under the sharded engine (the merged
                            trace is identical to a serial recording)
    inspect <flight>        print the label, per-kind counts and records
      --limit <n>           print at most the last n records [40]
      --stats               print only the per-kind counts and the ring-drop
                            count, no record listing
    filter <flight>         print records matching every given predicate
      --kind <k>            event kind (enqueue, dequeue, drop, pfc-sent,
                            pfc-delivered, flow-pause, queue-active, ...)
      --node <id>           only events at this switch/host id
      --limit <n>           print at most the last n matches [1000]
    top <flight>            top queues by PFC pause-time
      --n <count>           rows to print [10]
      --tree                print the pause-propagation tree instead
    diff <a> <b>            compare two canonical traces record by record:
                            prints nothing and exits 0 when identical;
                            otherwise prints the first diverging record with
                            context plus per-kind and per-(switch, port)
                            summaries of the divergent tails, and exits 1
      --context <n>         common-prefix records printed before the first
                            divergence [5]

  fuzz --out <path>       search for the (workload, fault schedule) a scheme
                          handles worst, shrink the offender to a minimal
                          reproducer and write it as a scenario-style text
                          file that `fuzz --replay` (or the committed
                          regression tests) re-runs bit-identically.
                          Deterministic: same options, same bytes out.
    --seed <n>              search seed [1]
    --budget <n>            random cases to evaluate [24]
    --shrink-evals <n>      extra evaluations the shrinker may spend [24]
    --objective p99|p999|dip|recovery|safety   what to maximize [p99]
    --scheme ...            a single scheme (as replay, but not lineup) [bfc]
    --topo tiny|t1|t2       restrict the search to one topology, or a
                            comma list like tiny,t1 (smallest first) [tiny]
    --shards <n>            evaluate on n engine shards (same results)
    --replay                after writing, re-read the file and replay it";

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace-tool: {msg}\n\n{USAGE}");
    ExitCode::FAILURE
}

fn parse_topology(name: &str) -> Option<Topology> {
    bfc_experiments::fuzz::topology_by_name(name)
}

fn parse_workload(name: &str) -> Option<Workload> {
    match name {
        "google" => Some(Workload::Google),
        "fb-hadoop" | "fb_hadoop" | "hadoop" => Some(Workload::FbHadoop),
        "websearch" | "web-search" => Some(Workload::WebSearch),
        _ => None,
    }
}

fn parse_schemes(name: &str) -> Option<Vec<Scheme>> {
    match name {
        "lineup" | "all" => Some(Scheme::paper_lineup()),
        key => Scheme::from_cli_key(key).map(|s| vec![s]),
    }
}

/// `--flag value` option walker shared by the three subcommands: returns the
/// positional arguments, handing each `--flag`'s value to `set`.
fn walk_options(
    args: &[String],
    mut set: impl FnMut(&str, &str) -> Result<(), String>,
) -> Result<Vec<String>, String> {
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(flag) = arg.strip_prefix("--") {
            let value = it
                .next()
                .ok_or_else(|| format!("--{flag} requires a value"))?;
            set(flag, value)?;
        } else {
            positional.push(arg.clone());
        }
    }
    Ok(positional)
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{flag}: not a valid number: {value}"))
}

fn cmd_synth(args: &[String]) -> Result<(), String> {
    let mut out: Option<PathBuf> = None;
    let mut topo: Option<Topology> = None;
    let mut topo_name = "tiny".to_string();
    let mut workload = Workload::Google;
    let mut load = 0.6f64;
    let mut incast_load = 0.05f64;
    let mut fan_in = 6usize;
    let mut incast_bytes = 500_000u64;
    let mut duration_us = 300u64;
    let mut seed = 1u64;
    let mut arrivals = ArrivalShape::paper_default();
    let mut incast_schedule = IncastSchedule::paper_default();

    let positional = walk_options(args, |flag, value| {
        match flag {
            "out" => out = Some(PathBuf::from(value)),
            "topo" => {
                topo = Some(
                    parse_topology(value)
                        .ok_or_else(|| format!("--topo: unknown topology {value}"))?,
                );
                topo_name = value.to_string();
            }
            "workload" => {
                workload = parse_workload(value)
                    .ok_or_else(|| format!("--workload: unknown workload {value}"))?;
            }
            "load" => load = parse_num(flag, value)?,
            "incast-load" => incast_load = parse_num(flag, value)?,
            "fan-in" => fan_in = parse_num(flag, value)?,
            "incast-bytes" => incast_bytes = parse_num(flag, value)?,
            "duration-us" => duration_us = parse_num(flag, value)?,
            "seed" => seed = parse_num(flag, value)?,
            "arrivals" => {
                arrivals = match value {
                    "lognormal" => ArrivalShape::paper_default(),
                    "poisson" => ArrivalShape::Poisson,
                    "bursty" => ArrivalShape::bursty_default(),
                    _ => return Err(format!("--arrivals: unknown shape {value}")),
                }
            }
            "incast-schedule" => {
                incast_schedule = match value {
                    "periodic" => IncastSchedule::Periodic,
                    "lognormal" => IncastSchedule::LogNormalGaps { sigma: 1.0 },
                    _ => return Err(format!("--incast-schedule: unknown schedule {value}")),
                }
            }
            _ => return Err(format!("synth: unknown option --{flag}")),
        }
        Ok(())
    })?;
    if !positional.is_empty() {
        return Err(format!("synth: unexpected argument {}", positional[0]));
    }
    let out = out.ok_or("synth: --out <path> is required")?;
    // Keep the load arithmetic (and the incast event period) in sane,
    // non-panicking ranges before handing the parameters to `synthesize`.
    if !(load > 0.0 && load <= 1.5) {
        return Err(format!("synth: --load must be in (0, 1.5], got {load}"));
    }
    if !(0.0..=1.5).contains(&incast_load) {
        return Err(format!(
            "synth: --incast-load must be in [0, 1.5], got {incast_load}"
        ));
    }
    if incast_load > 0.0 && incast_bytes < 1_000 {
        return Err(format!(
            "synth: --incast-bytes must be at least 1000 when incast is enabled, got {incast_bytes}"
        ));
    }
    if duration_us == 0 {
        return Err("synth: --duration-us must be positive".into());
    }

    let topo = topo.unwrap_or_else(|| parse_topology("tiny").expect("tiny always builds"));
    let hosts = topo.hosts();
    let params = TraceParams {
        workload,
        load,
        incast_load,
        incast_fan_in: fan_in,
        incast_total_bytes: incast_bytes,
        duration: SimDuration::from_micros(duration_us),
        host_gbps: topo.host_uplink(hosts[0]).link.rate_gbps,
        seed,
        arrivals,
        incast_schedule,
    };
    let flows = synthesize(&hosts, &params);
    write_csv_file(&out, &flows).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} flows over {} ({} hosts of `{topo_name}`) to {}",
        flows.len(),
        params.duration,
        hosts.len(),
        out.display()
    );
    Ok(())
}

/// `--shards n`: splits every run `runner` dispatches across n engine shards,
/// overriding `BFC_SHARDS`. Results are bit-identical at any shard count;
/// only wall-clock changes.
fn set_shards(runner: &mut ParallelRunner, value: &str) -> Result<(), String> {
    *runner = runner.with_shards(parse_count("--shards", value)?);
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let mut gbps = 100.0f64;
    let positional = walk_options(args, |flag, value| {
        match flag {
            "gbps" => gbps = parse_num(flag, value)?,
            _ => return Err(format!("stats: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("stats: exactly one trace path is required".into());
    };
    let flows = read_csv_file(path).map_err(|e| format!("{path}: {e}"))?;
    match TraceStats::from_flows(&flows, gbps) {
        Some(stats) => println!("{stats}"),
        None => println!("{path}: empty trace"),
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    let mut topo: Option<Topology> = None;
    let mut topo_name = "tiny".to_string();
    let mut schemes = vec![Scheme::bfc()];
    let mut seed = 1u64;
    let mut drain_x = 4u64;
    let mut runner = ParallelRunner::from_env();
    let positional = walk_options(args, |flag, value| {
        match flag {
            "topo" => {
                topo = Some(
                    parse_topology(value)
                        .ok_or_else(|| format!("--topo: unknown topology {value}"))?,
                );
                topo_name = value.to_string();
            }
            "scheme" => {
                schemes = parse_schemes(value)
                    .ok_or_else(|| format!("--scheme: unknown scheme {value}"))?;
            }
            "seed" => seed = parse_num(flag, value)?,
            "drain-x" => drain_x = parse_num(flag, value)?,
            "shards" => set_shards(&mut runner, value)?,
            _ => return Err(format!("replay: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("replay: exactly one trace path is required".into());
    };

    let topo = topo.unwrap_or_else(|| parse_topology("tiny").expect("tiny always builds"));
    let replay = ReplayTrace::from_csv_path(path).map_err(|e| format!("{path}: {e}"))?;
    let horizon = replay.horizon();
    let configs: Vec<ExperimentConfig> = schemes
        .into_iter()
        .map(|scheme| {
            let mut config = ExperimentConfig::new(scheme, horizon).with_seed(seed);
            config.drain = horizon * drain_x;
            config
        })
        .collect();
    let results = replay
        .run_all(&topo, &configs, &runner)
        .map_err(|e| format!("{path}: {e}"))?;

    println!(
        "replayed {} flows (horizon {horizon}) over `{topo_name}` with {} worker thread{}\n",
        replay.flows().len(),
        runner.threads(),
        if runner.threads() == 1 { "" } else { "s" },
    );
    print_results_table(&results);
    print_engine_counters(&results);
    Ok(())
}

/// Per-run engine-internal counters, read uniformly from the unified
/// registry — a one-shard run prints the same line with its one batch of
/// one window. Written to stderr so stdout stays byte-identical across
/// shard counts (scripts diff it).
fn print_engine_counters(results: &[ExperimentResult]) {
    for r in results {
        let c = |key: &str| r.registry.counter(key).unwrap_or(0);
        eprintln!(
            "engine[{}]: queue-overflow {} epoch-batches {} windows {} barriers {} widened {} \
             cross-shard msgs {}",
            r.scheme,
            c("bfc_engine_queue_overflow_pushes"),
            c("bfc_engine_epoch_batches"),
            c("bfc_engine_epoch_windows"),
            c("bfc_engine_epoch_barriers"),
            c("bfc_engine_epoch_widened"),
            c("bfc_engine_epoch_boundary_events"),
        );
    }
}

/// The replay results table, shared by `replay`, `resume` and `serve` so a
/// resumed run's table is byte-identical to the uninterrupted replay's.
fn print_results_table(results: &[ExperimentResult]) {
    println!(
        "{:<16} {:>11} {:>9} {:>9} {:>8} {:>7}",
        "scheme", "completed", "p50", "p99", "util %", "drops"
    );
    for r in results {
        let (p50, p99) = r
            .fct
            .overall
            .as_ref()
            .map(|o| (o.p50, o.p99))
            .unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{:<16} {:>5}/{:<5} {:>9.2} {:>9.2} {:>8.1} {:>7}",
            r.scheme,
            r.completed_flows,
            r.total_flows,
            p50,
            p99,
            r.utilization * 100.0,
            r.drops
        );
    }
    println!("\n(FCT slowdown percentiles over non-incast flows)");
}

/// Shared option state for the `snapshot` / `resume` / `serve` commands:
/// one scheme, one seed, one drain multiple, one topology.
struct RunOptions {
    topo: Topology,
    topo_name: String,
    scheme: Scheme,
    seed: u64,
    drain_x: u64,
}

impl RunOptions {
    fn defaults() -> RunOptions {
        RunOptions {
            topo: parse_topology("tiny").expect("tiny always builds"),
            topo_name: "tiny".to_string(),
            scheme: Scheme::bfc(),
            seed: 1,
            drain_x: 4,
        }
    }

    /// Handles the options common to the service-mode commands; returns
    /// false if the flag is not one of them.
    fn set(&mut self, cmd: &str, flag: &str, value: &str) -> Result<bool, String> {
        match flag {
            "topo" => {
                self.topo = parse_topology(value)
                    .ok_or_else(|| format!("--topo: unknown topology {value}"))?;
                self.topo_name = value.to_string();
            }
            "scheme" => {
                let schemes = parse_schemes(value)
                    .ok_or_else(|| format!("--scheme: unknown scheme {value}"))?;
                let [scheme] = schemes.as_slice() else {
                    return Err(format!("{cmd}: --scheme requires a single scheme, not a lineup"));
                };
                self.scheme = scheme.clone();
            }
            "seed" => self.seed = parse_num(flag, value)?,
            "drain-x" => self.drain_x = parse_num(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn config(&self, horizon: SimDuration) -> ExperimentConfig {
        let mut config = ExperimentConfig::new(self.scheme.clone(), horizon).with_seed(self.seed);
        config.drain = horizon * self.drain_x;
        config
    }
}

/// Loads and validates the trace the snapshot/resume commands run over,
/// exactly like `replay` does.
fn load_trace(cmd: &str, opts: &RunOptions, path: &str) -> Result<ReplayTrace, String> {
    let replay = ReplayTrace::from_csv_path(path).map_err(|e| format!("{path}: {e}"))?;
    replay
        .validate(&opts.topo)
        .map_err(|e| format!("{cmd}: {path}: {e}"))?;
    Ok(replay)
}

fn cmd_snapshot(args: &[String]) -> Result<(), String> {
    let mut opts = RunOptions::defaults();
    let mut at_us: Option<f64> = None;
    let mut out: Option<PathBuf> = None;
    let mut shards = 1usize;
    let positional = walk_options(args, |flag, value| {
        if opts.set("snapshot", flag, value)? {
            return Ok(());
        }
        match flag {
            "at-us" => at_us = Some(parse_num(flag, value)?),
            "out" => out = Some(PathBuf::from(value)),
            "shards" => shards = parse_count("--shards", value)?,
            _ => return Err(format!("snapshot: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("snapshot: exactly one trace path is required".into());
    };
    let at_us = at_us.ok_or("snapshot: --at-us <n> is required")?;
    if !(at_us >= 0.0 && at_us.is_finite()) {
        return Err(format!("snapshot: --at-us must be a non-negative time, got {at_us}"));
    }
    let out = out.ok_or("snapshot: --out <snap> is required")?;

    let replay = load_trace("snapshot", &opts, path)?;
    let config = opts.config(replay.horizon());
    // Any instant is a valid cut, at any shard count — fractions of a
    // microsecond included.
    let at = SimTime::from_picos((at_us * 1e6).round() as u64);
    let blob = snapshot_experiment(&opts.topo, replay.flows(), &config, at, shards);
    // The plan clamps the request to the number of switches.
    let shards = ShardPlan::partition(&opts.topo, shards)
        .expect("snapshot_experiment partitioned the same topology")
        .num_shards();
    std::fs::write(&out, &blob).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "snapshotted `{}` ({} flows, scheme {}) at {at} into {} ({} bytes, {} shard{})",
        path,
        replay.flows().len(),
        config.scheme.name(),
        out.display(),
        blob.len(),
        shards,
        if shards == 1 { "" } else { "s" },
    );
    Ok(())
}

fn cmd_resume(args: &[String]) -> Result<(), String> {
    let mut opts = RunOptions::defaults();
    let mut snap_path: Option<PathBuf> = None;
    let positional = walk_options(args, |flag, value| {
        if opts.set("resume", flag, value)? {
            return Ok(());
        }
        match flag {
            "snapshot" => snap_path = Some(PathBuf::from(value)),
            _ => return Err(format!("resume: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("resume: exactly one trace path is required".into());
    };
    let snap_path = snap_path.ok_or("resume: --snapshot <snap> is required")?;

    let replay = load_trace("resume", &opts, path)?;
    let horizon = replay.horizon();
    let config = opts.config(horizon);
    let blob = std::fs::read(&snap_path)
        .map_err(|e| format!("reading {}: {e}", snap_path.display()))?;
    let result = resume_experiment(&opts.topo, replay.flows(), &config, &blob)
        .map_err(|e| format!("{}: {e}", snap_path.display()))?;
    println!(
        "resumed {} flows (horizon {horizon}) over `{}` from `{}`\n",
        replay.flows().len(),
        opts.topo_name,
        snap_path.display(),
    );
    print_results_table(std::slice::from_ref(&result));
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    // `--follow` is the one valueless flag in the tool; pull it out before
    // the `--flag value` walker sees it.
    let mut follow = false;
    let args: Vec<String> = args
        .iter()
        .filter(|a| {
            let is_follow = a.as_str() == "--follow";
            follow |= is_follow;
            !is_follow
        })
        .cloned()
        .collect();

    let mut opts = RunOptions::defaults();
    let mut tail_path: Option<PathBuf> = None;
    let mut listen_addr: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut cap = 64usize;
    let mut horizon_us = 300u64;
    let positional = walk_options(&args, |flag, value| {
        if opts.set("serve", flag, value)? {
            return Ok(());
        }
        match flag {
            "tail" => tail_path = Some(PathBuf::from(value)),
            "listen" => listen_addr = Some(value.to_string()),
            "metrics" => metrics_addr = Some(value.to_string()),
            "cap" => {
                cap = parse_num(flag, value)?;
                if cap == 0 {
                    return Err("--cap must be at least 1".into());
                }
            }
            "horizon-us" => {
                horizon_us = parse_num(flag, value)?;
                if horizon_us == 0 {
                    return Err("--horizon-us must be positive".into());
                }
            }
            _ => return Err(format!("serve: unknown option --{flag}")),
        }
        Ok(())
    })?;
    if !positional.is_empty() {
        return Err(format!("serve: unexpected argument {}", positional[0]));
    }
    let config = opts.config(SimDuration::from_micros(horizon_us));

    // Live metrics exposition: an accept loop handing each connection to a
    // thread that serves one scrape immediately and a fresh one per request
    // line, so a monitoring client can watch the run over one persistent
    // connection. A scrape renders, so connections are bounded: past
    // `MAX_SCRAPE_CONNECTIONS` live ones a new connection is closed at
    // accept. Observation never feeds back into the simulation.
    let hub = MetricsHub::new();
    let metrics = if let Some(addr) = &metrics_addr {
        let listener = std::net::TcpListener::bind(addr.as_str())
            .map_err(|e| format!("binding metrics address {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("metrics: {e}"))?;
        eprintln!("metrics listening on {local}");
        let scrape_hub = hub.clone();
        std::thread::spawn(move || {
            // One clone of `slot` per live scrape thread, dropped when the
            // thread ends however it ends: the strong count is the number of
            // live connections plus this one.
            let slot = std::sync::Arc::new(());
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                if std::sync::Arc::strong_count(&slot) > MAX_SCRAPE_CONNECTIONS {
                    continue;
                }
                let (hub, slot) = (scrape_hub.clone(), slot.clone());
                std::thread::spawn(move || {
                    serve_scrapes(conn, &hub);
                    drop(slot);
                });
            }
        });
        Some(hub)
    } else {
        None
    };

    let mut source: Box<dyn IngestSource> = match (&tail_path, &listen_addr) {
        (Some(path), None) => Box::new(
            CsvTail::open(path, follow).map_err(|e| format!("opening {}: {e}", path.display()))?,
        ),
        (None, Some(addr)) => {
            let (source, local) =
                SocketIngest::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            println!("listening on {local} (feed trace CSV, close to finish)");
            Box::new(source)
        }
        _ => return Err("serve: exactly one of --tail <csv> or --listen <addr> is required".into()),
    };
    if follow && tail_path.is_none() {
        return Err("serve: --follow only applies to --tail".into());
    }

    let report = serve_experiment_with(&opts.topo, &config, source.as_mut(), cap, metrics.as_ref())
        .map_err(|e| format!("serve: {e}"))?;
    println!(
        "served {} flows (horizon {}) over `{}` under inflight cap {cap}\n",
        report.admitted, config.horizon, opts.topo_name,
    );
    print_results_table(std::slice::from_ref(&report.result));
    Ok(())
}

/// Scrape connections served at once; one more is closed as it is accepted.
const MAX_SCRAPE_CONNECTIONS: usize = 8;

/// How long a scrape write may block before the connection is given up: a
/// scraper that stops reading frees its thread (and its slot under
/// [`MAX_SCRAPE_CONNECTIONS`]) instead of holding it for the run.
const SCRAPE_WRITE_TIMEOUT: std::time::Duration = std::time::Duration::from_secs(5);

/// Serves metrics scrapes over one persistent connection: the current
/// exposition (terminated by a `# EOF` line) is written immediately, then
/// once more — the hub's text for its latest publish — for every
/// newline-terminated request line the client sends. Returns when the peer
/// closes, a write fails or a write blocks past [`SCRAPE_WRITE_TIMEOUT`].
fn serve_scrapes(conn: std::net::TcpStream, hub: &MetricsHub) {
    use std::io::{BufRead as _, BufReader, Write as _};
    if conn.set_write_timeout(Some(SCRAPE_WRITE_TIMEOUT)).is_err() {
        return;
    }
    let Ok(read_half) = conn.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut conn = conn;
    loop {
        let mut text = hub.render();
        text.push_str("# EOF\n");
        if conn.write_all(text.as_bytes()).is_err() || conn.flush().is_err() {
            return;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn cmd_scenario(args: &[String]) -> Result<ExitCode, String> {
    // `--json` is valueless; pull it out before the `--flag value` walker.
    let mut json = false;
    let args: Vec<String> = args
        .iter()
        .filter(|a| {
            let is_json = a.as_str() == "--json";
            json |= is_json;
            !is_json
        })
        .cloned()
        .collect();

    let mut topo: Option<Topology> = None;
    let mut topo_name = "tiny".to_string();
    let mut schemes = Scheme::paper_lineup();
    let mut trace_path: Option<PathBuf> = None;
    let mut flight_path: Option<PathBuf> = None;
    let mut diff_schemes: Option<String> = None;
    let mut trace_cap = 65_536usize;
    let mut load = 0.6f64;
    let mut duration_us = 300u64;
    let mut seed = 1u64;
    let mut drain_x = 4u64;
    let mut runner = ParallelRunner::from_env();
    let positional = walk_options(&args, |flag, value| {
        match flag {
            "topo" => {
                topo = Some(
                    parse_topology(value)
                        .ok_or_else(|| format!("--topo: unknown topology {value}"))?,
                );
                topo_name = value.to_string();
            }
            "scheme" => {
                schemes = parse_schemes(value)
                    .ok_or_else(|| format!("--scheme: unknown scheme {value}"))?;
            }
            "trace" => trace_path = Some(PathBuf::from(value)),
            "diff-schemes" => diff_schemes = Some(value.to_string()),
            "flight" => flight_path = Some(PathBuf::from(value)),
            "trace-cap" => {
                trace_cap = parse_num(flag, value)?;
                if trace_cap == 0 {
                    return Err("--trace-cap must be at least 1".into());
                }
            }
            "load" => load = parse_num(flag, value)?,
            "duration-us" => duration_us = parse_num(flag, value)?,
            "seed" => seed = parse_num(flag, value)?,
            "drain-x" => drain_x = parse_num(flag, value)?,
            "shards" => set_shards(&mut runner, value)?,
            _ => return Err(format!("scenario: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("scenario: exactly one scenario path is required".into());
    };
    if !(load > 0.0 && load <= 1.5) {
        return Err(format!("scenario: --load must be in (0, 1.5], got {load}"));
    }
    if duration_us == 0 {
        return Err("scenario: --duration-us must be positive".into());
    }
    let diff_pair: Option<(Scheme, Scheme)> = match &diff_schemes {
        None => None,
        Some(spec) => {
            let parse_one = |key: &str| -> Result<Scheme, String> {
                let parsed = parse_schemes(key)
                    .ok_or_else(|| format!("--diff-schemes: unknown scheme {key}"))?;
                let [s] = parsed.as_slice() else {
                    return Err("--diff-schemes: lineups are not allowed, name two schemes".into());
                };
                Ok(s.clone())
            };
            let parts: Vec<&str> = spec.split(',').collect();
            let [a, b] = parts.as_slice() else {
                return Err(
                    "scenario: --diff-schemes takes exactly two comma-separated schemes".into(),
                );
            };
            Some((parse_one(a)?, parse_one(b)?))
        }
    };

    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    // A file whose first directive is an `objective` header is a committed
    // fuzz reproducer: it pins its own topology, scheme, workload and fault
    // schedule, so the scenario-building flags don't apply to it.
    let is_reproducer = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .is_some_and(|l| l.starts_with("objective "));

    let (topo, topo_name, flows, configs, run_seed) = if is_reproducer {
        let repro = Reproducer::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let (topo, flows, config) = repro.materialize().map_err(|e| format!("{path}: {e}"))?;
        let run_seed = config.seed;
        // Always record: the ring is bounded and results are bit-identical
        // either way, and a VIOLATION verdict must be able to dump the
        // events leading up to it.
        let config = config.with_trace_capacity(trace_cap);
        (topo, repro.topo.clone(), flows, vec![config], run_seed)
    } else {
        let topo = topo.unwrap_or_else(|| parse_topology("tiny").expect("tiny always builds"));
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let schedule = spec.resolve(&topo).map_err(|e| format!("{path}: {e}"))?;

        let (flows, horizon) = match &trace_path {
            Some(csv) => {
                let replay = ReplayTrace::from_csv_path(csv)
                    .map_err(|e| format!("{}: {e}", csv.display()))?;
                replay
                    .validate(&topo)
                    .map_err(|e| format!("{}: {e}", csv.display()))?;
                let horizon = replay.horizon();
                (replay.flows().to_vec(), horizon)
            }
            None => {
                let hosts = topo.hosts();
                let duration = SimDuration::from_micros(duration_us);
                let params = TraceParams::background_only(Workload::Google, load, duration, seed);
                let params = TraceParams {
                    host_gbps: topo.host_uplink(hosts[0]).link.rate_gbps,
                    ..params
                };
                (synthesize(&hosts, &params), duration)
            }
        };
        let configs: Vec<ExperimentConfig> = schemes
            .into_iter()
            .map(|scheme| {
                let mut config = ExperimentConfig::new(scheme, horizon)
                    .with_seed(seed)
                    .with_dynamics(schedule.clone())
                    // See above: tracing is always on in scenario runs.
                    .with_trace_capacity(trace_cap);
                config.drain = horizon * drain_x;
                config
            })
            .collect();
        (topo, topo_name, flows, configs, seed)
    };
    // `--diff-schemes a,b`: same scenario, same inputs, two schemes — run
    // both traced (overriding even a reproducer's pinned scheme) and diff
    // the flight traces in memory at the end.
    let configs: Vec<ExperimentConfig> = match &diff_pair {
        None => configs,
        Some((a, b)) => {
            let base = configs.into_iter().next().expect("at least one config");
            [a, b]
                .into_iter()
                .map(|scheme| {
                    let mut config = base.clone();
                    config.scheme = scheme.clone();
                    config
                })
                .collect()
        }
    };
    let fault_events = configs[0].dynamics.events().len();
    if flight_path.is_some() && configs.len() != 1 {
        return Err("scenario: --flight requires a single --scheme, not a lineup".into());
    }
    let mut results = runner.run_experiments(&topo, &flows, &configs);

    // The scenario file's stem labels the rows; the table itself is the
    // failure-sweep figure's formatter, so the CLI and figure cannot drift.
    let label = std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".to_string());

    // Flight dumps: explicit `--flight` always writes; otherwise a safety
    // VIOLATION auto-dumps the last trace events so the pause wait-for
    // chain leading into the deadlock/livelock stays inspectable.
    for r in results.iter_mut() {
        let Some(flight) = r.flight.take() else { continue };
        let dump: Option<PathBuf> = match &flight_path {
            Some(p) => Some(p.clone()),
            None if r.safety.violations() > 0 => {
                Some(PathBuf::from(format!("{label}-{}.flight", scheme_file_key(&r.scheme))))
            }
            None => None,
        };
        if let Some(out) = dump {
            let trace_label = format!("scenario {label} scheme {} seed {run_seed}", r.scheme);
            let blob = write_trace(&trace_label, &flight);
            std::fs::write(&out, &blob).map_err(|e| format!("writing {}: {e}", out.display()))?;
            eprintln!(
                "flight[{}]: {} events ({} shed) -> {}{}",
                r.scheme,
                flight.records.len(),
                flight.dropped,
                out.display(),
                if r.safety.violations() > 0 { " (safety violation)" } else { "" },
            );
        }
        r.flight = Some(flight);
    }

    if json {
        println!("{}", scenario_json(&label, &topo_name, flows.len(), fault_events, &results));
        print_engine_counters(&results);
    } else {
        println!(
            "scenario `{path}`: {} fault event{} over `{topo_name}`, {} flows, {} worker thread{}\n",
            fault_events,
            if fault_events == 1 { "" } else { "s" },
            flows.len(),
            runner.threads(),
            if runner.threads() == 1 { "" } else { "s" },
        );
        print!("{}", failure_sweep::HEADER);
        for r in &results {
            print!("{}", failure_sweep::result_row(&label, r));
        }
        println!();
        for r in &results {
            println!("{}", safety_line(r));
        }
        println!("\n(FCT slowdown p99 over non-incast flows; ttr = goodput recovery after the last fault)");
        print_engine_counters(&results);
    }

    if diff_pair.is_some() {
        let flight_b = results[1].flight.take().expect("tracing is always on in scenario runs");
        let flight_a = results[0].flight.take().expect("tracing is always on in scenario runs");
        let desc = format!("scenario {label} seed {run_seed}");
        println!();
        return Ok(print_trace_diff(
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

/// JSON string escaping for the small, controlled strings we emit (scheme
/// names, labels): quotes, backslashes and control characters.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `scenario --json` document: run header plus per-scheme completion,
/// tail latency, recovery and safety reporting.
fn scenario_json(
    label: &str,
    topo_name: &str,
    flows: usize,
    fault_events: usize,
    results: &[ExperimentResult],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scenario\": {},\n", json_str(label)));
    out.push_str(&format!("  \"topology\": {},\n", json_str(topo_name)));
    out.push_str(&format!("  \"flows\": {flows},\n"));
    out.push_str(&format!("  \"fault_events\": {fault_events},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let p99 = r.fct.overall.as_ref().map(|o| o.p99).unwrap_or(f64::NAN);
        let s = &r.safety;
        let rec = &r.recovery;
        out.push_str("    {\n");
        out.push_str(&format!("      \"scheme\": {},\n", json_str(&r.scheme)));
        out.push_str(&format!("      \"completed\": {},\n", r.completed_flows));
        out.push_str(&format!("      \"total\": {},\n", r.total_flows));
        out.push_str(&format!("      \"p99_slowdown\": {},\n", json_f64(p99)));
        out.push_str(&format!("      \"utilization\": {},\n", json_f64(r.utilization)));
        out.push_str(&format!("      \"drops\": {},\n", r.drops));
        out.push_str("      \"recovery\": {\n");
        out.push_str(&format!(
            "        \"blackholed_packets\": {},\n",
            rec.blackholed_packets
        ));
        out.push_str(&format!("        \"reroutes\": {},\n", rec.reroutes));
        out.push_str(&format!("        \"faults\": {},\n", rec.faults));
        out.push_str(&format!(
            "        \"time_to_recover_us\": {},\n",
            rec.time_to_recover
                .map(|d| json_f64(d.as_secs_f64() * 1e6))
                .unwrap_or_else(|| "null".to_string())
        ));
        out.push_str(&format!(
            "        \"goodput_dip_depth\": {}\n",
            json_f64(rec.goodput_dip_depth)
        ));
        out.push_str("      },\n");
        out.push_str("      \"safety\": {\n");
        out.push_str(&format!("        \"pause_frames\": {},\n", s.pause_frames));
        out.push_str(&format!("        \"max_pause_depth\": {},\n", s.max_pause_depth));
        out.push_str(&format!(
            "        \"max_link_window_frames\": {},\n",
            s.max_link_window_frames
        ));
        out.push_str(&format!("        \"cycles_formed\": {},\n", s.cycles_formed));
        out.push_str(&format!("        \"deadlocks\": {},\n", s.deadlocks));
        out.push_str(&format!("        \"livelock\": {},\n", s.livelock));
        out.push_str(&format!("        \"violations\": {}\n", s.violations()));
        out.push_str("      }\n");
        out.push_str(if i + 1 == results.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}");
    out
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

fn cmd_trace(args: &[String]) -> Result<ExitCode, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err("trace: missing subcommand (record, inspect, filter, top, diff)".into());
    };
    match sub.as_str() {
        "record" => cmd_trace_record(rest).map(|()| ExitCode::SUCCESS),
        "inspect" => cmd_trace_inspect(rest).map(|()| ExitCode::SUCCESS),
        "filter" => cmd_trace_filter(rest).map(|()| ExitCode::SUCCESS),
        "top" => cmd_trace_top(rest).map(|()| ExitCode::SUCCESS),
        "diff" => cmd_trace_diff(rest),
        other => Err(format!("trace: unknown subcommand `{other}`")),
    }
}

fn cmd_trace_diff(args: &[String]) -> Result<ExitCode, String> {
    let mut context = 5usize;
    let positional = walk_options(args, |flag, value| {
        match flag {
            "context" => context = parse_num(flag, value)?,
            _ => return Err(format!("trace diff: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path_a, path_b] = positional.as_slice() else {
        return Err("trace diff: exactly two flight paths are required".into());
    };
    let (label_a, flight_a) = open_flight(path_a)?;
    let (label_b, flight_b) = open_flight(path_b)?;
    Ok(print_trace_diff(
        (path_a, &label_a, &flight_a),
        (path_b, &label_b, &flight_b),
        context,
    ))
}

/// Renders the divergence report between two canonical traces, each given as
/// `(name, run label, trace)`. Identical traces print nothing and return
/// success; otherwise the first diverging record (with up to `context`
/// records of common prefix before it) and the per-kind / per-(switch, port)
/// summaries of the divergent tails are printed, and the exit code is
/// failure — "the traces differ" is the command's result, not an error.
fn print_trace_diff(
    a: (&str, &str, &FlightTrace),
    b: (&str, &str, &FlightTrace),
    context: usize,
) -> ExitCode {
    let (name_a, label_a, flight_a) = a;
    let (name_b, label_b, flight_b) = b;
    let Some(diff) = flight_a.diff(flight_b) else {
        return ExitCode::SUCCESS;
    };
    println!("a: {name_a} — {} records [{label_a}]", flight_a.records.len());
    println!("b: {name_b} — {} records [{label_b}]", flight_b.records.len());
    println!("\nfirst divergence at canonical record {}:", diff.index);
    let start = diff.index.saturating_sub(context);
    if start < diff.index {
        println!("  (common prefix, last {} records)", diff.index - start);
        for (i, r) in flight_a
            .records
            .iter()
            .enumerate()
            .take(diff.index)
            .skip(start)
        {
            println!("  = {}", record_line(i, r));
        }
    }
    match &diff.first_a {
        Some(r) => println!("  a {}", record_line(diff.index, r)),
        None => println!("  a (trace ends here)"),
    }
    match &diff.first_b {
        Some(r) => println!("  b {}", record_line(diff.index, r)),
        None => println!("  b (trace ends here)"),
    }
    println!(
        "\ndivergent tails: {} records in a, {} in b",
        diff.tail_a, diff.tail_b
    );
    let time_or_dash = |t: Option<SimTime>| t.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
    if !diff.kinds.is_empty() {
        println!(
            "\n{:<14} {:>9} {:>9}  {:<14} {}",
            "kind", "a", "b", "first-a", "first-b"
        );
        for k in &diff.kinds {
            println!(
                "{:<14} {:>9} {:>9}  {:<14} {}",
                k.kind,
                k.count_a,
                k.count_b,
                time_or_dash(k.first_a),
                time_or_dash(k.first_b),
            );
        }
    }
    if !diff.ports.is_empty() {
        println!(
            "\n{:<8} {:<6} {:>9} {:>9}  {:<14} {}",
            "switch", "port", "a", "b", "pause-a", "pause-b"
        );
        for p in &diff.ports {
            println!(
                "{:<8} {:<6} {:>9} {:>9}  {:<14} {}",
                format!("sw{}", p.node.0),
                p.port,
                p.count_a,
                p.count_b,
                format!("{}", p.pause_a),
                p.pause_b,
            );
        }
    }
    ExitCode::FAILURE
}

fn cmd_trace_record(args: &[String]) -> Result<(), String> {
    let mut opts = RunOptions::defaults();
    let mut out: Option<PathBuf> = None;
    let mut last = 65_536usize;
    let mut kinds: Vec<String> = Vec::new();
    let mut nodes: Vec<u32> = Vec::new();
    let mut runner = ParallelRunner::from_env();
    let positional = walk_options(args, |flag, value| {
        if opts.set("trace record", flag, value)? {
            return Ok(());
        }
        match flag {
            "out" => out = Some(PathBuf::from(value)),
            "last" => {
                last = parse_num(flag, value)?;
                if last == 0 {
                    return Err("--last must be at least 1".into());
                }
            }
            "kind" => kinds.extend(value.split(',').map(str::to_string)),
            "node" => {
                for part in value.split(',') {
                    nodes.push(parse_num(flag, part)?);
                }
            }
            "shards" => set_shards(&mut runner, value)?,
            _ => return Err(format!("trace record: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("trace record: exactly one trace CSV path is required".into());
    };
    let out = out.ok_or("trace record: --out <flight> is required")?;

    let replay = load_trace("trace record", &opts, path)?;
    let mut config = opts.config(replay.horizon()).with_trace_capacity(last);
    if !kinds.is_empty() || !nodes.is_empty() {
        let mut filter = TraceFilter::all();
        if !kinds.is_empty() {
            let mut indices = Vec::with_capacity(kinds.len());
            for k in &kinds {
                indices.push(
                    kind_index_of(k).ok_or_else(|| format!("--kind: unknown event kind {k}"))?,
                );
            }
            filter = filter.with_kinds(indices);
        }
        if !nodes.is_empty() {
            filter = filter.with_nodes(nodes.iter().map(|&n| NodeId(n)));
        }
        config = config.with_trace_filter(filter);
    }
    let result = runner.run_experiment(&opts.topo, replay.flows(), &config);
    let flight = result.flight.expect("tracing was enabled for this run");
    let label = format!(
        "replay {path} scheme {} seed {}",
        config.scheme.name(),
        opts.seed
    );
    let blob = write_trace(&label, &flight);
    std::fs::write(&out, &blob).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "recorded {} trace events ({} shed by the ring of {last}) from {} flows over `{}` -> {} ({} bytes)",
        flight.records.len(),
        flight.dropped,
        replay.flows().len(),
        opts.topo_name,
        out.display(),
        blob.len(),
    );
    Ok(())
}

/// Opens a flight-trace container, mapping errors to CLI diagnostics.
fn open_flight(path: &str) -> Result<(String, FlightTrace), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    read_trace(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// One rendered record line: the record's index in its trace, simulated
/// time, one-line event text.
fn record_line(index: usize, r: &bfc_net::trace::TraceRecord) -> String {
    format!(
        "{index:>8}  {:<14} {}",
        format!("{}", r.at),
        r.event.render()
    )
}

fn cmd_trace_inspect(args: &[String]) -> Result<(), String> {
    // `--stats` is valueless; pull it out before the `--flag value` walker.
    let mut stats = false;
    let args: Vec<String> = args
        .iter()
        .filter(|a| {
            let is_stats = a.as_str() == "--stats";
            stats |= is_stats;
            !is_stats
        })
        .cloned()
        .collect();

    let mut limit = 40usize;
    let positional = walk_options(&args, |flag, value| {
        match flag {
            "limit" => limit = parse_num(flag, value)?,
            _ => return Err(format!("trace inspect: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("trace inspect: exactly one flight path is required".into());
    };
    let (label, flight) = open_flight(path)?;

    println!("label:   {label}");
    println!(
        "records: {} held, {} shed by the ring before them",
        flight.records.len(),
        flight.dropped
    );
    let mut by_kind: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for r in &flight.records {
        *by_kind.entry(r.event.kind()).or_insert(0) += 1;
    }
    for (kind, count) in &by_kind {
        println!("  {kind:<14} {count}");
    }
    if stats || flight.records.is_empty() {
        return Ok(());
    }
    let skip = flight.records.len().saturating_sub(limit);
    if skip > 0 {
        println!("\nlast {limit} records ({skip} earlier records not shown; --limit raises):");
    } else {
        println!("\nrecords:");
    }
    for (i, r) in flight.records.iter().enumerate().skip(skip) {
        println!("{}", record_line(i, r));
    }
    Ok(())
}

fn cmd_trace_filter(args: &[String]) -> Result<(), String> {
    let mut kind: Option<String> = None;
    let mut node: Option<u32> = None;
    let mut limit = 1_000usize;
    let positional = walk_options(args, |flag, value| {
        match flag {
            "kind" => kind = Some(value.to_string()),
            "node" => node = Some(parse_num(flag, value)?),
            "limit" => limit = parse_num(flag, value)?,
            _ => return Err(format!("trace filter: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("trace filter: exactly one flight path is required".into());
    };
    if kind.is_none() && node.is_none() {
        return Err("trace filter: at least one of --kind or --node is required".into());
    }
    let (_, flight) = open_flight(path)?;

    let matches: Vec<_> = flight
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| kind.as_deref().is_none_or(|k| r.event.kind() == k))
        .filter(|(_, r)| node.is_none_or(|n| r.event.node() == Some(NodeId(n))))
        .collect();
    let skip = matches.len().saturating_sub(limit);
    println!(
        "{} of {} records match{}",
        matches.len(),
        flight.records.len(),
        if skip > 0 {
            format!(" (showing the last {limit}; --limit raises)")
        } else {
            String::new()
        }
    );
    for &(i, r) in &matches[skip..] {
        println!("{}", record_line(i, r));
    }
    Ok(())
}

fn cmd_trace_top(args: &[String]) -> Result<(), String> {
    // `--tree` is valueless; pull it out before the `--flag value` walker.
    let mut tree = false;
    let args: Vec<String> = args
        .iter()
        .filter(|a| {
            let is_tree = a.as_str() == "--tree";
            tree |= is_tree;
            !is_tree
        })
        .cloned()
        .collect();

    let mut n = 10usize;
    let positional = walk_options(&args, |flag, value| {
        match flag {
            "n" => n = parse_num(flag, value)?,
            _ => return Err(format!("trace top: unknown option --{flag}")),
        }
        Ok(())
    })?;
    let [path] = positional.as_slice() else {
        return Err("trace top: exactly one flight path is required".into());
    };
    let (_, flight) = open_flight(path)?;

    if tree {
        print_pause_tree(&flight);
        return Ok(());
    }

    let end = flight
        .records
        .last()
        .map(|r| r.at)
        .unwrap_or(SimTime::ZERO);
    let top = flight.pause_time_by_port(end);
    if top.is_empty() {
        println!("no PFC pause intervals in this trace");
        return Ok(());
    }
    println!("top {} queues by PFC pause-time (open intervals closed at {end}):", n.min(top.len()));
    println!("{:<8} {:<6} {}", "switch", "port", "paused");
    for ((node, port), paused) in top.iter().take(n) {
        println!("{:<8} {:<6} {}", format!("sw{}", node.0), port, paused);
    }
    Ok(())
}

/// Renders the pause-propagation forest from the trace's PFC wait-for
/// edges: an edge `src -> node` means a frame from `src` paused `node`'s
/// egress toward it, i.e. backpressure propagated from `src` upstream to
/// `node`. Roots are pause origins (never themselves paused); a back edge
/// to an ancestor is marked as a cycle — the signature of PFC deadlock.
fn print_pause_tree(flight: &FlightTrace) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut children: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut paused: BTreeSet<u32> = BTreeSet::new();
    for (_, node, src, pause) in flight.pause_edges() {
        if pause {
            children.entry(src.0).or_default().insert(node.0);
            paused.insert(node.0);
        }
    }
    if children.is_empty() {
        println!("no PFC pause (XOFF) deliveries in this trace");
        return;
    }
    fn walk(
        node: u32,
        children: &BTreeMap<u32, BTreeSet<u32>>,
        path: &mut Vec<u32>,
        depth: usize,
        seen: &mut BTreeSet<u32>,
    ) {
        println!("{}sw{}", "  ".repeat(depth), node);
        seen.insert(node);
        path.push(node);
        if let Some(kids) = children.get(&node) {
            for &kid in kids {
                if path.contains(&kid) {
                    println!(
                        "{}sw{} ^ cycle back into the chain",
                        "  ".repeat(depth + 1),
                        kid
                    );
                    seen.insert(kid);
                } else {
                    walk(kid, children, path, depth + 1, seen);
                }
            }
        }
        path.pop();
    }
    let roots: Vec<u32> = children
        .keys()
        .filter(|k| !paused.contains(k))
        .copied()
        .collect();
    println!("pause propagation (roots are pause origins):");
    let mut seen = BTreeSet::new();
    for root in roots {
        walk(root, &children, &mut Vec::new(), 0, &mut seen);
    }
    // Components with no pure origin are wait-for cycles — the deadlock
    // signature — and are unreachable from any root, so walk them too,
    // entering each at its smallest unvisited pauser.
    loop {
        let Some(&entry) = children.keys().find(|k| !seen.contains(k)) else {
            break;
        };
        println!("(cyclic component, no pure origin:)");
        walk(entry, &children, &mut Vec::new(), 0, &mut seen);
    }
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    // `--replay` is valueless; pull it out before the `--flag value` walker.
    let mut replay = false;
    let args: Vec<String> = args
        .iter()
        .filter(|a| {
            let is_replay = a.as_str() == "--replay";
            replay |= is_replay;
            !is_replay
        })
        .cloned()
        .collect();

    let mut cfg = bfc_experiments::FuzzConfig::new();
    cfg.shards = ParallelRunner::from_env().shards();
    let mut out: Option<PathBuf> = None;
    let positional = walk_options(&args, |flag, value| {
        match flag {
            "out" => out = Some(PathBuf::from(value)),
            "seed" => cfg.seed = parse_num(flag, value)?,
            "budget" => {
                cfg.budget = parse_num(flag, value)?;
                if cfg.budget == 0 {
                    return Err("--budget must be at least 1".into());
                }
            }
            "shrink-evals" => cfg.shrink_evals = parse_num(flag, value)?,
            "objective" => {
                cfg.objective = bfc_experiments::fuzz::Objective::from_cli_key(value)
                    .ok_or_else(|| format!("--objective: unknown objective {value}"))?;
            }
            "scheme" => {
                let schemes = parse_schemes(value)
                    .ok_or_else(|| format!("--scheme: unknown scheme {value}"))?;
                let [scheme] = schemes.as_slice() else {
                    return Err("fuzz: --scheme requires a single scheme, not a lineup".into());
                };
                cfg.scheme = scheme.clone();
            }
            "topo" => {
                cfg.topos = value.split(',').map(str::to_string).collect();
                for name in &cfg.topos {
                    if parse_topology(name).is_none() {
                        return Err(format!("--topo: unknown topology {name}"));
                    }
                }
            }
            "shards" => cfg.shards = parse_count("--shards", value)?,
            _ => return Err(format!("fuzz: unknown option --{flag}")),
        }
        Ok(())
    })?;
    if !positional.is_empty() {
        return Err(format!("fuzz: unexpected argument {}", positional[0]));
    }
    let out = out.ok_or("fuzz: --out <path> is required")?;

    let outcome = bfc_experiments::fuzz::fuzz(&cfg)?;
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
    std::fs::write(&out, &text).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "fuzzed scheme {} for objective `{}`: {} evaluations, {} shrink step{}, \
         score {:.4} (pre-shrink {:.4})\nwrote reproducer to {}",
        cfg.scheme.name(),
        cfg.objective.cli_key(),
        outcome.evals,
        outcome.shrink_steps,
        if outcome.shrink_steps == 1 { "" } else { "s" },
        outcome.score,
        outcome.original_score,
        out.display(),
    );

    if replay {
        // Prove the artifact (not the in-memory case) is what replays: read
        // the file back, parse it, and run it.
        let text = std::fs::read_to_string(&out)
            .map_err(|e| format!("reading {}: {e}", out.display()))?;
        let repro = bfc_experiments::Reproducer::parse(&text)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        let result = repro.replay(cfg.shards)?;
        println!("\nreplayed from {}:\n", out.display());
        print_results_table(std::slice::from_ref(&result));
        println!("{}", safety_line(&result));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return fail("missing command");
    };
    // `scenario` and `trace` can exit nonzero *without* a usage error (a
    // divergence found by `trace diff` / `--diff-schemes` is a result, not a
    // misuse), so commands return an exit code on success.
    let result = match command.as_str() {
        "synth" => cmd_synth(rest).map(|()| ExitCode::SUCCESS),
        "stats" => cmd_stats(rest).map(|()| ExitCode::SUCCESS),
        "replay" => cmd_replay(rest).map(|()| ExitCode::SUCCESS),
        "snapshot" => cmd_snapshot(rest).map(|()| ExitCode::SUCCESS),
        "resume" => cmd_resume(rest).map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(rest).map(|()| ExitCode::SUCCESS),
        "scenario" => cmd_scenario(rest),
        "trace" => cmd_trace(rest),
        "fuzz" => cmd_fuzz(rest).map(|()| ExitCode::SUCCESS),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => return fail(&format!("unknown command `{other}`")),
    };
    match result {
        Ok(code) => code,
        Err(msg) => fail(&msg),
    }
}
