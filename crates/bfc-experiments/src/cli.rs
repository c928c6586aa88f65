//! The command-line shell, as a library: the only place a command line is
//! read. [`trace_tool`] and [`fig`] take the arguments and an [`Io`] and
//! return the exit code, so the binaries are a few lines each and every
//! command — its flags, errors, files and output — runs in-process under
//! `cargo test` (`tests/cli.rs`). `bfc-bench` parses with the same [`Args`].
//!
//! `trace-tool` works on workload traces in the CSV format of
//! `bfc_workloads::io`:
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
//! tailed CSV file (or a FIFO) under an inflight cap.
//!
//! Adversarial mode: `scenario` runs a fault-injection file and reports
//! recovery and safety metrics; `fuzz` searches for the (workload, fault
//! schedule) a scheme handles worst and shrinks it to a minimal reproducer
//! (see [`crate::fuzz`]). `trace` records and reads flight-recorder traces.
//!
//! `fig <NN|all>` prints the paper figures of [`crate::figures::FIGURES`].

mod adversarial;
mod args;
mod flight;

use std::process::ExitCode;

use bfc_net::topology::Topology;
use bfc_sim::{SimDuration, SimTime};
use bfc_workloads::ingest::CsvTail;
use bfc_workloads::io::{read_csv_file, write_csv_file, TraceStats};
use bfc_workloads::{synthesize, ArrivalShape, IncastSchedule, TraceParams};

use self::args::{errln, json_str, outln};
pub use self::args::{Args, Io, Usage};
use crate::figures::{Scale, FIGURES};
use crate::fuzz::{topology_by_name, workload_from_cli_key};
use crate::parallel::{parse_count, ParallelRunner};
use crate::runner::{horizon_from_micros, ExperimentConfig, ExperimentResult, MAX_HORIZON};
use crate::service::{self, MetricsHub};
use crate::sharded::ShardPlan;
use crate::table::{Cell, Table};
use crate::{ReplayTrace, Scheme};

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
                            (bit-identical results) [1]

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
    --tail <csv>            stream flows from this file or FIFO (required);
                            with --follow, keep polling at EOF until a line
                            reading `#end`
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
                            (bit-identical results) [1]
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

/// Why a `trace-tool` command failed.
enum Failure {
    /// The command line is wrong: the message, then the usage.
    Usage(Usage),
    /// An input is bad — a file that does not read or parse, a run that is
    /// refused: the message alone.
    Input(String),
}

impl From<Usage> for Failure {
    fn from(usage: Usage) -> Failure {
        Failure::Usage(usage)
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Failure {
        Failure::Input(message)
    }
}

/// What a `trace-tool` command returns.
type Outcome = Result<ExitCode, Failure>;

/// Runs `trace-tool` on `args` (the process arguments after the program
/// name), writing to `io`, and returns its exit code. A command can exit
/// nonzero without a usage error (a divergence found by `trace diff` /
/// `--diff-schemes` is a result, not a misuse), so each returns the code.
/// A failure is one `trace-tool:` line on `io.err`, followed by the usage
/// only when the command line itself was wrong.
pub fn trace_tool(args: &[String], io: &mut Io<'_>) -> ExitCode {
    let result = match args.split_first() {
        None => Err(Usage("missing command".into()).into()),
        Some((command, rest)) => match command.as_str() {
            "synth" => cmd_synth(rest, io),
            "stats" => cmd_stats(rest, io),
            "replay" => cmd_replay(rest, io),
            "snapshot" => cmd_snapshot(rest, io),
            "resume" => cmd_resume(rest, io),
            "serve" => cmd_serve(rest, io),
            "scenario" => adversarial::cmd_scenario(rest, io),
            "trace" => flight::cmd_trace(rest, io),
            "fuzz" => adversarial::cmd_fuzz(rest, io),
            "--help" | "-h" | "help" => {
                outln!(io, "{USAGE}");
                Ok(ExitCode::SUCCESS)
            }
            other => Err(Usage(format!("unknown command `{other}`")).into()),
        },
    };
    match result {
        Ok(code) => code,
        Err(Failure::Usage(Usage(message))) => {
            errln!(io, "trace-tool: {message}\n\n{USAGE}");
            ExitCode::FAILURE
        }
        Err(Failure::Input(message)) => {
            errln!(io, "trace-tool: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `fig <NN|all> [--full] [--bursty] [--lognormal-incast] [--shards n]`:
/// prints the chosen rows of [`FIGURES`] at the [`Scale`] the options ask
/// for. Anything it does not understand is one `error:` line on `io.err`,
/// nothing on `io.out` and a failure exit code.
pub fn fig(args: &[String], io: &mut Io<'_>) -> ExitCode {
    let which = args.first().map(String::as_str);
    let chosen: Vec<_> = FIGURES
        .iter()
        .filter(|(nn, ..)| which == Some("all") || which == Some(nn))
        .collect();
    let mut args = Args::new("fig", args.get(1..).unwrap_or_default());
    let scale = if chosen.is_empty() {
        let list: String = FIGURES
            .iter()
            .map(|(nn, title, _)| format!("\n  {nn}  {title}"))
            .collect();
        let found = which.map_or("no figure given".to_string(), |w| {
            format!("no figure `{w}`")
        });
        Err(format!("fig: {found}; pick one by number, or `all`:{list}"))
    } else {
        Scale::from_args(&mut args)
            .and_then(|scale| Ok(args.positional::<0>("").map(|[]| scale)?))
    };
    match scale {
        Ok(scale) => {
            for table in chosen.iter().flat_map(|(_, _, run)| run(&scale)) {
                outln!(io, "{table}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            errln!(io, "error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `n thing` / `n things`.
fn count(n: usize, thing: &str) -> String {
    format!("{n} {thing}{}", if n == 1 { "" } else { "s" })
}

/// A scheme key, or `lineup` / `all` for the paper's six.
fn parse_schemes(name: &str) -> Option<Vec<Scheme>> {
    match name {
        "lineup" | "all" => Some(Scheme::paper_lineup()),
        key => Scheme::from_cli_key(key).map(|s| vec![s]),
    }
}

/// `--topo`: the topology to run over and its name [tiny].
fn topo_arg(args: &mut Args) -> Result<(Topology, String), Usage> {
    let parse = |name: &str| Some((topology_by_name(name)?, name.to_string()));
    args.keyed("topo", "topology", parse, "tiny")
}

/// The scheme, if `schemes` is exactly one.
fn single(schemes: Vec<Scheme>) -> Option<Scheme> {
    <[Scheme; 1]>::try_from(schemes).ok().map(|[scheme]| scheme)
}

/// `--scheme` for a command that runs exactly one [bfc].
fn scheme_arg(args: &mut Args) -> Result<Scheme, Usage> {
    let schemes = args.keyed("scheme", "scheme", parse_schemes, "bfc")?;
    let lineup = || {
        Usage(format!(
            "{}: --scheme requires a single scheme, not a lineup",
            args.cmd()
        ))
    };
    single(schemes).ok_or_else(lineup)
}

/// `--shards`, if given: a positive count.
fn shards_arg(args: &mut Args) -> Result<Option<usize>, Usage> {
    args.text("shards")?
        .map(|value| parse_count("--shards", &value).map_err(Usage))
        .transpose()
}

/// The runner a command dispatches its runs on: `BFC_THREADS` workers, each
/// run split across `--shards` engine shards (default 1).
/// Results are bit-identical at any shard count; only wall-clock changes.
pub(crate) fn runner_arg(args: &mut Args) -> Result<ParallelRunner, Usage> {
    let runner = ParallelRunner::from_env();
    Ok(shards_arg(args)?.map_or(runner, |shards| runner.with_shards(shards)))
}

/// A `--duration-us` / `--horizon-us` value as a duration: positive, and no
/// longer than [`crate::MAX_HORIZON`] — a run allocates in proportion to its
/// horizon. `what` names the option as the command's messages do.
fn horizon_us(what: &str, us: u64) -> Result<SimDuration, Usage> {
    if us == 0 {
        return Err(Usage(format!("{what} must be positive")));
    }
    horizon_from_micros(us).map_err(|e| Usage(format!("{what}: {e}")))
}

/// The paper-default configuration of one run under the shared options.
/// This is where `--drain-x` becomes a duration, so it is where the drain is
/// bounded: a faulted run samples through its drain, one scheduled tick per
/// sample interval, exactly as it does through its horizon. The limit is
/// what the default multiple of the longest admissible horizon comes to.
fn run_config(
    scheme: Scheme,
    horizon: SimDuration,
    seed: u64,
    drain_x: u64,
) -> Result<ExperimentConfig, Usage> {
    let max_drain = MAX_HORIZON * 4;
    let drain = horizon
        .as_picos()
        .checked_mul(drain_x)
        .map(SimDuration::from_picos)
        .filter(|&drain| drain <= max_drain)
        .ok_or_else(|| {
            Usage(format!(
                "--drain-x {drain_x}: draining {drain_x} x the {horizon} horizon exceeds the \
                 limit of {max_drain} of simulated time"
            ))
        })?;
    let mut config = ExperimentConfig::new(scheme, horizon).with_seed(seed);
    config.drain = drain;
    Ok(config)
}

fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
}

fn cmd_synth(args: &[String], io: &mut Io<'_>) -> Outcome {
    let mut args = Args::new("synth", args);
    let out: String = args.required("out", "path")?;
    let (topo, topo_name) = topo_arg(&mut args)?;
    let workload = args.keyed("workload", "workload", workload_from_cli_key, "google")?;
    let load = args.num("load", 0.6f64)?;
    let incast_load = args.num("incast-load", 0.05f64)?;
    let fan_in = args.num("fan-in", 6usize)?;
    let incast_bytes = args.num("incast-bytes", 500_000u64)?;
    let duration_us = args.num("duration-us", 300u64)?;
    let seed = args.num("seed", 1u64)?;
    let shape = |name: &str| match name {
        "lognormal" => Some(ArrivalShape::paper_default()),
        "poisson" => Some(ArrivalShape::Poisson),
        "bursty" => Some(ArrivalShape::bursty_default()),
        _ => None,
    };
    let arrivals = args.keyed("arrivals", "shape", shape, "lognormal")?;
    let schedule = |name: &str| match name {
        "periodic" => Some(IncastSchedule::Periodic),
        "lognormal" => Some(IncastSchedule::LogNormalGaps { sigma: 1.0 }),
        _ => None,
    };
    let incast_schedule = args.keyed("incast-schedule", "schedule", schedule, "periodic")?;
    let [] = args.positional::<0>("")?;
    let duration = horizon_us("synth: --duration-us", duration_us)?;

    let hosts = topo.hosts();
    let params = TraceParams {
        workload,
        load,
        incast_load,
        incast_fan_in: fan_in,
        incast_total_bytes: incast_bytes,
        duration,
        host_gbps: topo.host_uplink(hosts[0]).link.rate_gbps,
        seed,
        arrivals,
        incast_schedule,
    };
    params
        .check(hosts.len())
        .map_err(|e| Usage(format!("synth: {e}")))?;
    let flows = synthesize(&hosts, &params);
    write_csv_file(&out, &flows).map_err(|e| format!("writing {out}: {e}"))?;
    outln!(
        io,
        "wrote {} flows over {duration} ({} hosts of `{topo_name}`) to {out}",
        flows.len(),
        hosts.len(),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_stats(args: &[String], io: &mut Io<'_>) -> Outcome {
    let mut args = Args::new("stats", args);
    let gbps = args.num("gbps", 100.0f64)?;
    let [path] = args.positional::<1>("one trace path is")?;
    let flows = read_csv_file(&path).map_err(|e| format!("{path}: {e}"))?;
    match TraceStats::from_flows(&flows, gbps) {
        Some(stats) => outln!(io, "{stats}"),
        None => outln!(io, "{path}: empty trace"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_replay(args: &[String], io: &mut Io<'_>) -> Outcome {
    let mut args = Args::new("replay", args);
    let runner = runner_arg(&mut args)?;
    let (topo, topo_name) = topo_arg(&mut args)?;
    let schemes = args.keyed("scheme", "scheme", parse_schemes, "bfc")?;
    let seed = args.num("seed", 1u64)?;
    let drain_x = args.num("drain-x", 4u64)?;
    let [path] = args.positional::<1>("one trace path is")?;

    let replay = ReplayTrace::from_csv_path(&path).map_err(|e| format!("{path}: {e}"))?;
    let horizon = replay.horizon();
    let configs = schemes
        .into_iter()
        .map(|scheme| run_config(scheme, horizon, seed, drain_x))
        .collect::<Result<Vec<ExperimentConfig>, Usage>>()?;
    let results = replay
        .run_all(&topo, &configs, &runner)
        .map_err(|e| format!("{path}: {e}"))?;
    outln!(
        io,
        "replayed {} flows (horizon {horizon}) over `{topo_name}` with {}\n",
        replay.flows().len(),
        count(runner.threads(), "worker thread"),
    );
    print_results_table(io, &results);
    print_engine_counters(io, &results);
    Ok(ExitCode::SUCCESS)
}

/// Per-run engine-internal counters, read uniformly from the unified
/// registry — a one-shard run prints the same line with its one batch of
/// one window — and, for a run on several shards, where each worker thread's
/// wall-clock went: busy between barrier crossings, waiting in them (and
/// that as a share of both), and how many of the `barriers` crossings ended
/// asleep. Written to stderr so stdout stays byte-identical across shard
/// counts (tests diff it).
fn print_engine_counters(io: &mut Io<'_>, results: &[ExperimentResult]) {
    for r in results {
        let e = r.epochs();
        errln!(
            io,
            "engine[{}]: queue-overflow {} epoch-batches {} windows {} barriers {} \
             cross-shard msgs {}",
            r.scheme,
            r.queue_overflow_pushes(),
            e.batches,
            e.windows,
            e.barriers,
            e.boundary_events,
        );
        if r.shard_walls.is_empty() {
            continue;
        }
        let workers: Vec<String> = r
            .shard_walls
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let share = w.wait.as_secs_f64() / (w.busy + w.wait).as_secs_f64().max(1e-9);
                format!(
                    "{i}: busy {} ms wait {} ms ({:.0} %) parked {}",
                    w.busy.as_millis(),
                    w.wait.as_millis(),
                    100.0 * share,
                    w.parked
                )
            })
            .collect();
        errln!(io, "shards[{}]: {}", r.scheme, workers.join(" · "));
    }
}

/// The replay results table, shared by `replay`, `resume`, `serve` and
/// `fuzz --replay` so a resumed run's table is byte-identical to the
/// uninterrupted replay's.
fn print_results_table(io: &mut Io<'_>, results: &[ExperimentResult]) {
    let columns = [
        "scheme",
        "completed",
        "p50",
        "p99",
        "util %",
        "drops",
        "retx",
    ];
    let mut table = Table::new("", columns);
    for r in results {
        let (p50, p99) = r
            .fct
            .overall
            .as_ref()
            .map_or((f64::NAN, f64::NAN), |o| (o.p50, o.p99));
        table.push(vec![
            Cell::Text(r.scheme.clone()),
            Cell::Text(format!("{}/{}", r.completed_flows, r.total_flows)),
            Cell::Fixed(p50, 2),
            Cell::Fixed(p99, 2),
            Cell::Fixed(r.utilization() * 100.0, 1),
            Cell::Int(r.drops),
            Cell::Int(r.retransmitted_packets()),
        ]);
    }
    outln!(
        io,
        "{table}\n(FCT slowdown percentiles over non-incast flows)"
    );
}

/// The options `snapshot`, `resume`, `serve` and `trace record` share: one
/// topology, one scheme, one seed, one drain multiple.
struct RunOptions {
    topo: Topology,
    topo_name: String,
    scheme: Scheme,
    seed: u64,
    drain_x: u64,
}

impl RunOptions {
    fn from_args(args: &mut Args) -> Result<RunOptions, Usage> {
        let (topo, topo_name) = topo_arg(args)?;
        Ok(RunOptions {
            topo,
            topo_name,
            scheme: scheme_arg(args)?,
            seed: args.num("seed", 1)?,
            drain_x: args.num("drain-x", 4)?,
        })
    }

    fn config(&self, horizon: SimDuration) -> Result<ExperimentConfig, Usage> {
        run_config(self.scheme.clone(), horizon, self.seed, self.drain_x)
    }

    /// Loads the trace `cmd` runs over and validates it against the
    /// topology, exactly like `replay` does.
    fn load_trace(&self, cmd: &str, path: &str) -> Result<ReplayTrace, String> {
        let replay = ReplayTrace::from_csv_path(path).map_err(|e| format!("{path}: {e}"))?;
        replay
            .validate(&self.topo)
            .map_err(|e| format!("{cmd}: {path}: {e}"))?;
        Ok(replay)
    }
}

fn cmd_snapshot(args: &[String], io: &mut Io<'_>) -> Outcome {
    let mut args = Args::new("snapshot", args);
    let opts = RunOptions::from_args(&mut args)?;
    let at_us: f64 = args.required("at-us", "n")?;
    let out: String = args.required("out", "snap")?;
    let shards = shards_arg(&mut args)?.unwrap_or(1);
    let [path] = args.positional::<1>("one trace path is")?;
    if !(at_us >= 0.0 && at_us.is_finite()) {
        return Err(Usage(format!(
            "snapshot: --at-us must be a non-negative time, got {at_us}"
        ))
        .into());
    }

    let replay = opts.load_trace("snapshot", &path)?;
    let config = opts.config(replay.horizon())?;
    // Any instant is a valid cut, at any shard count — fractions of a
    // microsecond included.
    let at = SimTime::from_picos((at_us * 1e6).round() as u64);
    let blob = service::snapshot_experiment(&opts.topo, replay.flows(), &config, at, shards);
    // The plan clamps the request to the number of switches.
    let shards = ShardPlan::partition(&opts.topo, shards)
        .expect("snapshot_experiment partitioned the same topology")
        .num_shards();
    write_file(&out, &blob)?;
    outln!(
        io,
        "snapshotted `{path}` ({} flows, scheme {}) at {at} into {out} ({} bytes, {})",
        replay.flows().len(),
        config.scheme.name(),
        blob.len(),
        count(shards, "shard"),
    );
    Ok(ExitCode::SUCCESS)
}

fn cmd_resume(args: &[String], io: &mut Io<'_>) -> Outcome {
    let mut args = Args::new("resume", args);
    let opts = RunOptions::from_args(&mut args)?;
    let snap_path: String = args.required("snapshot", "snap")?;
    let [path] = args.positional::<1>("one trace path is")?;

    let replay = opts.load_trace("resume", &path)?;
    let horizon = replay.horizon();
    let blob = std::fs::read(&snap_path).map_err(|e| format!("reading {snap_path}: {e}"))?;
    let result =
        service::resume_experiment(&opts.topo, replay.flows(), &opts.config(horizon)?, &blob)
            .map_err(|e| format!("{snap_path}: {e}"))?;
    outln!(
        io,
        "resumed {} flows (horizon {horizon}) over `{}` from `{snap_path}`\n",
        replay.flows().len(),
        opts.topo_name,
    );
    print_results_table(io, std::slice::from_ref(&result));
    Ok(ExitCode::SUCCESS)
}

fn cmd_serve(args: &[String], io: &mut Io<'_>) -> Outcome {
    let mut args = Args::new("serve", args);
    let follow = args.switch("follow");
    let opts = RunOptions::from_args(&mut args)?;
    let tail_path: String = args.required("tail", "csv")?;
    let metrics_addr = args.text("metrics")?;
    let cap = args.positive("cap", 64)?;
    let horizon = horizon_us("--horizon-us", args.num("horizon-us", 300)?)?;
    let [] = args.positional::<0>("")?;
    let config = opts.config(horizon)?;

    // Live metrics exposition; observation never feeds back into the run.
    let hub = MetricsHub::new();
    if let Some(addr) = &metrics_addr {
        let local = service::spawn_scrape_server(addr, &hub)
            .map_err(|e| format!("binding metrics address {addr}: {e}"))?;
        errln!(io, "metrics listening on {local}");
    }
    let metrics = metrics_addr.is_some().then_some(&hub);

    let mut source =
        CsvTail::open(&tail_path, follow).map_err(|e| format!("opening {tail_path}: {e}"))?;
    let report = service::serve_experiment_with(&opts.topo, &config, &mut source, cap, metrics)
        .map_err(|e| format!("serve: {e}"))?;
    outln!(
        io,
        "served {} flows (horizon {}) over `{}` under inflight cap {cap}\n",
        report.admitted,
        config.horizon,
        opts.topo_name,
    );
    print_results_table(io, std::slice::from_ref(&report.result));
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The drain limit is the default multiple of the longest horizon, so it
    /// refuses nothing the horizon limit admits under default flags.
    #[test]
    fn the_drain_limit_admits_the_default_multiple_of_the_longest_horizon() {
        let drain = |horizon, x| run_config(Scheme::bfc(), horizon, 1, x).map(|c| c.drain);
        assert_eq!(drain(MAX_HORIZON, 4), Ok(MAX_HORIZON * 4));
        assert_eq!(drain(MAX_HORIZON, 0), Ok(SimDuration::ZERO));
        assert_eq!(drain(SimDuration::ZERO, u64::MAX), Ok(SimDuration::ZERO));
        let micro = SimDuration::from_micros(1);
        assert_eq!(drain(micro, 40_000_000), Ok(MAX_HORIZON * 4));
        for (horizon, x) in [(MAX_HORIZON, 5), (micro, 40_000_001), (micro, u64::MAX)] {
            let Usage(refusal) = drain(horizon, x).expect_err("past the limit");
            assert!(refusal.contains("the limit of 40000000.000us"), "{refusal}");
        }
    }
}
