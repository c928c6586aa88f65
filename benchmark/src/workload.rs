//! The four workloads: their inputs, one rep of each, and the checks a rep
//! must pass.
//!
//! Closed loop, one driver thread: a rep starts when the previous one ends.
//! `--seed` feeds [`TraceParams::seed`] and nothing else — the simulator
//! receives only the generated flows.

use std::path::{Path, PathBuf};

use backpressure_flow_control::experiments::{
    resume_experiment, run_experiment, run_experiment_sharded, serve_experiment_with,
    snapshot_experiment, ExperimentConfig, ExperimentResult, MetricsHub, ScenarioSpec, Scheme,
};
use backpressure_flow_control::metrics::{mean, percentile};
use backpressure_flow_control::net::routing::RoutingTables;
use backpressure_flow_control::net::topology::{fat_tree, FatTreeParams, Topology};
use backpressure_flow_control::net::trace::{read_trace, write_trace};
use backpressure_flow_control::sim::{SimDuration, SimTime};
use backpressure_flow_control::workloads::{
    export_csv, import_csv, synthesize, CsvTail, TraceFlow, TraceParams, Workload as SizeDist,
};

use crate::digest::Digest;
use crate::names::WORKLOADS;
use crate::span::Spans;

/// Flows a serve phase may have admitted but not completed.
pub const INFLIGHT_CAP: usize = 64;
/// Flight-recorder ring of the record phase: large enough to shed nothing.
pub const TRACE_CAPACITY: usize = 1 << 22;
/// Shards (= threads) of `incast_t1_shard2`.
pub const SHARDS: usize = 2;
/// Traces a timed run cycles through. Hop counts and allocation counts per
/// trace swing by tens of percent with the seed (flow sizes are heavy-tailed
/// and the horizon is short); a run's metrics are taken over all of them so
/// that two seeds give comparable numbers.
pub const TRACES: usize = 8;

/// One of the four workloads, in [`WORKLOADS`] order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LineupT2,
    IncastT1,
    IncastT1Shard2,
    ServiceT2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::LineupT2,
        Workload::IncastT1,
        Workload::IncastT1Shard2,
        Workload::ServiceT2,
    ];

    pub fn name(self) -> &'static str {
        WORKLOADS[self as usize].0
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads a rep keeps busy.
    pub fn threads(self) -> usize {
        match self {
            Workload::IncastT1Shard2 => SHARDS,
            _ => 1,
        }
    }

    fn fat_tree(self) -> FatTreeParams {
        match self {
            Workload::LineupT2 | Workload::ServiceT2 => FatTreeParams::t2(),
            Workload::IncastT1 | Workload::IncastT1Shard2 => FatTreeParams::t1(),
        }
    }

    fn horizon(self) -> SimDuration {
        match self {
            Workload::ServiceT2 => SimDuration::from_micros(150),
            _ => SimDuration::from_micros(100),
        }
    }

    /// Parameters of the `index`-th trace of a run: `--seed` reaches the
    /// simulator only as these `TraceParams::seed`s, disjoint between seeds.
    fn trace_params(self, seed: u64, index: usize) -> TraceParams {
        let trace_seed = seed.wrapping_mul(TRACES as u64).wrapping_add(index as u64);
        let base = TraceParams::google_with_incast(self.horizon(), trace_seed);
        match self {
            // Google 60% + 5% incast, 40-to-1, 1 MB events.
            Workload::LineupT2 | Workload::ServiceT2 => TraceParams {
                incast_fan_in: 40,
                incast_total_bytes: 1_000_000,
                ..base
            },
            // FbHadoop 40% + 20% incast, 100-to-1, 2 MB events.
            Workload::IncastT1 | Workload::IncastT1Shard2 => TraceParams {
                workload: SizeDist::FbHadoop,
                load: 0.40,
                incast_load: 0.20,
                incast_fan_in: 100,
                incast_total_bytes: 2_000_000,
                ..base
            },
        }
    }

    fn schemes(self) -> Vec<Scheme> {
        match self {
            Workload::LineupT2 => Scheme::paper_lineup(),
            Workload::IncastT1 | Workload::IncastT1Shard2 => vec![Scheme::bfc()],
            Workload::ServiceT2 => {
                vec![Scheme::from_cli_key("dcqcn-win").expect("dcqcn-win is a registered scheme")]
            }
        }
    }
}

/// Everything a rep reads, built once per set-up.
pub struct Inputs {
    pub workload: Workload,
    pub topo: Topology,
    /// Not read by the reps (every run computes its own); the set-up cost is
    /// part of `setup_s` and the traced run's switch kernels route with it.
    pub routes: RoutingTables,
    /// Parameters of each trace; a rep runs one of them.
    pub params: Vec<TraceParams>,
    pub traces: Vec<Vec<TraceFlow>>,
    /// One config per experiment of a rep, in run order.
    pub configs: Vec<ExperimentConfig>,
    /// `service_t2`: each trace as a CSV file for the serve phase to tail.
    pub csv_paths: Vec<PathBuf>,
}

/// Pass/fail accounting; every failure keeps its description.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Builds a workload's inputs with `traces` traces. Spans: `setup.topology`,
/// `setup.routing`, `setup.synth`, and for `service_t2` `setup.csv` (export,
/// write, re-import; the re-import must equal the trace).
pub fn set_up(
    workload: Workload,
    seed: u64,
    traces: usize,
    out_dir: &Path,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<Inputs, String> {
    let topo = spans.span("setup.topology", |_| fat_tree(workload.fat_tree()));
    let routes = spans.span("setup.routing", |_| RoutingTables::compute(&topo));
    let hosts = topo.hosts();
    let params: Vec<TraceParams> = (0..traces)
        .map(|k| workload.trace_params(seed, k))
        .collect();
    let traces: Vec<Vec<TraceFlow>> = params
        .iter()
        .map(|p| spans.span("setup.synth", |_| synthesize(&hosts, p)))
        .collect();
    if traces.iter().any(Vec::is_empty) {
        return Err(format!("seed {seed} synthesized an empty trace"));
    }

    let horizon = workload.horizon();
    let mut configs: Vec<ExperimentConfig> = workload
        .schemes()
        .into_iter()
        .map(|scheme| ExperimentConfig::new(scheme, horizon))
        .collect();

    let mut csv_paths = Vec::new();
    if workload == Workload::ServiceT2 {
        let fault = ScenarioSpec::single_link_down_up("tor0", "spine0", horizon / 4, horizon / 2)
            .resolve(&topo)
            .map_err(|e| format!("fault scenario does not resolve: {e}"))?;
        configs[0] = configs[0].clone().with_dynamics(fault);

        for (k, trace) in traces.iter().enumerate() {
            let path = out_dir.join(format!("{}.seed{seed}.{k}.csv", workload.name()));
            spans.span("setup.csv", |_| -> Result<(), String> {
                let text = export_csv(trace);
                std::fs::write(&path, &text)
                    .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
                let back = import_csv(&text);
                checks.check(matches!(&back, Ok(b) if b == trace), || {
                    "import_csv(export_csv(trace)) != trace".to_string()
                });
                Ok(())
            })?;
            csv_paths.push(path);
        }
    }

    Ok(Inputs {
        workload,
        topo,
        routes,
        params,
        traces,
        configs,
        csv_paths,
    })
}

/// One experiment of a rep.
pub struct Run {
    /// The span key: a scheme's CLI key, or the phase name.
    pub key: String,
    pub wall_s: f64,
    pub result: ExperimentResult,
}

/// Phase walls and sizes of one `service_t2` rep.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServicePhases {
    pub serve_s: f64,
    pub snapshot_s: f64,
    pub resume_s: f64,
    pub record_s: f64,
    pub write_s: f64,
    pub read_s: f64,
    pub diff_s: f64,
    pub trace_records: usize,
    pub trace_bytes: usize,
}

/// What one rep produced.
pub struct Rep {
    pub runs: Vec<Run>,
    pub service: Option<ServicePhases>,
    pub checks: Checks,
}

impl Rep {
    /// Packets received by switches, summed over the rep's experiments: the
    /// unit of simulated work every speed is stated per.
    pub fn pkt_hops(&self) -> u64 {
        self.runs
            .iter()
            .map(|r| r.result.registry.family_total("bfc_switch_rx_packets"))
            .sum()
    }

    pub fn digest(&self) -> Digest {
        Digest::of(self.runs.iter().map(|r| &r.result))
    }

    pub fn run(&self, key: &str) -> Option<&Run> {
        self.runs.iter().find(|r| r.key == key)
    }
}

/// Runs one rep on the `k`-th trace. Every call into a layer sits in its own span:
/// `runner.run.<scheme-key>`, `sharded.run`, `service.serve`,
/// `service.snapshot`, `service.resume`, `trace.record`, `trace.write`,
/// `trace.read`, `trace.diff`.
pub fn run_rep(inputs: &Inputs, k: usize, spans: &mut Spans) -> Rep {
    let (topo, trace) = (&inputs.topo, &inputs.traces[k][..]);
    let mut checks = Checks::default();
    match inputs.workload {
        Workload::LineupT2 | Workload::IncastT1 => {
            let runs = inputs
                .configs
                .iter()
                .map(|config| {
                    let key = config.scheme.cli_key();
                    let (result, wall_s) = spans.timed(&format!("runner.run.{key}"), |_| {
                        run_experiment(topo, trace, config)
                    });
                    Run {
                        key: key.to_string(),
                        wall_s,
                        result,
                    }
                })
                .collect();
            Rep {
                runs,
                service: None,
                checks,
            }
        }
        Workload::IncastT1Shard2 => {
            let config = &inputs.configs[0];
            let (result, wall_s) = spans.timed("sharded.run", |_| {
                run_experiment_sharded(topo, trace, config, SHARDS)
            });
            Rep {
                runs: vec![Run {
                    key: config.scheme.cli_key().to_string(),
                    wall_s,
                    result,
                }],
                service: None,
                checks,
            }
        }
        Workload::ServiceT2 => {
            let config = &inputs.configs[0];
            let mut phases = ServicePhases::default();

            // Serve: stream the CSV written in set-up under the inflight cap,
            // publishing live metrics on every admission.
            let csv = &inputs.csv_paths[k];
            let hub = MetricsHub::new();
            let (report, wall) = spans.timed("service.serve", |_| {
                let mut tail = CsvTail::open(csv, false).expect("the CSV written in set-up opens");
                serve_experiment_with(topo, config, &mut tail, INFLIGHT_CAP, Some(&hub))
                    .expect("a CSV this benchmark exported streams without error")
            });
            phases.serve_s = wall;
            checks.check(report.admitted == trace.len(), || {
                format!(
                    "serve admitted {} of {} flows",
                    report.admitted,
                    trace.len()
                )
            });

            // Checkpoint: cut at half the horizon, resume to the end.
            let cut = SimTime::ZERO + config.horizon / 2;
            let (snapshot, wall) = spans.timed("service.snapshot", |_| {
                snapshot_experiment(topo, trace, config, cut, 1)
            });
            phases.snapshot_s = wall;
            let (resumed, wall) = spans.timed("service.resume", |_| {
                resume_experiment(topo, trace, config, &snapshot)
                    .expect("a snapshot resumes against the inputs it was taken from")
            });
            phases.resume_s = wall;

            // Record: the same run, uninterrupted, with the flight recorder
            // on; its container must read back to an identical trace.
            let traced = config.clone().with_trace_capacity(TRACE_CAPACITY);
            let (recorded, wall) =
                spans.timed("trace.record", |_| run_experiment(topo, trace, &traced));
            phases.record_s = wall;
            let flight = recorded.flight.as_ref().expect("tracing was on");
            let (bytes, wall) = spans.timed("trace.write", |_| {
                write_trace(inputs.workload.name(), flight)
            });
            phases.write_s = wall;
            let (read_back, wall) = spans.timed("trace.read", |_| read_trace(&bytes));
            phases.read_s = wall;
            let (same, wall) = spans.timed("trace.diff", |_| match &read_back {
                Ok((_, back)) => flight.diff(back).is_none(),
                Err(_) => false,
            });
            phases.diff_s = wall;
            phases.trace_records = flight.records.len();
            phases.trace_bytes = bytes.len();
            checks.check(same, || {
                "a written trace does not read back identical".to_string()
            });

            checks.check(Digest::of([&resumed]) == Digest::of([&recorded]), || {
                "resumed run's digest differs from the uninterrupted run's".to_string()
            });

            let run = |key: &str, wall_s, result| Run {
                key: key.to_string(),
                wall_s,
                result,
            };
            Rep {
                runs: vec![
                    run("serve", phases.serve_s, report.result),
                    run("resume", phases.snapshot_s + phases.resume_s, resumed),
                    run("record", phases.record_s, recorded),
                ],
                service: Some(phases),
                checks,
            }
        }
    }
}

/// A flow of at most this many bytes is "short" (the paper's smallest bucket).
pub const SHORT_FLOW_BYTES: u64 = 3_000;

/// `(p99 short-flow, p99, mean)` FCT slowdown over the non-incast flows, with
/// the percentile the repository's figures use (0 where there are no flows).
pub fn slowdowns(result: &ExperimentResult) -> (f64, f64, f64) {
    let flows = || result.records.iter().filter(|r| !r.is_incast);
    let every: Vec<f64> = flows().map(|r| r.slowdown()).collect();
    let short: Vec<f64> = flows()
        .filter(|r| r.size_bytes <= SHORT_FLOW_BYTES)
        .map(|r| r.slowdown())
        .collect();
    (
        percentile(&short, 99.0).unwrap_or(0.0),
        percentile(&every, 99.0).unwrap_or(0.0),
        mean(&every).unwrap_or(0.0),
    )
}

/// The paper's claims `lineup_t2` reproduces, checked once per run: BFC
/// drops nothing and completes (nearly) everything, and its short-flow tail
/// beats DCQCN+Win's and HPCC's.
pub fn paper_claims(rep: &Rep, checks: &mut Checks) {
    let (Some(bfc), Some(dcqcn_win), Some(hpcc)) =
        (rep.run("bfc"), rep.run("dcqcn-win"), rep.run("hpcc"))
    else {
        checks.check(false, || {
            "lineup is missing bfc, dcqcn-win or hpcc".to_string()
        });
        return;
    };
    let b = &bfc.result;
    checks.check(b.drops == 0, || format!("BFC dropped {} packets", b.drops));
    checks.check(
        b.completed_flows as f64 >= 0.99 * b.total_flows as f64,
        || {
            format!(
                "BFC completed {} of {} flows",
                b.completed_flows, b.total_flows
            )
        },
    );
    let p99_short = slowdowns(b).0;
    for other in [dcqcn_win, hpcc] {
        let theirs = slowdowns(&other.result).0;
        checks.check(p99_short < theirs, || {
            format!(
                "BFC p99 short-flow slowdown {p99_short:.3} is not below {}'s {theirs:.3}",
                other.result.scheme
            )
        });
    }
}
