//! One module per paper table/figure.
//!
//! Every figure exposes a `run` function that regenerates the figure's rows
//! and returns them as [`Table`]s, printed by the one renderer in
//! [`crate::table`]. [`FIGURES`] lists them; the `fig` binary
//! (`fig <NN|all>`) prints the tables it is asked for, and the smoke tests
//! (`tests/fig_smoke.rs`) call the same functions at [`Scale::quick`] and
//! read their cells, so the whole evaluation can be exercised in minutes.
//!
//! `Scale::quick()` shrinks the topology and trace so each experiment takes
//! well under a second; `Scale::full()` uses the paper's topologies (T1/T2,
//! 100 Gbps, 12 MB buffers) and longer traces. Absolute numbers differ from
//! the paper in either mode (see the README section "Examples and
//! figures"), but relative orderings hold.

use bfc_core::BfcConfig;
use bfc_net::topology::{cross_dc, fat_tree, CrossDcParams, FatTreeParams, Topology};
use bfc_net::types::NodeId;
use bfc_sim::SimDuration;
use bfc_workloads::{
    concurrent_long_flows, cross_dc_trace, incast_trace, long_lived_per_receiver, synthesize,
    ArrivalShape, IncastSchedule, TraceFlow, TraceParams, Workload,
};

use crate::cli::{runner_arg, Args};
use crate::parallel::ParallelRunner;
use crate::runner::{ExperimentConfig, ExperimentResult};
use crate::scheme::Scheme;
use crate::table::Cell::{Fixed, Int, Text};
use crate::table::{Cell, Table};

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Use the paper's full topologies and longer traces.
    pub full: bool,
    /// RNG seed shared by all figures.
    pub seed: u64,
    /// Background arrival shape for the synthetic workloads (paper default:
    /// log-normal σ = 2; `--bursty` switches to Markov-modulated on/off).
    pub arrivals: ArrivalShape,
    /// Incast event schedule (paper default: periodic; `--lognormal-incast`
    /// switches to log-normal inter-event gaps).
    pub incast_schedule: IncastSchedule,
    /// The worker pool every figure fans its runs across (`BFC_THREADS`),
    /// and the shard count each run is split into (`--shards`). Results are
    /// bit-identical at any setting.
    pub runner: ParallelRunner,
}

impl Scale {
    /// Small topology, short traces: every figure finishes in seconds.
    pub fn quick() -> Self {
        Scale {
            full: false,
            seed: 1,
            arrivals: ArrivalShape::paper_default(),
            incast_schedule: IncastSchedule::paper_default(),
            runner: ParallelRunner::from_env(),
        }
    }

    /// The paper's topologies and parameters (minutes per figure; run with
    /// `--release`).
    pub fn full() -> Self {
        Scale {
            full: true,
            ..Scale::quick()
        }
    }

    /// Pulls the scale options off a command line: `--full` switches to full
    /// scale, `--bursty` to on/off background arrivals, `--lognormal-incast`
    /// to log-normal incast inter-event gaps, and `--shards N` splits every
    /// run across N engine shards (results are bit-identical at any shard
    /// count). A missing or malformed `--shards` value is the only error.
    pub fn from_args(args: &mut Args) -> Result<Self, String> {
        let mut scale = Scale {
            full: args.switch("full"),
            ..Scale::quick()
        };
        if args.switch("bursty") {
            scale.arrivals = ArrivalShape::bursty_default();
        }
        if args.switch("lognormal-incast") {
            scale.incast_schedule = IncastSchedule::LogNormalGaps { sigma: 1.0 };
        }
        scale.runner = runner_arg(args)?;
        Ok(scale)
    }

    /// `full` at full scale, `quick` otherwise.
    fn pick<T>(&self, full: T, quick: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }

    /// The T1-like topology used by the headline figures.
    pub fn t1(&self) -> Topology {
        fat_tree(self.pick(FatTreeParams::t1(), FatTreeParams::tiny()))
    }

    /// The T2-like topology used by the smaller experiments.
    pub fn t2(&self) -> Topology {
        fat_tree(self.pick(FatTreeParams::t2(), FatTreeParams::tiny()))
    }

    /// Trace duration (the measurement window).
    pub fn duration(&self) -> SimDuration {
        self.pick(SimDuration::from_millis(4), SimDuration::from_micros(300))
    }

    /// Aggregate incast size per event, scaled down in quick mode so one
    /// event does not dominate the short trace.
    pub fn incast_bytes(&self) -> u64 {
        self.pick(20_000_000, 500_000)
    }

    /// Incast fan-in for the background+incast workloads.
    pub fn incast_fan_in(&self) -> usize {
        self.pick(100, 6)
    }
}

/// A figure: its number, what it shows and the function that builds its
/// tables.
pub type Figure = (&'static str, &'static str, fn(&Scale) -> Vec<Table>);

/// Every figure the `fig` binary prints.
#[rustfmt::skip] // one figure per line
pub const FIGURES: [Figure; 15] = [
    ("01", "hardware trends: switch capacity vs buffer", |_| fig01::run()),
    ("02", "buffer occupancy vs link speed (DCQCN)", fig02::run),
    ("03", "tail FCT as the buffer/capacity ratio shrinks (DCQCN)", fig03::run),
    ("04", "byte-weighted flow-size CDFs of the three workloads", |_| fig04::run()),
    ("05", "the headline tail-latency comparison, panels a/b/c", fig05::run),
    ("06", "buffer occupancy and PFC pause time for Fig. 5a", fig06::run),
    ("07", "dynamic vs static queue assignment", fig07::run),
    ("08", "incast fan-in sweep", fig08::run),
    ("09", "cross-data-center traffic", fig09::run),
    ("10", "queue size vs concurrent flows (resume limiting)", fig10::run),
    ("11", "the high-priority-queue ablation", fig11::run),
    ("12", "sensitivity to physical queues per port", fig12::run),
    ("13", "sensitivity to the VFID space / flow table size", fig13::run),
    ("14", "sensitivity to the bloom-filter (pause frame) size", fig14::run),
    ("15", "failure sweep: link failures, degradation, flapping", failure_sweep::run),
];

/// A synthesized workload: the flow-size CDF, the background load and the
/// incast load on top of it.
type Load = (Workload, f64, f64);

/// Google at 60 % background plus 5 % incast: the workload of Figs. 3, 5a,
/// 6, 7 and 12-14.
const GOOGLE_INCAST: Load = (Workload::Google, 0.60, 0.05);

/// DCQCN without and with a window, the end-to-end baselines.
const DCQCN: Scheme = Scheme::Dcqcn {
    window: false,
    sfq: false,
};
const DCQCN_WIN: Scheme = Scheme::Dcqcn {
    window: true,
    sfq: false,
};

/// The background + incast trace of `load` over `topo`'s hosts.
fn standard_trace(
    scale: &Scale,
    topo: &Topology,
    (workload, load, incast): Load,
) -> Vec<TraceFlow> {
    let params = TraceParams {
        workload,
        load,
        incast_load: incast,
        incast_fan_in: scale.incast_fan_in(),
        incast_total_bytes: scale.incast_bytes(),
        duration: scale.duration(),
        host_gbps: topo.host_uplink(topo.hosts()[0]).link.rate_gbps,
        seed: scale.seed,
        arrivals: scale.arrivals,
        incast_schedule: scale.incast_schedule,
    };
    synthesize(&topo.hosts(), &params)
}

fn config_for(scale: &Scale, scheme: Scheme) -> ExperimentConfig {
    ExperimentConfig::new(scheme, scale.duration()).with_seed(scale.seed)
}

/// One config per scheme, in order.
fn configs_for(scale: &Scale, schemes: impl IntoIterator<Item = Scheme>) -> Vec<ExperimentConfig> {
    schemes.into_iter().map(|s| config_for(scale, s)).collect()
}

/// Runs `configs` on the T1 topology under the [`standard_trace`] of
/// `load`, one result per config in order.
fn run_t1(scale: &Scale, load: Load, configs: &[ExperimentConfig]) -> Vec<ExperimentResult> {
    let topo = scale.t1();
    let trace = standard_trace(scale, &topo, load);
    scale.runner.run_experiments(&topo, &trace, configs)
}

/// The 99th-percentile slowdown over every non-incast flow (`NaN` if none
/// completed).
fn overall_p99(result: &ExperimentResult) -> f64 {
    result.fct.overall.as_ref().map_or(f64::NAN, |o| o.p99)
}

/// The p99-slowdown-per-bucket comparison table the FCT figures use.
fn p99_table(title: &str, results: &[ExperimentResult]) -> Table {
    let buckets = results.first().map_or(&[][..], |r| &r.fct.buckets[..]);
    let labels = buckets.iter().map(|b| b.bucket.label());
    let columns = std::iter::once("scheme \\ size".to_string()).chain(labels);
    let mut table = Table::new(title, columns)
        .with_note("(99th-percentile FCT slowdown per flow-size bucket; non-incast flows)");
    for r in results {
        let mut row = vec![Text(r.scheme.clone())];
        row.extend(r.fct.buckets.iter().map(|b| Fixed(b.p99, 2)));
        table.push(row);
    }
    table
}

/// Figure 1: hardware trends for top-of-the-line Broadcom switches. Static
/// data transcribed from the paper; included so the full set of figures can
/// be regenerated from one place.
pub mod fig01 {
    use super::*;

    /// Returns the hardware-trend table.
    pub fn run() -> Vec<Table> {
        let rows = [
            ("Trident2", 2012, 1.28, 12.0),
            ("Tomahawk", 2014, 3.2, 16.0),
            ("Tomahawk2", 2016, 6.4, 42.0),
            ("Tomahawk3", 2018, 12.8, 64.0),
        ];
        let columns = [
            "chip",
            "year",
            "capacity(Tbps)",
            "buffer(MB)",
            "buffer/capacity(us)",
        ];
        let mut table = Table::new("Fig 1: switch capacity vs buffer (Broadcom)", columns);
        for (chip, year, tbps, mb) in rows {
            let us = mb * 8.0 / (tbps * 1e3) * 1e3;
            let chip = Text(chip.to_string());
            table.push(vec![
                chip,
                Int(year),
                Fixed(tbps, 2),
                Fixed(mb, 1),
                Fixed(us, 1),
            ]);
        }
        vec![table]
    }
}

/// Figure 2: CDF of switch buffer occupancy for DCQCN (PFC off) as the link
/// speed grows, at constant utilization.
pub mod fig02 {
    use super::*;

    /// Runs the link-speed sweep and reports occupancy percentiles.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let speeds = [10.0, 40.0, 100.0];
        let columns = ["speed(Gbps)", "p50(MB)", "p90(MB)", "p99(MB)", "max(MB)"];
        let mut table = Table::new(
            "Fig 2: DCQCN buffer occupancy vs link speed (no PFC)",
            columns,
        )
        .with_note("(higher link speed -> more buffer occupancy at equal utilization)");
        // Each sweep point builds its own topology and trace, so the whole
        // point is an independent job for the parallel runner.
        let results = scale.runner.run_all(&speeds, |&gbps| {
            let link = bfc_net::Link::new(gbps, SimDuration::from_micros(1));
            let quick = FatTreeParams {
                host_link: link,
                fabric_link: link,
                ..FatTreeParams::tiny()
            };
            let topo = fat_tree(scale.pick(FatTreeParams::t2_at_rate(gbps), quick));
            let trace = standard_trace(scale, &topo, (Workload::Google, 0.70, 0.05));
            let mut config = config_for(scale, DCQCN);
            // The figure runs without PFC so buffers are free to grow.
            config.buffer_bytes = u64::MAX;
            scale.runner.run_experiment(&topo, &trace, &config)
        });
        for (&gbps, result) in speeds.iter().zip(&results) {
            let mb = |bytes: f64| Fixed(bytes / 1e6, 3);
            let at = |p| mb(result.occupancy.percentile_bytes(p));
            let max = mb(result.occupancy.max_bytes());
            table.push(vec![Fixed(gbps, 0), at(50.0), at(90.0), at(99.0), max]);
        }
        vec![table]
    }
}

/// Figure 3: tail FCT slowdown as the buffer/capacity ratio shrinks (DCQCN).
pub mod fig03 {
    use super::*;

    /// Runs the buffer-ratio sweep.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let ratios_us = [30.0, 20.0, 10.0];
        let topo = scale.t2();
        let trace = standard_trace(scale, &topo, GOOGLE_INCAST);
        // Switch capacity = sum of port rates of the largest switch (a ToR).
        let tor = topo.switches()[0];
        let capacity_gbps: f64 = topo.ports(tor).iter().map(|p| p.link.rate_gbps).sum();
        let columns = [
            "buffer(us of capacity)",
            "buffer(MB)",
            "overall p99 slowdown",
        ];
        let mut table = Table::new("Fig 3: DCQCN tail FCT vs buffer/capacity ratio", columns)
            .with_note("(smaller buffers hurt DCQCN tail latency)");
        let configs: Vec<ExperimentConfig> = ratios_us
            .iter()
            .map(|ratio| {
                let buffer_bytes = (capacity_gbps * 1e9 / 8.0 * ratio * 1e-6) as u64;
                config_for(scale, DCQCN).with_buffer_bytes(buffer_bytes)
            })
            .collect();
        let results = scale.runner.run_experiments(&topo, &trace, &configs);
        for ((&ratio, config), result) in ratios_us.iter().zip(&configs).zip(&results) {
            let mb = config.buffer_bytes as f64 / 1e6;
            table.push(vec![
                Fixed(ratio, 0),
                Fixed(mb, 2),
                Fixed(overall_p99(result), 2),
            ]);
        }
        vec![table]
    }
}

/// Figure 4: byte-weighted CDF of flow sizes for the three workloads.
pub mod fig04 {
    use super::*;

    /// One byte-weighted CDF per workload.
    pub fn run() -> Vec<Table> {
        let table = |w: Workload| {
            let cdf = w.cdf();
            let (name, mean) = (w.name(), cdf.mean_bytes());
            let title = format!("Fig 4: cumulative bytes by flow size, {name} (mean {mean:.0} B)");
            let mut table = Table::new(&title, ["flow size", "unit", "byte CDF"]);
            for (size, frac) in cdf.byte_weighted_cdf() {
                table.push(vec![Fixed(size, 0), Text("B".to_string()), Fixed(frac, 3)]);
            }
            table
        };
        Workload::all().into_iter().map(table).collect()
    }
}

/// Figure 5: the headline tail-latency comparison.
pub mod fig05 {
    use super::*;

    /// One panel: the paper lineup on T1 under `load`.
    fn panel(scale: &Scale, load: Load, title: &str) -> Table {
        let configs = configs_for(scale, Scheme::paper_lineup());
        p99_table(title, &run_t1(scale, load, &configs))
    }

    /// Fig. 5a: Google workload with incast.
    pub fn run_google_incast(scale: &Scale) -> Table {
        panel(
            scale,
            GOOGLE_INCAST,
            "Fig 5a: Google + incast (60% + 5%), T1",
        )
    }

    /// Fig. 5b: FB_Hadoop workload with incast.
    pub fn run_hadoop_incast(scale: &Scale) -> Table {
        let load = (Workload::FbHadoop, 0.60, 0.05);
        panel(scale, load, "Fig 5b: FB_Hadoop + incast (60% + 5%), T1")
    }

    /// Fig. 5c: Google workload without incast.
    pub fn run_google_no_incast(scale: &Scale) -> Table {
        let load = (Workload::Google, 0.65, 0.0);
        panel(scale, load, "Fig 5c: Google, no incast (65%), T1")
    }

    /// All three panels.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let panels = [run_google_incast, run_hadoop_incast, run_google_no_incast];
        panels.iter().map(|panel| panel(scale)).collect()
    }
}

/// Figure 6: buffer occupancy and PFC pause time for the Fig. 5a experiment.
pub mod fig06 {
    use super::*;

    /// Runs the Fig. 5a workload and reports occupancy and pause-time stats.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let columns = [
            "scheme",
            "occ p50(MB)",
            "occ p99(MB)",
            "pfc paused(%)",
            "drops",
        ];
        let title = "Fig 6: buffer occupancy and PFC pause time (Fig 5a workload)";
        let mut table = Table::new(title, columns);
        let configs = configs_for(scale, Scheme::paper_lineup());
        for r in run_t1(scale, GOOGLE_INCAST, &configs) {
            let occupancy = |p| Fixed(r.occupancy.percentile_bytes(p) / 1e6, 3);
            let paused = Fixed(r.pfc_pause_fraction() * 100.0, 3);
            let scheme = Text(r.scheme);
            table.push(vec![
                scheme,
                occupancy(50.0),
                occupancy(99.0),
                paused,
                Int(r.drops),
            ]);
        }
        vec![table]
    }
}

/// Figure 7: dynamic vs static queue assignment (BFC vs BFC-VFID vs
/// SFQ+InfBuffer).
pub mod fig07 {
    use super::*;

    /// Runs the comparison and reports tail FCT plus collision fractions.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let schemes = [Scheme::bfc(), Scheme::bfc_vfid(), Scheme::SfqInfBuffer];
        let results = run_t1(scale, GOOGLE_INCAST, &configs_for(scale, schemes));
        let columns = ["scheme", "collision fraction"];
        let mut collisions = Table::new("Fig 7b: physical-queue collisions", columns);
        for r in &results {
            let fraction = r.policy_stats().collision_fraction();
            collisions.push(vec![Text(r.scheme.clone()), Fixed(fraction, 4)]);
        }
        vec![p99_table("Fig 7a: queue assignment", &results), collisions]
    }
}

/// Figure 8: incast fan-in sweep — utilization and tail buffer occupancy.
pub mod fig08 {
    use super::*;

    /// The fan-in values swept at this scale.
    pub fn fan_ins(scale: &Scale) -> Vec<usize> {
        scale.pick(vec![10, 50, 100, 200, 400, 800], vec![4, 8, 16])
    }

    /// Runs the sweep for BFC and DCQCN+Win.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let topo = scale.t2();
        let hosts = topo.hosts();
        let title = "Fig 8: incast fan-in sweep (4 long flows per receiver + periodic incast)";
        let columns = ["scheme", "fan-in", "utilization", "p99 buffer(MB)"];
        let mut table = Table::new(title, columns);
        // Incast events repeat every 500 us at full scale; quick scale packs a
        // few events into its short window instead.
        let incast_period = scale.pick(SimDuration::from_micros(500), scale.duration() / 4);
        let jobs: Vec<(Scheme, usize)> = [Scheme::bfc(), DCQCN_WIN]
            .into_iter()
            .flat_map(|scheme| fan_ins(scale).into_iter().map(move |f| (scheme.clone(), f)))
            .collect();
        let results = scale.runner.run_all(&jobs, |(scheme, fan_in)| {
            let mut trace = long_lived_per_receiver(
                &hosts,
                scale.pick(4, 1),
                scale.pick(40_000_000, 10_000_000),
                scale.seed,
            );
            trace.extend(incast_trace(
                &hosts,
                *fan_in,
                scale.incast_bytes(),
                incast_period,
                scale.duration(),
                scale.seed + 7,
            ));
            let mut config = config_for(scale, scheme.clone());
            // Long-lived flows are not expected to finish: measure over
            // the window only.
            config.drain = SimDuration::ZERO;
            scale.runner.run_experiment(&topo, &trace, &config)
        });
        for ((_, fan_in), r) in jobs.iter().zip(&results) {
            let buffer = Fixed(r.occupancy.percentile_bytes(99.0) / 1e6, 3);
            let (scheme, utilization) = (Text(r.scheme.clone()), Fixed(r.utilization(), 3));
            table.push(vec![scheme, Int(*fan_in as u64), utilization, buffer]);
        }
        vec![table]
    }
}

/// Figure 9: cross-data-center traffic.
pub mod fig09 {
    use super::*;
    use bfc_metrics::fct::FctSummary;

    /// Runs the two-data-center experiment and reports intra- vs inter-DC
    /// tail slowdowns for BFC and DCQCN+Win.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let link = bfc_net::Link::new(10.0, SimDuration::from_micros(1));
        let quick = CrossDcParams {
            dc: FatTreeParams {
                num_tors: 2,
                hosts_per_tor: 4,
                num_spines: 2,
                host_link: link,
                fabric_link: link,
            },
            inter_dc_link: bfc_net::Link::new(100.0, SimDuration::from_micros(20)),
        };
        let params = scale.pick(CrossDcParams::paper_default(), quick);
        let built = cross_dc(params);
        let duration = scale.pick(SimDuration::from_millis(8), SimDuration::from_micros(800));
        let trace_params = TraceParams {
            workload: Workload::FbHadoop,
            load: 0.5,
            incast_load: 0.0,
            incast_fan_in: 0,
            incast_total_bytes: 0,
            duration,
            host_gbps: params.dc.host_link.rate_gbps,
            seed: scale.seed,
            arrivals: scale.arrivals,
            incast_schedule: scale.incast_schedule,
        };
        let trace = cross_dc_trace(&built.dc0_hosts, &built.dc1_hosts, &trace_params, 0.2);
        let dc0: std::collections::HashSet<NodeId> = built.dc0_hosts.iter().copied().collect();
        let is_inter = |f: &TraceFlow| dc0.contains(&f.src) != dc0.contains(&f.dst);

        let columns = ["scheme", "class", "flows", "p50", "p99"];
        let mut table = Table::new("Fig 9: cross-datacenter FCT slowdown", columns);
        let configs: Vec<ExperimentConfig> = [Scheme::bfc(), DCQCN_WIN]
            .into_iter()
            .map(|scheme| {
                let mut config = ExperimentConfig::new(scheme, duration).with_seed(scale.seed);
                // The long-haul hop needs more buffering, as in the paper.
                config.buffer_bytes = scale.pick(60_000_000, 12_000_000);
                config
            })
            .collect();
        let results = scale
            .runner
            .run_experiments(&built.topology, &trace, &configs);
        for r in results {
            for inter in [false, true] {
                let records: Vec<_> = r
                    .records
                    .iter()
                    .filter(|rec| is_inter(&trace[rec.flow.index()]) == inter)
                    .copied()
                    .collect();
                // The overall summary needs no size buckets.
                if let Some(o) = FctSummary::from_records_with_buckets(&records, &[]).overall {
                    let class = Text(if inter { "inter-DC" } else { "intra-DC" }.to_string());
                    let (p50, p99) = (Fixed(o.p50, 2), Fixed(o.p99, 2));
                    let scheme = Text(r.scheme.clone());
                    table.push(vec![scheme, class, Int(o.count as u64), p50, p99]);
                }
            }
        }
        vec![table]
    }
}

/// Figure 10: physical-queue size vs number of concurrent flows (the
/// resume-limiting ablation).
pub mod fig10 {
    use super::*;

    /// The concurrency levels swept at this scale.
    pub fn flow_counts(scale: &Scale) -> Vec<usize> {
        // Quick scale goes past the 32 physical queues too, so flows must
        // share queues and the resume-limiting difference is visible.
        scale.pick(vec![8, 32, 64, 128, 256], vec![16, 48, 96])
    }

    /// Runs the sweep for BFC and BFC-BufferOpt.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let topo = scale.t2();
        let hosts = topo.hosts();
        let receiver = hosts[0];
        let title = "Fig 10: per-queue buffering vs concurrent flows to one receiver";
        let mut table = Table::new(title, ["scheme", "flows", "p99 physical queue (KB)"])
            .with_note("(BFC caps per-queue buffering; BFC-BufferOpt grows with the flow count)");
        let jobs: Vec<(Scheme, usize)> = [
            Scheme::bfc(),
            Scheme::Bfc(BfcConfig::without_resume_limit()),
        ]
        .into_iter()
        .flat_map(|scheme| {
            flow_counts(scale)
                .into_iter()
                .map(move |n| (scheme.clone(), n))
        })
        .collect();
        let results = scale.runner.run_all(&jobs, |(scheme, n)| {
            let size = scale.pick(2_000_000, 300_000);
            let trace = concurrent_long_flows(&hosts, receiver, *n, size);
            let mut config = config_for(scale, scheme.clone());
            config.drain = scale.duration() * 8;
            scale.runner.run_experiment(&topo, &trace, &config)
        });
        for ((_, n), r) in jobs.iter().zip(&results) {
            let p99 = bfc_metrics::percentile(&r.peak_queue_samples, 99.0).unwrap_or(0.0);
            table.push(vec![
                Text(r.scheme.clone()),
                Int(*n as u64),
                Fixed(p99 / 1e3, 1),
            ]);
        }
        vec![table]
    }
}

/// Figure 11: the high-priority-queue ablation.
pub mod fig11 {
    use super::*;

    /// Runs BFC with and without the high-priority queue on a hot workload.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let schemes = [
            Scheme::bfc(),
            Scheme::Bfc(BfcConfig::without_high_priority_queue()),
        ];
        let load = (Workload::Google, 0.80, 0.05);
        let results = run_t1(scale, load, &configs_for(scale, schemes));
        let columns = ["scheme", "p50", "p99"];
        let mut occupied = Table::new("Fig 11a: occupied physical queues", columns);
        for r in &results {
            let at = |p| bfc_metrics::percentile(&r.occupied_queue_samples, p).unwrap_or(0.0);
            let (p50, p99) = (Fixed(at(50.0), 1), Fixed(at(99.0), 1));
            occupied.push(vec![Text(r.scheme.clone()), p50, p99]);
        }
        let title = "Fig 11b: tail FCT with/without the high-priority queue (80% + 5%), T1";
        vec![p99_table(title, &results), occupied]
    }
}

/// Figure 12: sensitivity to the number of physical queues per port.
pub mod fig12 {
    use super::*;

    /// Queue counts swept.
    pub fn queue_counts(scale: &Scale) -> Vec<usize> {
        scale.pick(vec![8, 16, 32, 64, 128], vec![8, 32])
    }

    /// Runs the sweep.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let title = "Fig 12: sensitivity to physical queues per port (BFC)";
        let mut table = Table::new(title, ["queues", "collision%", "overall p99 slowdown"]);
        let counts = queue_counts(scale);
        let configs: Vec<ExperimentConfig> = counts
            .iter()
            .map(|&queues| config_for(scale, Scheme::bfc()).with_queues_per_port(queues))
            .collect();
        for (&queues, r) in counts.iter().zip(&run_t1(scale, GOOGLE_INCAST, &configs)) {
            let collisions = Fixed(r.policy_stats().collision_fraction() * 100.0, 3);
            table.push(vec![
                Int(queues as u64),
                collisions,
                Fixed(overall_p99(r), 2),
            ]);
        }
        vec![table]
    }
}

/// Figure 13: sensitivity to the size of the VFID space / flow table.
pub mod fig13 {
    use super::*;

    /// VFID-space sizes swept.
    pub fn vfid_counts(scale: &Scale) -> Vec<u32> {
        scale.pick(vec![1024, 4096, 16_384, 65_536], vec![64, 1024, 16_384])
    }

    /// Runs the sweep.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let title = "Fig 13: sensitivity to the number of VFIDs (BFC)";
        let mut table = Table::new(title, ["vfids", "overflow%", "overall p99 slowdown"]);
        let counts = vfid_counts(scale);
        let schemes = counts
            .iter()
            .map(|&n| Scheme::Bfc(BfcConfig::default().with_num_vfids(n)));
        let configs = configs_for(scale, schemes);
        for (&vfids, r) in counts.iter().zip(&run_t1(scale, GOOGLE_INCAST, &configs)) {
            let overflows = Fixed(r.policy_stats().overflow_fraction() * 100.0, 4);
            table.push(vec![Int(vfids.into()), overflows, Fixed(overall_p99(r), 2)]);
        }
        vec![table]
    }
}

/// Figure 14: sensitivity to the bloom-filter (pause frame) size.
pub mod fig14 {
    use super::*;

    /// Bloom-filter sizes swept (bytes).
    pub fn bloom_sizes() -> Vec<usize> {
        vec![16, 32, 64, 128]
    }

    /// Runs the sweep.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let title = "Fig 14: sensitivity to pause-frame bloom filter size (BFC)";
        let mut table = Table::new(title, ["bloom(B)", "overall p99 slowdown", "pauses"]);
        let sizes = bloom_sizes();
        let schemes = sizes
            .iter()
            .map(|&b| Scheme::Bfc(BfcConfig::default().with_bloom_bytes(b)));
        let configs = configs_for(scale, schemes);
        for (&bytes, r) in sizes.iter().zip(&run_t1(scale, GOOGLE_INCAST, &configs)) {
            let pauses = Int(r.policy_stats().pauses);
            table.push(vec![Int(bytes as u64), Fixed(overall_p99(r), 2), pauses]);
        }
        vec![table]
    }
}

/// Failure sweep (dynamics subsystem): BFC vs DCQCN+Win vs HPCC under link
/// failures, degradation and flapping — the regime where hop-by-hop
/// backpressure's 1-RTT reaction time should differentiate.
pub mod failure_sweep {
    use super::*;
    use crate::scenario::ScenarioSpec;

    /// The schemes compared by the sweep.
    pub fn schemes() -> Vec<Scheme> {
        vec![Scheme::bfc(), DCQCN_WIN, Scheme::Hpcc]
    }

    /// The three canonical scenario shapes at this scale, over the t2-style
    /// topology's `tor`/`spine` labels: a single cable down/up, a degraded
    /// core cable (25 Gbps, later restored), and a flapping cable.
    pub fn shapes(scale: &Scale) -> Vec<(&'static str, ScenarioSpec)> {
        let d = scale.duration();
        vec![
            (
                "single down/up",
                ScenarioSpec::single_link_down_up("tor0", "spine0", d / 4, d * 3 / 5),
            ),
            (
                "degraded core",
                ScenarioSpec::degraded_link("tor0", "spine1", d / 4, 25.0, d * 3 / 4, 100.0),
            ),
            (
                "flapping",
                ScenarioSpec::flapping_link("tor1", "spine0", d / 5, d / 10, d * 7 / 10),
            ),
        ]
    }

    /// The failure-rate sweep: how many distinct ToR↔spine cables die at
    /// once (down at 25% of the window, repaired at 60%).
    pub fn failure_counts() -> Vec<usize> {
        vec![0, 1, 2]
    }

    /// An empty recovery-results table, shared with `trace-tool scenario` so
    /// the figure and the CLI cannot drift apart; [`recovery_row`] fills it.
    pub fn recovery_table(title: &str) -> Table {
        let columns = [
            "scheme",
            "shape",
            "completed",
            "fct p99",
            "blackholed",
            "reroutes",
            "ttr(us)",
            "dip",
        ];
        Table::new(title, columns)
    }

    /// One row of a [`recovery_table`]: `result` under the fault shape `label`.
    pub fn recovery_row(label: &str, result: &ExperimentResult) -> Vec<Cell> {
        let recovery = &result.recovery;
        let ttr = recovery
            .time_to_recover
            .map(|d| Fixed(d.as_micros_f64(), 1));
        vec![
            Text(result.scheme.clone()),
            Text(label.to_string()),
            Text(format!("{}/{}", result.completed_flows, result.total_flows)),
            Fixed(overall_p99(result), 2),
            Int(recovery.blackholed_packets),
            Int(recovery.reroutes),
            ttr.unwrap_or(Text("-".to_string())),
            Fixed(recovery.goodput_dip_depth, 2),
        ]
    }

    /// Runs `scale`'s background trace on the T2 topology under each
    /// schedule with every scheme, scheme-fastest, as rows labelled by
    /// schedule.
    fn sweep(scale: &Scale, mut table: Table, schedules: Vec<(String, ScenarioSpec)>) -> Table {
        let topo = scale.t2();
        let trace = standard_trace(scale, &topo, (Workload::Google, 0.60, 0.0));
        let jobs: Vec<(usize, Scheme)> = (0..schedules.len())
            .flat_map(|i| schemes().into_iter().map(move |s| (i, s)))
            .collect();
        let results = scale.runner.run_all(&jobs, |(i, scheme)| {
            let schedule = schedules[*i]
                .1
                .resolve(&topo)
                .expect("sweep labels exist in T2");
            let config = config_for(scale, scheme.clone()).with_dynamics(schedule);
            scale.runner.run_experiment(&topo, &trace, &config)
        });
        for ((i, _), result) in jobs.iter().zip(&results) {
            table.push(recovery_row(&schedules[*i].0, result));
        }
        table
    }

    /// Runs the shape comparison and the failure-rate sweep.
    pub fn run(scale: &Scale) -> Vec<Table> {
        let shapes = shapes(scale)
            .into_iter()
            .map(|(name, spec)| (name.to_string(), spec));
        let by_shape = recovery_table("Fig 15a: recovery under three failure shapes");
        let d = scale.duration();
        let downs = failure_counts().into_iter().map(|k| {
            let mut spec = ScenarioSpec::new();
            for link in 0..k {
                let (tor, spine) = (format!("tor{link}"), format!("spine{link}"));
                spec = spec
                    .down(d / 4, tor.clone(), spine.clone())
                    .up(d * 3 / 5, tor, spine);
            }
            (format!("{k} links down"), spec)
        });
        let note = "(p99 FCT slowdown over non-incast flows; blackholed = packets lost to \
                    dead links/routes; ttr = goodput recovery time after the last fault)";
        let by_count =
            recovery_table("Fig 15b: FCT tail vs number of failed core links").with_note(note);
        vec![
            sweep(scale, by_shape, shapes.collect()),
            sweep(scale, by_count, downs.collect()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bursty background arrivals and log-normal incast gaps reach the
    /// sweeps: the Fig. 5a panel still runs the whole lineup under them.
    #[test]
    fn sweeps_accept_bursty_and_clustered_incast_scales() {
        let mut scale = Scale::quick();
        scale.arrivals = ArrivalShape::bursty_default();
        scale.incast_schedule = IncastSchedule::LogNormalGaps { sigma: 1.0 };
        let t = fig05::run_google_incast(&scale);
        let lineup: Vec<Cell> = Scheme::paper_lineup()
            .iter()
            .map(|s| Text(s.name()))
            .collect();
        assert_eq!(
            t.column("scheme \\ size"),
            lineup.iter().collect::<Vec<_>>()
        );
    }
}
