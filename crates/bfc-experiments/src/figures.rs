//! One module per paper table/figure.
//!
//! Every figure exposes a `run(&Scale) -> String` function that regenerates
//! the figure's rows/series and returns them as a formatted text table.
//! [`FIGURES`] lists them; the `fig` binary (`fig <NN|all>`) prints the rows
//! it is asked for, and the smoke tests and `bfc-bench` call the same
//! functions at [`Scale::quick`] so the whole evaluation can be exercised in
//! minutes.
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

    /// The T1-like topology used by the headline figures.
    pub fn t1(&self) -> Topology {
        if self.full {
            fat_tree(FatTreeParams::t1())
        } else {
            fat_tree(FatTreeParams::tiny())
        }
    }

    /// The T2-like topology used by the smaller experiments.
    pub fn t2(&self) -> Topology {
        if self.full {
            fat_tree(FatTreeParams::t2())
        } else {
            fat_tree(FatTreeParams::tiny())
        }
    }

    /// Trace duration (the measurement window).
    pub fn duration(&self) -> SimDuration {
        if self.full {
            SimDuration::from_millis(4)
        } else {
            SimDuration::from_micros(300)
        }
    }

    /// Aggregate incast size per event, scaled down in quick mode so one
    /// event does not dominate the short trace.
    pub fn incast_bytes(&self) -> u64 {
        if self.full {
            20_000_000
        } else {
            500_000
        }
    }

    /// Incast fan-in for the background+incast workloads.
    pub fn incast_fan_in(&self) -> usize {
        if self.full {
            100
        } else {
            6
        }
    }
}

/// Every figure the `fig` binary prints: its number, what it shows and the
/// function that renders it.
pub const FIGURES: [(&str, &str, fn(&Scale) -> String); 15] = [
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

/// The standard background + incast trace of Figs. 5a/6/7/12/13/14.
fn standard_trace(scale: &Scale, topo: &Topology, workload: Workload, load: f64, incast: f64) -> Vec<TraceFlow> {
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

fn p99_line(result: &ExperimentResult) -> String {
    let mut line = format!("{:<16}", result.scheme);
    for b in &result.fct.buckets {
        line.push_str(&format!(" {:>12.2}", b.p99));
    }
    line.push('\n');
    line
}

fn bucket_header(result: &ExperimentResult) -> String {
    let mut line = format!("{:<16}", "scheme \\ size");
    for b in &result.fct.buckets {
        line.push_str(&format!(" {:>12}", b.bucket.label()));
    }
    line.push('\n');
    line
}

/// Runs a set of schemes on one trace, one result per scheme in order.
fn run_schemes(scale: &Scale, topo: &Topology, trace: &[TraceFlow], schemes: Vec<Scheme>) -> Vec<ExperimentResult> {
    let configs: Vec<ExperimentConfig> = schemes
        .into_iter()
        .map(|scheme| config_for(scale, scheme))
        .collect();
    scale.runner.run_experiments(topo, trace, &configs)
}

/// Renders the p99-slowdown-per-bucket comparison table the FCT figures use.
fn p99_table(title: &str, results: &[ExperimentResult]) -> String {
    let mut out = format!("{title}\n");
    if let Some(first) = results.first() {
        out.push_str(&bucket_header(first));
    }
    for r in results {
        out.push_str(&p99_line(r));
    }
    out.push_str("(99th-percentile FCT slowdown per flow-size bucket; non-incast flows)\n");
    out
}

/// Runs a set of schemes on one trace and renders their [`p99_table`].
fn fct_comparison(scale: &Scale, topo: &Topology, trace: &[TraceFlow], schemes: Vec<Scheme>, title: &str) -> String {
    p99_table(title, &run_schemes(scale, topo, trace, schemes))
}

/// Figure 1: hardware trends for top-of-the-line Broadcom switches. Static
/// data transcribed from the paper; included so the full set of figures can
/// be regenerated from one place.
pub mod fig01 {
    /// Returns the hardware-trend table.
    pub fn run() -> String {
        let rows = [
            ("Trident2", 2012, 1.28, 12.0),
            ("Tomahawk", 2014, 3.2, 16.0),
            ("Tomahawk2", 2016, 6.4, 42.0),
            ("Tomahawk3", 2018, 12.8, 64.0),
        ];
        let mut out = String::from(
            "Fig 1: switch capacity vs buffer (Broadcom)\nchip         year  capacity(Tbps)  buffer(MB)  buffer/capacity(us)\n",
        );
        for (chip, year, tbps, mb) in rows {
            let us = mb * 8.0 / (tbps * 1e3) * 1e3;
            out.push_str(&format!(
                "{chip:<12} {year}  {tbps:>14.2}  {mb:>10.1}  {us:>19.1}\n"
            ));
        }
        out
    }
}

/// Figure 2: CDF of switch buffer occupancy for DCQCN (PFC off) as the link
/// speed grows, at constant utilization.
pub mod fig02 {
    use super::*;

    /// Runs the link-speed sweep and reports occupancy percentiles.
    pub fn run(scale: &Scale) -> String {
        let speeds = [10.0, 40.0, 100.0];
        let mut out = String::from(
            "Fig 2: DCQCN buffer occupancy vs link speed (no PFC)\nspeed(Gbps)   p50(MB)   p90(MB)   p99(MB)   max(MB)\n",
        );
        // Each sweep point builds its own topology and trace, so the whole
        // point is an independent job for the parallel runner.
        let results = scale.runner.run_all(&speeds, |&gbps| {
            let params = if scale.full {
                FatTreeParams::t2_at_rate(gbps)
            } else {
                FatTreeParams {
                    host_link: bfc_net::Link::new(gbps, SimDuration::from_micros(1)),
                    fabric_link: bfc_net::Link::new(gbps, SimDuration::from_micros(1)),
                    ..FatTreeParams::tiny()
                }
            };
            let topo = fat_tree(params);
            let trace = {
                let p = TraceParams {
                    workload: Workload::Google,
                    load: 0.70,
                    incast_load: 0.05,
                    incast_fan_in: scale.incast_fan_in(),
                    incast_total_bytes: scale.incast_bytes(),
                    duration: scale.duration(),
                    host_gbps: gbps,
                    seed: scale.seed,
                    arrivals: scale.arrivals,
                    incast_schedule: scale.incast_schedule,
                };
                synthesize(&topo.hosts(), &p)
            };
            let scheme = Scheme::Dcqcn { window: false, sfq: false };
            let mut config = config_for(scale, scheme);
            // The figure runs without PFC so buffers are free to grow.
            config.buffer_bytes = u64::MAX;
            scale.runner.run_experiment(&topo, &trace, &config)
        });
        for (gbps, result) in speeds.iter().zip(&results) {
            out.push_str(&format!(
                "{gbps:>10.0}  {:>8.3}  {:>8.3}  {:>8.3}  {:>8.3}\n",
                result.occupancy.percentile_bytes(50.0) / 1e6,
                result.occupancy.percentile_bytes(90.0) / 1e6,
                result.occupancy.percentile_bytes(99.0) / 1e6,
                result.occupancy.max_bytes() / 1e6,
            ));
        }
        out.push_str("(higher link speed -> more buffer occupancy at equal utilization)\n");
        out
    }
}

/// Figure 3: tail FCT slowdown as the buffer/capacity ratio shrinks (DCQCN).
pub mod fig03 {
    use super::*;

    /// Runs the buffer-ratio sweep.
    pub fn run(scale: &Scale) -> String {
        let ratios_us = [30.0, 20.0, 10.0];
        let topo = scale.t2();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.60, 0.05);
        // Switch capacity = sum of port rates of the largest switch (a ToR).
        let tor = topo.switches()[0];
        let capacity_gbps: f64 = topo.ports(tor).iter().map(|p| p.link.rate_gbps).sum();
        let mut out = String::from(
            "Fig 3: DCQCN tail FCT vs buffer/capacity ratio\nbuffer(us of capacity)  buffer(MB)  overall p99 slowdown\n",
        );
        let configs: Vec<ExperimentConfig> = ratios_us
            .iter()
            .map(|ratio| {
                let buffer_bytes = (capacity_gbps * 1e9 / 8.0 * ratio * 1e-6) as u64;
                config_for(scale, Scheme::Dcqcn { window: false, sfq: false })
                    .with_buffer_bytes(buffer_bytes)
            })
            .collect();
        let results = scale.runner.run_experiments(&topo, &trace, &configs);
        for ((ratio, config), result) in ratios_us.iter().zip(&configs).zip(&results) {
            let p99 = result.fct.overall.as_ref().map(|o| o.p99).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{ratio:>22.0}  {:>10.2}  {:>20.2}\n",
                config.buffer_bytes as f64 / 1e6,
                p99
            ));
        }
        out.push_str("(smaller buffers hurt DCQCN tail latency)\n");
        out
    }
}

/// Figure 4: byte-weighted CDF of flow sizes for the three workloads.
pub mod fig04 {
    use super::*;

    /// Prints the byte-weighted CDFs.
    pub fn run() -> String {
        let mut out = String::from("Fig 4: cumulative bytes by flow size\n");
        for w in Workload::all() {
            out.push_str(&format!("-- {} (mean {:.0} B)\n", w.name(), w.cdf().mean_bytes()));
            for (size, frac) in w.cdf().byte_weighted_cdf() {
                out.push_str(&format!("  {:>12.0} B  {:>6.3}\n", size, frac));
            }
        }
        out
    }
}

/// Figure 5: the headline tail-latency comparison.
pub mod fig05 {
    use super::*;

    /// Fig. 5a: Google workload with incast.
    pub fn run_google_incast(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.60, 0.05);
        fct_comparison(
            scale,
            &topo,
            &trace,
            Scheme::paper_lineup(),
            "Fig 5a: Google + incast (60% + 5%), T1",
        )
    }

    /// Fig. 5b: FB_Hadoop workload with incast.
    pub fn run_hadoop_incast(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::FbHadoop, 0.60, 0.05);
        fct_comparison(
            scale,
            &topo,
            &trace,
            Scheme::paper_lineup(),
            "Fig 5b: FB_Hadoop + incast (60% + 5%), T1",
        )
    }

    /// Fig. 5c: Google workload without incast.
    pub fn run_google_no_incast(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.65, 0.0);
        fct_comparison(
            scale,
            &topo,
            &trace,
            Scheme::paper_lineup(),
            "Fig 5c: Google, no incast (65%), T1",
        )
    }

    /// All three panels.
    pub fn run(scale: &Scale) -> String {
        format!(
            "{}\n{}\n{}",
            run_google_incast(scale),
            run_hadoop_incast(scale),
            run_google_no_incast(scale)
        )
    }
}

/// Figure 6: buffer occupancy and PFC pause time for the Fig. 5a experiment.
pub mod fig06 {
    use super::*;

    /// Runs the Fig. 5a workload and reports occupancy and pause-time stats.
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.60, 0.05);
        let mut out = String::from(
            "Fig 6: buffer occupancy and PFC pause time (Fig 5a workload)\nscheme            occ p50(MB)  occ p99(MB)  pfc paused(%)  drops\n",
        );
        let configs: Vec<ExperimentConfig> = Scheme::paper_lineup()
            .into_iter()
            .map(|scheme| config_for(scale, scheme))
            .collect();
        for result in scale.runner.run_experiments(&topo, &trace, &configs) {
            out.push_str(&format!(
                "{:<16}  {:>11.3}  {:>11.3}  {:>13.3}  {:>5}\n",
                result.scheme,
                result.occupancy.percentile_bytes(50.0) / 1e6,
                result.occupancy.percentile_bytes(99.0) / 1e6,
                result.pfc_pause_fraction * 100.0,
                result.drops
            ));
        }
        out
    }
}

/// Figure 7: dynamic vs static queue assignment (BFC vs BFC-VFID vs
/// SFQ+InfBuffer).
pub mod fig07 {
    use super::*;

    /// Runs the comparison and reports tail FCT plus collision fractions.
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.60, 0.05);
        let schemes = vec![Scheme::bfc(), Scheme::bfc_vfid(), Scheme::SfqInfBuffer];
        let results = run_schemes(scale, &topo, &trace, schemes);
        let mut out = p99_table("Fig 7a: queue assignment", &results);
        out.push_str("\nFig 7b: physical-queue collisions\nscheme            collision fraction\n");
        for result in results {
            out.push_str(&format!(
                "{:<16}  {:>18.4}\n",
                result.scheme,
                result.policy_stats.collision_fraction()
            ));
        }
        out
    }
}

/// Figure 8: incast fan-in sweep — utilization and tail buffer occupancy.
pub mod fig08 {
    use super::*;

    /// The fan-in values swept at this scale.
    pub fn fan_ins(scale: &Scale) -> Vec<usize> {
        if scale.full {
            vec![10, 50, 100, 200, 400, 800]
        } else {
            vec![4, 8, 16]
        }
    }

    /// Runs the sweep for BFC and DCQCN+Win.
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t2();
        let hosts = topo.hosts();
        let mut out = String::from(
            "Fig 8: incast fan-in sweep (4 long flows per receiver + periodic incast)\nscheme            fan-in  utilization  p99 buffer(MB)\n",
        );
        // Incast events repeat every 500 us at full scale; quick scale packs a
        // few events into its short window instead.
        let incast_period = if scale.full {
            SimDuration::from_micros(500)
        } else {
            scale.duration() / 4
        };
        let jobs: Vec<(Scheme, usize)> = [Scheme::bfc(), Scheme::Dcqcn { window: true, sfq: false }]
            .into_iter()
            .flat_map(|scheme| fan_ins(scale).into_iter().map(move |f| (scheme.clone(), f)))
            .collect();
        let results = scale.runner.run_all(&jobs, |(scheme, fan_in)| {
            let mut trace = long_lived_per_receiver(
                &hosts,
                if scale.full { 4 } else { 1 },
                if scale.full { 40_000_000 } else { 10_000_000 },
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
        for ((_, fan_in), result) in jobs.iter().zip(&results) {
            out.push_str(&format!(
                "{:<16}  {:>6}  {:>11.3}  {:>14.3}\n",
                result.scheme,
                fan_in,
                result.utilization,
                result.occupancy.percentile_bytes(99.0) / 1e6
            ));
        }
        out
    }
}

/// Figure 9: cross-data-center traffic.
pub mod fig09 {
    use super::*;
    use bfc_metrics::fct::{FctSummary, SizeBucket};

    /// Runs the two-data-center experiment and reports intra- vs inter-DC
    /// tail slowdowns for BFC and DCQCN+Win.
    pub fn run(scale: &Scale) -> String {
        let params = if scale.full {
            CrossDcParams::paper_default()
        } else {
            CrossDcParams {
                dc: FatTreeParams {
                    num_tors: 2,
                    hosts_per_tor: 4,
                    num_spines: 2,
                    host_link: bfc_net::Link::new(10.0, SimDuration::from_micros(1)),
                    fabric_link: bfc_net::Link::new(10.0, SimDuration::from_micros(1)),
                },
                inter_dc_link: bfc_net::Link::new(100.0, SimDuration::from_micros(20)),
            }
        };
        let built = cross_dc(params);
        let duration = if scale.full {
            SimDuration::from_millis(8)
        } else {
            SimDuration::from_micros(800)
        };
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

        let mut out = String::from(
            "Fig 9: cross-datacenter FCT slowdown\nscheme            class     flows   p50     p99\n",
        );
        let configs: Vec<ExperimentConfig> = [Scheme::bfc(), Scheme::Dcqcn { window: true, sfq: false }]
            .into_iter()
            .map(|scheme| {
                let mut config = ExperimentConfig::new(scheme, duration).with_seed(scale.seed);
                // The long-haul hop needs more buffering, as in the paper.
                config.buffer_bytes = if scale.full { 60_000_000 } else { 12_000_000 };
                config
            })
            .collect();
        for result in scale.runner.run_experiments(&built.topology, &trace, &configs) {
            for inter in [false, true] {
                let records: Vec<_> = result
                    .records
                    .iter()
                    .filter(|r| is_inter(&trace[r.flow.index()]) == inter)
                    .copied()
                    .collect();
                let summary = FctSummary::from_records_with_buckets(
                    &records,
                    &[SizeBucket { lo: 0, hi: u64::MAX }],
                );
                if let Some(o) = summary.overall {
                    out.push_str(&format!(
                        "{:<16}  {:<8}  {:>5}  {:>6.2}  {:>6.2}\n",
                        result.scheme,
                        if inter { "inter-DC" } else { "intra-DC" },
                        o.count,
                        o.p50,
                        o.p99
                    ));
                }
            }
        }
        out
    }
}

/// Figure 10: physical-queue size vs number of concurrent flows (the
/// resume-limiting ablation).
pub mod fig10 {
    use super::*;

    /// The concurrency levels swept at this scale.
    pub fn flow_counts(scale: &Scale) -> Vec<usize> {
        if scale.full {
            vec![8, 32, 64, 128, 256]
        } else {
            // Go past the 32 physical queues so flows must share queues and
            // the resume-limiting difference is visible even at quick scale.
            vec![16, 48, 96]
        }
    }

    /// Runs the sweep for BFC and BFC-BufferOpt.
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t2();
        let hosts = topo.hosts();
        let receiver = hosts[0];
        let mut out = String::from(
            "Fig 10: per-queue buffering vs concurrent flows to one receiver\nscheme            flows  p99 physical queue (KB)\n",
        );
        let jobs: Vec<(Scheme, usize)> = [
            Scheme::bfc(),
            Scheme::Bfc(BfcConfig::without_resume_limit()),
        ]
        .into_iter()
        .flat_map(|scheme| flow_counts(scale).into_iter().map(move |n| (scheme.clone(), n)))
        .collect();
        let results = scale.runner.run_all(&jobs, |(scheme, n)| {
            let size = if scale.full { 2_000_000 } else { 300_000 };
            let trace = concurrent_long_flows(&hosts, receiver, *n, size);
            let mut config = config_for(scale, scheme.clone());
            config.drain = scale.duration() * 8;
            scale.runner.run_experiment(&topo, &trace, &config)
        });
        for ((_, n), result) in jobs.iter().zip(&results) {
            let p99_kb = bfc_metrics::percentile(&result.peak_queue_samples, 99.0)
                .unwrap_or(0.0)
                / 1e3;
            out.push_str(&format!(
                "{:<16}  {:>5}  {:>22.1}\n",
                result.scheme, n, p99_kb
            ));
        }
        out.push_str("(BFC caps per-queue buffering; BFC-BufferOpt grows with the flow count)\n");
        out
    }
}

/// Figure 11: the high-priority-queue ablation.
pub mod fig11 {
    use super::*;

    /// Runs BFC with and without the high-priority queue on a hot workload.
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.80, 0.05);
        let schemes = vec![
            Scheme::bfc(),
            Scheme::Bfc(BfcConfig::without_high_priority_queue()),
        ];
        let results = run_schemes(scale, &topo, &trace, schemes);
        let mut out = p99_table(
            "Fig 11b: tail FCT with/without the high-priority queue (85% load + incast)",
            &results,
        );
        out.push_str("\nFig 11a: occupied physical queues\nscheme              p50    p99\n");
        for result in results {
            out.push_str(&format!(
                "{:<16}  {:>6.1} {:>6.1}\n",
                result.scheme,
                bfc_metrics::percentile(&result.occupied_queue_samples, 50.0).unwrap_or(0.0),
                bfc_metrics::percentile(&result.occupied_queue_samples, 99.0).unwrap_or(0.0),
            ));
        }
        out
    }
}

/// Figure 12: sensitivity to the number of physical queues per port.
pub mod fig12 {
    use super::*;

    /// Queue counts swept.
    pub fn queue_counts(scale: &Scale) -> Vec<usize> {
        if scale.full {
            vec![8, 16, 32, 64, 128]
        } else {
            vec![8, 32]
        }
    }

    /// Runs the sweep.
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.60, 0.05);
        let mut out = String::from(
            "Fig 12: sensitivity to physical queues per port (BFC)\nqueues  collision%  overall p99 slowdown\n",
        );
        let counts = queue_counts(scale);
        let configs: Vec<ExperimentConfig> = counts
            .iter()
            .map(|&queues| config_for(scale, Scheme::bfc()).with_queues_per_port(queues))
            .collect();
        let results = scale.runner.run_experiments(&topo, &trace, &configs);
        for (queues, result) in counts.iter().zip(&results) {
            let p99 = result.fct.overall.as_ref().map(|o| o.p99).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{queues:>6}  {:>10.3}  {:>20.2}\n",
                result.policy_stats.collision_fraction() * 100.0,
                p99
            ));
        }
        out
    }
}

/// Figure 13: sensitivity to the size of the VFID space / flow table.
pub mod fig13 {
    use super::*;

    /// VFID-space sizes swept.
    pub fn vfid_counts(scale: &Scale) -> Vec<u32> {
        if scale.full {
            vec![1024, 4096, 16_384, 65_536]
        } else {
            vec![64, 1024, 16_384]
        }
    }

    /// Runs the sweep.
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.60, 0.05);
        let mut out = String::from(
            "Fig 13: sensitivity to the number of VFIDs (BFC)\nvfids   overflow%  overall p99 slowdown\n",
        );
        let counts = vfid_counts(scale);
        let configs: Vec<ExperimentConfig> = counts
            .iter()
            .map(|&vfids| {
                config_for(scale, Scheme::Bfc(BfcConfig::default().with_num_vfids(vfids)))
            })
            .collect();
        let results = scale.runner.run_experiments(&topo, &trace, &configs);
        for (vfids, result) in counts.iter().zip(&results) {
            let p99 = result.fct.overall.as_ref().map(|o| o.p99).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{vfids:>6}  {:>9.4}  {:>20.2}\n",
                result.policy_stats.overflow_fraction() * 100.0,
                p99
            ));
        }
        out
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
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t1();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.60, 0.05);
        let mut out = String::from(
            "Fig 14: sensitivity to pause-frame bloom filter size (BFC)\nbloom(B)  overall p99 slowdown  pauses\n",
        );
        let sizes = bloom_sizes();
        let configs: Vec<ExperimentConfig> = sizes
            .iter()
            .map(|&bytes| {
                config_for(scale, Scheme::Bfc(BfcConfig::default().with_bloom_bytes(bytes)))
            })
            .collect();
        let results = scale.runner.run_experiments(&topo, &trace, &configs);
        for (bytes, result) in sizes.iter().zip(&results) {
            let p99 = result.fct.overall.as_ref().map(|o| o.p99).unwrap_or(f64::NAN);
            out.push_str(&format!(
                "{bytes:>8}  {:>20.2}  {:>6}\n",
                p99, result.policy_stats.pauses
            ));
        }
        out
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
        vec![
            Scheme::bfc(),
            Scheme::Dcqcn {
                window: true,
                sfq: false,
            },
            Scheme::Hpcc,
        ]
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

    /// One recovery-results row, shared with `trace-tool scenario` so the
    /// figure and the CLI cannot drift apart.
    pub fn result_row(label: &str, result: &ExperimentResult) -> String {
        let p99 = result
            .fct
            .overall
            .as_ref()
            .map(|o| o.p99)
            .unwrap_or(f64::NAN);
        let ttr = result
            .recovery
            .time_to_recover
            .map(|d| format!("{:.1}", d.as_micros_f64()))
            .unwrap_or_else(|| "-".to_string());
        format!(
            "{:<16} {:>15} {:>11} {:>9.2} {:>11} {:>9} {:>8} {:>7.2}\n",
            result.scheme,
            label,
            format!("{}/{}", result.completed_flows, result.total_flows),
            p99,
            result.recovery.blackholed_packets,
            result.recovery.reroutes,
            ttr,
            result.recovery.goodput_dip_depth,
        )
    }

    /// Header matching [`result_row`]'s columns.
    pub const HEADER: &str = "scheme                     shape   completed   fct p99  blackholed  reroutes  ttr(us)     dip\n";

    /// Runs the shape comparison and the failure-rate sweep.
    pub fn run(scale: &Scale) -> String {
        let topo = scale.t2();
        let trace = standard_trace(scale, &topo, Workload::Google, 0.60, 0.0);
        let mut out = String::from("Fig 15a: recovery under three failure shapes\n");
        out.push_str(HEADER);

        let shapes = shapes(scale);
        let jobs: Vec<(usize, Scheme)> = (0..shapes.len())
            .flat_map(|i| schemes().into_iter().map(move |s| (i, s)))
            .collect();
        let results = scale.runner.run_all(&jobs, |(shape, scheme)| {
            let schedule = shapes[*shape]
                .1
                .resolve(&topo)
                .expect("shape labels exist in the sweep topology");
            let config = config_for(scale, scheme.clone()).with_dynamics(schedule);
            scale.runner.run_experiment(&topo, &trace, &config)
        });
        for ((shape, _), result) in jobs.iter().zip(&results) {
            out.push_str(&result_row(shapes[*shape].0, result));
        }

        out.push_str("\nFig 15b: FCT tail vs number of failed core links\n");
        out.push_str(HEADER);
        let d = scale.duration();
        let counts = failure_counts();
        let jobs: Vec<(usize, Scheme)> = counts
            .iter()
            .flat_map(|&k| schemes().into_iter().map(move |s| (k, s)))
            .collect();
        let results = scale.runner.run_all(&jobs, |(k, scheme)| {
            let mut spec = ScenarioSpec::new();
            for link in 0..*k {
                let tor = format!("tor{link}");
                let spine = format!("spine{link}");
                spec = spec
                    .down(d / 4, tor.clone(), spine.clone())
                    .up(d * 3 / 5, tor, spine);
            }
            let schedule = spec
                .resolve(&topo)
                .expect("swept links exist in the sweep topology");
            let config = config_for(scale, scheme.clone()).with_dynamics(schedule);
            scale.runner.run_experiment(&topo, &trace, &config)
        });
        for ((k, _), result) in jobs.iter().zip(&results) {
            out.push_str(&result_row(&format!("{k} links down"), result));
        }
        out.push_str(
            "(p99 FCT slowdown over non-incast flows; blackholed = packets lost to dead \
             links/routes; ttr = goodput recovery time after the last fault)\n",
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // These tests run every figure at quick scale: they are the end-to-end
    // regression suite for the whole evaluation pipeline.

    #[test]
    fn fig01_static_table() {
        let t = fig01::run();
        assert!(t.contains("Tomahawk3"));
        // Buffer-per-capacity must be falling across generations.
        assert!(t.lines().count() >= 6);
    }

    #[test]
    fn fig04_byte_weighted_cdfs() {
        let t = fig04::run();
        for name in ["Google", "FB_Hadoop", "WebSearch"] {
            assert!(t.contains(name));
        }
    }

    #[test]
    fn fig05_panel_runs_and_contains_all_schemes() {
        let t = fig05::run_google_incast(&Scale::quick());
        for scheme in ["BFC", "Ideal-FQ", "DCQCN", "DCQCN+Win", "HPCC", "DCQCN+Win+SFQ"] {
            assert!(t.contains(scheme), "missing {scheme} in:\n{t}");
        }
    }

    #[test]
    fn fig08_reports_all_fan_ins() {
        let scale = Scale::quick();
        let t = fig08::run(&scale);
        for f in fig08::fan_ins(&scale) {
            assert!(t.contains(&format!("{f:>6}")), "fan-in {f} missing:\n{t}");
        }
    }

    #[test]
    fn fig10_reports_both_variants() {
        let t = fig10::run(&Scale::quick());
        assert!(t.contains("BFC-BufferOpt"));
        assert!(t.contains("BFC "));
    }

    #[test]
    fn sweeps_accept_bursty_and_clustered_incast_scales() {
        let mut scale = Scale::quick();
        scale.arrivals = ArrivalShape::bursty_default();
        scale.incast_schedule = IncastSchedule::LogNormalGaps { sigma: 1.0 };
        let t = fig05::run_google_incast(&scale);
        assert!(t.contains("BFC"), "bursty sweep must still run:\n{t}");
    }

    #[test]
    fn fig12_and_fig13_sweeps_run() {
        let scale = Scale::quick();
        let t12 = fig12::run(&scale);
        assert!(t12.contains("queues"));
        let t13 = fig13::run(&scale);
        assert!(t13.contains("vfids"));
    }
}
