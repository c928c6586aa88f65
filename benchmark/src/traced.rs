//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! Three parts share the `--seconds` budget: reps with span recording
//! alternately on and off (counts from their registries; the pair is the cost
//! of measuring), the stand-alone kernels, and the ablation pairs of the
//! workload. It uses the run's first trace only. Walls are as measured, not
//! restated at the reference host speed; `host.calib_ms` is beside them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use backpressure_flow_control::experiments::fuzz::fuzz;
use backpressure_flow_control::experiments::{
    resume_experiment, run_experiment, run_experiment_sharded, serve_experiment_with,
    snapshot_experiment, ExperimentConfig, FuzzConfig, MetricsHub, ParallelRunner,
};
use backpressure_flow_control::net::routing::RoutingTables;
use backpressure_flow_control::net::trace::{kind_index_of, TraceFilter};
use backpressure_flow_control::sim::{SimDuration, SimTime};
use backpressure_flow_control::workloads::{
    export_csv, import_csv, synthesize, CsvTail, IngestSource,
};

use crate::host;
use crate::kernels;
use crate::names::PER_LAYER;
use crate::run::{
    measured_rep, one_off_checks, set_up_and_warm, Opts, Outcome, Sample, QUICK_REPS,
};
use crate::span::{self_times, Spans};
use crate::stats::median;
use crate::workload::{
    slowdowns, Checks, Inputs, Rep, Workload, INFLIGHT_CAP, SHARDS, TRACE_CAPACITY,
};

/// Per-layer metric values, every name of [`PER_LAYER`] present from the
/// start: a name the workload does not measure stays 0.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.0, 0.0)).collect())
    }

    fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric name"));
        *slot = value;
    }

    /// Sets a per-scheme metric if there is one under that name: the
    /// vocabulary names the lineup's schemes, not every key a rep can have.
    fn set_if_declared(&mut self, name: &str, value: f64) {
        if let Some(slot) = self.0.get_mut(name) {
            *slot = value;
        }
    }

    fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

/// Median wall seconds of `n` calls of `f`, each under a span named `name`.
fn median_wall<T>(spans: &mut Spans, name: &str, n: usize, mut f: impl FnMut() -> T) -> f64 {
    let walls: Vec<f64> = (0..n)
        .map(|_| spans.timed(name, |_| black_box(f())).1)
        .collect();
    median(&walls)
}

/// One side of an ablation: a name and the call it times.
type Variant<'a> = (&'static str, Box<dyn Fn() + 'a>);

/// Runs every variant once per round, rotating which goes first, each under
/// an `ablate.<name>` span. Returns the walls per variant, round by round,
/// so ratios are taken within a round: between neighbours in time.
fn ablate(
    variants: &[Variant<'_>],
    rounds: usize,
    spans: &mut Spans,
) -> BTreeMap<&'static str, Vec<f64>> {
    let mut walls: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for round in 0..rounds {
        for k in 0..variants.len() {
            let (name, call) = &variants[(round + k) % variants.len()];
            let ((), wall) = spans.timed(&format!("ablate.{name}"), |_| call());
            walls.entry(*name).or_default().push(wall);
        }
    }
    // The bases every ratio below is taken against.
    for (name, walls) in &walls {
        println!(
            "  ablate.{name:<20} median {:.6} s over {rounds} rounds",
            median(walls)
        );
    }
    walls
}

/// Median over rounds of `numerator ÷ denominator`, paired by round.
fn paired_ratio(
    walls: &BTreeMap<&'static str, Vec<f64>>,
    numerator: &str,
    denominator: &str,
) -> f64 {
    let ratios: Vec<f64> = walls[numerator]
        .iter()
        .zip(&walls[denominator])
        .map(|(n, d)| n / d)
        .collect();
    median(&ratios)
}

/// How many rounds of `round_s` seconds fit in what is left of the budget.
fn rounds_within(budget_s: f64, round_s: f64, quick: bool) -> usize {
    if quick {
        1
    } else {
        ((budget_s / round_s) as usize).clamp(2, 15)
    }
}

/// `(metric, registry counter family)`: exact counts per 1000 packet hops.
const PER_KHOP_COUNTS: [(&str, &str); 6] = [
    (
        "sim.event.overflow_pushes_per_khop",
        "bfc_engine_queue_overflow_pushes",
    ),
    ("sim.shard.barriers_per_khop", "bfc_engine_epoch_barriers"),
    (
        "sim.shard.boundary_events_per_khop",
        "bfc_engine_epoch_boundary_events",
    ),
    ("core.flow_table.lookups_per_khop", "bfc_flow_table_lookups"),
    ("core.policy.pauses_per_khop", "bfc_policy_pauses"),
    ("core.policy.resumes_per_khop", "bfc_policy_resumes"),
];

/// What one rep's experiments say about themselves: registry counts, the
/// paper's headline numbers and each scheme's cost per hop.
fn rep_counts(rep: &Rep, layers: &mut Layers) {
    let total = |family: &str| -> f64 {
        rep.runs
            .iter()
            .map(|r| r.result.registry.family_total(family))
            .sum::<u64>() as f64
    };
    let hops = total("bfc_switch_rx_packets");
    layers.set("net.switch.pkt_hops", hops);
    layers.set("net.switch.drops", total("bfc_switch_drops"));
    layers.set("net.switch.pfc_pauses", total("bfc_switch_pfc_pauses_sent"));
    layers.set("net.switch.ecn_marked", total("bfc_switch_ecn_marked"));
    for (metric, family) in PER_KHOP_COUNTS {
        layers.set(metric, total(family) / (hops / 1000.0));
    }
    let (batches, lookups) = (
        total("bfc_engine_epoch_batches"),
        total("bfc_flow_table_lookups"),
    );
    if batches > 0.0 {
        layers.set(
            "sim.shard.windows_per_batch",
            total("bfc_engine_epoch_windows") / batches,
        );
    }
    if lookups > 0.0 {
        layers.set(
            "core.flow_table.probe_steps_per_lookup",
            total("bfc_flow_table_probe_steps") / lookups,
        );
    }

    for run in &rep.runs {
        let key = &run.key;
        let (p99_short, p99, mean) = slowdowns(&run.result);
        layers.set_if_declared(&format!("metrics.fct.p99_short_slowdown.{key}"), p99_short);
        layers.set_if_declared(&format!("metrics.fct.p99_slowdown.{key}"), p99);
        layers.set_if_declared(&format!("metrics.fct.mean_slowdown.{key}"), mean);
        let own_hops = run.result.registry.family_total("bfc_switch_rx_packets");
        layers.set_if_declared(
            &format!("runner.ns_per_hop.{key}"),
            run.wall_s * 1e9 / own_hops as f64,
        );
    }

    let registry = &rep.runs[0].result.registry;
    let pauses = registry.hist("bfc_pause_duration_ns");
    layers.set(
        "metrics.pause.p99_ns",
        pauses.and_then(|h| h.quantile(0.99)).unwrap_or(0) as f64,
    );
    layers.set("metrics.registry.series", registry.len() as f64);
}

/// The stand-alone kernels, and the layers' one-shot functions on this
/// workload's own topology, trace and finished registry.
fn run_kernels(
    opts: &Opts,
    inputs: &Inputs,
    rep: &Rep,
    spans: &mut Spans,
    checks: &mut Checks,
    layers: &mut Layers,
) -> Result<(), String> {
    let (topo, routes) = (&inputs.topo, &inputs.routes);
    let (trace, params) = (&inputs.traces[0][..], &inputs.params[0]);
    let chunks = opts.scaled(200);

    let hold = spans.span("kernel.event_hold", |_| kernels::event_hold_ns(chunks));
    layers.set("sim.event.hold_ns_per_op", hold);
    let hold_ref = spans.span("kernel.event_hold_ref", |_| {
        kernels::event_hold_ref_ns(chunks)
    });
    layers.set("sim.event.hold_ref_ns_per_op", hold_ref);
    let hot_lookup = spans.span("kernel.flow_table", |_| {
        kernels::flow_table_hot_lookup_ns(chunks / 2)
    });
    layers.set("core.flow_table.hot_lookup_ns", hot_lookup);
    let fwd = spans.span("kernel.switch_fifo", |_| {
        kernels::switch_fwd_ns(topo, routes, chunks)
    });
    let bfc = spans.span("kernel.switch_bfc", |_| {
        kernels::switch_bfc_ns(topo, routes, chunks)
    });
    layers.set("net.switch.fwd_ns_per_pkt", fwd);
    layers.set("core.policy.ns_per_pkt", bfc - fwd);

    let n = opts.scaled(20);
    let routing = median_wall(spans, "kernel.routing", n, || RoutingTables::compute(topo));
    layers.set("net.routing.compute_ms", routing * 1e3);

    let hosts = topo.hosts();
    let synth = median_wall(spans, "kernel.synth", n, || synthesize(&hosts, params));
    layers.set(
        "workloads.synth_mflows_per_s",
        trace.len() as f64 / synth / 1e6,
    );
    let csv = export_csv(trace);
    let mb = csv.len() as f64 / 1e6;
    let export = median_wall(spans, "kernel.csv_export", n, || export_csv(trace));
    layers.set("workloads.csv_export_mb_per_s", mb / export);
    let import = median_wall(spans, "kernel.csv_import", n, || import_csv(&csv));
    layers.set("workloads.csv_import_mb_per_s", mb / import);

    // `CsvTail` drained with no simulator behind it.
    let csv_path = opts
        .out_dir
        .join(format!("{}.ingest.csv", opts.workload.name()));
    std::fs::write(&csv_path, &csv)
        .map_err(|e| format!("cannot write {}: {e}", csv_path.display()))?;
    let ingest = median_wall(spans, "kernel.ingest", n, || {
        let mut tail = CsvTail::open(&csv_path, false).expect("the CSV just written opens");
        let mut flows = 0usize;
        while let Ok(Some(_)) = tail.next_flow() {
            flows += 1;
        }
        checks.check(flows == trace.len(), || {
            format!("CsvTail drained {flows} of {} flows", trace.len())
        });
    });
    layers.set(
        "workloads.ingest_kflows_per_s",
        trace.len() as f64 / ingest / 1e3,
    );

    // Snapshot at t = 0: build and encode, no advance.
    let config = &inputs.configs[0];
    let mut snapshot_bytes = 0;
    let save = median_wall(spans, "kernel.snapshot", n / 2, || {
        snapshot_bytes = snapshot_experiment(topo, trace, config, SimTime::ZERO, 1).len();
    });
    layers.set("sim.snapshot.bytes", snapshot_bytes as f64);
    layers.set("sim.snapshot.save_ms", save * 1e3);

    // Rendering a finished run's registry, and reading it back from a hub.
    let registry = &rep.runs[0].result.registry;
    let expose = median_wall(spans, "registry.expose", n, || registry.expose());
    layers.set("metrics.registry.expose_us", expose * 1e6);
    let hub = MetricsHub::new();
    hub.publish(registry);
    let render = median_wall(spans, "kernel.hub_render", n, || hub.render());
    layers.set("service.hub_render_us", render * 1e6);
    Ok(())
}

/// The workload's ablation pairs, within `budget_s` seconds: each variant
/// differs from its partner by one layer or one engine.
fn run_ablations(
    opts: &Opts,
    inputs: &Inputs,
    rep_wall_s: f64,
    budget_s: f64,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let (topo, trace, config) = (&inputs.topo, &inputs.traces[0][..], &inputs.configs[0]);
    let unsampled = |c: &ExperimentConfig| {
        let mut c = c.clone();
        c.sample_interval = c.horizon + c.drain + SimDuration::from_micros(1);
        c
    };
    // A round's cost in rep walls, measured on the build box.
    let rounds = |round_reps: f64| rounds_within(budget_s, rep_wall_s * round_reps, opts.quick);
    match inputs.workload {
        Workload::LineupT2 => {
            let configs = &inputs.configs[..];
            let quiet: Vec<ExperimentConfig> = configs.iter().map(unsampled).collect();
            let lineup = |runner: ParallelRunner, configs: &[ExperimentConfig]| {
                drop(runner.run_experiments(topo, trace, configs));
            };
            let variants: Vec<Variant<'_>> = vec![
                (
                    "lineup_serial",
                    Box::new(|| lineup(ParallelRunner::serial(), configs)),
                ),
                (
                    "lineup_2_threads",
                    Box::new(|| lineup(ParallelRunner::new(2), configs)),
                ),
                (
                    "lineup_unsampled",
                    Box::new(|| lineup(ParallelRunner::serial(), &quiet)),
                ),
            ];
            let walls = ablate(&variants, rounds(2.7), spans);
            layers.set(
                "parallel.speedup_2t",
                paired_ratio(&walls, "lineup_serial", "lineup_2_threads"),
            );
            layers.set(
                "metrics.series.sampling_overhead_frac",
                paired_ratio(&walls, "lineup_serial", "lineup_unsampled") - 1.0,
            );
        }
        Workload::IncastT1 => {
            let quiet = unsampled(config);
            let variants: Vec<Variant<'_>> = vec![
                (
                    "serial",
                    Box::new(|| drop(run_experiment(topo, trace, config))),
                ),
                (
                    "serial_unsampled",
                    Box::new(|| drop(run_experiment(topo, trace, &quiet))),
                ),
            ];
            let walls = ablate(&variants, rounds(2.0), spans);
            layers.set(
                "metrics.series.sampling_overhead_frac",
                paired_ratio(&walls, "serial", "serial_unsampled") - 1.0,
            );
        }
        Workload::IncastT1Shard2 => {
            let unbatched = config.clone().with_epoch_batching(false);
            let sharded = |config: &ExperimentConfig, shards: usize| {
                drop(run_experiment_sharded(topo, trace, config, shards));
            };
            let variants: Vec<Variant<'_>> = vec![
                (
                    "serial",
                    Box::new(|| drop(run_experiment(topo, trace, config))),
                ),
                ("shards_2", Box::new(|| sharded(config, SHARDS))),
                ("shards_1", Box::new(|| sharded(config, 1))),
                (
                    "shards_2_unbatched",
                    Box::new(|| sharded(&unbatched, SHARDS)),
                ),
            ];
            let walls = ablate(&variants, rounds(4.8), spans);
            layers.set(
                "sharded.over_serial_ratio",
                paired_ratio(&walls, "shards_2", "serial"),
            );
            layers.set(
                "sharded.one_shard_ratio",
                paired_ratio(&walls, "shards_1", "serial"),
            );
            layers.set(
                "sharded.batching_off_ratio",
                paired_ratio(&walls, "shards_2_unbatched", "shards_2"),
            );
        }
        Workload::ServiceT2 => {
            let hub = MetricsHub::new();
            let serve = |hub: Option<&MetricsHub>| {
                let mut tail = CsvTail::open(&inputs.csv_paths[0], false)
                    .expect("the CSV written in set-up opens");
                drop(serve_experiment_with(
                    topo,
                    config,
                    &mut tail,
                    INFLIGHT_CAP,
                    hub,
                ));
            };
            let recorded = config.clone().with_trace_capacity(TRACE_CAPACITY);
            let pfc_kinds =
                ["pfc-sent", "pfc-delivered"].map(|k| kind_index_of(k).expect("a PFC trace kind"));
            let filtered = recorded
                .clone()
                .with_trace_filter(TraceFilter::all().with_kinds(pfc_kinds));
            let cut = SimTime::ZERO + config.horizon / 2;
            let variants: Vec<Variant<'_>> = vec![
                (
                    "replay",
                    Box::new(|| drop(run_experiment(topo, trace, config))),
                ),
                ("serve", Box::new(|| serve(None))),
                ("serve_hub", Box::new(|| serve(Some(&hub)))),
                (
                    "record",
                    Box::new(|| drop(run_experiment(topo, trace, &recorded))),
                ),
                (
                    "record_filtered",
                    Box::new(|| drop(run_experiment(topo, trace, &filtered))),
                ),
                (
                    "checkpoint",
                    Box::new(|| {
                        let bytes = snapshot_experiment(topo, trace, config, cut, 1);
                        drop(resume_experiment(topo, trace, config, &bytes));
                    }),
                ),
            ];
            let walls = ablate(&variants, rounds(1.5), spans);
            layers.set(
                "service.hub_overhead_frac",
                paired_ratio(&walls, "serve_hub", "serve") - 1.0,
            );
            layers.set(
                "service.serve_over_replay_ratio",
                paired_ratio(&walls, "serve", "replay"),
            );
            layers.set(
                "net.trace.record_overhead_frac",
                paired_ratio(&walls, "record", "replay") - 1.0,
            );
            layers.set(
                "net.trace.filtered_overhead_frac",
                paired_ratio(&walls, "record_filtered", "replay") - 1.0,
            );
            layers.set(
                "service.checkpoint_tax_ratio",
                paired_ratio(&walls, "checkpoint", "replay"),
            );

            let mut fuzz_config = FuzzConfig::new();
            if opts.quick {
                fuzz_config.budget = 2;
                fuzz_config.shrink_evals = 2;
            }
            let (outcome, wall) = spans.timed("fuzz.run", |_| fuzz(&fuzz_config));
            let evals = outcome.map_err(|e| format!("fuzz failed: {e}"))?.evals;
            layers.set("fuzz.evals_per_s", evals as f64 / wall);
        }
    }
    Ok(())
}

/// The traced run of one workload.
pub fn traced_run(opts: &Opts) -> Result<Outcome, String> {
    let mut spans = Spans::new(true);
    let mut checks = Checks::default();
    let mut layers = Layers::new();
    let budget = Instant::now();
    let seconds = opts.seconds as f64;

    let (inputs, warm) = spans.span("setup", |s| set_up_and_warm(opts, 1, 0, s, &mut checks))?;
    let mut reference = Some(one_off_checks(&inputs, 0, warm, &mut checks));

    // Reps for about a third of the budget, recorded and unrecorded in turn.
    let mut samples: Vec<Sample> = Vec::new();
    let mut last: Option<Rep> = None;
    let ticks_before = host::cpu_ticks();
    let mut clock = opts.host_clock();
    loop {
        let done = if opts.quick {
            samples.len() >= QUICK_REPS
        } else {
            samples.len() >= 4 && budget.elapsed().as_secs_f64() >= seconds * 0.35
        };
        if done {
            break;
        }
        spans.set_recording(samples.len().is_multiple_of(2));
        spans.set_rep(samples.len() as u32 + 1);
        let rep = measured_rep(
            &mut clock,
            &inputs,
            0,
            &mut reference,
            &mut spans,
            &mut checks,
        );
        spans.set_recording(true);
        spans.set_rep(0);
        match rep {
            Some((sample, rep)) => {
                samples.push(sample);
                last = Some(rep);
            }
            None => break,
        }
    }
    let steal = host::steal_share(ticks_before, host::cpu_ticks());
    let rep = last.ok_or_else(|| format!("no rep completed: {}", checks.failures.join("; ")))?;
    let column = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let rep_wall_s = median(&column(|s| s.timed.wall_s));

    rep_counts(&rep, &mut layers);
    layers.set("runner.rep_wall_s", rep_wall_s);
    layers.set(
        "runner.sim_us_per_wall_ms",
        median(&column(|s| s.sim_us / (s.timed.wall_s * 1e3))),
    );
    let digest = reference.expect("the warm-up rep set the reference digest");
    layers.set("runner.sim_digest32", f64::from(digest.low32()));
    if let Some(phases) = rep.service {
        let trace_mb = phases.trace_bytes as f64 / 1e6;
        layers.set("service.serve_ms", phases.serve_s * 1e3);
        layers.set("service.snapshot_ms", phases.snapshot_s * 1e3);
        layers.set("service.resume_ms", phases.resume_s * 1e3);
        layers.set("net.trace.records", phases.trace_records as f64);
        layers.set("net.trace.write_mb_per_s", trace_mb / phases.write_s);
        layers.set("net.trace.read_mb_per_s", trace_mb / phases.read_s);
        layers.set(
            "net.trace.diff_mrec_per_s",
            phases.trace_records as f64 / 1e6 / phases.diff_s,
        );
    }

    run_kernels(opts, &inputs, &rep, &mut spans, &mut checks, &mut layers)?;
    let left_s = (seconds - budget.elapsed().as_secs_f64()).max(0.0);
    run_ablations(opts, &inputs, rep_wall_s, left_s, &mut spans, &mut layers)?;

    // The cost of measuring: each recorded rep against the unrecorded one
    // right after it, and the share of a rep's span that no child span covers.
    let pairs: Vec<f64> = samples
        .chunks_exact(2)
        .map(|pair| pair[0].timed.wall_s / pair[1].timed.wall_s)
        .collect();
    if !pairs.is_empty() {
        layers.set("bench.span_overhead_frac", median(&pairs) - 1.0);
    }
    let selfs = self_times(spans.spans());
    let (mut rep_ns, mut rep_self_ns) = (0u64, 0u64);
    for (span, self_ns) in spans.spans().iter().zip(&selfs) {
        if span.name == "rep" {
            rep_ns += span.duration_ns();
            rep_self_ns += self_ns;
        }
    }
    layers.set(
        "bench.harness_self_share",
        rep_self_ns as f64 / rep_ns.max(1) as f64,
    );
    layers.set("host.steal_share", steal);
    layers.set("host.calib_ms", median(&column(|s| s.timed.calib_ms)));
    layers.set("host.nproc", host::nproc() as f64);

    let span_path = opts
        .out_dir
        .join(format!("trace.{}.json", opts.workload.name()));
    std::fs::write(&span_path, spans.to_json().render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", span_path.display()))?;

    println!(
        "workload {}  seed {}  traced reps {}  spans {} -> {}",
        opts.workload.name(),
        opts.seed,
        samples.len(),
        spans.spans().len(),
        span_path.display()
    );
    for (name, unit, _) in PER_LAYER {
        println!("  {name:<42} {:>18.6} {unit}", layers.get(name));
    }
    print_estimated_shares(&rep, &layers);

    Ok(Outcome {
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.0, m.1, layers.get(m.0)))
            .collect(),
        checks,
    })
}

/// With nothing contending, a faster layer saves at most its
/// `ns_per_op × ops_per_hop` of a hop's cost: print that product for each
/// kernel as its estimated share of the measured cost per hop.
fn print_estimated_shares(rep: &Rep, layers: &Layers) {
    let hops = layers.get("net.switch.pkt_hops");
    let ns_per_hop = layers.get("runner.rep_wall_s") * 1e9 / hops;
    println!("  estimated share of the {ns_per_hop:.1} ns a hop costs (ns_per_op x ops_per_hop):");
    // The share of the rep's hops that ran under the BFC policy.
    let bfc_hops = rep.run("bfc").map_or(0, |r| {
        r.result.registry.family_total("bfc_switch_rx_packets")
    });
    let bfc_share = bfc_hops as f64 / hops;
    let rows = [
        // At least two events per hop: the arrival and the transmit completion.
        ("sim.event.hold_ns_per_op", 2.0),
        ("net.switch.fwd_ns_per_pkt", 1.0),
        ("core.policy.ns_per_pkt", bfc_share),
        (
            "core.flow_table.hot_lookup_ns",
            layers.get("core.flow_table.lookups_per_khop") / 1000.0,
        ),
    ];
    for (name, ops_per_hop) in rows {
        let ns = layers.get(name) * ops_per_hop;
        println!(
            "    {name:<34} {ns:>8.2} ns  {:>5.1} %",
            100.0 * ns / ns_per_hop
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_rotates_the_order_and_pairs_ratios_by_round() {
        let order = std::cell::RefCell::new(Vec::new());
        let variants: Vec<Variant<'_>> = vec![
            ("a", Box::new(|| order.borrow_mut().push('a'))),
            ("b", Box::new(|| order.borrow_mut().push('b'))),
            ("c", Box::new(|| order.borrow_mut().push('c'))),
        ];
        let mut spans = Spans::new(true);
        let walls = ablate(&variants, 3, &mut spans);
        assert_eq!(order.borrow().iter().collect::<String>(), "abcbcacab");
        assert!(walls.values().all(|w| w.len() == 3));
        assert_eq!(spans.spans().len(), 9);
        assert_eq!(spans.spans()[3].name, "ablate.b");

        let walls = BTreeMap::from([("slow", vec![2.0, 9.0, 4.0]), ("base", vec![1.0, 3.0, 4.0])]);
        assert_eq!(paired_ratio(&walls, "slow", "base"), 2.0);
        assert_eq!(rounds_within(10.0, 1.0, true), 1);
        assert_eq!(rounds_within(0.0, 1.0, false), 2);
        assert_eq!(rounds_within(7.9, 1.0, false), 7);
        assert_eq!(rounds_within(1e9, 1.0, false), 15);
    }

    #[test]
    fn every_per_layer_name_is_reported_and_an_unknown_one_is_a_bug() {
        let mut layers = Layers::new();
        layers.set("host.nproc", 2.0);
        assert_eq!(layers.get("host.nproc"), 2.0);
        assert_eq!(layers.get("fuzz.evals_per_s"), 0.0);
        assert_eq!(layers.0.len(), PER_LAYER.len());
        assert!(std::panic::catch_unwind(move || layers.set("no.such.metric", 1.0)).is_err());
        for (metric, _) in PER_KHOP_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.0 == metric), "{metric}");
        }
    }

    #[test]
    fn median_wall_times_every_call_under_its_span() {
        let mut spans = Spans::new(true);
        let mut calls = 0;
        let wall = median_wall(&mut spans, "kernel.x", 5, || calls += 1);
        assert_eq!(calls, 5);
        assert!(wall >= 0.0);
        assert!(spans.spans().iter().all(|s| s.name == "kernel.x"));
        assert_eq!(spans.spans().len(), 5);
    }
}
