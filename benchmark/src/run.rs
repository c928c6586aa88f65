//! The timed run (`--trace 0`) of one workload, which yields the end-to-end
//! metrics, and what it shares with the traced run: set-up, the warm-up rep
//! and one measured rep.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use backpressure_flow_control::experiments::run_experiment;

use crate::alloc;
use crate::digest::Digest;
use crate::host::{self, HostClock, Timed, CALIB_REF_MS, CALIB_STEPS};
use crate::names::END_TO_END;
use crate::span::Spans;
use crate::stats::{describe, median};
use crate::workload::{paper_claims, run_rep, set_up, Checks, Inputs, Rep, Workload, TRACES};

/// How often a timed run sets up, to report a median `setup_s`.
const SETUP_ROUNDS: usize = 3;
/// Reps of a `--quick` run.
pub(crate) const QUICK_REPS: usize = 3;

/// What a child process was asked to do.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub quick: bool,
    pub out_dir: PathBuf,
}

impl Opts {
    /// Kernel and calibration sizes shrink tenfold under `--quick`.
    pub(crate) fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 10).max(1)
        } else {
            full
        }
    }

    pub(crate) fn host_clock(&self) -> HostClock {
        let steps = if self.quick {
            CALIB_STEPS / 10
        } else {
            CALIB_STEPS
        };
        HostClock::start(steps, self.workload.threads())
    }
}

/// A finished run: `(name, unit, value)` of every metric, and the checks
/// behind `correct`.
pub struct Outcome {
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    pub checks: Checks,
}

/// A rep that panicked is a failed check, not a crashed benchmark.
fn guarded_rep(inputs: &Inputs, k: usize, spans: &mut Spans, checks: &mut Checks) -> Option<Rep> {
    let rep = catch_unwind(AssertUnwindSafe(|| run_rep(inputs, k, spans)));
    checks.check(rep.is_ok(), || "a rep panicked (message above)".to_string());
    rep.ok()
}

/// Set-up plus the warm-up rep (on trace `k`): everything before the first
/// timed rep.
pub(crate) fn set_up_and_warm(
    opts: &Opts,
    traces: usize,
    k: usize,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Result<(Inputs, Rep), String> {
    let inputs = set_up(
        opts.workload,
        opts.seed,
        traces,
        &opts.out_dir,
        spans,
        checks,
    )?;
    let warm = spans
        .span("setup.warmup", |s| guarded_rep(&inputs, k, s, checks))
        .ok_or("the warm-up rep panicked")?;
    Ok((inputs, warm))
}

/// Checks made once per run on the warm-up rep (which ran trace `k`);
/// returns its digest, which every timed rep on that trace must reproduce.
pub(crate) fn one_off_checks(inputs: &Inputs, k: usize, warm: Rep, checks: &mut Checks) -> Digest {
    let reference = warm.digest();
    match inputs.workload {
        Workload::LineupT2 => paper_claims(&warm, checks),
        Workload::IncastT1Shard2 => {
            let serial = run_experiment(&inputs.topo, &inputs.traces[k], &inputs.configs[0]);
            let d = Digest::of([&serial]);
            checks.check(d == reference, || {
                format!(
                    "2-shard digest {:016x} differs from serial {:016x}",
                    reference.value(),
                    d.value()
                )
            });
        }
        Workload::IncastT1 | Workload::ServiceT2 => {}
    }
    checks.absorb(warm.checks);
    reference
}

/// Measurements of one timed rep.
pub(crate) struct Sample {
    pub(crate) trace: usize,
    /// Wall time of the rep and the host's speed around it.
    pub(crate) timed: Timed,
    pub(crate) hops: u64,
    pub(crate) allocs: u64,
    pub(crate) live_peak_mb: f64,
    /// Simulated time covered, summed over the rep's experiments.
    pub(crate) sim_us: f64,
}

/// Runs one measured rep on trace `k`: allocation counters reset and the rep
/// on the clock, between two runs of the calibration kernel; then (off the
/// clock) its checks. `reference` is the digest of the first rep on this
/// trace, once there is one.
pub(crate) fn measured_rep(
    clock: &mut HostClock,
    inputs: &Inputs,
    k: usize,
    reference: &mut Option<Digest>,
    spans: &mut Spans,
    checks: &mut Checks,
) -> Option<(Sample, Rep)> {
    let ((rep, counted), timed) = clock.time(|| {
        alloc::reset();
        let rep = spans.span("rep", |s| guarded_rep(inputs, k, s, checks));
        (rep, alloc::stats())
    });
    let mut rep = rep?;
    let digest = rep.digest();
    let first = *reference.get_or_insert(digest);
    checks.check(digest == first, || {
        format!(
            "rep digest {:016x} differs from the first rep's {:016x} on trace {k}",
            digest.value(),
            first.value()
        )
    });
    checks.absorb(std::mem::take(&mut rep.checks));
    let sample = Sample {
        trace: k,
        timed,
        hops: rep.pkt_hops(),
        allocs: counted.allocs,
        live_peak_mb: counted.live_peak_bytes as f64 / (1024.0 * 1024.0),
        sim_us: rep
            .runs
            .iter()
            .map(|r| r.result.end_time.as_micros_f64())
            .sum(),
    };
    Some((sample, rep))
}

/// `(pkt_hops_per_s, allocs_per_khop)` of a run: each trace contributes its
/// hop count and the medians over its reps of the wall time (restated at the
/// reference host speed) and of the allocation count; the run's value is the
/// ratio of the sums over the traces. A stalled rep moves one trace's
/// median, not the sum; one heavy trace does not stand for the seed.
fn aggregate(samples: &[Sample]) -> (f64, f64) {
    let (mut hops, mut wall_s, mut allocs) = (0u64, 0.0, 0.0);
    for k in 0..TRACES {
        let of_trace: Vec<&Sample> = samples.iter().filter(|s| s.trace == k).collect();
        let Some(first) = of_trace.first() else {
            continue;
        };
        hops += first.hops;
        wall_s += median(
            &of_trace
                .iter()
                .map(|s| s.timed.ref_wall_s())
                .collect::<Vec<f64>>(),
        );
        allocs += median(
            &of_trace
                .iter()
                .map(|s| s.allocs as f64)
                .collect::<Vec<f64>>(),
        );
    }
    (hops as f64 / wall_s, allocs / (hops as f64 / 1000.0))
}

/// The timed run (`--trace 0`): several set-ups, then reps back to back for
/// `--seconds` seconds, cycling through the traces, with span recording off.
pub fn timed_run(opts: &Opts) -> Result<Outcome, String> {
    let mut spans = Spans::new(false);
    let mut checks = Checks::default();
    let mut clock = opts.host_clock();

    let rounds = if opts.quick { 1 } else { SETUP_ROUNDS };
    let mut setups: Vec<Timed> = Vec::with_capacity(rounds);
    let mut state: Option<(Inputs, Rep)> = None;
    for round in 0..rounds {
        // Free the previous round first, so peak memory is one set-up's.
        drop(state.take());
        // Each round warms up on another trace, so the median set-up time
        // does not hang on how heavy the first trace happens to be.
        let (built, timed) =
            clock.time(|| set_up_and_warm(opts, TRACES, round % TRACES, &mut spans, &mut checks));
        state = Some(built?);
        setups.push(timed);
    }
    let (inputs, warm) = state.expect("at least one set-up round ran");
    let warmed = (rounds - 1) % TRACES;
    let mut references = [None; TRACES];
    // On the clock only so that it reads the host's speed again afterwards.
    let (reference, _) = clock.time(|| one_off_checks(&inputs, warmed, warm, &mut checks));
    references[warmed] = Some(reference);

    let mut samples: Vec<Sample> = Vec::new();
    let ticks_before = host::cpu_ticks();
    let window = Instant::now();
    loop {
        let done = if opts.quick {
            samples.len() >= QUICK_REPS
        } else {
            // Every trace is measured at least once, however slow the host.
            samples.len() >= TRACES && window.elapsed().as_secs() >= opts.seconds
        };
        if done {
            break;
        }
        let k = samples.len() % TRACES;
        match measured_rep(
            &mut clock,
            &inputs,
            k,
            &mut references[k],
            &mut spans,
            &mut checks,
        ) {
            Some((sample, _)) => samples.push(sample),
            None => break,
        }
    }
    let steal = host::steal_share(ticks_before, host::cpu_ticks());
    if samples.is_empty() {
        return Err(format!("no rep completed: {}", checks.failures.join("; ")));
    }

    let (pkt_hops_per_s, allocs_per_khop) = aggregate(&samples);
    let setup_s = median(&setups.iter().map(Timed::ref_wall_s).collect::<Vec<f64>>());
    let peak_rss = host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let mut digest = Digest::new();
    for reference in references.iter().flatten() {
        digest.fold(*reference);
    }

    let n = samples.len();
    println!(
        "workload {}  seed {}  reps {n} over {TRACES} traces",
        opts.workload.name(),
        opts.seed
    );
    for (i, s) in samples.iter().enumerate() {
        println!(
            "  rep {:>3}  trace {}  hops {:>8}  wall {:.6} s  allocs {:>9}  calib {:.3} ms",
            i + 1,
            s.trace,
            s.hops,
            s.timed.wall_s,
            s.allocs,
            s.timed.calib_ms
        );
    }
    let column = |f: fn(&Sample) -> f64| samples.iter().map(f).collect::<Vec<f64>>();
    let calibs = column(|s| s.timed.calib_ms);
    println!("  pkt_hops_per_s   1/s    {pkt_hops_per_s:.3}  at the reference host speed (sum of hops / sum of per-trace median walls)");
    println!(
        "      per rep, as measured:           {}",
        describe(&column(|s| s.hops as f64 / s.timed.wall_s))
    );
    println!(
        "      per rep, at reference speed:    {}",
        describe(&column(|s| s.hops as f64 / s.timed.ref_wall_s()))
    );
    println!("  allocs_per_khop  count  {allocs_per_khop:.6}");
    println!(
        "  peak_rss_mb      MB     {peak_rss:.3}  (heap live high-water per rep: {})",
        describe(&column(|s| s.live_peak_mb))
    );
    println!(
        "  setup_s          s      {setup_s:.6}  at the reference host speed; as measured: {}",
        describe(&setups.iter().map(|t| t.wall_s).collect::<Vec<f64>>())
    );
    println!(
        "  rep_wall_s       s      {}",
        describe(&column(|s| s.timed.wall_s))
    );
    println!(
        "  host.calib_ms    ms     {}  (reference {CALIB_REF_MS} ms: host slowdown {:.3})",
        describe(&calibs),
        median(&calibs) / CALIB_REF_MS
    );
    println!(
        "  host.steal_share ratio  {steal:.6}  host.nproc {}",
        host::nproc()
    );
    println!(
        "  sim_digest       {:016x} over the {TRACES} traces (low 32 bits: {})",
        digest.value(),
        digest.low32()
    );
    println!(
        "  note: {} reps per trace: medians only, no percentile above the median has ten samples beyond it",
        n / TRACES
    );

    // In `END_TO_END` order.
    let values = [pkt_hops_per_s, allocs_per_khop, peak_rss, setup_s];
    Ok(Outcome {
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| (m.0, m.1, value))
            .collect(),
        checks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::CALIB_REF_MS;

    fn sample(trace: usize, hops: u64, wall_s: f64, calib_ms: f64, allocs: u64) -> Sample {
        Sample {
            trace,
            timed: Timed { wall_s, calib_ms },
            hops,
            allocs,
            live_peak_mb: 0.0,
            sim_us: 0.0,
        }
    }

    #[test]
    fn a_run_is_the_ratio_of_sums_over_its_traces() {
        // Two traces at the reference host speed: 1000 hops in 1 s, 3000 in 2 s.
        let samples = [
            sample(0, 1_000, 1.0, CALIB_REF_MS, 500),
            sample(1, 3_000, 2.0, CALIB_REF_MS, 700),
        ];
        let (speed, allocs_per_khop) = aggregate(&samples);
        assert_eq!(speed, 4_000.0 / 3.0);
        assert_eq!(allocs_per_khop, 1_200.0 / 4.0);
    }

    #[test]
    fn a_stalled_rep_moves_its_trace_median_not_the_run() {
        let reps = |middle_wall_s| {
            [
                sample(0, 1_000, 1.0, CALIB_REF_MS, 500),
                sample(0, 1_000, middle_wall_s, CALIB_REF_MS, 500),
                sample(0, 1_000, 1.0, CALIB_REF_MS, 500),
            ]
        };
        assert_eq!(aggregate(&reps(1.0)), aggregate(&reps(5.0)));
    }

    #[test]
    fn a_host_twice_as_slow_gives_the_same_speed() {
        let quiet = [
            sample(0, 1_000, 1.0, CALIB_REF_MS, 500),
            sample(1, 2_000, 1.5, CALIB_REF_MS, 900),
        ];
        let slow = [
            sample(0, 1_000, 2.0, 2.0 * CALIB_REF_MS, 500),
            sample(1, 2_000, 3.0, 2.0 * CALIB_REF_MS, 900),
        ];
        assert_eq!(aggregate(&quiet), aggregate(&slow));
    }
}
