//! Hand-rolled, dependency-free benchmark harness for the BFC reproduction.
//!
//! A tiny criterion replacement that works offline: each benchmark is warmed
//! up, calibrated so one sample takes a meaningful amount of wall-clock time,
//! then timed for K samples; the reported figure is the **median** ns/iter
//! (robust against scheduling noise), rendered as a text table. A measuring
//! tool, not a judge: it keeps no baseline and passes or fails nothing —
//! wall-clock is judged by the repo's `benchmark/` (host-calibrated,
//! alternated pairs), exact costs by `tests/exact_costs.rs`.
//!
//! ```
//! use bfc_bench::Harness;
//!
//! let mut h = Harness::quick();
//! h.bench("sum_1k", || (0..1_000u64).sum::<u64>());
//! assert!(h.report().contains("sum_1k"));
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Timing results of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (stable across PRs).
    pub name: String,
    /// Iterations executed per timed sample.
    pub iters_per_sample: u64,
    /// Total wall-clock nanoseconds of each sample.
    pub sample_ns: Vec<u128>,
}

impl BenchResult {
    /// Per-iteration nanoseconds of each sample, sorted ascending.
    pub fn per_iter_ns(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .sample_ns
            .iter()
            .map(|&ns| ns as f64 / self.iters_per_sample as f64)
            .collect();
        v.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        v
    }

    /// Median ns/iter — the headline number.
    pub fn median_ns(&self) -> f64 {
        let v = self.per_iter_ns();
        let n = v.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// Fastest observed ns/iter.
    pub fn min_ns(&self) -> f64 {
        self.per_iter_ns().first().copied().unwrap_or(f64::NAN)
    }

    /// Slowest observed ns/iter.
    pub fn max_ns(&self) -> f64 {
        self.per_iter_ns().last().copied().unwrap_or(f64::NAN)
    }

    /// Median absolute deviation of the per-iteration samples, in ns/iter —
    /// the robust spread estimate paired with the median headline: a
    /// difference between two runs inside their combined MAD bands is noise.
    pub fn mad_ns(&self) -> f64 {
        let v = self.per_iter_ns();
        if v.is_empty() {
            return f64::NAN;
        }
        let median = self.median_ns();
        let mut dev: Vec<f64> = v.iter().map(|x| (x - median).abs()).collect();
        dev.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
        let n = dev.len();
        if n % 2 == 1 {
            dev[n / 2]
        } else {
            (dev[n / 2 - 1] + dev[n / 2]) / 2.0
        }
    }
}

/// The benchmark harness: registers and times benchmarks, renders reports.
pub struct Harness {
    warmup: Duration,
    min_sample: Duration,
    samples: usize,
    filter: Option<String>,
    verbose: bool,
    results: Vec<BenchResult>,
    notes: Vec<String>,
}

impl Harness {
    /// Full-fidelity settings: ~150 ms warmup, >= 20 ms per sample, 11
    /// samples (median of 11).
    pub fn new() -> Self {
        Harness {
            warmup: Duration::from_millis(150),
            min_sample: Duration::from_millis(20),
            samples: 11,
            filter: None,
            verbose: false,
            results: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Smoke-run settings for CI / `scripts/verify.sh`: minimal warmup, 5
    /// samples. Numbers are noisier but the full suite finishes in seconds.
    pub fn quick() -> Self {
        Harness {
            warmup: Duration::from_millis(10),
            min_sample: Duration::from_millis(2),
            samples: 5,
            ..Harness::new()
        }
    }

    /// Only run benchmarks whose name contains `filter`.
    pub fn with_filter(mut self, filter: Option<String>) -> Self {
        self.filter = filter;
        self
    }

    /// Print one progress line per benchmark as it completes.
    pub fn with_verbose(mut self, verbose: bool) -> Self {
        self.verbose = verbose;
        self
    }

    /// Number of timed samples taken per benchmark.
    pub fn samples_per_bench(&self) -> usize {
        self.samples
    }

    /// The results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Attaches an exact count (not a timing) to the report: something a
    /// benchmark's workload did that is the same on every run and every
    /// machine, like events popped per packet hop.
    pub fn note(&mut self, note: String) {
        if self.verbose {
            eprintln!("  {note}");
        }
        self.notes.push(note);
    }

    /// Warm up, calibrate and time one benchmark; returns whether it ran
    /// (the filter may exclude it). The closure's return value is passed
    /// through [`black_box`] so the work cannot be optimized away.
    pub fn bench<T>(&mut self, name: &str, mut f: impl FnMut() -> T) -> bool {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return false;
            }
        }
        // Warmup doubles as calibration: run until the warmup budget is
        // spent, counting iterations to estimate the per-iteration cost.
        let start = Instant::now();
        let mut warmup_iters: u64 = 0;
        loop {
            black_box(f());
            warmup_iters += 1;
            if start.elapsed() >= self.warmup {
                break;
            }
        }
        let per_iter_ns = (start.elapsed().as_nanos() / warmup_iters as u128).max(1);
        let iters_per_sample = ((self.min_sample.as_nanos() / per_iter_ns) as u64).max(1);

        let mut sample_ns = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let t = Instant::now();
            for _ in 0..iters_per_sample {
                black_box(f());
            }
            sample_ns.push(t.elapsed().as_nanos());
        }
        let result = BenchResult {
            name: name.to_string(),
            iters_per_sample,
            sample_ns,
        };
        if self.verbose {
            eprintln!(
                "  {:<34} {:>14.0} ns/iter (median of {}, {} iters/sample)",
                result.name,
                result.median_ns(),
                self.samples,
                iters_per_sample
            );
        }
        self.results.push(result);
        true
    }

    /// Text table of all results, then the exact counts noted along the way.
    pub fn report(&self) -> String {
        let mut out = String::from(
            "benchmark                            median(ns/iter)     min(ns/iter)     max(ns/iter)     mad(ns/iter)\n",
        );
        for r in &self.results {
            let _ = writeln!(
                out,
                "{:<34} {:>16.0} {:>16.0} {:>16.0} {:>16.1}",
                r.name,
                r.median_ns(),
                r.min_ns(),
                r.max_ns(),
                r.mad_ns()
            );
        }
        if !self.notes.is_empty() {
            out.push_str("\nexact counts (the ratios repeat on every run and machine):\n");
            for note in &self.notes {
                let _ = writeln!(out, "  {note}");
            }
        }
        out
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_samples() {
        let r = BenchResult {
            name: "x".into(),
            iters_per_sample: 10,
            sample_ns: vec![100, 300, 200],
        };
        // Per-iter samples are 10, 30, 20 -> median 20, min 10, max 30.
        assert_eq!(r.median_ns(), 20.0);
        assert_eq!(r.min_ns(), 10.0);
        assert_eq!(r.max_ns(), 30.0);
        // Absolute deviations from 20 are 10, 10, 0 -> MAD 10.
        assert_eq!(r.mad_ns(), 10.0);
    }

    #[test]
    fn median_of_even_sample_count_averages_the_middle() {
        let r = BenchResult {
            name: "x".into(),
            iters_per_sample: 1,
            sample_ns: vec![10, 20, 30, 40],
        };
        assert_eq!(r.median_ns(), 25.0);
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut h = Harness::quick();
        h.bench("count_to_1000", || {
            let mut s = 0u64;
            for i in 0..1000 {
                s = s.wrapping_add(i);
            }
            s
        });
        assert_eq!(h.results().len(), 1);
        let r = &h.results()[0];
        assert_eq!(r.sample_ns.len(), h.samples_per_bench());
        assert!(r.median_ns() > 0.0);
        assert!(h.report().contains("count_to_1000"));
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut h = Harness::quick().with_filter(Some("keep".into()));
        h.bench("keep_this", || 1u32);
        h.bench("drop_this", || 2u32);
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].name, "keep_this");
    }
}
