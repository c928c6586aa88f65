//! Hand-rolled, dependency-free benchmark harness for the BFC reproduction.
//!
//! A tiny criterion replacement that works offline: each benchmark is warmed
//! up, calibrated so one sample takes a meaningful amount of wall-clock time,
//! then timed for K samples; the reported figure is the **median** ns/iter
//! (robust against scheduling noise). Results render as a text table and as
//! `BENCH.json` (std-only JSON writer) — the perf baseline later optimization
//! PRs are judged against.
//!
//! ```
//! use bfc_bench::Harness;
//!
//! let mut h = Harness::quick();
//! h.bench("sum_1k", || (0..1_000u64).sum::<u64>());
//! assert!(h.report().contains("sum_1k"));
//! assert!(h.to_json().contains("\"name\": \"sum_1k\""));
//! ```

use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use bfc_experiments::cli::json_str;

/// Timing results of one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name (stable across PRs; used as the JSON key).
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

    /// Mean ns/iter.
    pub fn mean_ns(&self) -> f64 {
        let v = self.per_iter_ns();
        if v.is_empty() {
            return f64::NAN;
        }
        v.iter().sum::<f64>() / v.len() as f64
    }

    /// Median absolute deviation of the per-iteration samples, in ns/iter —
    /// the robust spread estimate paired with the median headline. A
    /// comparison whose delta is inside the combined MAD band is noise, not
    /// a regression.
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

    /// Total iterations executed across all timed samples.
    pub fn iterations_total(&self) -> u64 {
        self.iters_per_sample * self.sample_ns.len() as u64
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

    /// Serializes all results as JSON (std-only writer).
    pub fn to_json(&self) -> String {
        let created = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"schema\": \"bfc-bench/v1\",");
        let _ = writeln!(out, "  \"created_unix_secs\": {created},");
        let _ = writeln!(out, "  \"samples_per_bench\": {},", self.samples);
        out.push_str("  \"benchmarks\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {\n");
            let _ = writeln!(out, "      \"name\": {},", json_str(&r.name));
            let _ = writeln!(out, "      \"iters_per_sample\": {},", r.iters_per_sample);
            let _ = writeln!(out, "      \"iterations_total\": {},", r.iterations_total());
            let _ = writeln!(out, "      \"median_ns_per_iter\": {},", json_f64(r.median_ns()));
            let _ = writeln!(out, "      \"mad_ns_per_iter\": {},", json_f64(r.mad_ns()));
            let _ = writeln!(out, "      \"mean_ns_per_iter\": {},", json_f64(r.mean_ns()));
            let _ = writeln!(out, "      \"min_ns_per_iter\": {},", json_f64(r.min_ns()));
            let _ = writeln!(out, "      \"max_ns_per_iter\": {},", json_f64(r.max_ns()));
            let samples: Vec<String> = r.sample_ns.iter().map(|ns| ns.to_string()).collect();
            let _ = writeln!(out, "      \"samples_total_ns\": [{}]", samples.join(", "));
            out.push_str(if i + 1 < self.results.len() {
                "    },\n"
            } else {
                "    }\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes [`Harness::to_json`] to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

impl Default for Harness {
    fn default() -> Self {
        Harness::new()
    }
}

/// One benchmark's median read back from a committed `BENCH.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineEntry {
    /// Benchmark name.
    pub name: String,
    /// Median ns/iter recorded in the baseline.
    pub median_ns: f64,
    /// Median absolute deviation recorded in the baseline, when present
    /// (baselines written before the MAD field was added have `None`).
    pub mad_ns: Option<f64>,
}

/// Extracts `(name, median_ns_per_iter)` pairs from a `BENCH.json` document
/// produced by [`Harness::to_json`]. This is a purpose-built scanner, not a
/// general JSON parser (the workspace has zero dependencies): it walks the
/// `"name"` / `"median_ns_per_iter"` key-value lines in order, which is
/// exactly the shape this crate writes. A document that breaks that shape —
/// an unquoted name, a non-numeric median, or a name/median pairing that
/// doesn't alternate — is rejected rather than silently skipped, so a
/// truncated or hand-mangled baseline fails the comparison instead of
/// vacuously passing it.
pub fn parse_baseline(json: &str) -> Result<Vec<BaselineEntry>, String> {
    let mut entries = Vec::new();
    let mut pending_name: Option<String> = None;
    for (lineno, line) in json.lines().enumerate() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("\"name\":") {
            if pending_name.is_some() {
                return Err(format!(
                    "line {}: \"name\" without a preceding median",
                    lineno + 1
                ));
            }
            let raw = rest.trim().trim_end_matches(',').trim();
            if raw.len() < 2 || !raw.starts_with('"') || !raw.ends_with('"') {
                return Err(format!("line {}: \"name\" value is not a string", lineno + 1));
            }
            pending_name = Some(unescape_json(&raw[1..raw.len() - 1]));
        } else if let Some(rest) = line.strip_prefix("\"median_ns_per_iter\":") {
            let Some(name) = pending_name.take() else {
                return Err(format!(
                    "line {}: median without a preceding \"name\"",
                    lineno + 1
                ));
            };
            let median_ns = rest
                .trim()
                .trim_end_matches(',')
                .parse::<f64>()
                .map_err(|_| format!("line {}: median is not a number", lineno + 1))?;
            entries.push(BaselineEntry {
                name,
                median_ns,
                mad_ns: None,
            });
        } else if let Some(rest) = line.strip_prefix("\"mad_ns_per_iter\":") {
            if pending_name.is_some() {
                return Err(format!(
                    "line {}: MAD between a \"name\" and its median",
                    lineno + 1
                ));
            }
            let Some(entry) = entries.last_mut() else {
                return Err(format!(
                    "line {}: MAD without a preceding benchmark",
                    lineno + 1
                ));
            };
            if entry.mad_ns.is_some() {
                return Err(format!(
                    "line {}: duplicate MAD for \"{}\"",
                    lineno + 1,
                    entry.name
                ));
            }
            let mad = rest
                .trim()
                .trim_end_matches(',')
                .parse::<f64>()
                .map_err(|_| format!("line {}: MAD is not a number", lineno + 1))?;
            entry.mad_ns = Some(mad);
        }
    }
    if pending_name.is_some() {
        return Err("trailing \"name\" without a median".to_string());
    }
    Ok(entries)
}

/// Outcome of comparing one fresh result against the committed baseline.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Benchmark name.
    pub name: String,
    /// Baseline median ns/iter.
    pub baseline_ns: f64,
    /// Freshly measured median ns/iter.
    pub current_ns: f64,
    /// Baseline MAD ns/iter, when the baseline recorded one.
    pub baseline_mad_ns: Option<f64>,
    /// Freshly measured MAD ns/iter.
    pub current_mad_ns: f64,
}

impl Comparison {
    /// Relative change: positive means slower than the baseline.
    pub fn change_fraction(&self) -> f64 {
        if self.baseline_ns <= 0.0 {
            return 0.0;
        }
        self.current_ns / self.baseline_ns - 1.0
    }

    /// True when the median delta is within the combined noise band of the
    /// two measurements (3 x the summed MADs) — the spread of the samples
    /// explains the difference, so a flagged regression is suspect and a
    /// re-run (or a quieter machine) is in order before believing it.
    pub fn is_noisy(&self) -> bool {
        let band = 3.0 * (self.baseline_mad_ns.unwrap_or(0.0) + self.current_mad_ns);
        (self.current_ns - self.baseline_ns).abs() <= band
    }
}

/// Compares fresh results against a parsed baseline. Returns every matched
/// pair, the subset whose median regressed by more than `max_regression`
/// (e.g. `0.25` = 25% slower), and the names of benchmarks with no baseline
/// entry (newly added ones). The missing names are excluded from the
/// comparison but reported, so a new benchmark is visible until the
/// baseline is refreshed rather than silently ignored.
pub fn compare_against_baseline(
    results: &[BenchResult],
    baseline: &[BaselineEntry],
    max_regression: f64,
) -> (Vec<Comparison>, Vec<Comparison>, Vec<String>) {
    let mut matched = Vec::new();
    let mut regressions = Vec::new();
    let mut missing = Vec::new();
    for r in results {
        let Some(b) = baseline.iter().find(|b| b.name == r.name) else {
            missing.push(r.name.clone());
            continue;
        };
        let cmp = Comparison {
            name: r.name.clone(),
            baseline_ns: b.median_ns,
            current_ns: r.median_ns(),
            baseline_mad_ns: b.mad_ns,
            current_mad_ns: r.mad_ns(),
        };
        if cmp.change_fraction() > max_regression {
            regressions.push(cmp.clone());
        }
        matched.push(cmp);
    }
    (matched, regressions, missing)
}

/// Renders a comparison table (change vs baseline, regressions flagged).
pub fn comparison_report(matched: &[Comparison], max_regression: f64) -> String {
    let mut out = String::from(
        "benchmark                            baseline(ns)      current(ns)   change\n",
    );
    for c in matched {
        let flag = if c.change_fraction() > max_regression {
            if c.is_noisy() {
                "  << REGRESSION (within noise band — re-run before believing it)"
            } else {
                "  << REGRESSION"
            }
        } else {
            ""
        };
        let _ = writeln!(
            out,
            "{:<34} {:>15.0} {:>16.0} {:>+7.1}%{}",
            c.name,
            c.baseline_ns,
            c.current_ns,
            c.change_fraction() * 100.0,
            flag
        );
    }
    out
}

fn unescape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some(other) => out.push(other),
                None => break,
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Renders a float as a JSON number (JSON has no NaN/inf, so those become 0).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
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
        assert_eq!(r.mean_ns(), 20.0);
        // Absolute deviations from 20 are 10, 10, 0 -> MAD 10.
        assert_eq!(r.mad_ns(), 10.0);
        assert_eq!(r.iterations_total(), 30);
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

    #[test]
    fn json_is_well_formed_enough() {
        let mut h = Harness::quick();
        h.bench("a\"quoted\"name", || 1u32);
        let json = h.to_json();
        assert!(json.contains("\"schema\": \"bfc-bench/v1\""));
        assert!(json.contains("a\\\"quoted\\\"name"));
        assert!(json.contains("\"median_ns_per_iter\""));
        // Balanced braces / brackets (a cheap structural sanity check).
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count()
        );
        assert_eq!(
            json.matches('[').count(),
            json.matches(']').count()
        );
    }

    #[test]
    fn json_f64_handles_non_finite() {
        assert_eq!(json_f64(f64::NAN), "0");
        assert_eq!(json_f64(1.5), "1.500");
    }

    #[test]
    fn baseline_round_trips_through_json() {
        let mut h = Harness::quick();
        h.bench("alpha", || 1u32);
        h.bench("beta \"quoted\"", || 2u32);
        let baseline = parse_baseline(&h.to_json()).expect("own output parses");
        assert_eq!(baseline.len(), 2);
        assert_eq!(baseline[0].name, "alpha");
        assert_eq!(baseline[1].name, "beta \"quoted\"");
        assert!((baseline[0].median_ns - h.results()[0].median_ns()).abs() < 1.0);
        // The MAD written alongside each median round-trips too.
        let mad = baseline[0].mad_ns.expect("fresh baselines carry a MAD");
        assert!((mad - h.results()[0].mad_ns()).abs() < 1.0);
    }

    #[test]
    fn pre_mad_baselines_still_parse() {
        // A baseline written before the MAD field existed: medians load,
        // the spread is simply unknown.
        let old = "\"name\": \"a\",\n\"median_ns_per_iter\": 10.0\n";
        let baseline = parse_baseline(old).expect("old baselines stay readable");
        assert_eq!(baseline.len(), 1);
        assert_eq!(baseline[0].mad_ns, None);
        // But a MAD in the wrong place is still malformed.
        let orphan = "\"mad_ns_per_iter\": 1.0\n";
        assert!(parse_baseline(orphan).is_err());
        let split = "\"name\": \"a\",\n\"mad_ns_per_iter\": 1.0\n\"median_ns_per_iter\": 10.0\n";
        assert!(parse_baseline(split).is_err());
        let doubled = "\"name\": \"a\",\n\"median_ns_per_iter\": 10.0,\n\
                       \"mad_ns_per_iter\": 1.0,\n\"mad_ns_per_iter\": 2.0\n";
        assert!(parse_baseline(doubled).is_err());
    }

    #[test]
    fn noisy_regressions_are_marked() {
        // Samples 100/200/300 -> median 200, MAD 100: the +100% "regression"
        // vs a baseline median of 100 sits inside the noise band.
        let noisy = BenchResult {
            name: "noisy".into(),
            iters_per_sample: 1,
            sample_ns: vec![100, 200, 300],
        };
        // Samples all 200 -> MAD 0: the same +100% delta is real.
        let steady = BenchResult {
            name: "steady".into(),
            iters_per_sample: 1,
            sample_ns: vec![200, 200, 200],
        };
        let baseline = vec![
            BaselineEntry { name: "noisy".into(), median_ns: 100.0, mad_ns: Some(10.0) },
            BaselineEntry { name: "steady".into(), median_ns: 100.0, mad_ns: Some(1.0) },
        ];
        let (matched, regressions, _) =
            compare_against_baseline(&[noisy, steady], &baseline, 0.25);
        assert_eq!(regressions.len(), 2, "noise does not excuse the gate");
        assert!(matched[0].is_noisy());
        assert!(!matched[1].is_noisy());
        let report = comparison_report(&matched, 0.25);
        assert!(report.contains("within noise band"));
    }

    #[test]
    fn comparison_flags_only_large_regressions() {
        let result = |name: &str, ns: u128| BenchResult {
            name: name.into(),
            iters_per_sample: 1,
            sample_ns: vec![ns, ns, ns],
        };
        let results = vec![
            result("fast_enough", 110),   // +10% vs 100: fine
            result("regressed", 200),     // +100% vs 100: flagged
            result("improved", 50),       // -50%: fine
            result("brand_new", 1_000),   // no baseline: skipped
        ];
        let baseline = vec![
            BaselineEntry { name: "fast_enough".into(), median_ns: 100.0, mad_ns: None },
            BaselineEntry { name: "regressed".into(), median_ns: 100.0, mad_ns: None },
            BaselineEntry { name: "improved".into(), median_ns: 100.0, mad_ns: None },
        ];
        let (matched, regressions, missing) = compare_against_baseline(&results, &baseline, 0.25);
        assert_eq!(matched.len(), 3, "new benchmarks are not compared");
        assert_eq!(regressions.len(), 1);
        assert_eq!(regressions[0].name, "regressed");
        assert_eq!(missing, vec!["brand_new".to_string()]);
        let report = comparison_report(&matched, 0.25);
        assert!(report.contains("<< REGRESSION"));
        assert!(report.contains("regressed"));
        assert!(!report.contains("brand_new"));
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        // A median with no preceding name (e.g. a truncated copy-paste).
        let orphan_median = "{\n\"median_ns_per_iter\": 12.0\n}\n";
        assert!(parse_baseline(orphan_median).is_err());
        // Two names in a row: the first lost its median line.
        let double_name = "\"name\": \"a\",\n\"name\": \"b\",\n\"median_ns_per_iter\": 1.0\n";
        assert!(parse_baseline(double_name).is_err());
        // A median that is not a number.
        let bad_median = "\"name\": \"a\",\n\"median_ns_per_iter\": fast\n";
        assert!(parse_baseline(bad_median).is_err());
        // A name cut off by truncation.
        let dangling = "\"name\": \"a\",\n";
        assert!(parse_baseline(dangling).is_err());
        // An unquoted name value.
        let unquoted = "\"name\": 17,\n\"median_ns_per_iter\": 1.0\n";
        assert!(parse_baseline(unquoted).is_err());
        // The error names the offending line.
        let err = parse_baseline(orphan_median).unwrap_err();
        assert!(err.contains("line 2"), "unhelpful error: {err}");
    }
}
