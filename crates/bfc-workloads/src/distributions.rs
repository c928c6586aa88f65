//! Flow-size distributions.
//!
//! The paper synthesizes traces matching three industry workloads (Fig. 4):
//!
//! * **Google** — the aggregate of all applications in a Google data center
//!   (via the Homa measurement study): dominated by tiny RPC-style messages,
//!   more than 80% of flows are under 1 KB, yet the byte-weighted CDF is
//!   carried by flows around and below one bandwidth-delay product.
//! * **FB_Hadoop** — a Facebook Hadoop cluster: small-to-moderate flows with
//!   most bytes in the 10 KB–1 MB range.
//! * **WebSearch** — the DCTCP web-search workload: the heaviest of the
//!   three, with flows up to tens of megabytes.
//!
//! The exact traces are proprietary; the CDFs below are transcriptions of the
//! published curves (the same approach the paper itself takes), expressed as
//! piecewise log-linear empirical CDFs. What matters for reproducing the
//! evaluation is the qualitative shape: the ordering of mean sizes, the heavy
//! single-packet mass in Google, and the heavy tail in WebSearch.

use bfc_sim::SimRng;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// Aggregate of all applications in a Google data center.
    Google,
    /// Facebook Hadoop cluster.
    FbHadoop,
    /// DCTCP web-search.
    WebSearch,
}

impl Workload {
    /// All three workloads, in the order the paper lists them.
    pub fn all() -> [Workload; 3] {
        [Workload::Google, Workload::FbHadoop, Workload::WebSearch]
    }

    /// Human-readable name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Google => "Google",
            Workload::FbHadoop => "FB_Hadoop",
            Workload::WebSearch => "WebSearch",
        }
    }

    /// The flow-size CDF of this workload.
    pub fn cdf(&self) -> EmpiricalCdf {
        match self {
            Workload::Google => EmpiricalCdf::new(vec![
                (100.0, 0.30),
                (300.0, 0.60),
                (700.0, 0.75),
                (1_000.0, 0.82),
                (2_000.0, 0.87),
                (5_000.0, 0.91),
                (10_000.0, 0.935),
                (30_000.0, 0.96),
                (100_000.0, 0.98),
                (300_000.0, 0.99),
                (1_000_000.0, 0.997),
                (10_000_000.0, 1.0),
            ]),
            Workload::FbHadoop => EmpiricalCdf::new(vec![
                (150.0, 0.15),
                (300.0, 0.30),
                (1_000.0, 0.52),
                (3_000.0, 0.66),
                (10_000.0, 0.78),
                (30_000.0, 0.87),
                (100_000.0, 0.93),
                (300_000.0, 0.96),
                (1_000_000.0, 0.98),
                (3_000_000.0, 0.993),
                (10_000_000.0, 1.0),
            ]),
            Workload::WebSearch => EmpiricalCdf::new(vec![
                (6_000.0, 0.15),
                (13_000.0, 0.30),
                (19_000.0, 0.40),
                (33_000.0, 0.53),
                (53_000.0, 0.60),
                (133_000.0, 0.70),
                (667_000.0, 0.80),
                (1_333_000.0, 0.85),
                (3_333_000.0, 0.90),
                (6_667_000.0, 0.95),
                (20_000_000.0, 0.98),
                (30_000_000.0, 1.0),
            ]),
        }
    }
}

/// A piecewise log-linear empirical CDF over flow sizes in bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    /// `(size_bytes, cumulative_probability)` points, strictly increasing in
    /// both coordinates, ending at probability 1.
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Builds a CDF from `(size, probability)` points. Points must be sorted,
    /// strictly increasing in size, with the final probability equal to 1.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(points.len() >= 2, "a CDF needs at least two points");
        for w in points.windows(2) {
            assert!(w[0].0 < w[1].0, "sizes must be strictly increasing");
            assert!(w[0].1 <= w[1].1, "probabilities must be non-decreasing");
        }
        assert!(
            (points.last().expect("non-empty").1 - 1.0).abs() < 1e-9,
            "the last point must have probability 1"
        );
        EmpiricalCdf { points }
    }

    /// The CDF points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Inverse-transform sampling of a flow size in bytes (at least 1).
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.next_f64();
        self.quantile(u)
    }

    /// The flow size at cumulative probability `u` (log-linear interpolation
    /// between points).
    pub fn quantile(&self, u: f64) -> u64 {
        let u = u.clamp(0.0, 1.0);
        let first = self.points[0];
        if u <= first.1 {
            // Interpolate from one byte up to the first point.
            let frac = if first.1 > 0.0 { u / first.1 } else { 1.0 };
            let size = (first.0.ln() * frac).exp();
            return size.max(1.0).round() as u64;
        }
        for w in self.points.windows(2) {
            let (s0, p0) = w[0];
            let (s1, p1) = w[1];
            if u <= p1 {
                let frac = if p1 > p0 { (u - p0) / (p1 - p0) } else { 1.0 };
                let log_size = s0.ln() + frac * (s1.ln() - s0.ln());
                return log_size.exp().max(1.0).round() as u64;
            }
        }
        self.points.last().expect("non-empty").0.round() as u64
    }

    /// Mean flow size in bytes (numerical integration of the quantile
    /// function; accurate enough for load calculations).
    pub fn mean_bytes(&self) -> f64 {
        let steps = 10_000;
        let mut sum = 0.0;
        for i in 0..steps {
            let u = (i as f64 + 0.5) / steps as f64;
            sum += self.quantile(u) as f64;
        }
        sum / steps as f64
    }

    /// Byte-weighted CDF evaluated at the distribution's own points, i.e. the
    /// fraction of all bytes carried by flows no larger than each size. This
    /// is the quantity plotted in Fig. 4.
    pub fn byte_weighted_cdf(&self) -> Vec<(f64, f64)> {
        let steps = 20_000;
        let mut total = 0.0;
        let mut samples = Vec::with_capacity(steps);
        for i in 0..steps {
            let u = (i as f64 + 0.5) / steps as f64;
            let s = self.quantile(u) as f64;
            total += s;
            samples.push(s);
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("sizes are finite"));
        self.points
            .iter()
            .map(|&(size, _)| {
                let carried: f64 = samples.iter().take_while(|&&s| s <= size).sum();
                (size, carried / total)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        for w in Workload::all() {
            let cdf = w.cdf();
            let mut prev = 0;
            for i in 0..=100 {
                let q = cdf.quantile(i as f64 / 100.0);
                assert!(q >= prev, "{}: quantile must be monotone", w.name());
                prev = q;
            }
            assert!(prev as f64 <= cdf.points().last().unwrap().0 + 1.0);
        }
    }

    #[test]
    fn google_is_dominated_by_sub_kilobyte_flows() {
        // The paper: "in the Google workload more than 80% flows are < 1KB".
        let cdf = Workload::Google.cdf();
        assert!(cdf.quantile(0.80) <= 1_000);
        assert!(cdf.quantile(0.95) > 1_000);
    }

    #[test]
    fn mean_sizes_are_ordered_google_hadoop_websearch() {
        let google = Workload::Google.cdf().mean_bytes();
        let hadoop = Workload::FbHadoop.cdf().mean_bytes();
        let websearch = Workload::WebSearch.cdf().mean_bytes();
        assert!(google < hadoop, "google {google} vs hadoop {hadoop}");
        assert!(
            hadoop < websearch,
            "hadoop {hadoop} vs websearch {websearch}"
        );
        // Web search averages in the megabyte range.
        assert!(websearch > 1_000_000.0);
    }

    #[test]
    fn sampling_matches_the_cdf() {
        let cdf = Workload::FbHadoop.cdf();
        let mut rng = SimRng::new(7);
        let n = 100_000;
        let below_1k = (0..n).filter(|_| cdf.sample(&mut rng) <= 1_000).count() as f64 / n as f64;
        assert!((below_1k - 0.52).abs() < 0.02, "got {below_1k}");
    }

    #[test]
    fn byte_weighted_cdf_is_monotone_and_ends_at_one() {
        for w in Workload::all() {
            let bw = w.cdf().byte_weighted_cdf();
            for pair in bw.windows(2) {
                assert!(pair[0].1 <= pair[1].1 + 1e-12);
            }
            let last = bw.last().unwrap().1;
            assert!((last - 1.0).abs() < 1e-6, "{}: {last}", w.name());
        }
    }

    #[test]
    fn byte_weighted_mass_sits_well_above_flow_count_mass() {
        // Most flows are tiny but most bytes are in larger flows: at 1 KB the
        // Google workload has >80% of flows but only a small share of bytes.
        let cdf = Workload::Google.cdf();
        let bw = cdf.byte_weighted_cdf();
        let at_1k = bw
            .iter()
            .find(|(s, _)| (*s - 1_000.0).abs() < 1.0)
            .map(|(_, p)| *p)
            .expect("1 KB point exists");
        assert!(
            at_1k < 0.2,
            "bytes below 1 KB should be a small share, got {at_1k}"
        );
    }

    #[test]
    #[should_panic(expected = "probability 1")]
    fn cdf_must_end_at_one() {
        let _ = EmpiricalCdf::new(vec![(10.0, 0.5), (20.0, 0.9)]);
    }
}
