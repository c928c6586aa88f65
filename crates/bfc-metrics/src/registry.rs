//! The unified counter/gauge/histogram registry.
//!
//! Every layer of a run — switches, ports, schemes, and the engine itself
//! (epoch batches, calendar-queue overflow, flow-table probe lengths) —
//! reports into one [`MetricsRegistry`] keyed by Prometheus-style series
//! names (`bfc_switch_drops{node="3"}`). The registry is plain data over
//! `BTreeMap`s, so the text exposition is deterministic. Distributions (FCT
//! slowdown, pause durations, queue depth at enqueue) are native [`Hist`]
//! series, merged exactly bucket-by-bucket and exposed as Prometheus
//! `_bucket`/`_sum`/`_count` lines.
//!
//! The registry is *derived* state: it is rebuilt at the end of a run from
//! the simulation's components (which own the real counters and serialize
//! them in snapshots) and is never snapshotted itself. It is also a run's
//! one source of its rollups — utilization, PFC-paused fraction, per-scheme
//! policy counters — so it takes part in bit-identity comparisons: every
//! series except the `bfc_engine_*` ones (which describe the engine that
//! ran: batches, barriers, calendar-queue overflow) is equal at any shard
//! count, with tracing on or off, and after a snapshot resume.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::hist::Hist;

/// A deterministic registry of named counters, gauges and histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, Hist>,
}

/// Formats a full series key from a metric family name and `(label, value)`
/// pairs: `labeled("bfc_drops", &[("node", "3")])` →
/// `bfc_drops{node="3"}`. Labels are emitted in the order given.
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut key = String::with_capacity(family.len() + 16 * labels.len());
    key.push_str(family);
    key.push('{');
    for (i, (name, value)) in labels.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        let _ = write!(key, "{name}=\"{value}\"");
    }
    key.push('}');
    key
}

/// The metric family of a series key (the part before the label braces).
fn family(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` to the counter at `key` (creating it at zero first).
    pub fn add_counter(&mut self, key: impl Into<String>, value: u64) {
        *self.counters.entry(key.into()).or_insert(0) += value;
    }

    /// Sets the gauge at `key`.
    pub fn set_gauge(&mut self, key: impl Into<String>, value: f64) {
        self.gauges.insert(key.into(), value);
    }

    /// The counter at `key`, or `None` if it was never reported.
    pub fn counter(&self, key: &str) -> Option<u64> {
        self.counters.get(key).copied()
    }

    /// The gauge at `key`, or `None` if it was never reported.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Folds a pre-built histogram into the series at `key` (exact
    /// bucket-by-bucket merge).
    pub fn merge_hist(&mut self, key: impl Into<String>, hist: &Hist) {
        self.hists.entry(key.into()).or_default().merge(hist);
    }

    /// The histogram at `key`, or `None` if it was never reported.
    pub fn hist(&self, key: &str) -> Option<&Hist> {
        self.hists.get(key)
    }

    /// Sums every counter of `family` across its label sets, or `None` if
    /// no counter of the family was reported.
    pub fn family_sum(&self, family_name: &str) -> Option<u64> {
        self.counters
            .iter()
            .filter(|(k, _)| family(k) == family_name)
            .fold(None, |sum, (_, &v)| Some(sum.unwrap_or(0) + v))
    }

    /// [`Self::family_sum`], reading an unreported family as 0.
    pub fn family_total(&self, family_name: &str) -> u64 {
        self.family_sum(family_name).unwrap_or(0)
    }

    /// Number of series (counters plus gauges plus histograms).
    pub fn len(&self) -> usize {
        self.counters.len() + self.gauges.len() + self.hists.len()
    }

    /// True if nothing has been reported.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// Renders the registry in the Prometheus text exposition format:
    /// one `# TYPE` comment per metric family followed by its series,
    /// families and series in sorted order, terminated by a newline.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (key, value) in &self.counters {
            let fam = family(key);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} counter");
                last_family = fam;
            }
            let _ = writeln!(out, "{key} {value}");
        }
        last_family = "";
        for (key, value) in &self.gauges {
            let fam = family(key);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} gauge");
                last_family = fam;
            }
            let _ = writeln!(out, "{key} {value}");
        }
        last_family = "";
        for (key, hist) in &self.hists {
            let fam = family(key);
            if fam != last_family {
                let _ = writeln!(out, "# TYPE {fam} histogram");
                last_family = fam;
            }
            let mut cumulative = 0u64;
            for (upper, count) in hist.buckets() {
                cumulative += count;
                let series = with_suffix_and_le(key, "_bucket", Some(&upper.to_string()));
                let _ = writeln!(out, "{series} {cumulative}");
            }
            let inf = with_suffix_and_le(key, "_bucket", Some("+Inf"));
            let _ = writeln!(out, "{inf} {}", hist.count());
            let sum = with_suffix_and_le(key, "_sum", None);
            let _ = writeln!(out, "{sum} {}", hist.sum());
            let count = with_suffix_and_le(key, "_count", None);
            let _ = writeln!(out, "{count} {}", hist.count());
        }
        out
    }
}

/// Rewrites a series key for a histogram sub-series: appends `suffix` to
/// the family name and (for `_bucket` lines) an `le` label after any
/// existing labels: `with_suffix_and_le("q{node=\"3\"}", "_bucket",
/// Some("16"))` → `q_bucket{node="3",le="16"}`.
fn with_suffix_and_le(key: &str, suffix: &str, le: Option<&str>) -> String {
    let (fam, labels) = match key.find('{') {
        Some(brace) => (&key[..brace], Some(&key[brace + 1..key.len() - 1])),
        None => (key, None),
    };
    let mut out = String::with_capacity(key.len() + suffix.len() + 16);
    out.push_str(fam);
    out.push_str(suffix);
    match (labels, le) {
        (None, None) => {}
        (Some(l), None) => {
            let _ = write!(out, "{{{l}}}");
        }
        (None, Some(le)) => {
            let _ = write!(out, "{{le=\"{le}\"}}");
        }
        (Some(l), Some(le)) => {
            let _ = write!(out, "{{{l},le=\"{le}\"}}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labeled_formats_series_keys() {
        assert_eq!(labeled("bfc_up", &[]), "bfc_up");
        assert_eq!(
            labeled("bfc_drops", &[("node", "3"), ("port", "1")]),
            "bfc_drops{node=\"3\",port=\"1\"}"
        );
    }

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter("a", 2);
        reg.add_counter("a", 3);
        reg.add_counter(labeled("b", &[("node", "0")]), 7);
        assert_eq!(reg.counter("a"), Some(5));
        assert_eq!(reg.counter("b{node=\"0\"}"), Some(7));
        assert_eq!(reg.counter("missing"), None);
        assert_eq!(reg.family_total("b"), 7);
        assert_eq!(reg.family_sum("b"), Some(7));
        assert_eq!(reg.family_sum("missing"), None);
        assert_eq!(reg.family_total("missing"), 0);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn exposition_is_sorted_grouped_and_newline_terminated() {
        let mut reg = MetricsRegistry::new();
        reg.add_counter(labeled("bfc_drops", &[("node", "1")]), 4);
        reg.add_counter(labeled("bfc_drops", &[("node", "0")]), 2);
        reg.add_counter("bfc_batches", 9);
        reg.set_gauge("bfc_peak_flows", 12.0);
        let text = reg.expose();
        assert_eq!(
            text,
            "# TYPE bfc_batches counter\n\
             bfc_batches 9\n\
             # TYPE bfc_drops counter\n\
             bfc_drops{node=\"0\"} 2\n\
             bfc_drops{node=\"1\"} 4\n\
             # TYPE bfc_peak_flows gauge\n\
             bfc_peak_flows 12\n"
        );
        // Deterministic: rendering twice is identical.
        assert_eq!(reg.expose(), text);
    }

    #[test]
    fn histograms_merge_exactly_and_expose_bucket_sum_count() {
        let mut a = Hist::new();
        a.observe(3);
        a.observe(100);
        let mut b = Hist::new();
        b.observe(3);
        let key = labeled("bfc_q", &[("node", "0")]);

        let mut ab = MetricsRegistry::new();
        ab.merge_hist(key.as_str(), &a);
        ab.merge_hist(key.as_str(), &b);
        let mut ba = MetricsRegistry::new();
        ba.merge_hist(key.as_str(), &b);
        ba.merge_hist(key.as_str(), &a);
        assert_eq!(ab, ba);
        let h = ab.hist("bfc_q{node=\"0\"}").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 106);

        let text = ab.expose();
        assert_eq!(
            text,
            "# TYPE bfc_q histogram\n\
             bfc_q_bucket{node=\"0\",le=\"3\"} 2\n\
             bfc_q_bucket{node=\"0\",le=\"103\"} 3\n\
             bfc_q_bucket{node=\"0\",le=\"+Inf\"} 3\n\
             bfc_q_sum{node=\"0\"} 106\n\
             bfc_q_count{node=\"0\"} 3\n"
        );
    }

    #[test]
    fn histograms_without_labels_expose_clean_series() {
        let mut widths = Hist::new();
        widths.observe(4);
        let mut reg = MetricsRegistry::new();
        reg.merge_hist("bfc_widths", &widths);
        let text = reg.expose();
        assert!(text.contains("bfc_widths_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("bfc_widths_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("bfc_widths_sum 4\n"));
        assert!(text.contains("bfc_widths_count 1\n"));
    }
}
