//! Trace import/export: a std-only CSV format for persisting and replaying
//! workload traces.
//!
//! ## Format
//!
//! The first content line must be the exact header
//! `src,dst,size_bytes,start_ns,is_incast`; every following content line is
//! one flow. Blank lines and lines starting with `#` are ignored anywhere.
//!
//! | column | meaning | syntax |
//! |---|---|---|
//! | `src` | sending host `NodeId` | unsigned integer ≤ `u32::MAX` |
//! | `dst` | receiving host `NodeId`, ≠ `src` | unsigned integer ≤ `u32::MAX` |
//! | `size_bytes` | application bytes, ≥ 1 | unsigned integer |
//! | `start_ns` | arrival time in nanoseconds | integer, optionally `.` + up to 3 fractional digits |
//! | `is_incast` | incast-event membership | `0`/`1` (also `false`/`true`) |
//!
//! `start_ns` carries up to three fractional digits because the simulator's
//! clock has **picosecond** resolution: `123.456` means 123 456 ps. Export
//! writes the fraction only when it is non-zero, so round-tripping any
//! valid trace through [`export_csv`] → [`import_csv`] reproduces the exact
//! flow list, bit for bit.
//!
//! **Sortedness contract:** rows must be non-decreasing in `start_ns` (the
//! order the experiment driver expects). The parser enforces it and reports
//! the first offending line. [`export_csv`] writes flows in the order given
//! without validating; a trace assembled by hand (e.g. concatenating
//! generator outputs) must be sorted by start — `flows.sort_by_key(|f|
//! f.start)` — before export, or the re-import will reject it. Everything
//! [`crate::trace`] synthesizes already satisfies the contract.
//!
//! Every parse error is a [`CsvError`] carrying the 1-based line number of
//! the offending input line; the parser never panics on malformed text.
//!
//! A file is read by [`read_csv_file`], which drains a
//! [`crate::ingest::CsvTail`]: one reused line buffer, capped at
//! [`crate::ingest::MAX_LINE_BYTES`], so a multi-gigabyte trace file is
//! never resident in memory as a whole and a line with no end is an error,
//! not an allocation. [`import_csv`] over an in-memory string drives the
//! same [`CsvParser`], so both give the same flows or the same error.

use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

use bfc_net::types::NodeId;
use bfc_sim::SimTime;

use crate::ingest::{CsvTail, IngestError, IngestSource};
use crate::trace::TraceFlow;

/// The mandatory header line of the trace CSV format.
pub const TRACE_CSV_HEADER: &str = "src,dst,size_bytes,start_ns,is_incast";

/// A line-numbered trace-CSV parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvError {
    /// 1-based line number in the input text (0 for whole-file errors such as
    /// a missing header in an empty input).
    pub line: usize,
    /// What went wrong on that line.
    pub kind: CsvErrorKind,
}

/// The ways a trace-CSV line can be malformed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvErrorKind {
    /// The input contained no content lines at all.
    MissingHeader,
    /// The first content line was not [`TRACE_CSV_HEADER`].
    BadHeader {
        /// The line that was found instead, [quoted](QUOTE_MAX_BYTES).
        found: String,
    },
    /// A row had the wrong number of comma-separated fields (truncated or
    /// overlong).
    WrongFieldCount {
        /// How many fields the row actually had.
        found: usize,
    },
    /// A field failed to parse.
    BadField {
        /// Column name from the header.
        column: &'static str,
        /// The offending text, [quoted](QUOTE_MAX_BYTES).
        value: String,
        /// Human-readable expectation.
        reason: &'static str,
    },
    /// A node id did not fit the simulator's 32-bit `NodeId` space.
    NodeOutOfRange {
        /// Column name (`src` or `dst`).
        column: &'static str,
        /// The parsed (too large) value.
        value: u64,
    },
    /// `src` and `dst` named the same host.
    SelfFlow,
    /// The row's `start_ns` was earlier than the previous row's, violating
    /// the sortedness contract.
    UnsortedStart,
    /// A line of a trace file ran past the line cap with no terminator (see
    /// [`crate::ingest::MAX_LINE_BYTES`]); nothing past the cap was buffered.
    LineTooLong {
        /// The cap, in bytes.
        limit: usize,
    },
}

/// The most bytes of offending text a [`CsvErrorKind`] keeps: a longer text
/// is cut on a char boundary at or below it and marked with a trailing `…`,
/// so an error about a 60 000-digit field stays one short line.
pub const QUOTE_MAX_BYTES: usize = 64;

/// `text` as a [`CsvErrorKind`] quotes it (see [`QUOTE_MAX_BYTES`]).
fn quote(text: &str) -> String {
    if text.len() <= QUOTE_MAX_BYTES {
        return text.to_string();
    }
    let mut end = QUOTE_MAX_BYTES;
    while !text.is_char_boundary(end) {
        end -= 1;
    }
    format!("{}…", &text[..end])
}

/// A [`CsvErrorKind::BadField`] error on `line`.
fn bad_field(line: usize, column: &'static str, text: &str, reason: &'static str) -> CsvError {
    CsvError {
        line,
        kind: CsvErrorKind::BadField {
            column,
            value: quote(text),
            reason,
        },
    }
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            CsvErrorKind::MissingHeader => {
                write!(f, "empty input: expected header `{TRACE_CSV_HEADER}`")
            }
            CsvErrorKind::BadHeader { found } => {
                write!(f, "bad header `{found}`: expected `{TRACE_CSV_HEADER}`")
            }
            CsvErrorKind::WrongFieldCount { found } => {
                write!(f, "expected 5 comma-separated fields, found {found}")
            }
            CsvErrorKind::BadField {
                column,
                value,
                reason,
            } => write!(f, "bad `{column}` field `{value}`: {reason}"),
            CsvErrorKind::NodeOutOfRange { column, value } => {
                write!(f, "`{column}` id {value} does not fit a 32-bit NodeId")
            }
            CsvErrorKind::SelfFlow => write!(f, "src and dst are the same host"),
            CsvErrorKind::UnsortedStart => write!(
                f,
                "start_ns is earlier than the previous row (rows must be sorted)"
            ),
            CsvErrorKind::LineTooLong { limit } => {
                write!(f, "line is longer than {limit} bytes")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Writes a `SimTime` as fractional nanoseconds, emitting the picosecond
/// fraction only when non-zero so common traces stay compact.
fn write_start(out: &mut String, t: SimTime) {
    use std::fmt::Write as _;
    let ps = t.as_picos();
    let (ns, frac) = (ps / 1_000, ps % 1_000);
    let _ = if frac == 0 {
        write!(out, "{ns}")
    } else {
        write!(out, "{ns}.{frac:03}")
    };
}

/// Parses fractional nanoseconds into picoseconds. `None` on any syntax
/// error or overflow.
fn parse_start_ps(text: &str) -> Option<u64> {
    let (ns_text, frac_text) = match text.split_once('.') {
        Some((a, b)) => (a, Some(b)),
        None => (text, None),
    };
    if ns_text.is_empty() || !ns_text.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let ns: u64 = ns_text.parse().ok()?;
    let frac_ps = match frac_text {
        None => 0,
        Some(f) if (1..=3).contains(&f.len()) && f.bytes().all(|b| b.is_ascii_digit()) => {
            // Right-pad to 3 digits: ".4" is 400 ps.
            f.parse::<u64>().ok()? * 10u64.pow(3 - f.len() as u32)
        }
        Some(_) => return None,
    };
    ns.checked_mul(1_000)?.checked_add(frac_ps)
}

/// Serializes a trace in the CSV format of this module, preserving flow
/// order. For any trace that satisfies the format's validity rules (sorted
/// by start, no self-flows, sizes ≥ 1 — everything the generators in
/// [`crate::trace`] produce), this is the exact inverse of [`import_csv`]:
/// re-importing the returned text reproduces `flows` bit for bit.
pub fn export_csv(flows: &[TraceFlow]) -> String {
    use std::fmt::Write as _;
    // ~26 bytes per typical row; headroom avoids repeated regrowth.
    let mut out = String::with_capacity(TRACE_CSV_HEADER.len() + 1 + flows.len() * 32);
    out.push_str(TRACE_CSV_HEADER);
    out.push('\n');
    for f in flows {
        let _ = write!(out, "{},{},{},", f.src.0, f.dst.0, f.size_bytes);
        write_start(&mut out, f.start);
        let _ = writeln!(out, ",{}", u8::from(f.is_incast));
    }
    out
}

fn node_field(line: usize, column: &'static str, text: &str) -> Result<NodeId, CsvError> {
    let value: u64 = text
        .parse()
        .map_err(|_| bad_field(line, column, text, "expected an unsigned integer node id"))?;
    if value > u64::from(u32::MAX) {
        return Err(CsvError {
            line,
            kind: CsvErrorKind::NodeOutOfRange { column, value },
        });
    }
    Ok(NodeId(value as u32))
}

/// Incremental trace-CSV parser: feed it one line at a time (in order) and
/// it answers each row with its flow. This is the core both [`import_csv`]
/// (over an in-memory string) and [`crate::ingest::CsvTail`] (over a file,
/// one line resident at a time) drive.
#[derive(Debug, Default)]
pub struct CsvParser {
    saw_header: bool,
    prev_start: SimTime,
    line: usize,
}

impl CsvParser {
    /// Creates a parser expecting the header line first.
    pub fn new() -> Self {
        CsvParser::default()
    }

    /// Consumes the next input line (excluding the terminator): the flow of
    /// a row, `None` for the header, a blank line or a comment. Lines must be
    /// fed in file order; the parser tracks 1-based line numbers for errors.
    pub fn push_line(&mut self, raw: &str) -> Result<Option<TraceFlow>, CsvError> {
        self.line += 1;
        let line = self.line;
        let content = raw.trim();
        if content.is_empty() || content.starts_with('#') {
            return Ok(None);
        }
        if !self.saw_header {
            if content != TRACE_CSV_HEADER {
                return Err(CsvError {
                    line,
                    kind: CsvErrorKind::BadHeader {
                        found: quote(content),
                    },
                });
            }
            self.saw_header = true;
            return Ok(None);
        }

        let mut fields = [""; 5];
        let mut found = 0;
        for part in content.split(',') {
            if found < 5 {
                fields[found] = part.trim();
            }
            found += 1;
        }
        if found != 5 {
            return Err(CsvError {
                line,
                kind: CsvErrorKind::WrongFieldCount { found },
            });
        }
        let src = node_field(line, "src", fields[0])?;
        let dst = node_field(line, "dst", fields[1])?;
        if src == dst {
            return Err(CsvError {
                line,
                kind: CsvErrorKind::SelfFlow,
            });
        }
        let size_bytes: u64 = fields[2].parse().map_err(|_| {
            bad_field(
                line,
                "size_bytes",
                fields[2],
                "expected an unsigned integer byte count",
            )
        })?;
        if size_bytes == 0 {
            return Err(bad_field(
                line,
                "size_bytes",
                fields[2],
                "flow size must be at least 1 byte",
            ));
        }
        let start_ps = parse_start_ps(fields[3]).ok_or_else(|| {
            bad_field(
                line,
                "start_ns",
                fields[3],
                "expected nanoseconds with up to 3 fractional digits",
            )
        })?;
        let start = SimTime::from_picos(start_ps);
        if start < self.prev_start {
            return Err(CsvError {
                line,
                kind: CsvErrorKind::UnsortedStart,
            });
        }
        self.prev_start = start;
        let is_incast = match fields[4] {
            "0" | "false" => false,
            "1" | "true" => true,
            other => {
                return Err(bad_field(
                    line,
                    "is_incast",
                    other,
                    "expected 0/1 or false/true",
                ))
            }
        };
        Ok(Some(TraceFlow {
            src,
            dst,
            size_bytes,
            start,
            is_incast,
        }))
    }

    /// Lines consumed so far: the next line is number `lines() + 1`.
    pub fn lines(&self) -> usize {
        self.line
    }

    /// Checks the input as a whole once it has ended: it fails if no header
    /// (and hence no content) was ever seen.
    pub fn finish(&self) -> Result<(), CsvError> {
        if !self.saw_header {
            return Err(CsvError {
                line: 0,
                kind: CsvErrorKind::MissingHeader,
            });
        }
        Ok(())
    }
}

/// Parses a trace from the CSV format of this module, enforcing the header,
/// field syntax, node-id range, no self-flows and the sortedness contract.
/// Errors carry the 1-based line number; malformed input never panics.
pub fn import_csv(text: &str) -> Result<Vec<TraceFlow>, CsvError> {
    let mut parser = CsvParser::new();
    let mut flows = Vec::new();
    for raw in text.lines() {
        flows.extend(parser.push_line(raw)?);
    }
    parser.finish()?;
    Ok(flows)
}

/// Writes `flows` to `path` in the CSV format of this module.
pub fn write_csv_file<P: AsRef<Path>>(path: P, flows: &[TraceFlow]) -> std::io::Result<()> {
    std::fs::write(path, export_csv(flows))
}

/// Reads and parses a trace CSV file by draining a non-follow
/// [`CsvTail`]: the file is never resident in memory as a whole, and a line
/// past [`crate::ingest::MAX_LINE_BYTES`] is an error.
pub fn read_csv_file<P: AsRef<Path>>(path: P) -> Result<Vec<TraceFlow>, IngestError> {
    let mut tail = CsvTail::open(path, false)?;
    let mut flows = Vec::new();
    while let Some(flow) = tail.next_flow()? {
        flows.push(flow);
    }
    Ok(flows)
}

/// Summary statistics of a trace, as printed by `trace-tool stats`.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Total flows.
    pub flows: usize,
    /// Flows flagged as incast members.
    pub incast_flows: usize,
    /// Distinct hosts appearing as a source or destination.
    pub hosts: usize,
    /// Sum of flow sizes.
    pub total_bytes: u64,
    /// Mean flow size.
    pub mean_bytes: f64,
    /// Median flow size.
    pub p50_bytes: u64,
    /// 90th-percentile flow size.
    pub p90_bytes: u64,
    /// 99th-percentile flow size.
    pub p99_bytes: u64,
    /// Largest flow size.
    pub max_bytes: u64,
    /// First arrival instant.
    pub first_start: SimTime,
    /// Last arrival instant — the measurement window the trace covers.
    pub last_start: SimTime,
    /// Host access-link rate assumed for the load arithmetic (Gbps).
    pub host_gbps: f64,
    /// Offered load over `[0, last_start]` as a fraction of the aggregate
    /// host bandwidth (`hosts * host_gbps`); 0 when the window is empty.
    pub offered_load: f64,
}

impl TraceStats {
    /// Computes the summary of a flow list, assuming every host's access
    /// link runs at `host_gbps`. `None` for an empty trace.
    pub fn from_flows(flows: &[TraceFlow], host_gbps: f64) -> Option<TraceStats> {
        if flows.is_empty() {
            return None;
        }
        let mut sizes: Vec<u64> = flows.iter().map(|f| f.size_bytes).collect();
        sizes.sort_unstable();
        let pct = |p: f64| {
            let idx = (p / 100.0 * (sizes.len() - 1) as f64).round() as usize;
            sizes[idx.min(sizes.len() - 1)]
        };
        let hosts: BTreeSet<NodeId> = flows.iter().flat_map(|f| [f.src, f.dst]).collect();
        let total_bytes: u64 = sizes.iter().sum();
        let first_start = flows.iter().map(|f| f.start).min().expect("non-empty");
        let last_start = flows.iter().map(|f| f.start).max().expect("non-empty");
        let window_secs = last_start.as_secs_f64();
        let aggregate_bps = hosts.len() as f64 * host_gbps * 1e9;
        let offered_load = if window_secs > 0.0 && aggregate_bps > 0.0 {
            total_bytes as f64 * 8.0 / window_secs / aggregate_bps
        } else {
            0.0
        };
        Some(TraceStats {
            flows: flows.len(),
            incast_flows: flows.iter().filter(|f| f.is_incast).count(),
            hosts: hosts.len(),
            total_bytes,
            mean_bytes: total_bytes as f64 / flows.len() as f64,
            p50_bytes: pct(50.0),
            p90_bytes: pct(90.0),
            p99_bytes: pct(99.0),
            max_bytes: *sizes.last().expect("non-empty"),
            first_start,
            last_start,
            host_gbps,
            offered_load,
        })
    }
}

impl fmt::Display for TraceStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "flows          {} ({} incast) across {} hosts",
            self.flows, self.incast_flows, self.hosts
        )?;
        writeln!(
            f,
            "window         {} .. {}",
            self.first_start, self.last_start
        )?;
        writeln!(
            f,
            "bytes          {} total, mean {:.0}",
            self.total_bytes, self.mean_bytes
        )?;
        writeln!(
            f,
            "size pct (B)   p50 {}  p90 {}  p99 {}  max {}",
            self.p50_bytes, self.p90_bytes, self.p99_bytes, self.max_bytes
        )?;
        write!(
            f,
            "offered load   {:.1}% of {} hosts x {:.0} Gbps",
            self.offered_load * 100.0,
            self.hosts,
            self.host_gbps
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{synthesize, TraceParams};
    use crate::Workload;
    use bfc_sim::SimDuration;

    fn hosts(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn round_trip_is_exact_at_picosecond_resolution() {
        let flows = vec![
            TraceFlow {
                src: NodeId(0),
                dst: NodeId(7),
                size_bytes: 1,
                start: SimTime::from_picos(1), // forces the ".001" fraction
                is_incast: false,
            },
            TraceFlow {
                src: NodeId(u32::MAX),
                dst: NodeId(3),
                size_bytes: u64::MAX,
                start: SimTime::from_picos(123_456_789),
                is_incast: true,
            },
        ];
        let csv = export_csv(&flows);
        assert!(csv.starts_with(TRACE_CSV_HEADER));
        assert!(
            csv.contains("0.001"),
            "sub-ns start must be fractional:\n{csv}"
        );
        assert_eq!(import_csv(&csv).expect("round trip"), flows);
    }

    #[test]
    fn synthesized_trace_round_trips() {
        let hosts = hosts(16);
        let params = TraceParams::google_with_incast(SimDuration::from_micros(500), 7);
        let flows = synthesize(&hosts, &params);
        assert!(!flows.is_empty());
        assert_eq!(import_csv(&export_csv(&flows)).expect("round trip"), flows);
    }

    #[test]
    fn comments_blank_lines_and_field_padding_are_tolerated() {
        let csv = format!(
            "# a hand-written trace\n\n{TRACE_CSV_HEADER}\n# mid-file note\n 0 , 1 , 100 , 5 , 1 \n"
        );
        let flows = import_csv(&csv).expect("lenient whitespace");
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].start, SimTime::from_nanos(5));
        assert!(flows[0].is_incast);
    }

    #[test]
    fn truncated_row_reports_its_line() {
        let csv = format!("{TRACE_CSV_HEADER}\n0,1,100,5,0\n0,1,100\n");
        let err = import_csv(&csv).expect_err("truncated row");
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, CsvErrorKind::WrongFieldCount { found: 3 });
        assert!(err.to_string().contains("line 3"));
    }

    #[test]
    fn non_numeric_fields_report_column_and_line() {
        for (row, column) in [
            ("x,1,100,5,0", "src"),
            ("0,y,100,5,0", "dst"),
            ("0,1,many,5,0", "size_bytes"),
            ("0,1,100,later,0", "is-start"),
            ("0,1,100,5,yes", "is_incast"),
        ] {
            let csv = format!("{TRACE_CSV_HEADER}\n{row}\n");
            let err = import_csv(&csv).expect_err(row);
            assert_eq!(err.line, 2, "{row}");
            if let CsvErrorKind::BadField { column: c, .. } = &err.kind {
                if column != "is-start" {
                    assert_eq!(*c, column, "{row}");
                }
            } else {
                panic!("{row}: expected BadField, got {:?}", err.kind);
            }
        }
    }

    #[test]
    fn out_of_range_node_id_is_rejected() {
        let too_big = u64::from(u32::MAX) + 1;
        let csv = format!("{TRACE_CSV_HEADER}\n{too_big},1,100,5,0\n");
        let err = import_csv(&csv).expect_err("oversized node id");
        assert_eq!(err.line, 2);
        assert_eq!(
            err.kind,
            CsvErrorKind::NodeOutOfRange {
                column: "src",
                value: too_big
            }
        );
    }

    #[test]
    fn unsorted_starts_are_rejected_at_the_offending_line() {
        let csv = format!("{TRACE_CSV_HEADER}\n0,1,100,10,0\n2,3,100,9,0\n");
        let err = import_csv(&csv).expect_err("unsorted");
        assert_eq!(err.line, 3);
        assert_eq!(err.kind, CsvErrorKind::UnsortedStart);
    }

    #[test]
    fn header_is_mandatory() {
        assert_eq!(
            import_csv("").expect_err("empty").kind,
            CsvErrorKind::MissingHeader
        );
        let err = import_csv("0,1,100,5,0\n").expect_err("no header");
        assert_eq!(err.line, 1);
        assert!(matches!(err.kind, CsvErrorKind::BadHeader { .. }));
    }

    #[test]
    fn self_flows_and_zero_sizes_are_rejected() {
        let csv = format!("{TRACE_CSV_HEADER}\n4,4,100,5,0\n");
        assert_eq!(
            import_csv(&csv).expect_err("self").kind,
            CsvErrorKind::SelfFlow
        );
        let csv = format!("{TRACE_CSV_HEADER}\n0,1,0,5,0\n");
        assert!(matches!(
            import_csv(&csv).expect_err("zero size").kind,
            CsvErrorKind::BadField {
                column: "size_bytes",
                ..
            }
        ));
    }

    #[test]
    fn an_error_quotes_a_bounded_prefix_of_the_offending_text() {
        let digits = "7".repeat(60_000);
        let csv = format!("{TRACE_CSV_HEADER}\n0,1,100,{digits},0\n");
        let err = import_csv(&csv).expect_err("start_ns overflows");
        let rendered = err.to_string();
        assert!(rendered.len() < 300, "{} bytes", rendered.len());
        let CsvErrorKind::BadField { column, value, .. } = &err.kind else {
            panic!("expected BadField, got {:?}", err.kind);
        };
        assert_eq!(*column, "start_ns");
        assert_eq!(value, &format!("{}…", &digits[..QUOTE_MAX_BYTES]));
        // A cut never splits a character, and a text that fits is kept whole.
        let wide = "é".repeat(QUOTE_MAX_BYTES);
        assert_eq!(
            quote(&wide),
            format!("{}…", "é".repeat(QUOTE_MAX_BYTES / 2))
        );
        let odd = format!("x{wide}");
        assert_eq!(
            quote(&odd),
            format!("x{}…", "é".repeat(QUOTE_MAX_BYTES / 2 - 1))
        );
        let fits = "y".repeat(QUOTE_MAX_BYTES);
        assert_eq!(quote(&fits), fits);
        let header = import_csv(&format!("{digits}\n")).expect_err("bad header");
        assert!(header.to_string().len() < 300);
    }

    #[test]
    fn fractional_start_syntax_is_validated() {
        for bad in ["1.", ".5", "1.2345", "1e3", "-1", "1.2.3"] {
            let csv = format!("{TRACE_CSV_HEADER}\n0,1,100,{bad},0\n");
            let err = import_csv(&csv).expect_err(bad);
            assert!(
                matches!(
                    err.kind,
                    CsvErrorKind::BadField {
                        column: "start_ns",
                        ..
                    }
                ),
                "{bad}: {:?}",
                err.kind
            );
        }
        let csv = format!("{TRACE_CSV_HEADER}\n0,1,100,1.5,0\n");
        let flows = import_csv(&csv).expect("short fraction pads right");
        assert_eq!(flows[0].start, SimTime::from_picos(1_500));
    }

    #[test]
    fn stats_summarize_counts_window_and_load() {
        let hosts = hosts(32);
        let params =
            TraceParams::background_only(Workload::Google, 0.5, SimDuration::from_millis(2), 3);
        let flows = synthesize(&hosts, &params);
        let stats = TraceStats::from_flows(&flows, 100.0).expect("non-empty");
        assert_eq!(stats.flows, flows.len());
        assert_eq!(stats.incast_flows, 0);
        assert!(stats.hosts <= 32);
        assert!(stats.p50_bytes <= stats.p90_bytes && stats.p90_bytes <= stats.max_bytes);
        assert!(
            (0.25..1.0).contains(&stats.offered_load),
            "offered load {} should sit near the requested 0.5",
            stats.offered_load
        );
        assert!(TraceStats::from_flows(&[], 100.0).is_none());
        let text = stats.to_string();
        assert!(text.contains("offered load") && text.contains("p99"));
    }
}
