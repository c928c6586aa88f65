//! Streaming flow ingest: feed a live simulation from a trace CSV file, a
//! file that is still growing or a FIFO, instead of a fully materialized
//! trace.
//!
//! An [`IngestSource`] is a *pull* interface: the consumer (the service-mode
//! driver in `bfc-experiments`) asks for one flow at a time and simply stops
//! asking while its inflight window is full. Backpressure to the feeder is
//! therefore inherent rather than protocol-level: [`CsvTail`] never reads a
//! file past the consumer's demand, so a paused consumer costs nothing, and
//! a feeder writing into a FIFO blocks once the pipe is full.
//!
//! [`CsvTail`] is also the one way a trace file is read at all:
//! [`crate::io::read_csv_file`] drains a non-follow tail. It speaks the
//! trace-CSV format of [`crate::io`] (header line first, rows sorted by
//! `start_ns`), driven through the incremental [`CsvParser`] so every
//! malformed line is rejected with its 1-based line number, exactly like
//! [`crate::io::import_csv`] over a string. A line is read at most
//! [`MAX_LINE_BYTES`] at a time, so a file or feeder that never ends its
//! line ends the stream with an error instead of growing a buffer.

use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::time::Duration;

use crate::io::{CsvError, CsvErrorKind, CsvParser};
use crate::trace::TraceFlow;

/// The comment line a feeder writes to terminate a followed stream (a
/// followed file has no other end-of-input signal, since a plain file cannot
/// report "writer closed"). Anywhere else it is an ordinary comment.
pub const INGEST_END_MARKER: &str = "#end";

/// The longest line a trace file may hold, in bytes (a trace row is under
/// 70): a longer one is a [`CsvErrorKind::LineTooLong`] error, found after
/// at most one byte more than this has been buffered. The metrics scrape
/// server bounds its request lines by the same cap.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How long a followed [`CsvTail`] sleeps at the end of the file before it
/// reads again.
const POLL_INTERVAL: Duration = Duration::from_millis(10);

/// How a streaming source can fail.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying file failed.
    Io(std::io::Error),
    /// A line failed to parse as trace CSV (line-numbered), or the input
    /// ended before the header.
    Csv(CsvError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "reading trace: {e}"),
            IngestError::Csv(e) => write!(f, "parsing trace: {e}"),
        }
    }
}

impl std::error::Error for IngestError {}

impl From<std::io::Error> for IngestError {
    fn from(e: std::io::Error) -> Self {
        IngestError::Io(e)
    }
}

impl From<CsvError> for IngestError {
    fn from(e: CsvError) -> Self {
        IngestError::Csv(e)
    }
}

/// A pull-based stream of flows for service mode.
pub trait IngestSource {
    /// Returns the next flow, blocking until one is available. `Ok(None)`
    /// means the stream ended cleanly and no more flows will ever arrive.
    fn next_flow(&mut self) -> Result<Option<TraceFlow>, IngestError>;
}

/// Streams flows out of a trace CSV file, one line resident at a time.
///
/// Without `follow`, the source ends at the file's end — plain streaming of
/// a finished trace or of a FIFO whose writer closes. With `follow`,
/// end-of-file means "the writer has not caught up yet": the tail sleeps
/// briefly and retries until it sees the [`INGEST_END_MARKER`] line. A
/// partial line is held back until its terminator arrives, so a writer that
/// appends a row in two pieces never produces a spurious parse error; only
/// a true end of input flushes an unterminated last line. Input that ends
/// before the header is a [`CsvErrorKind::MissingHeader`] error.
#[derive(Debug)]
pub struct CsvTail {
    reader: BufReader<std::fs::File>,
    parser: CsvParser,
    /// The line being assembled, terminator included; reused across lines.
    line: Vec<u8>,
    follow: bool,
    /// Set by the end marker or a final end of input; nothing is read after.
    ended: bool,
}

impl CsvTail {
    /// Opens `path` for streaming. `follow` selects tail -f semantics.
    pub fn open<P: AsRef<Path>>(path: P, follow: bool) -> std::io::Result<CsvTail> {
        Ok(CsvTail {
            reader: BufReader::new(std::fs::File::open(path)?),
            parser: CsvParser::new(),
            line: Vec::new(),
            follow,
            ended: false,
        })
    }

    /// Parses the assembled line and empties the buffer for the next. In
    /// follow mode the end marker ends the stream instead.
    fn consume_line(&mut self) -> Result<Option<TraceFlow>, IngestError> {
        let parsed = match std::str::from_utf8(&self.line) {
            Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e).into()),
            Ok(text) => {
                let line = text.trim_end_matches(['\n', '\r']);
                if self.follow && line.trim() == INGEST_END_MARKER {
                    self.ended = true;
                    Ok(None)
                } else {
                    self.parser.push_line(line).map_err(IngestError::from)
                }
            }
        };
        self.line.clear();
        parsed
    }
}

impl IngestSource for CsvTail {
    fn next_flow(&mut self) -> Result<Option<TraceFlow>, IngestError> {
        while !self.ended {
            // Room for one byte past the cap: a line that reaches it without
            // a terminator is too long.
            let room = MAX_LINE_BYTES + 1 - self.line.len();
            let read = self
                .reader
                .by_ref()
                .take(room as u64)
                .read_until(b'\n', &mut self.line)?;
            if read == 0 {
                if self.follow {
                    std::thread::sleep(POLL_INTERVAL);
                    continue;
                }
                self.ended = true;
                if self.line.is_empty() {
                    break;
                }
            } else if !self.line.ends_with(b"\n") {
                if self.line.len() > MAX_LINE_BYTES {
                    return Err(IngestError::Csv(CsvError {
                        line: self.parser.lines() + 1,
                        kind: CsvErrorKind::LineTooLong {
                            limit: MAX_LINE_BYTES,
                        },
                    }));
                }
                continue;
            }
            if let Some(flow) = self.consume_line()? {
                return Ok(Some(flow));
            }
        }
        self.parser.finish()?;
        Ok(None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{CsvErrorKind, TRACE_CSV_HEADER};
    use bfc_net::types::NodeId;
    use std::io::Write as _;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bfc-ingest-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn csv_tail_reports_line_numbered_errors() {
        let path = tmp_path("bad");
        std::fs::write(
            &path,
            format!("{TRACE_CSV_HEADER}\n0,1,100,5,0\n0,0,9,6,0\n"),
        )
        .expect("write trace");
        let mut tail = CsvTail::open(&path, false).expect("open");
        assert!(tail.next_flow().expect("first row fine").is_some());
        match tail.next_flow() {
            Err(IngestError::Csv(e)) => {
                assert_eq!(e.line, 3);
                assert_eq!(e.kind, CsvErrorKind::SelfFlow);
            }
            other => panic!("expected a line-3 CSV error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn csv_tail_follow_waits_for_growth_and_end_marker() {
        let path = tmp_path("follow");
        std::fs::write(&path, format!("{TRACE_CSV_HEADER}\n")).expect("write header");
        let mut tail = CsvTail::open(&path, true).expect("open");
        let path2 = path.clone();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path2)
                .expect("reopen");
            // Split one row across two writes to exercise partial-line
            // buffering, then terminate the stream.
            write!(f, "0,1,100").expect("partial row");
            f.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(20));
            writeln!(f, ",5,0").expect("rest of row");
            writeln!(f, "2,3,200,9,1").expect("second row");
            writeln!(f, "{INGEST_END_MARKER}").expect("end marker");
        });
        let first = tail.next_flow().expect("valid").expect("first flow");
        assert_eq!(
            (first.src, first.dst, first.size_bytes),
            (NodeId(0), NodeId(1), 100)
        );
        let second = tail.next_flow().expect("valid").expect("second flow");
        assert_eq!(second.size_bytes, 200);
        assert!(second.is_incast);
        assert!(tail.next_flow().expect("clean end").is_none());
        writer.join().expect("writer thread");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_followed_file_that_never_ends_its_line_is_cut_off_at_the_cap() {
        let path = tmp_path("endless");
        let mut text = format!("{TRACE_CSV_HEADER}\n").into_bytes();
        text.extend(vec![b'7'; MAX_LINE_BYTES + 1]);
        std::fs::write(&path, text).expect("write trace");
        let mut tail = CsvTail::open(&path, true).expect("open");
        // Waited for at most 10 s: a source that kept buffering a line with
        // no end would never answer.
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer = std::thread::spawn(move || tx.send(tail.next_flow()));
        let answer = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("an over-long line ends the stream instead of hanging");
        consumer
            .join()
            .expect("the consumer does not panic")
            .expect("answer received");
        match answer {
            Err(IngestError::Csv(e)) => {
                assert_eq!(e.line, 2);
                let limit = MAX_LINE_BYTES;
                assert_eq!(e.kind, CsvErrorKind::LineTooLong { limit });
                assert_eq!(
                    e.to_string(),
                    format!("line 2: line is longer than {limit} bytes")
                );
            }
            other => panic!("expected a line-2 over-long line error, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
