//! Streaming flow ingest: feed a live simulation from a growing CSV file or
//! a TCP socket instead of a fully materialized trace.
//!
//! An [`IngestSource`] is a *pull* interface: the consumer (the service-mode
//! driver in `bfc-experiments`) asks for one flow at a time and simply stops
//! asking while its inflight window is full. Backpressure to the feeder is
//! therefore inherent rather than protocol-level:
//!
//! * [`CsvTail`] — a file is never read past the consumer's demand, so a
//!   paused consumer costs nothing;
//! * [`SocketIngest`] — an unread TCP stream fills the kernel receive
//!   buffer, the peer's send window closes, and the feeder's writes block
//!   until the consumer drains flows again.
//!
//! Both sources speak the exact trace-CSV format of [`crate::io`] (header
//! line first, rows sorted by `start_ns`), driven through the incremental
//! [`CsvParser`] so every malformed line is rejected with its 1-based line
//! number, exactly like the batch import path. A line is read at most
//! [`MAX_LINE_BYTES`] at a time, so a feeder that never sends a newline
//! ends the stream with an error instead of growing a buffer.

use std::collections::VecDeque;
use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::time::Duration;

use crate::io::{CsvError, CsvErrorKind, CsvParser};
use crate::trace::TraceFlow;

/// The comment line a feeder writes to terminate a followed ingest stream
/// (`CsvTail` in follow mode has no other end-of-input signal, since a plain
/// file cannot report "writer closed").
pub const INGEST_END_MARKER: &str = "#end";

/// The longest line a streamed source accepts, in bytes (a trace row is
/// under 70): a longer one is a [`CsvErrorKind::LineTooLong`] error, found
/// after at most one byte more than this has been buffered. The metrics
/// scrape server bounds its request lines by the same cap.
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// How a streaming source can fail.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying file or socket failed.
    Io(std::io::Error),
    /// A line failed to parse as trace CSV (line-numbered).
    Csv(CsvError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::Io(e) => write!(f, "ingest i/o: {e}"),
            IngestError::Csv(e) => write!(f, "ingest csv: {e}"),
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

/// Incremental line assembly + CSV parsing shared by both sources: bytes go
/// in (possibly mid-line), complete rows come out as flows. Partial lines are
/// held back until their terminator arrives, so a feeder that writes a row in
/// two chunks never produces a spurious parse error; a partial line is never
/// allowed past [`MAX_LINE_BYTES`].
#[derive(Debug, Default)]
struct LineAssembler {
    parser: CsvParser,
    ready: VecDeque<TraceFlow>,
    pending: Vec<u8>,
    /// Set by the end marker or a final end of input; nothing is read after.
    ended: bool,
}

impl LineAssembler {
    /// The ingest loop both sources run. A ready flow is returned first;
    /// after the end, `Ok(None)`. Otherwise `read(buf, limit)` appends at
    /// most `limit` bytes through the next `\n` and returns how many, the
    /// limit leaving room for one byte past [`MAX_LINE_BYTES`]; a line that
    /// reaches that byte without a terminator is an error. At end of
    /// input (`read` returns 0) a source that may still grow (`poll_at_eof`
    /// is `Some`) waits that long and reads again; any other source flushes
    /// its unterminated last line and ends.
    fn next_flow(
        &mut self,
        mut read: impl FnMut(&mut Vec<u8>, usize) -> std::io::Result<usize>,
        poll_at_eof: Option<Duration>,
    ) -> Result<Option<TraceFlow>, IngestError> {
        loop {
            if let Some(flow) = self.ready.pop_front() {
                return Ok(Some(flow));
            }
            if self.ended {
                return Ok(None);
            }
            let room = MAX_LINE_BYTES + 1 - self.pending.len();
            if read(&mut self.pending, room)? == 0 {
                match poll_at_eof {
                    Some(interval) => std::thread::sleep(interval),
                    None => {
                        self.consume_pending()?;
                        self.ended = true;
                    }
                }
            } else if self.pending.ends_with(b"\n") {
                self.consume_pending()?;
            } else if self.pending.len() > MAX_LINE_BYTES {
                return Err(IngestError::Csv(CsvError {
                    line: self.parser.lines() + 1,
                    kind: CsvErrorKind::LineTooLong {
                        limit: MAX_LINE_BYTES,
                    },
                }));
            }
        }
    }

    /// Parses the buffered line (terminated, or the unterminated last line
    /// at a true end of input), if any, and empties the buffer for the next;
    /// the end marker short-circuits.
    fn consume_pending(&mut self) -> Result<(), IngestError> {
        if self.pending.is_empty() {
            return Ok(());
        }
        let parsed = match std::str::from_utf8(&self.pending) {
            Err(e) => Err(std::io::Error::new(std::io::ErrorKind::InvalidData, e).into()),
            Ok(text) => {
                let line = text.trim_end_matches(['\n', '\r']);
                if line.trim() == INGEST_END_MARKER {
                    self.ended = true;
                    Ok(())
                } else {
                    self.parser.push_line(line).map_err(IngestError::from)
                }
            }
        };
        self.pending.clear();
        self.ready.extend(self.parser.take_flows());
        parsed
    }
}

/// Streams flows out of a (possibly still growing) trace CSV file.
///
/// Without `follow`, the source ends at the file's current end — plain
/// streaming of a finished trace. With `follow`, end-of-file means "the
/// writer has not caught up yet": the tail sleeps briefly and retries until
/// it sees the [`INGEST_END_MARKER`] comment line.
#[derive(Debug)]
pub struct CsvTail {
    reader: BufReader<std::fs::File>,
    lines: LineAssembler,
    follow: bool,
    poll_interval: Duration,
}

impl CsvTail {
    /// Opens `path` for streaming. `follow` selects tail -f semantics.
    pub fn open<P: AsRef<Path>>(path: P, follow: bool) -> std::io::Result<CsvTail> {
        Ok(CsvTail {
            reader: BufReader::new(std::fs::File::open(path)?),
            lines: LineAssembler::default(),
            follow,
            poll_interval: Duration::from_millis(10),
        })
    }

    /// Overrides the follow-mode polling interval (tests use a short one).
    pub fn with_poll_interval(mut self, interval: Duration) -> CsvTail {
        self.poll_interval = interval;
        self
    }
}

impl IngestSource for CsvTail {
    fn next_flow(&mut self) -> Result<Option<TraceFlow>, IngestError> {
        let reader = &mut self.reader;
        let poll_at_eof = self.follow.then_some(self.poll_interval);
        let read = |buf: &mut Vec<u8>, limit: usize| {
            reader.by_ref().take(limit as u64).read_until(b'\n', buf)
        };
        self.lines.next_flow(read, poll_at_eof)
    }
}

/// Streams flows from a single TCP connection speaking the trace-CSV format.
///
/// The listener accepts exactly one feeder; the stream ends when the feeder
/// sends the [`INGEST_END_MARKER`] line or closes its side. Reads happen only
/// on consumer demand, so a full inflight window translates into TCP
/// backpressure on the feeder.
#[derive(Debug)]
pub struct SocketIngest {
    listener: TcpListener,
    conn: Option<BufReader<TcpStream>>,
    lines: LineAssembler,
}

impl SocketIngest {
    /// Binds `addr` (e.g. `127.0.0.1:9000`; port 0 picks a free port) and
    /// returns the source plus the actual bound address.
    pub fn bind(addr: &str) -> std::io::Result<(SocketIngest, SocketAddr)> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        Ok((
            SocketIngest {
                listener,
                conn: None,
                lines: LineAssembler::default(),
            },
            local,
        ))
    }
}

impl IngestSource for SocketIngest {
    fn next_flow(&mut self) -> Result<Option<TraceFlow>, IngestError> {
        let (listener, conn) = (&self.listener, &mut self.conn);
        let read = |buf: &mut Vec<u8>, limit: usize| {
            if conn.is_none() {
                let (stream, _peer) = listener.accept()?;
                *conn = Some(BufReader::new(stream));
            }
            let reader = conn.as_mut().expect("connection accepted above");
            reader.take(limit as u64).read_until(b'\n', buf)
        };
        // The feeder closing its side is the end of input.
        self.lines.next_flow(read, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{export_csv, CsvErrorKind, TRACE_CSV_HEADER};
    use crate::trace::{synthesize, TraceParams};
    use crate::Workload;
    use bfc_net::types::NodeId;
    use bfc_sim::SimDuration;
    use std::io::Write as _;

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("bfc-ingest-{tag}-{}", std::process::id()));
        p
    }

    #[test]
    fn csv_tail_streams_a_finished_file_exactly() {
        let hosts: Vec<NodeId> = (0..8).map(NodeId).collect();
        let params = TraceParams::background_only(
            Workload::Google,
            0.4,
            SimDuration::from_micros(80),
            13,
        );
        let flows = synthesize(&hosts, &params);
        let path = tmp_path("finished");
        std::fs::write(&path, export_csv(&flows)).expect("write trace");
        let mut tail = CsvTail::open(&path, false).expect("open");
        let mut streamed = Vec::new();
        while let Some(f) = tail.next_flow().expect("valid csv") {
            streamed.push(f);
        }
        assert_eq!(streamed, flows);
        assert!(tail.next_flow().expect("idempotent end").is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn csv_tail_reports_line_numbered_errors() {
        let path = tmp_path("bad");
        std::fs::write(&path, format!("{TRACE_CSV_HEADER}\n0,1,100,5,0\n0,0,9,6,0\n"))
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
        let mut tail = CsvTail::open(&path, true)
            .expect("open")
            .with_poll_interval(Duration::from_millis(1));
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
        assert_eq!((first.src, first.dst, first.size_bytes), (NodeId(0), NodeId(1), 100));
        let second = tail.next_flow().expect("valid").expect("second flow");
        assert_eq!(second.size_bytes, 200);
        assert!(second.is_incast);
        assert!(tail.next_flow().expect("clean end").is_none());
        writer.join().expect("writer thread");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn socket_ingest_streams_one_connection() {
        let (mut source, addr) = SocketIngest::bind("127.0.0.1:0").expect("bind");
        let feeder = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(
                stream,
                "{TRACE_CSV_HEADER}\n0,1,1000,5,0\n1,2,2000,7.25,1\n"
            )
            .expect("send rows");
            // Closing the stream ends the ingest.
        });
        let a = source.next_flow().expect("valid").expect("first");
        assert_eq!(a.size_bytes, 1000);
        let b = source.next_flow().expect("valid").expect("second");
        assert_eq!(b.start.as_picos(), 7_250);
        assert!(source.next_flow().expect("clean end").is_none());
        feeder.join().expect("feeder thread");
    }

    #[test]
    fn socket_ingest_joins_a_row_split_across_two_writes() {
        let (mut source, addr) = SocketIngest::bind("127.0.0.1:0").expect("bind");
        let feeder = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(stream, "{TRACE_CSV_HEADER}\n0,1,100").expect("partial row");
            stream.flush().expect("flush");
            std::thread::sleep(Duration::from_millis(20));
            writeln!(stream, ",5,0").expect("rest of row");
        });
        let flow = source.next_flow().expect("valid").expect("one flow");
        assert_eq!(
            (flow.src, flow.dst, flow.size_bytes),
            (NodeId(0), NodeId(1), 100)
        );
        assert_eq!(flow.start.as_picos(), 5_000);
        assert!(source.next_flow().expect("clean end").is_none());
        feeder.join().expect("feeder thread");
    }

    #[test]
    fn socket_ingest_ends_at_the_end_marker_while_the_feeder_stays_connected() {
        let (mut source, addr) = SocketIngest::bind("127.0.0.1:0").expect("bind");
        let (done, consumer_done) = std::sync::mpsc::channel();
        let feeder = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(
                stream,
                "{TRACE_CSV_HEADER}\n0,1,100,5,0\n{INGEST_END_MARKER}\n"
            )
            .expect("send rows");
            // Hold the connection open until the consumer has seen the end:
            // a source that waited for the close instead would block until
            // this times out, and the feeder would panic.
            consumer_done
                .recv_timeout(Duration::from_secs(10))
                .expect("the stream ended before the feeder closed");
            drop(stream);
        });
        assert!(source.next_flow().expect("valid").is_some());
        assert!(source.next_flow().expect("clean end").is_none());
        done.send(()).expect("feeder waiting");
        feeder.join().expect("feeder thread");
    }

    #[test]
    fn socket_ingest_reports_line_numbered_errors() {
        let (mut source, addr) = SocketIngest::bind("127.0.0.1:0").expect("bind");
        let feeder = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            write!(stream, "{TRACE_CSV_HEADER}\n0,1,100,5,0\n0,0,9,6,0\n").expect("send rows");
        });
        assert!(source.next_flow().expect("first row fine").is_some());
        match source.next_flow() {
            Err(IngestError::Csv(e)) => {
                assert_eq!(e.line, 3);
                assert_eq!(e.kind, CsvErrorKind::SelfFlow);
            }
            other => panic!("expected a line-3 CSV error, got {other:?}"),
        }
        feeder.join().expect("feeder thread");
    }

    /// The first answer of `source.next_flow()`, waited for at most 10 s:
    /// a source that keeps buffering a line with no end never answers.
    fn answer_in_time<S: IngestSource + Send + 'static>(
        mut source: S,
    ) -> Result<Option<TraceFlow>, IngestError> {
        let (tx, rx) = std::sync::mpsc::channel();
        let consumer = std::thread::spawn(move || tx.send(source.next_flow()));
        let answer = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("an over-long line ends the stream instead of hanging");
        consumer.join().expect("the consumer does not panic").expect("answer received");
        answer
    }

    fn assert_too_long(answer: Result<Option<TraceFlow>, IngestError>) {
        match answer {
            Err(IngestError::Csv(e)) => {
                assert_eq!(e.line, 2);
                let limit = MAX_LINE_BYTES;
                assert_eq!(e.kind, CsvErrorKind::LineTooLong { limit });
                assert_eq!(e.to_string(), format!("line 2: line is longer than {limit} bytes"));
            }
            other => panic!("expected a line-2 over-long line error, got {other:?}"),
        }
    }

    #[test]
    fn a_socket_feeder_that_never_ends_its_line_is_cut_off_at_the_cap() {
        let (source, addr) = SocketIngest::bind("127.0.0.1:0").expect("bind");
        let (done, consumer_done) = std::sync::mpsc::channel::<()>();
        let feeder = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            writeln!(stream, "{TRACE_CSV_HEADER}").expect("send the header");
            stream
                .write_all(&vec![b'7'; MAX_LINE_BYTES + 1])
                .expect("send an endless line");
            // Stay connected: the end of input must not be what ends it.
            let _ = consumer_done.recv_timeout(Duration::from_secs(10));
        });
        assert_too_long(answer_in_time(source));
        done.send(()).expect("feeder waiting");
        feeder.join().expect("feeder thread");
    }

    #[test]
    fn a_followed_file_that_never_ends_its_line_is_cut_off_at_the_cap() {
        let path = tmp_path("endless");
        let mut text = format!("{TRACE_CSV_HEADER}\n").into_bytes();
        text.extend(vec![b'7'; MAX_LINE_BYTES + 1]);
        std::fs::write(&path, text).expect("write trace");
        let tail = CsvTail::open(&path, true)
            .expect("open")
            .with_poll_interval(Duration::from_millis(1));
        assert_too_long(answer_in_time(tail));
        let _ = std::fs::remove_file(&path);
    }
}
