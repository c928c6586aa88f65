//! Flight-recorder tracing: structured sim events behind the [`NetSink`]
//! seam.
//!
//! Every interesting thing a switch does — enqueue, dequeue, drop, pause —
//! already happens with a [`NetSink`] in hand, so tracing rides the same
//! seam: [`NetSink::trace`] is a default no-op that only the [`Recording`]
//! wrapper overrides. When tracing is off the emission sites compile down to
//! nothing (the default impl ignores its arguments and is inlined away);
//! when it is on, each event lands in a bounded [`FlightRecorder`] ring that
//! keeps the last N records of the canonical order and counts what it sheds.
//!
//! # Records and canonical order
//!
//! A [`TraceRecord`] is 24 bytes: the observation's instant and the event,
//! whose port, queue and byte-count fields are `u16`s (a switch checks when
//! it is built that its ports and queues fit).
//! Its place in a trace is `(time, rank, index)`, exactly like the engine's
//! scheduled events, and neither of the last two is stored: the rank is a
//! pure function of the event's *content* ([`TraceEvent::canon_rank`]) and
//! the index is the record's position. Because the rank does not depend on
//! how the run was sharded, per-shard record streams merge into one
//! canonical order. Two records with equal `(time, rank)` necessarily
//! describe the same node, which exactly one shard owns — so "concatenate
//! the per-shard streams, then stable-sort by `(time, rank)`" reproduces the
//! serial engine's relative order.
//!
//! Nothing computes it by sorting the whole trace. A recorder's stream is
//! already in time order, so only records that share an instant can be out
//! of rank order: [`FlightRecorder::record`] holds back the current
//! instant's run and stable-sorts it by rank when the instant ends, and
//! [`FlightTrace::merge`] merges canonical parts. The global sort survives
//! only as the fallback for a ring whose clock ran backwards, at
//! [`FlightRecorder::finish`].
//!
//! # Held traces
//!
//! A recorder holds its records as the `.flight` body below, about 7.7 bytes
//! a record, appending each instant's run as it ends; only that run waits as
//! [`TraceRecord`]s. A full ring sheds encoded records from the front of the
//! body, so what it keeps is the last N of the canonical order, and
//! [`FlightRecorder::finish`] has only the last run to append. A finished
//! [`FlightTrace`] holds the same body as [`TraceRecords`], decoded on demand.
//! The encoding is a bijection on record sequences (a varint has one form,
//! and every field is range-checked), so two bodies are equal exactly when
//! their records are.
//!
//! # Container
//!
//! [`write_trace`] / [`read_trace`] serialize a trace to a binary container
//! reusing [`bfc_sim::snapshot`]'s framing (magic, version, length prefix,
//! [`bfc_sim::snapshot::checksum64`]), with its own magic so snapshot and
//! trace files can never be confused for one another. Version 3 payload,
//! fixed-width integers little-endian, varints LEB128
//! ([`bfc_sim::snapshot::SnapWriter::put_var`]):
//!
//! ```text
//! label (u64 length + UTF-8) | shed count (u64) | record count (u64) | records
//! record = time delta (zigzag varint) | kind tag (u8) | the kind's fields (a varint each)
//! ```
//!
//! A record's time is its distance in picoseconds from the previous record's
//! (from 0 for the first), taken modulo 2^64 and zigzag-encoded, so a
//! canonical trace's deltas are small and a time-unordered one still round
//! trips. A record is 3 to 30 bytes; a packet run's trace averages about 7.7.

use std::fmt::Write as _;

use bfc_sim::snapshot::{finalize, open, put_var, SnapError, SnapReader};
use bfc_sim::{SimDuration, SimTime};

use crate::event::NetSink;
use crate::types::NodeId;

/// Magic bytes of the flight-recorder trace container.
pub const TRACE_MAGIC: &[u8; 8] = b"BFCTRACE";
/// Container format version checked by [`read_trace`].
pub const TRACE_VERSION: u32 = 3;

/// Queue index used for the strict-priority control queue in trace records.
pub const QUEUE_CONTROL: u16 = u16::MAX;
/// Queue index used for the BFC high-priority queue in trace records.
pub const QUEUE_HIGH_PRIORITY: u16 = u16::MAX - 1;
/// Queue index used for the untracked-flow overflow queue in trace records;
/// a switch's physical queues are numbered below it.
pub const QUEUE_OVERFLOW: u16 = u16::MAX - 2;

/// Number of distinct [`TraceEvent`] kinds.
pub const KIND_COUNT: usize = 13;

/// Kind names indexed by [`TraceEvent::kind_index`].
pub const KIND_NAMES: [&str; KIND_COUNT] = [
    "enqueue",
    "dequeue",
    "drop",
    "blackhole",
    "pfc-sent",
    "pfc-delivered",
    "flow-pause",
    "queue-active",
    "queue-idle",
    "link-down",
    "link-up",
    "link-rate",
    "reroute",
];

/// Looks up a kind index by its [`KIND_NAMES`] name.
pub fn kind_index_of(name: &str) -> Option<usize> {
    KIND_NAMES.iter().position(|&k| k == name)
}

/// Formats a trace-record queue index, naming the special queues.
pub fn queue_name(queue: u16) -> String {
    match queue {
        QUEUE_CONTROL => "ctrl".to_string(),
        QUEUE_HIGH_PRIORITY => "hi".to_string(),
        QUEUE_OVERFLOW => "ovfl".to_string(),
        q => q.to_string(),
    }
}

/// One structured observability event. `Copy` and small on purpose: the
/// recorder's ring shuffles these by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A data packet joined queue `queue` of egress `port` at `node`.
    Enqueue {
        /// Switch making the decision.
        node: NodeId,
        /// Local egress port.
        port: u16,
        /// Queue index (see the `QUEUE_*` constants for special queues).
        queue: u16,
        /// Flow the packet belongs to.
        flow: u32,
        /// Packet size in bytes.
        bytes: u16,
    },
    /// A data packet left queue `queue` of egress `port` at `node`.
    Dequeue {
        /// Switch transmitting the packet.
        node: NodeId,
        /// Local egress port.
        port: u16,
        /// Queue the packet was scheduled from.
        queue: u16,
        /// Flow the packet belongs to.
        flow: u32,
        /// Packet size in bytes.
        bytes: u16,
    },
    /// A data packet was dropped at admission (shared buffer full).
    Drop {
        /// Switch dropping the packet.
        node: NodeId,
        /// Local egress port the packet was headed for.
        port: u16,
        /// Flow the packet belonged to.
        flow: u32,
        /// Packet size in bytes.
        bytes: u16,
    },
    /// A packet was blackholed (no route to its destination).
    Blackhole {
        /// Switch at which routing failed.
        node: NodeId,
        /// Flow the packet belonged to.
        flow: u32,
        /// Packet size in bytes.
        bytes: u16,
    },
    /// `node` sent a port-level PFC frame out of ingress `port` toward its
    /// upstream neighbor (`pause` = XOFF, `!pause` = XON).
    PfcSent {
        /// Switch sending the frame.
        node: NodeId,
        /// Local ingress port whose buffer usage triggered the frame.
        port: u16,
        /// True for pause (XOFF), false for resume (XON).
        pause: bool,
    },
    /// A PFC frame from `src` arrived at `node`: `node`'s egress toward
    /// `src` pauses (or resumes). These are exactly the wait-for edges the
    /// safety tracker analyses.
    PfcDelivered {
        /// Switch whose egress is paused/resumed.
        node: NodeId,
        /// Neighbor that sent the frame.
        src: NodeId,
        /// True for pause (XOFF), false for resume (XON).
        pause: bool,
    },
    /// `node` sent a per-flow (BFC) pause-frame bloom filter upstream out of
    /// ingress `port`.
    FlowPause {
        /// Switch sending the frame.
        node: NodeId,
        /// Local ingress port the paused flows arrive on.
        port: u16,
        /// Bloom-filter bits set in the frame (0 = every VFID resumed).
        bits: u32,
        /// True if the frame pauses at least one VFID.
        pause: bool,
    },
    /// Queue `queue` of egress `port` went empty → non-empty.
    QueueActive {
        /// The switch.
        node: NodeId,
        /// Local egress port.
        port: u16,
        /// Queue index.
        queue: u16,
    },
    /// Queue `queue` of egress `port` went non-empty → empty.
    QueueIdle {
        /// The switch.
        node: NodeId,
        /// Local egress port.
        port: u16,
        /// Queue index.
        queue: u16,
    },
    /// The cable `a <-> b` went down.
    LinkDown {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The cable `a <-> b` came back up.
    LinkUp {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// The cable `a <-> b` changed rate (degrade/restore).
    LinkRate {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Routing was recomputed after a fault event.
    Reroute {
        /// Index of the dynamics event that triggered the recompute.
        index: u32,
    },
}

impl TraceEvent {
    /// The switch a record describes (`a` for link events, `None` for
    /// reroutes, which are fabric-wide).
    pub fn node(&self) -> Option<NodeId> {
        self.node_port().0
    }

    /// Short kind name used by the CLI's filter and summaries.
    pub fn kind(&self) -> &'static str {
        KIND_NAMES[self.kind_index()]
    }

    /// The local port an event concerns (`src` for PFC deliveries, the
    /// peer for link events, `None` for blackholes and reroutes). Used by
    /// the diff's per-(node, port) divergence summary.
    pub fn port(&self) -> Option<u32> {
        self.node_port().1
    }

    /// [`TraceEvent::node`] and [`TraceEvent::port`] from one match.
    #[inline]
    fn node_port(&self) -> (Option<NodeId>, Option<u32>) {
        match *self {
            TraceEvent::Enqueue { node, port, .. }
            | TraceEvent::Dequeue { node, port, .. }
            | TraceEvent::Drop { node, port, .. }
            | TraceEvent::PfcSent { node, port, .. }
            | TraceEvent::FlowPause { node, port, .. }
            | TraceEvent::QueueActive { node, port, .. }
            | TraceEvent::QueueIdle { node, port, .. } => (Some(node), Some(u32::from(port))),
            TraceEvent::Blackhole { node, .. } => (Some(node), None),
            TraceEvent::PfcDelivered { node, src, .. } => (Some(node), Some(src.0)),
            TraceEvent::LinkDown { a, b }
            | TraceEvent::LinkUp { a, b }
            | TraceEvent::LinkRate { a, b } => (Some(a), Some(b.0)),
            TraceEvent::Reroute { .. } => (None, None),
        }
    }

    /// Content-derived rank ordering simultaneous records canonically,
    /// mirroring [`crate::event::NetEvent::canon_rank`]: kind tag in the
    /// high bits, then the node, then the port (or peer; a reroute's event
    /// index). Records with equal `(time, rank)` necessarily describe the
    /// same node, which is what makes the per-shard merge exact.
    pub fn canon_rank(&self) -> u64 {
        let (node, port) = self.node_port();
        let sub = match *self {
            TraceEvent::Reroute { index } => index,
            _ => port.unwrap_or(0),
        };
        let node = node.map_or(0, |n| n.0);
        ((self.kind_index() as u64) << 52) | (u64::from(node) << 20) | u64::from(sub)
    }

    /// One-line human rendering used by `trace-tool trace inspect`.
    pub fn render(&self) -> String {
        let mut line = format!("{:<13} ", self.kind());
        match *self {
            TraceEvent::Enqueue {
                node,
                port,
                queue,
                flow,
                bytes,
            }
            | TraceEvent::Dequeue {
                node,
                port,
                queue,
                flow,
                bytes,
            } => write!(
                line,
                "sw{} port {} q {} flow {} ({} B)",
                node.0,
                port,
                queue_name(queue),
                flow,
                bytes
            ),
            TraceEvent::Drop {
                node,
                port,
                flow,
                bytes,
            } => write!(line, "sw{} port {port} flow {flow} ({bytes} B)", node.0),
            TraceEvent::Blackhole { node, flow, bytes } => {
                write!(line, "sw{} flow {flow} ({bytes} B)", node.0)
            }
            TraceEvent::PfcSent { node, port, pause } => write!(
                line,
                "sw{} port {port} {}",
                node.0,
                if pause { "XOFF" } else { "XON" }
            ),
            TraceEvent::PfcDelivered { node, src, pause } => write!(
                line,
                "sw{} {} by sw{}",
                node.0,
                if pause { "paused" } else { "resumed" },
                src.0
            ),
            TraceEvent::FlowPause {
                node,
                port,
                bits,
                pause,
            } => write!(
                line,
                "sw{} port {port} {} ({bits} bloom bits)",
                node.0,
                if pause { "pause" } else { "resume" }
            ),
            TraceEvent::QueueActive { node, port, queue }
            | TraceEvent::QueueIdle { node, port, queue } => {
                write!(line, "sw{} port {port} q {}", node.0, queue_name(queue))
            }
            TraceEvent::LinkDown { a, b }
            | TraceEvent::LinkUp { a, b }
            | TraceEvent::LinkRate { a, b } => write!(line, "{} <-> {}", a.0, b.0),
            TraceEvent::Reroute { index } => write!(line, "(dynamics event {index})"),
        }
        .expect("writing to a String cannot fail");
        line
    }
}

/// Derives [`TraceEvent::kind_index`] and the event's `.flight` encoding
/// from one table of `tag => Variant { fields }`, the fields in wire order:
/// the tag byte, then each field as a varint. As in
/// [`bfc_sim::snap_enum!`], the matches have no wildcard arm and the
/// patterns no `..`, so every variant and field must be listed.
macro_rules! trace_events {
    ($($tag:literal => $variant:ident { $($field:ident),+ }),+ $(,)?) => {
        impl TraceEvent {
            /// Dense index of the event kind, `0..KIND_COUNT` (the
            /// serialization tag). Backs the record-time [`TraceFilter`]
            /// bitmask.
            #[inline]
            pub fn kind_index(&self) -> usize {
                match self {
                    $(TraceEvent::$variant { .. } => $tag,)+
                }
            }

            #[inline]
            fn put(&self, body: &mut Vec<u8>) {
                match *self {
                    $(TraceEvent::$variant { $($field),+ } => {
                        body.push($tag);
                        $(put_var(body, VarField::to_var($field));)+
                    })+
                }
            }

            #[inline]
            fn get(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
                Ok(match r.get_u8()? {
                    $($tag => TraceEvent::$variant {
                        $($field: VarField::from_var(r.get_var()?)?),+
                    },)+
                    _ => return Err(SnapError::Corrupt("unknown trace event tag")),
                })
            }
        }
    };
}

trace_events! {
    0 => Enqueue { node, port, queue, flow, bytes },
    1 => Dequeue { node, port, queue, flow, bytes },
    2 => Drop { node, port, flow, bytes },
    3 => Blackhole { node, flow, bytes },
    4 => PfcSent { node, port, pause },
    5 => PfcDelivered { node, src, pause },
    6 => FlowPause { node, port, bits, pause },
    7 => QueueActive { node, port, queue },
    8 => QueueIdle { node, port, queue },
    9 => LinkDown { a, b },
    10 => LinkUp { a, b },
    11 => LinkRate { a, b },
    12 => Reroute { index },
}

/// A record field as a `.flight` varint; a value too wide for the field is
/// corruption.
trait VarField: Sized {
    fn to_var(self) -> u64;
    fn from_var(v: u64) -> Result<Self, SnapError>;
}

impl VarField for u16 {
    #[inline]
    fn to_var(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_var(v: u64) -> Result<Self, SnapError> {
        u16::try_from(v).map_err(|_| SnapError::Corrupt("trace field exceeds u16"))
    }
}

impl VarField for u32 {
    #[inline]
    fn to_var(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_var(v: u64) -> Result<Self, SnapError> {
        u32::try_from(v).map_err(|_| SnapError::Corrupt("trace field exceeds u32"))
    }
}

impl VarField for NodeId {
    #[inline]
    fn to_var(self) -> u64 {
        self.0.to_var()
    }
    #[inline]
    fn from_var(v: u64) -> Result<Self, SnapError> {
        u32::from_var(v).map(NodeId)
    }
}

impl VarField for bool {
    #[inline]
    fn to_var(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_var(v: u64) -> Result<Self, SnapError> {
        match v {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("trace flag out of range")),
        }
    }
}

/// The fewest bytes one record takes in a `.flight` body: a time delta, the
/// tag and one field, since every kind has at least one.
const RECORD_MIN_BYTES: usize = 3;

/// One recorded observation. Its canonical rank is derived
/// ([`TraceRecord::rank`]) and its sequence number is its index in the
/// trace, so the record is the instant and the event and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time of the observation.
    pub at: SimTime,
    /// The observation.
    pub event: TraceEvent,
}

// A recorder's current run holds records by value.
const _: () = assert!(std::mem::size_of::<TraceRecord>() == 24);

impl TraceRecord {
    /// Content-derived canonical rank ([`TraceEvent::canon_rank`]).
    #[inline]
    pub fn rank(&self) -> u64 {
        self.event.canon_rank()
    }

    /// Appends the record to a `.flight` body whose previous record was at
    /// `prev` picoseconds (0 before the first), and moves `prev` to it.
    #[inline]
    fn put(&self, body: &mut Vec<u8>, prev: &mut u64) {
        let at = self.at.as_picos();
        let delta = at.wrapping_sub(*prev) as i64;
        put_var(body, ((delta << 1) ^ (delta >> 63)) as u64);
        *prev = at;
        self.event.put(body);
    }

    /// Reads what [`TraceRecord::put`] wrote.
    #[inline]
    fn get(r: &mut SnapReader<'_>, prev: &mut u64) -> Result<Self, SnapError> {
        let zigzag = r.get_var()?;
        *prev = prev.wrapping_add((zigzag >> 1) ^ (zigzag & 1).wrapping_neg());
        Ok(TraceRecord {
            at: SimTime::from_picos(*prev),
            event: TraceEvent::get(r)?,
        })
    }
}

/// A record-time trace filter: an event-kind bitmask plus an optional
/// node set. Filtering at record time keeps a narrow ring (e.g. PFC-only)
/// covering the *whole* run cheap, instead of raising the ring capacity
/// and filtering after the fact; events a filter rejects are never stored
/// and never count as ring drops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceFilter {
    /// Bit `i` set ⇔ the kind with [`TraceEvent::kind_index`] `i` passes.
    kind_mask: u16,
    /// If set, only events at these nodes pass (fabric-wide events with no
    /// node — reroutes — always pass).
    nodes: Option<std::collections::BTreeSet<u32>>,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter::all()
    }
}

impl TraceFilter {
    /// A filter that admits everything.
    pub fn all() -> Self {
        TraceFilter {
            kind_mask: (1 << KIND_COUNT) - 1,
            nodes: None,
        }
    }

    /// Restricts to the given kind indices (see [`kind_index_of`]).
    pub fn with_kinds(mut self, kinds: impl IntoIterator<Item = usize>) -> Self {
        self.kind_mask = 0;
        for k in kinds {
            assert!(k < KIND_COUNT, "kind index out of range");
            self.kind_mask |= 1 << k;
        }
        self
    }

    /// Restricts to events at the given nodes (reroutes always pass).
    pub fn with_nodes(mut self, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        self.nodes = Some(nodes.into_iter().map(|n| n.0).collect());
        self
    }

    /// True if the filter admits every event.
    pub fn admits_all(&self) -> bool {
        self.kind_mask == (1 << KIND_COUNT) - 1 && self.nodes.is_none()
    }

    /// Whether `event` passes the filter.
    #[inline]
    pub fn admits(&self, event: &TraceEvent) -> bool {
        if self.kind_mask & (1 << event.kind_index()) == 0 {
            return false;
        }
        match (&self.nodes, event.node()) {
            (Some(nodes), Some(node)) => nodes.contains(&node.0),
            _ => true,
        }
    }
}

/// A bounded ring of the last N trace records in canonical order. Records
/// beyond the capacity shed from the front (oldest first) and are counted in
/// `dropped`; the flight-recorder name is exact — what survives is the end
/// of the story. An optional [`TraceFilter`] rejects events before they reach
/// the ring.
///
/// The ring is a `.flight` body in canonical order plus the current
/// instant's run, which joins the body, rank-sorted, when the instant ends.
/// Shedding skips records at the front of the body and remembers the last
/// shed record's time, which the first held record's delta counts from; the
/// shed prefix is cut off once it is half the body. The ring keeps the last
/// N records of the `(time, rank, recording)` order, so inside an instant
/// that is partly shed it keeps the highest ranks.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    capacity: usize,
    /// The held records' body, after `head` bytes of shed ones.
    out: Encoder,
    head: usize,
    /// The last shed record's time in picoseconds (0 before any).
    base: u64,
    /// The current instant's records, each with its rank, in recording
    /// order.
    run: Vec<(u64, TraceRecord)>,
    /// Whether some instant came before the one recorded ahead of it.
    backwards: bool,
    dropped: u64,
    filter: Option<TraceFilter>,
}

impl FlightRecorder {
    /// Creates a recorder keeping at most `capacity` records (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            // Room for 8 Ki packet records of about 8 B: a long trace's body
            // then reaches its size in 13 fewer reallocations than from empty.
            out: Encoder {
                body: Vec::with_capacity(capacity.min(8 * 1024) * 8),
                ..Encoder::default()
            },
            head: 0,
            base: 0,
            run: Vec::new(),
            backwards: false,
            dropped: 0,
            filter: None,
        }
    }

    /// Creates a recorder that only stores events admitted by `filter`.
    /// A filter admitting everything is elided from the hot path.
    pub fn with_filter(capacity: usize, filter: TraceFilter) -> Self {
        let mut rec = FlightRecorder::new(capacity);
        if !filter.admits_all() {
            rec.filter = Some(filter);
        }
        rec
    }

    /// Records one event observed at `at`.
    #[inline]
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(filter) = &self.filter {
            if !filter.admits(&event) {
                return;
            }
        }
        if self.run.first().is_some_and(|(_, first)| first.at != at) {
            self.flush();
        }
        self.run
            .push((event.canon_rank(), TraceRecord { at, event }));
    }

    /// Appends the current run to the body in rank order (stable: equal
    /// ranks describe one node, so their order is its owner's), after
    /// shedding what the run pushes past the capacity: the body's oldest
    /// records, then, for a run longer than the ring, its own first ones.
    fn flush(&mut self) {
        let Some(&(_, first)) = self.run.first() else {
            return;
        };
        self.backwards |= first.at.as_picos() < self.out.prev;
        self.run.sort_by_key(|&(rank, _)| rank);
        let excess = (self.out.len + self.run.len()).saturating_sub(self.capacity);
        let shed = excess.min(self.out.len);
        if shed > 0 {
            self.shed(shed);
        }
        self.dropped += excess as u64;
        for (_, record) in self.run.drain(..).skip(excess - shed) {
            self.out.push(&record);
        }
    }

    /// Sheds the body's first `n` held records, cutting the shed prefix off
    /// once it is more than half the body.
    fn shed(&mut self, n: usize) {
        let mut held = self.held();
        held.by_ref().take(n).for_each(drop);
        let (base, rest) = (held.prev, held.r.remaining());
        self.base = base;
        self.head = self.out.body.len() - rest;
        self.out.len -= n;
        if self.head > rest {
            self.out.body.drain(..self.head);
            self.head = 0;
        }
    }

    /// The held records of the body, oldest first.
    fn held(&self) -> TraceRecordIter<'_> {
        TraceRecordIter {
            r: SnapReader::new(&self.out.body[self.head..]),
            prev: self.base,
            left: self.out.len,
        }
    }

    /// Records currently held.
    pub fn len(&self) -> usize {
        (self.out.len + self.run.len()).min(self.capacity)
    }

    /// True if nothing has been recorded (or everything has been shed).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consumes the recorder into its canonical [`FlightTrace`]: the held
    /// records stable-sorted by `(time, rank)`. The last run joins the body,
    /// whose first record's delta is rebased from the last shed record's
    /// time to 0. Only a ring whose clock ran backwards is decoded, sorted
    /// whole and encoded again.
    pub fn finish(mut self) -> FlightTrace {
        self.flush();
        let records = if self.backwards {
            let mut all: Vec<TraceRecord> = self.held().collect();
            all.sort_by_key(|r| (r.at, r.rank()));
            all.into_iter().collect()
        } else {
            let mut held = self.held();
            if let Some(first) = held.next() {
                let cut = self.out.body.len() - held.r.remaining();
                let mut lead = Vec::new();
                first.put(&mut lead, &mut 0);
                self.out.body.splice(..cut, lead);
            }
            self.out.finish()
        };
        FlightTrace {
            records,
            dropped: self.dropped,
        }
    }
}

/// Appends records to a `.flight` body.
#[derive(Debug, Clone, Default)]
struct Encoder {
    body: Vec<u8>,
    /// The previous record's time in picoseconds, 0 before the first.
    prev: u64,
    len: usize,
}

impl Encoder {
    #[inline]
    fn push(&mut self, record: &TraceRecord) {
        record.put(&mut self.body, &mut self.prev);
        self.len += 1;
    }

    fn finish(mut self) -> TraceRecords {
        self.body.shrink_to_fit();
        TraceRecords {
            body: self.body,
            len: self.len,
        }
    }
}

/// A trace's records, held as their `.flight` body: [`TraceRecords::iter`]
/// decodes them in order. Equal bodies are equal record sequences.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TraceRecords {
    body: Vec<u8>,
    len: usize,
}

impl TraceRecords {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if there are no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the records take in memory: the encoded body.
    pub fn encoded_len(&self) -> usize {
        self.body.len()
    }

    /// The records in order, decoded one at a time.
    pub fn iter(&self) -> TraceRecordIter<'_> {
        TraceRecordIter {
            r: SnapReader::new(&self.body),
            prev: 0,
            left: self.len,
        }
    }
}

impl std::fmt::Debug for TraceRecords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a TraceRecords {
    type Item = TraceRecord;
    type IntoIter = TraceRecordIter<'a>;

    fn into_iter(self) -> TraceRecordIter<'a> {
        self.iter()
    }
}

impl FromIterator<TraceRecord> for TraceRecords {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(records: I) -> Self {
        let mut out = Encoder::default();
        records.into_iter().for_each(|r| out.push(&r));
        out.finish()
    }
}

/// The decoder [`TraceRecords::iter`] returns.
pub struct TraceRecordIter<'a> {
    r: SnapReader<'a>,
    prev: u64,
    left: usize,
}

impl Iterator for TraceRecordIter<'_> {
    type Item = TraceRecord;

    #[inline]
    fn next(&mut self) -> Option<TraceRecord> {
        self.left = self.left.checked_sub(1)?;
        Some(TraceRecord::get(&mut self.r, &mut self.prev).expect("a held body decodes"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// The completed trace of one run (or one shard of a run).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FlightTrace {
    /// The surviving records.
    pub records: TraceRecords,
    /// Records shed by the bounded ring before these.
    pub dropped: u64,
}

impl FlightTrace {
    /// Merges canonical traces — what [`FlightRecorder::finish`] returns, one
    /// per shard — into canonical `(time, rank)` order, ties in part order
    /// then emission order: the order one fabric-wide recorder would define,
    /// and record for record what concatenating the parts and stable-sorting
    /// by `(time, rank)` gives. A single part is its own merge, so serial and
    /// merged sharded traces of the same run compare equal (given rings large
    /// enough that nothing was shed).
    pub fn merge(parts: Vec<FlightTrace>) -> FlightTrace {
        if parts.len() <= 1 {
            return parts.into_iter().next().unwrap_or_default();
        }
        let dropped = parts.iter().map(|p| p.dropped).sum();
        // A record's delta in the merge is at most its delta in its part, so
        // the parts' bodies together are room enough.
        let mut out = Encoder {
            body: Vec::with_capacity(parts.iter().map(|p| p.records.encoded_len()).sum()),
            ..Encoder::default()
        };
        let mut rest: Vec<_> = parts.iter().map(|p| p.records.iter()).collect();
        // Each part's next record, keyed by `(time, rank, part)`: the part
        // index sends the earliest part first on a tie, as in the sorted
        // concatenation.
        let key = |p: usize, r: TraceRecord| ((r.at, r.rank(), p), r);
        let mut heads: Vec<_> = (0..parts.len())
            .map(|p| rest[p].next().map(|r| key(p, r)))
            .collect();
        while let Some(((.., p), record)) = heads.iter().flatten().min_by_key(|(k, _)| *k).copied()
        {
            out.push(&record);
            heads[p] = rest[p].next().map(|r| key(p, r));
        }
        FlightTrace {
            records: out.finish(),
            dropped,
        }
    }

    /// Total PFC-paused time per `(node, ingress port)` derived from
    /// `PfcSent` XOFF/XON pairs; open intervals close at `end`. Returned
    /// sorted by descending paused time (ties by node then port), ready for
    /// "top queues by pause-time".
    pub fn pause_time_by_port(&self, end: SimTime) -> Vec<((NodeId, u32), SimDuration)> {
        use std::collections::BTreeMap;
        let mut open: BTreeMap<(NodeId, u32), SimTime> = BTreeMap::new();
        let mut total: BTreeMap<(NodeId, u32), SimDuration> = BTreeMap::new();
        for r in &self.records {
            if let TraceEvent::PfcSent { node, port, pause } = r.event {
                let key = (node, u32::from(port));
                if pause {
                    open.entry(key).or_insert(r.at);
                } else if let Some(start) = open.remove(&key) {
                    *total.entry(key).or_insert(SimDuration::ZERO) += r.at.saturating_since(start);
                }
            }
        }
        for (key, start) in open {
            *total.entry(key).or_insert(SimDuration::ZERO) += end.saturating_since(start);
        }
        let mut out: Vec<_> = total.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// The PFC wait-for edges (`PfcDelivered` records) in trace order:
    /// `(at, from, to, pause)` with `from`'s egress toward `to` affected.
    pub fn pause_edges(&self) -> Vec<(SimTime, NodeId, NodeId, bool)> {
        self.records
            .iter()
            .filter_map(|r| match r.event {
                TraceEvent::PfcDelivered { node, src, pause } => Some((r.at, node, src, pause)),
                _ => None,
            })
            .collect()
    }

    /// Time of the last record, or zero for an empty trace. The diff uses
    /// this to close open pause intervals.
    pub fn end_time(&self) -> SimTime {
        self.records.iter().last().map_or(SimTime::ZERO, |r| r.at)
    }

    /// Compares two canonical traces record-by-record. Returns `None` when
    /// they are identical, otherwise the first diverging index plus
    /// summaries of everything downstream of it. Both traces must already
    /// be in canonical order ([`FlightRecorder::finish`] or
    /// [`FlightTrace::merge`] output). Equal traces are told apart by their
    /// bodies' bytes alone; unequal ones are decoded in lockstep to the
    /// first divergent record.
    pub fn diff(&self, other: &FlightTrace) -> Option<TraceDiff> {
        use std::collections::BTreeMap;
        if self.records == other.records {
            return None;
        }
        let (mut a, mut b) = (self.records.iter(), other.records.iter());
        let mut index = 0;
        let (first_a, first_b) = loop {
            match (a.next(), b.next()) {
                (Some(x), Some(y)) if x == y => index += 1,
                firsts => break firsts,
            }
        };

        // Downstream tails: everything at and after the divergence point.
        let mut kinds: BTreeMap<usize, KindDivergence> = BTreeMap::new();
        let mut ports: BTreeMap<(NodeId, u32), PortDivergence> = BTreeMap::new();
        let mut tally = |records: &mut dyn Iterator<Item = TraceRecord>, second: bool| {
            let mut tail = 0;
            for r in records {
                tail += 1;
                let k = kinds
                    .entry(r.event.kind_index())
                    .or_insert_with(|| KindDivergence {
                        kind: KIND_NAMES[r.event.kind_index()],
                        ..KindDivergence::default()
                    });
                let (count, first) = if second {
                    (&mut k.count_b, &mut k.first_b)
                } else {
                    (&mut k.count_a, &mut k.first_a)
                };
                *count += 1;
                first.get_or_insert(r.at);
                if let (Some(node), Some(port)) = (r.event.node(), r.event.port()) {
                    let p = ports
                        .entry((node, port))
                        .or_insert_with(|| PortDivergence::new(node, port));
                    if second {
                        p.count_b += 1;
                    } else {
                        p.count_a += 1;
                    }
                }
            }
            tail
        };
        let tail_a = tally(&mut first_a.into_iter().chain(a), false);
        let tail_b = tally(&mut first_b.into_iter().chain(b), true);

        // Pause-time delta per (node, ingress port), computed over the
        // full traces (pause state is cumulative — a tail alone cannot
        // close intervals opened upstream of the divergence).
        let pause_a: BTreeMap<_, _> = self
            .pause_time_by_port(self.end_time())
            .into_iter()
            .collect();
        let pause_b: BTreeMap<_, _> = other
            .pause_time_by_port(other.end_time())
            .into_iter()
            .collect();
        for &key in pause_a.keys().chain(pause_b.keys()) {
            ports
                .entry(key)
                .or_insert_with(|| PortDivergence::new(key.0, key.1));
        }
        for p in ports.values_mut() {
            p.pause_a = pause_a
                .get(&(p.node, p.port))
                .copied()
                .unwrap_or(SimDuration::ZERO);
            p.pause_b = pause_b
                .get(&(p.node, p.port))
                .copied()
                .unwrap_or(SimDuration::ZERO);
        }
        // Drop rows with nothing to say (equal zero counts, equal pause).
        let ports: Vec<PortDivergence> = ports
            .into_values()
            .filter(|p| p.count_a != p.count_b || p.pause_a != p.pause_b || p.count_a != 0)
            .collect();

        Some(TraceDiff {
            index,
            first_a,
            first_b,
            tail_a,
            tail_b,
            kinds: kinds.into_values().collect(),
            ports,
        })
    }
}

/// Per-event-kind divergence tallies downstream of the first diverging
/// record (side `a` = the first trace passed to [`FlightTrace::diff`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindDivergence {
    /// Kind name ([`KIND_NAMES`]).
    pub kind: &'static str,
    /// Records of this kind in `a`'s divergent tail.
    pub count_a: u64,
    /// Records of this kind in `b`'s divergent tail.
    pub count_b: u64,
    /// First time this kind appears in `a`'s tail.
    pub first_a: Option<SimTime>,
    /// First time this kind appears in `b`'s tail.
    pub first_b: Option<SimTime>,
}

/// Per-(node, port) divergence tallies plus the whole-run pause-time delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortDivergence {
    /// The switch.
    pub node: NodeId,
    /// The local port (see [`TraceEvent::port`]).
    pub port: u32,
    /// Tail records touching this port in `a`.
    pub count_a: u64,
    /// Tail records touching this port in `b`.
    pub count_b: u64,
    /// Total PFC pause time of the port over all of `a`.
    pub pause_a: SimDuration,
    /// Total PFC pause time of the port over all of `b`.
    pub pause_b: SimDuration,
}

impl PortDivergence {
    fn new(node: NodeId, port: u32) -> Self {
        PortDivergence {
            node,
            port,
            count_a: 0,
            count_b: 0,
            pause_a: SimDuration::ZERO,
            pause_b: SimDuration::ZERO,
        }
    }
}

/// The result of [`FlightTrace::diff`] on two traces that are not
/// identical: where they first diverge and what the divergent tails look
/// like.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceDiff {
    /// Canonical index of the first diverging record (equal to the length
    /// of the shorter trace when one is a strict prefix of the other).
    pub index: usize,
    /// The record at `index` in trace `a` (`None` if `a` ended there).
    pub first_a: Option<TraceRecord>,
    /// The record at `index` in trace `b` (`None` if `b` ended there).
    pub first_b: Option<TraceRecord>,
    /// Records at/after the divergence in `a`.
    pub tail_a: usize,
    /// Records at/after the divergence in `b`.
    pub tail_b: usize,
    /// Per-kind tallies of the divergent tails, sorted by kind index.
    pub kinds: Vec<KindDivergence>,
    /// Per-(node, port) tallies, sorted by `(node, port)`.
    pub ports: Vec<PortDivergence>,
}

/// Serializes a trace (plus a free-form label naming the run) into the
/// checksummed container: the header fields, then the held body as it is.
/// Deterministic: the same trace and label always produce the same bytes.
pub fn write_trace(label: &str, trace: &FlightTrace) -> Vec<u8> {
    let FlightTrace { records, dropped } = trace;
    finalize(TRACE_MAGIC, TRACE_VERSION, |w| {
        w.reserve(8 + label.len() + 8 + 8 + records.body.len() + 8);
        w.put_str(label);
        w.put_u64(*dropped);
        w.put_usize(records.len);
        w.put_raw(&records.body);
    })
}

/// Opens a trace container, returning the label and the records. Rejects
/// foreign files, version mismatches, truncation and corruption exactly
/// like snapshot files do: every record is decoded, to be checked, before
/// the body is kept.
pub fn read_trace(bytes: &[u8]) -> Result<(String, FlightTrace), SnapError> {
    let payload = open(TRACE_MAGIC, TRACE_VERSION, bytes)?;
    let mut r = SnapReader::new(payload);
    let label = r.get_str()?.to_string();
    let dropped = r.get_u64()?;
    let len = r.get_count(RECORD_MIN_BYTES)?;
    let body = &payload[payload.len() - r.remaining()..];
    let mut prev = 0;
    for _ in 0..len {
        TraceRecord::get(&mut r, &mut prev)?;
    }
    r.expect_end()?;
    let records = TraceRecords {
        body: body.to_vec(),
        len,
    };
    Ok((label, FlightTrace { records, dropped }))
}

/// Wraps a sink, recording [`NetSink::trace`] calls into a flight recorder
/// while forwarding scheduled events untouched. This is the only `trace`
/// override in the workspace: every other sink inherits the no-op default,
/// which is what makes tracing zero-cost when off.
pub struct Recording<'a, S: NetSink + ?Sized> {
    /// The sink real events flow through.
    pub inner: &'a mut S,
    /// The ring capturing trace events.
    pub recorder: &'a mut FlightRecorder,
}

impl<S: NetSink + ?Sized> NetSink for Recording<'_, S> {
    #[inline]
    fn send(&mut self, time: SimTime, event: crate::event::NetEvent) {
        self.inner.send(time, event);
    }

    #[inline]
    fn trace(&mut self, at: SimTime, event: TraceEvent) {
        self.recorder.record(at, event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Enqueue {
                node: NodeId(3),
                port: 2,
                queue: 1,
                flow: 7,
                bytes: 1500,
            },
            TraceEvent::Dequeue {
                node: NodeId(3),
                port: 2,
                queue: 1,
                flow: 7,
                bytes: 1500,
            },
            TraceEvent::Drop {
                node: NodeId(4),
                port: 0,
                flow: 9,
                bytes: 1000,
            },
            TraceEvent::Blackhole {
                node: NodeId(5),
                flow: 2,
                bytes: 64,
            },
            TraceEvent::PfcSent {
                node: NodeId(1),
                port: 3,
                pause: true,
            },
            TraceEvent::PfcDelivered {
                node: NodeId(0),
                src: NodeId(1),
                pause: true,
            },
            TraceEvent::FlowPause {
                node: NodeId(2),
                port: 1,
                bits: 11,
                pause: false,
            },
            TraceEvent::QueueActive {
                node: NodeId(3),
                port: 2,
                queue: QUEUE_HIGH_PRIORITY,
            },
            TraceEvent::QueueIdle {
                node: NodeId(3),
                port: 2,
                queue: QUEUE_OVERFLOW,
            },
            TraceEvent::LinkDown {
                a: NodeId(1),
                b: NodeId(2),
            },
            TraceEvent::LinkUp {
                a: NodeId(1),
                b: NodeId(2),
            },
            TraceEvent::LinkRate {
                a: NodeId(0),
                b: NodeId(3),
            },
            TraceEvent::Reroute { index: 4 },
        ]
    }

    #[test]
    fn ring_keeps_the_last_n_and_counts_shed_records() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..10u64 {
            rec.record(
                SimTime::from_nanos(i),
                TraceEvent::Reroute { index: i as u32 },
            );
        }
        assert_eq!(rec.len(), 3);
        let trace = rec.finish();
        assert_eq!(trace.dropped, 7);
        let kept: Vec<u32> = trace
            .records
            .iter()
            .map(|r| match r.event {
                TraceEvent::Reroute { index } => index,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    #[test]
    fn container_round_trips_byte_stably() {
        let mut rec = FlightRecorder::new(1024);
        for (i, e) in sample_events().into_iter().enumerate() {
            rec.record(SimTime::from_nanos(i as u64 * 10), e);
        }
        let trace = rec.finish();
        let bytes = write_trace("unit-test seed=7", &trace);
        let (label, reread) = read_trace(&bytes).expect("container opens");
        assert_eq!(label, "unit-test seed=7");
        assert_eq!(reread, trace);
        // write -> read -> write is byte-stable.
        assert_eq!(write_trace(&label, &reread), bytes);
    }

    #[test]
    fn container_rejects_damage() {
        let mut rec = FlightRecorder::new(16);
        rec.record(
            SimTime::from_nanos(5),
            TraceEvent::PfcSent {
                node: NodeId(1),
                port: 0,
                pause: true,
            },
        );
        let bytes = write_trace("x", &rec.finish());
        // Foreign magic.
        assert_eq!(read_trace(b"not a trace").unwrap_err(), SnapError::BadMagic);
        // A snapshot-magic file is not a trace.
        let snapshot_like = finalize(b"BFCSNAP\0", TRACE_VERSION, |w| w.put_str("payload"));
        assert_eq!(read_trace(&snapshot_like).unwrap_err(), SnapError::BadMagic);
        // Wrong version.
        let other_version = finalize(TRACE_MAGIC, TRACE_VERSION + 1, |w| w.put_str("payload"));
        assert_eq!(
            read_trace(&other_version).unwrap_err(),
            SnapError::BadVersion(TRACE_VERSION + 1)
        );
        // Truncation at every prefix.
        for n in 0..bytes.len() {
            assert!(read_trace(&bytes[..n]).is_err(), "prefix {n} accepted");
        }
        // Any single-byte flip is rejected.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x20;
            assert!(read_trace(&bad).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn each_kinds_node_port_and_rank_are_pinned() {
        // As computed while `node` and `port` were two matches of their own:
        // a change here moves the canonical order of every merged trace.
        let pinned: [(Option<u32>, Option<u32>, u64); KIND_COUNT] = [
            (Some(3), Some(2), 0x300002),
            (Some(3), Some(2), 0x10000000300002),
            (Some(4), Some(0), 0x20000000400000),
            (Some(5), None, 0x30000000500000),
            (Some(1), Some(3), 0x40000000100003),
            (Some(0), Some(1), 0x50000000000001),
            (Some(2), Some(1), 0x60000000200001),
            (Some(3), Some(2), 0x70000000300002),
            (Some(3), Some(2), 0x80000000300002),
            (Some(1), Some(2), 0x90000000100002),
            (Some(1), Some(2), 0xa0000000100002),
            (Some(0), Some(3), 0xb0000000000003),
            (None, None, 0xc0000000000004),
        ];
        let got: Vec<_> = sample_events()
            .iter()
            .map(|e| (e.node().map(|n| n.0), e.port(), e.canon_rank()))
            .collect();
        assert_eq!(got, pinned);
    }

    #[test]
    fn every_event_kind_round_trips() {
        let mut rec = FlightRecorder::new(64);
        for e in sample_events() {
            rec.record(SimTime::from_nanos(1), e);
        }
        let trace = rec.finish();
        let (_, reread) = read_trace(&write_trace("", &trace)).unwrap();
        assert_eq!(reread, trace);
        for r in &trace.records {
            assert!(!r.event.render().is_empty());
            assert!(!r.event.kind().is_empty());
        }
    }

    #[test]
    fn merge_reproduces_one_recorder_from_shard_parts() {
        // Interleave records for two "shards" through one recorder and
        // through two per-shard recorders; merging the parts must reproduce
        // the whole (canonicalized) trace.
        let mut whole = FlightRecorder::new(1024);
        let mut s0 = FlightRecorder::new(1024);
        let mut s1 = FlightRecorder::new(1024);
        let shard_of = |n: NodeId| n.0 % 2;
        let events = [
            (
                10u64,
                TraceEvent::QueueActive {
                    node: NodeId(0),
                    port: 1,
                    queue: 0,
                },
            ),
            (
                10,
                TraceEvent::Enqueue {
                    node: NodeId(1),
                    port: 0,
                    queue: 0,
                    flow: 1,
                    bytes: 100,
                },
            ),
            (
                10,
                TraceEvent::Enqueue {
                    node: NodeId(0),
                    port: 1,
                    queue: 0,
                    flow: 2,
                    bytes: 100,
                },
            ),
            (
                10,
                TraceEvent::Enqueue {
                    node: NodeId(0),
                    port: 1,
                    queue: 0,
                    flow: 3,
                    bytes: 200,
                },
            ),
            (
                20,
                TraceEvent::Dequeue {
                    node: NodeId(0),
                    port: 1,
                    queue: 0,
                    flow: 2,
                    bytes: 100,
                },
            ),
            (
                20,
                TraceEvent::PfcSent {
                    node: NodeId(1),
                    port: 0,
                    pause: true,
                },
            ),
        ];
        for (t, e) in events {
            whole.record(SimTime::from_nanos(t), e);
            let shard = if shard_of(e.node().unwrap()) == 0 {
                &mut s0
            } else {
                &mut s1
            };
            shard.record(SimTime::from_nanos(t), e);
        }
        let canonical_whole = FlightTrace::merge(vec![whole.finish()]);
        let merged = FlightTrace::merge(vec![s0.finish(), s1.finish()]);
        assert_eq!(merged, canonical_whole);
    }

    #[test]
    fn pause_time_ranks_ports_by_paused_duration() {
        let mut rec = FlightRecorder::new(64);
        let xoff = |node, port| TraceEvent::PfcSent {
            node: NodeId(node),
            port,
            pause: true,
        };
        let xon = |node, port| TraceEvent::PfcSent {
            node: NodeId(node),
            port,
            pause: false,
        };
        rec.record(SimTime::from_nanos(100), xoff(1, 0));
        rec.record(SimTime::from_nanos(300), xon(1, 0)); // 200 ns
        rec.record(SimTime::from_nanos(100), xoff(2, 3)); // open until end
        let trace = rec.finish();
        let top = trace.pause_time_by_port(SimTime::from_nanos(600));
        assert_eq!(top[0].0, (NodeId(2), 3));
        assert_eq!(top[0].1, SimDuration::from_nanos(500));
        assert_eq!(top[1].0, (NodeId(1), 0));
        assert_eq!(top[1].1, SimDuration::from_nanos(200));
    }

    #[test]
    fn filters_reject_at_record_time_without_counting_drops() {
        let filter = TraceFilter::all()
            .with_kinds([kind_index_of("pfc-sent").unwrap()])
            .with_nodes([NodeId(1)]);
        let mut rec = FlightRecorder::with_filter(2, filter.clone());
        for e in sample_events() {
            rec.record(SimTime::from_nanos(1), e);
        }
        // Wrong node, right kind: rejected.
        rec.record(
            SimTime::from_nanos(2),
            TraceEvent::PfcSent {
                node: NodeId(9),
                port: 0,
                pause: true,
            },
        );
        let trace = rec.finish();
        assert_eq!(trace.records.len(), 1);
        assert_eq!(trace.dropped, 0, "filtered events are not ring drops");
        assert!(matches!(
            trace.records.iter().next().unwrap().event,
            TraceEvent::PfcSent {
                node: NodeId(1),
                ..
            }
        ));
        // Fabric-wide events pass a node filter.
        assert!(filter
            .clone()
            .with_kinds([kind_index_of("reroute").unwrap()])
            .admits(&TraceEvent::Reroute { index: 0 }));
        // The all-filter is elided entirely.
        assert!(TraceFilter::all().admits_all());
        let rec = FlightRecorder::with_filter(4, TraceFilter::all());
        assert!(rec.filter.is_none());
    }

    #[test]
    fn kind_names_round_trip_through_indices() {
        for e in sample_events() {
            assert_eq!(kind_index_of(e.kind()), Some(e.kind_index()));
        }
        assert_eq!(kind_index_of("no-such-kind"), None);
    }

    #[test]
    fn identical_traces_diff_empty() {
        let mut rec = FlightRecorder::new(64);
        for (i, e) in sample_events().into_iter().enumerate() {
            rec.record(SimTime::from_nanos(i as u64), e);
        }
        let a = FlightTrace::merge(vec![rec.finish()]);
        assert_eq!(a.diff(&a.clone()), None);
        assert_eq!(FlightTrace::default().diff(&FlightTrace::default()), None);
    }

    #[test]
    fn diff_reports_first_divergence_and_tail_summaries() {
        let enq = |flow| TraceEvent::Enqueue {
            node: NodeId(0),
            port: 1,
            queue: 0,
            flow,
            bytes: 100,
        };
        let mut a = FlightRecorder::new(64);
        let mut b = FlightRecorder::new(64);
        // Shared prefix.
        a.record(SimTime::from_nanos(10), enq(1));
        b.record(SimTime::from_nanos(10), enq(1));
        // Divergence at index 1: different flows enqueue.
        a.record(SimTime::from_nanos(20), enq(2));
        b.record(SimTime::from_nanos(20), enq(3));
        // Only `b` then pauses.
        b.record(
            SimTime::from_nanos(30),
            TraceEvent::PfcSent {
                node: NodeId(0),
                port: 1,
                pause: true,
            },
        );
        let (a, b) = (
            FlightTrace::merge(vec![a.finish()]),
            FlightTrace::merge(vec![b.finish()]),
        );
        let diff = a.diff(&b).expect("diverges");
        assert_eq!(diff.index, 1);
        assert_eq!(diff.first_a.unwrap().event, enq(2));
        assert_eq!(diff.first_b.unwrap().event, enq(3));
        assert_eq!((diff.tail_a, diff.tail_b), (1, 2));
        let enq_row = diff.kinds.iter().find(|k| k.kind == "enqueue").unwrap();
        assert_eq!((enq_row.count_a, enq_row.count_b), (1, 1));
        assert_eq!(enq_row.first_a, Some(SimTime::from_nanos(20)));
        let pfc_row = diff.kinds.iter().find(|k| k.kind == "pfc-sent").unwrap();
        assert_eq!((pfc_row.count_a, pfc_row.count_b), (0, 1));
        assert_eq!(pfc_row.first_b, Some(SimTime::from_nanos(30)));
        let port_row = diff
            .ports
            .iter()
            .find(|p| (p.node, p.port) == (NodeId(0), 1))
            .unwrap();
        assert_eq!(port_row.pause_a, SimDuration::ZERO);
        // b's pause opens at 30 and closes at b's end time (also 30).
        assert_eq!(port_row.pause_b, SimDuration::ZERO);
        // A strict prefix diverges at the shorter length.
        let prefix = FlightTrace {
            records: a.records.iter().take(1).collect(),
            dropped: 0,
        };
        let diff = prefix.diff(&a).expect("prefix diverges");
        assert_eq!(diff.index, 1);
        assert!(diff.first_a.is_none());
        assert!(diff.first_b.is_some());
    }

    #[test]
    fn pause_edges_surface_pfc_deliveries() {
        let mut rec = FlightRecorder::new(64);
        rec.record(
            SimTime::from_nanos(50),
            TraceEvent::PfcDelivered {
                node: NodeId(4),
                src: NodeId(6),
                pause: true,
            },
        );
        rec.record(
            SimTime::from_nanos(70),
            TraceEvent::PfcDelivered {
                node: NodeId(4),
                src: NodeId(6),
                pause: false,
            },
        );
        let edges = rec.finish().pause_edges();
        assert_eq!(
            edges,
            vec![
                (SimTime::from_nanos(50), NodeId(4), NodeId(6), true),
                (SimTime::from_nanos(70), NodeId(4), NodeId(6), false),
            ]
        );
    }
}
