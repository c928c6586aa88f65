//! Packets, control frames and HPCC in-band telemetry.
//!
//! Everything that travels on a link is a [`Packet`]. Data, acknowledgements
//! and congestion-notification packets traverse switch queues like ordinary
//! traffic (ACK-class packets ride the strict-priority control queue);
//! PFC pause frames and BFC flow-pause frames are MAC-level control frames
//! delivered out of band (they never sit behind data in an egress queue).
//!
//! What a switch does to a packet beyond queueing it is asked for by the
//! packet itself, as on real hardware: its [`Ecn`] codepoint says whether it
//! may be ECN-marked, and its [`IntPath`] header whether INT is appended.
//! The sender's congestion control sets both; a switch runs no scheme.

use std::cell::RefCell;

use bfc_sim::rng::mix64;
use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

use crate::types::{FlowId, NodeId};

/// Telemetry a switch appends to a data packet that carries an INT header.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntHop {
    /// Queue length (bytes) at the egress port when the packet was sent.
    pub qlen_bytes: u64,
    /// Cumulative bytes transmitted by the egress port, including this packet.
    pub tx_bytes: u64,
    /// Timestamp (picoseconds) at which the packet was transmitted.
    pub timestamp_ps: u64,
    /// Link capacity in Gbps.
    pub link_gbps: f64,
}

bfc_sim::snap_struct! { IntHop { qlen_bytes, tx_bytes, timestamp_ps, link_gbps } }

/// Maximum number of switch hops a packet can record telemetry for.
///
/// The longest path in any built-in topology is the cross-data-center one:
/// ToR → spine → gateway → gateway → spine → ToR, i.e. six switch hops
/// (switches only append INT to data packets, so ACK echoes never exceed
/// this either). The bound sizes the out-of-line [`IntPath`] storage, so one
/// header serves a packet for its whole path and can be handed from data
/// packet to ACK to sender and back without ever growing. The experiment
/// runner checks a topology's switch-hop diameter against this constant at
/// set-up when the hosts run HPCC; a deeper custom topology needs it raised.
pub const MAX_INT_HOPS: usize = 6;

/// Out-of-line storage behind an [`IntPath`].
#[derive(Debug, Clone)]
struct IntBuf {
    len: u8,
    hops: [IntHop; MAX_INT_HOPS],
}

/// A packet's INT header: an 8-byte handle that is either no header at all
/// or out-of-line storage for up to [`MAX_INT_HOPS`] hop records.
///
/// A switch appends a record to every data packet that carries a header, so
/// the header is the sender's request for telemetry: an HPCC sender gives
/// each data packet one ([`IntPath::header`]), and every other packet has
/// none, which keeps a `Packet` within one cache line. The header travels
/// by move: from the data packet into its ACK at the receiver, into the
/// sender's HPCC state, and — [`IntPath::clear`]ed — back into the sender's
/// next data packet, so a steady-state HPCC flow allocates nothing.
///
/// Whether a header is present is part of the path's value: it is saved,
/// compared and cloned with the records, so a header with no records yet (a
/// data packet between its sender and its first switch) stays a header.
#[derive(Debug, Default, Clone)]
pub struct IntPath(Option<Box<IntBuf>>);

impl IntPath {
    const EMPTY_HOP: IntHop = IntHop {
        qlen_bytes: 0,
        tx_bytes: 0,
        timestamp_ps: 0,
        link_gbps: 0.0,
    };

    /// No header: switches record nothing.
    pub const fn new() -> Self {
        IntPath(None)
    }

    /// An empty header, allocated fresh: every switch on the path appends
    /// its record.
    pub fn header() -> Self {
        IntPath(Some(Box::new(IntBuf {
            len: 0,
            hops: [Self::EMPTY_HOP; MAX_INT_HOPS],
        })))
    }

    /// Appends one hop record to the header. Panics if there is no header,
    /// or if the packet has already traversed [`MAX_INT_HOPS`] switches —
    /// the experiment runner rejects topologies that deep before the run
    /// starts.
    pub fn push(&mut self, hop: IntHop) {
        let buf = self.0.as_mut().expect("INT record without an INT header");
        assert!(
            (buf.len as usize) < MAX_INT_HOPS,
            "packet traversed more than {MAX_INT_HOPS} INT-recording hops"
        );
        buf.hops[buf.len as usize] = hop;
        buf.len += 1;
    }

    /// Forgets the recorded hops but keeps the header, so it can be handed
    /// to the next data packet without allocating.
    pub fn clear(&mut self) {
        if let Some(buf) = &mut self.0 {
            buf.len = 0;
        }
    }

    /// True if the packet carries an INT header.
    pub fn has_header(&self) -> bool {
        self.0.is_some()
    }

    /// The recorded hops, in traversal order (also the path's `Deref`, so
    /// `len`, `is_empty`, indexing and iteration are the slice's).
    pub fn as_slice(&self) -> &[IntHop] {
        match &self.0 {
            Some(buf) => &buf.hops[..buf.len as usize],
            None => &[],
        }
    }

    /// A header holding at most [`MAX_INT_HOPS`] records.
    pub fn from_slice(hops: &[IntHop]) -> Self {
        let mut path = IntPath::header();
        for &hop in hops {
            path.push(hop);
        }
        path
    }
}

/// One byte: 0 for no header, `n + 1` for a header with `n` hops; then the
/// hops.
impl Snap for IntPath {
    const MIN_BYTES: usize = u8::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(self.0.as_ref().map_or(0, |buf| buf.len + 1));
        w.put_all(self.as_slice());
    }

    // Hand-written: the byte carries the header's presence, and the count
    // is checked against the storage bound `push` would otherwise panic on.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let Some(len) = (r.get_u8()? as usize).checked_sub(1) else {
            return Ok(IntPath::new());
        };
        if len > MAX_INT_HOPS {
            return Err(SnapError::Corrupt("INT path longer than MAX_INT_HOPS"));
        }
        let mut path = IntPath::header();
        for _ in 0..len {
            path.push(r.get()?);
        }
        Ok(path)
    }
}

/// Paths compare by whether they carry a header and by its records.
impl PartialEq for IntPath {
    fn eq(&self, other: &Self) -> bool {
        self.has_header() == other.has_header() && self.as_slice() == other.as_slice()
    }
}

impl std::ops::Deref for IntPath {
    type Target = [IntHop];
    fn deref(&self) -> &[IntHop] {
        self.as_slice()
    }
}

/// Largest pause-frame bloom filter the inline representation supports, in
/// bytes. 128 bytes is the paper's default and the top of the Fig. 14 sweep.
pub const MAX_PAUSE_FRAME_BYTES: usize = 128;
const PAUSE_FRAME_WORDS: usize = MAX_PAUSE_FRAME_BYTES / 8;

/// A multistage bloom filter naming the set of paused virtual flows on one
/// ingress link (§3.6 of the paper).
///
/// The downstream switch maintains a *counting* version of this filter (in
/// `bfc-core`) and periodically snapshots it into a `PauseFrame` that is sent
/// upstream. The upstream side only needs membership queries, which is what
/// this type provides. A VFID maps to [`PAUSE_FRAME_HASHES`] (4) bit
/// positions, and the virtual flow is paused iff **all** of them are set.
///
/// The bit array is stored inline (sized to [`MAX_PAUSE_FRAME_BYTES`]) so
/// snapshotting the counting filter and installing a received frame are
/// plain copies (the type is `Copy`). On the wire a frame sits out of line,
/// behind a [`WireFrame`], to keep it out of every `Packet`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PauseFrame {
    bits: [u64; PAUSE_FRAME_WORDS],
    num_bits: u32,
}

impl PauseFrame {
    /// Creates an empty frame of `size_bytes` bytes. The paper's default is
    /// 128 bytes.
    pub fn new(size_bytes: usize) -> Self {
        assert!(size_bytes > 0, "bloom filter must have at least one byte");
        assert!(
            size_bytes <= MAX_PAUSE_FRAME_BYTES,
            "bloom filter larger than {MAX_PAUSE_FRAME_BYTES} bytes"
        );
        PauseFrame {
            bits: [0; PAUSE_FRAME_WORDS],
            num_bits: (size_bytes * 8) as u32,
        }
    }

    /// Number of bits in the filter.
    pub fn num_bits(&self) -> u32 {
        self.num_bits
    }

    /// Size of the filter on the wire in bytes.
    pub fn size_bytes(&self) -> usize {
        (self.num_bits as usize) / 8
    }

    /// The `i`-th bit position for a VFID. All switches and NICs derive the
    /// same positions because the function is deterministic.
    #[inline]
    pub fn bit_position(vfid: u32, hash_index: u32, num_bits: u32) -> u32 {
        (mix64(((hash_index as u64) << 32) | vfid as u64) % num_bits as u64) as u32
    }

    /// Sets bit `pos`.
    #[inline]
    pub fn set_bit(&mut self, pos: u32) {
        debug_assert!(pos < self.num_bits);
        self.bits[(pos / 64) as usize] |= 1u64 << (pos % 64);
    }

    /// Clears bit `pos`.
    #[inline]
    pub fn clear_bit(&mut self, pos: u32) {
        debug_assert!(pos < self.num_bits);
        self.bits[(pos / 64) as usize] &= !(1u64 << (pos % 64));
    }

    /// Reads bit `pos`.
    #[inline]
    pub fn get_bit(&self, pos: u32) -> bool {
        debug_assert!(pos < self.num_bits);
        self.bits[(pos / 64) as usize] & (1u64 << (pos % 64)) != 0
    }

    /// Marks a virtual flow as paused.
    pub fn insert(&mut self, vfid: u32) {
        for i in 0..PAUSE_FRAME_HASHES {
            self.set_bit(Self::bit_position(vfid, i, self.num_bits));
        }
    }

    /// True if the virtual flow matches on all hash positions, i.e. the
    /// upstream must treat it as paused. False positives are possible (that
    /// is the bloom-filter trade-off the paper accepts); false negatives are
    /// not.
    pub fn contains(&self, vfid: u32) -> bool {
        (0..PAUSE_FRAME_HASHES).all(|i| self.get_bit(Self::bit_position(vfid, i, self.num_bits)))
    }

    /// True if no bits are set (nothing is paused).
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Number of set bits (used by tests and diagnostics).
    pub fn popcount(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }
}

impl Snap for PauseFrame {
    const MIN_BYTES: usize = u32::MIN_BYTES + <[u64; PAUSE_FRAME_WORDS]>::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        let PauseFrame { bits, num_bits } = self;
        num_bits.save(w);
        bits.save(w);
    }

    // Hand-written to check the geometry: `bit_position` divides by
    // `num_bits`, and the inline array holds at most `MAX_PAUSE_FRAME_BYTES`.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let num_bits: u32 = r.get()?;
        if num_bits == 0 || num_bits % 8 != 0 || num_bits as usize > MAX_PAUSE_FRAME_BYTES * 8 {
            return Err(SnapError::Corrupt("pause-frame geometry out of range"));
        }
        Ok(PauseFrame {
            bits: r.get()?,
            num_bits,
        })
    }
}

/// Most pause-frame boxes one thread keeps for reuse: 256 × 136 bytes, about
/// 35 KB. A thread that consumes more frames than it sends (a shard whose
/// switches receive more than they transmit) frees the surplus.
const WIRE_FRAME_POOL_CAP: usize = 256;

thread_local! {
    /// Boxes of consumed frames, popped by the next frame this thread sends.
    static FREE_FRAMES: RefCell<Vec<Box<PauseFrame>>> = const { RefCell::new(Vec::new()) };
}

/// A [`PauseFrame`] on the wire: an 8-byte owner of out-of-line storage,
/// so a `Packet` stays within one cache line.
///
/// The storage is recycled through a per-thread free list: building a frame
/// pops a box (allocating only when the list is empty), and dropping one
/// pushes its box back, up to `WIRE_FRAME_POOL_CAP` (256). Every place a frame
/// ends — a switch or host consuming it, a link-down flush, a discarded
/// snapshot — returns the box by dropping the packet, so the model needs no
/// return path. Which box holds a frame never enters the simulation.
pub struct WireFrame(Option<Box<PauseFrame>>);

impl WireFrame {
    /// Puts `frame` into a recycled box, or a new one.
    pub fn new(frame: PauseFrame) -> Self {
        let recycled = FREE_FRAMES
            .try_with(|list| list.borrow_mut().pop())
            .ok()
            .flatten();
        WireFrame(Some(match recycled {
            Some(mut boxed) => {
                *boxed = frame;
                boxed
            }
            None => Box::new(frame),
        }))
    }
}

impl Drop for WireFrame {
    fn drop(&mut self) {
        let Some(boxed) = self.0.take() else { return };
        // `try_with`: during thread teardown the list may be gone, and the
        // box is simply freed (as it is past the cap).
        let _ = FREE_FRAMES.try_with(|list| {
            let mut list = list.borrow_mut();
            if list.len() < WIRE_FRAME_POOL_CAP {
                // One allocation for the list's whole life on the thread.
                let room = WIRE_FRAME_POOL_CAP - list.len();
                list.reserve_exact(room);
                list.push(boxed);
            }
        });
    }
}

impl std::ops::Deref for WireFrame {
    type Target = PauseFrame;
    fn deref(&self) -> &PauseFrame {
        self.0
            .as_deref()
            .expect("a wire frame owns its box until dropped")
    }
}

impl Clone for WireFrame {
    fn clone(&self) -> Self {
        WireFrame::new(**self)
    }
}

/// Prints the frame itself, as its box did.
impl std::fmt::Debug for WireFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

impl PartialEq for WireFrame {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

/// The frame's own bytes: a wire frame saves as the `Box<PauseFrame>` it
/// replaced did.
impl Snap for WireFrame {
    const MIN_BYTES: usize = PauseFrame::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }

    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        Ok(WireFrame::new(r.get()?))
    }
}

/// What kind of packet this is.
#[derive(Debug, Clone, PartialEq)]
pub enum PacketKind {
    /// Application data carried by an RDMA flow.
    Data,
    /// Cumulative acknowledgement (Go-Back-N): the packet's `seq` is the
    /// next sequence number the receiver expects. `is_nack` signals an
    /// out-of-order arrival and asks the sender to rewind to that `seq`.
    Ack {
        /// True if this is a negative acknowledgement (out-of-order data).
        is_nack: bool,
    },
    /// DCQCN congestion notification packet sent by the receiver NIC.
    Cnp,
    /// Priority Flow Control pause (`pause == true`) or resume frame for the
    /// single traffic class the evaluation models.
    PfcPause {
        /// True to pause the upstream transmitter, false to resume it.
        pause: bool,
    },
    /// BFC per-flow pause frame: a bloom filter over paused VFIDs for one
    /// ingress link. The frame lives out of line ([`WireFrame`]), so this
    /// rare control variant does not inflate every `Packet` by the 128-byte
    /// inline filter, and its box is recycled, so a steady stream of frames
    /// does not allocate.
    FlowPause {
        /// Snapshot of the downstream switch's counting bloom filter.
        frame: WireFrame,
    },
}

bfc_sim::snap_enum!(PacketKind, "unknown packet kind tag" {
    0 => Data,
    1 => Ack { is_nack },
    2 => Cnp,
    3 => PfcPause { pause },
    4 => FlowPause { frame },
});

/// A packet's ECN codepoint (RFC 3168). A switch RED-marks only an
/// ECN-capable packet — `Ect`, or `Ce` that an earlier switch marked — and a
/// mark sets `Ce`; the receiver answers `Ce` with a CNP. A DCQCN sender
/// sends its data `Ect`, and every other packet is `NotEct`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Ecn {
    /// Not ECN-capable: never marked.
    #[default]
    NotEct,
    /// ECN-capable transport: a congested switch may mark it.
    Ect,
    /// Congestion experienced: marked by a switch.
    Ce,
}

// The codepoints' wire values, ECT(0) for `Ect`.
bfc_sim::snap_enum!(Ecn, "unknown ECN codepoint" {
    0 => NotEct,
    2 => Ect,
    1 => Ce,
});

/// A packet (or control frame) traversing the network.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Flow this packet belongs to. Control frames use `FlowId(u32::MAX)`.
    pub flow: FlowId,
    /// Originating host (for data) or the node that generated the control frame.
    pub src: NodeId,
    /// Destination host (for data/ACK/CNP). Control frames are consumed by the
    /// adjacent node and carry their own destination here as well.
    pub dst: NodeId,
    /// Packet sequence number within the flow (packets, not bytes). For an
    /// ACK or NACK it is the cumulative sequence number: the next packet the
    /// receiver expects. Zero for every other control frame.
    pub seq: u64,
    /// Size on the wire in bytes (payload + header).
    pub size_bytes: u32,
    /// Virtual flow ID: `hash(5-tuple) mod num_vfids`, computed once at the
    /// sender so every switch sees the same value (§3.3).
    pub vfid: u32,
    /// Set by the sender NIC on the first packet of a flow so switches can
    /// steer it to the high-priority queue (§3.7).
    pub first_of_flow: bool,
    /// ECN codepoint: `Ect` on DCQCN data, turned `Ce` by a switch whose
    /// egress queue exceeds the marking threshold.
    pub ecn: Ecn,
    /// INT header: on HPCC data, the telemetry accumulated hop by hop; on an
    /// ACK, the echo of its data packet's; no header on anything else. An
    /// 8-byte handle ([`IntPath`]): the records live out of line.
    pub int: IntPath,
    /// What the packet is.
    pub kind: PacketKind,
}

bfc_sim::snap_struct! {
    Packet {
        flow, src, dst, seq, size_bytes, vfid, first_of_flow, ecn, int, kind,
    }
}

/// Maximum transmission unit in bytes: the paper's 1 KB for every experiment
/// (§4.1). Flows are cut into packets of this size (only the last may be
/// shorter), and it is every egress port's deficit-round-robin quantum.
pub const MTU: u32 = 1_000;
/// Conventional wire size of an ACK/CNP/NACK frame.
pub const ACK_SIZE_BYTES: u32 = 64;
/// Conventional wire size of a PFC pause frame.
pub const PFC_FRAME_BYTES: u32 = 64;
/// Hash functions of a pause frame's bloom filter: the paper's 4 (§4.1). A
/// VFID maps to this many bit positions, in a switch's counting filter and
/// in every frame it sends ([`PauseFrame::bit_position`]).
pub const PAUSE_FRAME_HASHES: u32 = 4;

impl Packet {
    /// Builds a data packet.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        size_bytes: u32,
        vfid: u32,
        first_of_flow: bool,
    ) -> Self {
        Packet {
            flow,
            src,
            dst,
            seq,
            size_bytes,
            vfid,
            first_of_flow,
            ecn: Ecn::NotEct,
            int: IntPath::new(),
            kind: PacketKind::Data,
        }
    }

    /// Builds an ACK (or NACK when `is_nack`) from receiver `src` back to
    /// sender `dst`, carrying in `seq` the cumulative sequence number: the
    /// next packet the receiver expects.
    pub fn ack(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        is_nack: bool,
        int: IntPath,
    ) -> Self {
        Packet {
            flow,
            src,
            dst,
            seq,
            size_bytes: ACK_SIZE_BYTES,
            vfid: 0,
            first_of_flow: false,
            ecn: Ecn::NotEct,
            int,
            kind: PacketKind::Ack { is_nack },
        }
    }

    /// Builds a DCQCN congestion notification packet from receiver `src` to
    /// sender `dst`.
    pub fn cnp(flow: FlowId, src: NodeId, dst: NodeId) -> Self {
        Packet {
            flow,
            src,
            dst,
            seq: 0,
            size_bytes: ACK_SIZE_BYTES,
            vfid: 0,
            first_of_flow: false,
            ecn: Ecn::NotEct,
            int: IntPath::new(),
            kind: PacketKind::Cnp,
        }
    }

    /// Builds a PFC pause/resume frame originated by `src` toward the
    /// adjacent node `dst`.
    pub fn pfc(src: NodeId, dst: NodeId, pause: bool) -> Self {
        Packet {
            flow: FlowId(u32::MAX),
            src,
            dst,
            seq: 0,
            size_bytes: PFC_FRAME_BYTES,
            vfid: 0,
            first_of_flow: false,
            ecn: Ecn::NotEct,
            int: IntPath::new(),
            kind: PacketKind::PfcPause { pause },
        }
    }

    /// Builds a BFC flow-pause frame originated by `src` toward the adjacent
    /// upstream node `dst`.
    pub fn flow_pause(src: NodeId, dst: NodeId, frame: PauseFrame) -> Self {
        let size = frame.size_bytes() as u32;
        Packet {
            flow: FlowId(u32::MAX),
            src,
            dst,
            seq: 0,
            size_bytes: size,
            vfid: 0,
            first_of_flow: false,
            ecn: Ecn::NotEct,
            int: IntPath::new(),
            kind: PacketKind::FlowPause {
                frame: WireFrame::new(frame),
            },
        }
    }

    /// True for application data.
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data)
    }
}

/// Computes the stable 64-bit hash of a flow's 5-tuple. The evaluation
/// identifies flows by their dense [`FlowId`]; mixing it with a network-wide
/// salt stands in for hashing the real 5-tuple, and every switch derives the
/// same value.
pub fn flow_tuple_hash(flow: FlowId, salt: u64) -> u64 {
    mix64(flow.0 as u64 ^ salt.rotate_left(17))
}

/// Maps a flow's 5-tuple hash into the VFID space of size `num_vfids`.
pub fn vfid_for_flow(flow: FlowId, salt: u64, num_vfids: u32) -> u32 {
    debug_assert!(num_vfids > 0);
    (flow_tuple_hash(flow, salt) % num_vfids as u64) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pause_frame_membership() {
        let mut f = PauseFrame::new(128);
        assert!(f.is_empty());
        f.insert(42);
        f.insert(1000);
        assert!(f.contains(42));
        assert!(f.contains(1000));
        assert!(!f.is_empty());
        // With a 1024-bit filter and 8 set bits, an arbitrary other VFID is
        // overwhelmingly unlikely to be a false positive.
        let fp = (0..2000u32)
            .filter(|v| ![42, 1000].contains(v) && f.contains(*v))
            .count();
        assert_eq!(fp, 0);
    }

    #[test]
    fn pause_frame_popcount_counts_distinct_bits() {
        let mut f = PauseFrame::new(16);
        f.insert(7);
        assert!(f.popcount() <= 4);
        assert!(f.popcount() >= 1);
    }

    #[test]
    fn tiny_filter_has_false_positives_eventually() {
        // A 16-byte filter (128 bits) with many inserted flows must produce
        // false positives — this is the degradation Fig. 14 studies.
        let mut f = PauseFrame::new(16);
        for v in 0..60 {
            f.insert(v);
        }
        let fp = (1000..4000u32).filter(|v| f.contains(*v)).count();
        assert!(
            fp > 0,
            "expected some false positives in a saturated filter"
        );
    }

    #[test]
    fn bit_positions_are_deterministic() {
        let a = PauseFrame::bit_position(5, 0, 1024);
        let b = PauseFrame::bit_position(5, 0, 1024);
        assert_eq!(a, b);
        assert!(a < 1024);
    }

    #[test]
    fn int_header_is_part_of_the_paths_value() {
        let hop = |ts| IntHop {
            qlen_bytes: 1,
            tx_bytes: 2,
            timestamp_ps: ts,
            link_gbps: 100.0,
        };
        let mut path = IntPath::header();
        assert!(path.is_empty() && path.has_header());
        path.push(hop(1));
        path.push(hop(2));
        assert_eq!(path.len(), 2);
        assert_eq!(path[1].timestamp_ps, 2);
        assert_eq!(path, IntPath::from_slice(&[hop(1), hop(2)]));
        // Moving the handle moves the header; clearing keeps it.
        let mut moved = std::mem::take(&mut path);
        assert!(path.is_empty() && !path.has_header());
        assert_eq!(moved.len(), 2);
        moved.clear();
        assert!(moved.is_empty() && moved.has_header());
        // An empty header is not "no header", in equality, clone and codec.
        assert_ne!(moved, IntPath::new());
        assert_eq!(moved, IntPath::header());
        assert!(moved.clone().has_header() && !IntPath::new().clone().has_header());
        let bytes = |path: &IntPath| {
            let mut w = SnapWriter::new();
            path.save(&mut w);
            w.into_bytes()
        };
        assert_eq!(bytes(&IntPath::new()), [0]);
        assert_eq!(bytes(&moved), [1]);
        assert_eq!(bytes(&IntPath::from_slice(&[hop(1)]))[0], 2);
    }

    #[test]
    #[should_panic(expected = "without an INT header")]
    fn int_records_need_a_header() {
        IntPath::new().push(IntPath::EMPTY_HOP);
    }

    #[test]
    #[should_panic(expected = "INT-recording hops")]
    fn int_path_rejects_more_than_max_hops() {
        let mut path = IntPath::header();
        for _ in 0..=MAX_INT_HOPS {
            path.push(IntPath::EMPTY_HOP);
        }
    }

    #[test]
    fn constructors_set_expected_fields() {
        let d = Packet::data(FlowId(1), NodeId(2), NodeId(3), 4, 1000, 77, true);
        assert!(d.is_data());
        assert!(d.first_of_flow);
        assert_eq!(d.size_bytes, 1000);

        let a = Packet::ack(FlowId(1), NodeId(3), NodeId(2), 5, false, IntPath::new());
        assert!(!a.is_data());
        assert_eq!(a.size_bytes, ACK_SIZE_BYTES);
        assert_eq!(a.seq, 5);
        assert_eq!(a.kind, PacketKind::Ack { is_nack: false });

        let p = Packet::pfc(NodeId(1), NodeId(0), true);
        assert!(!p.is_data());
        let f = Packet::flow_pause(NodeId(1), NodeId(0), PauseFrame::new(128));
        assert!(!f.is_data());
        assert_eq!(f.size_bytes, 128);
        let c = Packet::cnp(FlowId(9), NodeId(3), NodeId(2));
        assert!(!c.is_data());
    }

    /// Boxes the calling thread's free list holds.
    fn pooled() -> usize {
        FREE_FRAMES.with(|list| list.borrow().len())
    }

    #[test]
    fn a_threads_free_list_stops_at_its_cap() {
        std::thread::scope(|s| {
            s.spawn(|| {
                let frames: Vec<WireFrame> = (0..WIRE_FRAME_POOL_CAP + 10)
                    .map(|_| WireFrame::new(PauseFrame::new(128)))
                    .collect();
                assert_eq!(pooled(), 0);
                drop(frames);
                assert_eq!(pooled(), WIRE_FRAME_POOL_CAP);
                // The next frames reuse the boxes the list holds.
                let again: Vec<WireFrame> = (0..3)
                    .map(|_| WireFrame::new(PauseFrame::new(16)))
                    .collect();
                assert_eq!(pooled(), WIRE_FRAME_POOL_CAP - 3);
                assert!(again.iter().all(|f| f.size_bytes() == 16 && f.is_empty()));
            });
        });
    }

    #[test]
    fn a_frame_sent_on_one_thread_can_end_on_another() {
        let mut frame = PauseFrame::new(128);
        frame.insert(42);
        let packets = std::thread::scope(|s| {
            s.spawn(|| {
                let packets: Vec<Packet> = (0..8)
                    .map(|_| Packet::flow_pause(NodeId(1), NodeId(0), frame))
                    .collect();
                assert_eq!(pooled(), 0);
                packets
            })
            .join()
            .expect("the sending thread")
        });
        std::thread::scope(|s| {
            s.spawn(move || {
                for packet in &packets {
                    let PacketKind::FlowPause { frame: wire } = &packet.kind else {
                        panic!("a flow-pause packet");
                    };
                    assert_eq!(**wire, frame);
                }
                drop(packets);
                assert_eq!(pooled(), 8, "the consuming thread keeps the boxes");
                let reused = Packet::flow_pause(NodeId(1), NodeId(0), PauseFrame::new(64));
                assert_eq!(pooled(), 7);
                assert_eq!(reused.size_bytes, 64);
            });
        });
    }

    #[test]
    fn a_flow_pause_packet_clones_and_saves_as_its_boxed_frame_did() {
        let mut frame = PauseFrame::new(16);
        frame.set_bit(0);
        frame.set_bit(127);
        let packet = Packet::flow_pause(NodeId(1), NodeId(0), frame);
        let copy = packet.clone();
        assert_eq!(copy, packet);
        assert_ne!(
            copy,
            Packet::flow_pause(NodeId(1), NodeId(0), PauseFrame::new(16))
        );
        let bytes = |save: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            save(&mut w);
            w.into_bytes()
        };
        let PacketKind::FlowPause { frame: wire } = &packet.kind else {
            panic!("a flow-pause packet");
        };
        // The frame's bytes: `num_bits`, then all 16 words of the inline
        // array, as `Box<PauseFrame>` wrote them.
        let mut pinned = 128u32.to_le_bytes().to_vec();
        pinned.extend(1u64.to_le_bytes());
        pinned.extend((1u64 << 63).to_le_bytes());
        pinned.extend([0; 14 * 8]);
        assert_eq!(bytes(&|w| wire.save(w)), pinned);
        assert_eq!(bytes(&|w| Box::new(frame).save(w)), pinned);
        // In the packet: the kind's tag 4, then the frame.
        let whole = bytes(&|w| packet.save(w));
        assert_eq!(whole[whole.len() - pinned.len() - 1], 4);
        assert!(whole.ends_with(&pinned));
        let mut r = SnapReader::new(&whole);
        assert_eq!(Packet::restore(&mut r), Ok(packet));
    }

    #[test]
    fn vfid_is_stable_and_in_range() {
        for flow in 0..1000u32 {
            let v1 = vfid_for_flow(FlowId(flow), 0xabc, 16384);
            let v2 = vfid_for_flow(FlowId(flow), 0xabc, 16384);
            assert_eq!(v1, v2);
            assert!(v1 < 16384);
        }
        // Different salts give (almost surely) different assignments.
        assert_ne!(
            (0..64u32)
                .map(|f| vfid_for_flow(FlowId(f), 1, 1 << 20))
                .collect::<Vec<_>>(),
            (0..64u32)
                .map(|f| vfid_for_flow(FlowId(f), 2, 1 << 20))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn small_vfid_space_collides() {
        // With 1024 VFIDs and 4096 flows there must be collisions (Fig. 13).
        let mut seen = std::collections::HashSet::new();
        let mut collisions = 0;
        for f in 0..4096u32 {
            if !seen.insert(vfid_for_flow(FlowId(f), 7, 1024)) {
                collisions += 1;
            }
        }
        assert!(collisions > 0);
    }
}
