//! Packets, control frames and HPCC in-band telemetry.
//!
//! Everything that travels on a link is a [`Packet`]. Data, acknowledgements
//! and congestion-notification packets traverse switch queues like ordinary
//! traffic (ACK-class packets ride the strict-priority control queue);
//! PFC pause frames and BFC flow-pause frames are MAC-level control frames
//! delivered out of band (they never sit behind data in an egress queue).

use bfc_sim::rng::mix64;
use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

use crate::types::{FlowId, NodeId};

/// Telemetry appended by each switch hop when HPCC-style INT is enabled.
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
/// buffer serves a packet for its whole path and can be handed from data
/// packet to ACK to sender and back without ever growing. The experiment
/// runner checks a topology's switch-hop diameter against this constant at
/// set-up when the scheme enables INT; a deeper custom topology needs it
/// raised.
pub const MAX_INT_HOPS: usize = 6;

/// Out-of-line storage behind an [`IntPath`].
#[derive(Debug, Clone)]
struct IntBuf {
    len: u8,
    hops: [IntHop; MAX_INT_HOPS],
}

/// Per-hop INT records carried by a packet: an 8-byte handle to out-of-line
/// storage for up to [`MAX_INT_HOPS`] records.
///
/// Only HPCC ever records telemetry, so the handle is empty (no storage) on
/// every packet of every other scheme and a `Packet` stays within one cache
/// line. Storage is allocated by the first [`IntPath::push`] and then
/// travels by move: from the data packet into its ACK at the receiver, into
/// the sender's HPCC state, and — [`IntPath::clear`]ed — back into the
/// sender's next data packet, so a steady-state HPCC flow allocates nothing.
#[derive(Debug, Default)]
pub struct IntPath(Option<Box<IntBuf>>);

impl IntPath {
    const EMPTY_HOP: IntHop = IntHop {
        qlen_bytes: 0,
        tx_bytes: 0,
        timestamp_ps: 0,
        link_gbps: 0.0,
    };

    /// An empty telemetry path (no storage).
    pub const fn new() -> Self {
        IntPath(None)
    }

    /// Appends one hop record, allocating the storage if this is the first
    /// record the path ever held. Panics if the packet has already traversed
    /// [`MAX_INT_HOPS`] switches — the experiment runner rejects topologies
    /// that deep before the run starts.
    pub fn push(&mut self, hop: IntHop) {
        let buf = self.0.get_or_insert_with(|| {
            Box::new(IntBuf {
                len: 0,
                hops: [Self::EMPTY_HOP; MAX_INT_HOPS],
            })
        });
        assert!(
            (buf.len as usize) < MAX_INT_HOPS,
            "packet traversed more than {MAX_INT_HOPS} INT-recording hops"
        );
        buf.hops[buf.len as usize] = hop;
        buf.len += 1;
    }

    /// Forgets the recorded hops but keeps the storage, so the next
    /// [`IntPath::push`] does not allocate.
    pub fn clear(&mut self) {
        if let Some(buf) = &mut self.0 {
            buf.len = 0;
        }
    }

    /// True if the path owns storage (it held a record at some point), i.e.
    /// it is worth recycling into another packet.
    pub fn has_storage(&self) -> bool {
        self.0.is_some()
    }

    /// Number of recorded hops.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True if no hops were recorded.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The recorded hops, in traversal order.
    pub fn as_slice(&self) -> &[IntHop] {
        match &self.0 {
            Some(buf) => &buf.hops[..buf.len as usize],
            None => &[],
        }
    }

    /// Builds a path from a slice of at most [`MAX_INT_HOPS`] records.
    pub fn from_slice(hops: &[IntHop]) -> Self {
        let mut path = IntPath::new();
        for &hop in hops {
            path.push(hop);
        }
        path
    }
}

/// A one-byte hop count, then the hops.
impl Snap for IntPath {
    const MIN_BYTES: usize = u8::MIN_BYTES;

    fn save(&self, w: &mut SnapWriter) {
        w.put_u8(self.len() as u8);
        w.put_all(self.as_slice());
    }

    // Hand-written: the count is a byte, it is checked against the storage
    // bound `push` would otherwise panic on, and an empty path restores
    // without storage.
    fn restore(r: &mut SnapReader<'_>) -> Result<Self, SnapError> {
        let len = r.get_u8()? as usize;
        if len > MAX_INT_HOPS {
            return Err(SnapError::Corrupt("INT path longer than MAX_INT_HOPS"));
        }
        let mut path = IntPath::new();
        for _ in 0..len {
            path.push(r.get()?);
        }
        Ok(path)
    }
}

/// A deep copy of the recorded hops; an empty path clones without
/// allocating, whether or not it owns storage.
impl Clone for IntPath {
    fn clone(&self) -> Self {
        IntPath::from_slice(self)
    }
}

/// Paths compare by their recorded hops, not by whether they own storage.
impl PartialEq for IntPath {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::ops::Deref for IntPath {
    type Target = [IntHop];
    fn deref(&self) -> &[IntHop] {
        self.as_slice()
    }
}

impl std::ops::Index<usize> for IntPath {
    type Output = IntHop;
    fn index(&self, i: usize) -> &IntHop {
        &self.as_slice()[i]
    }
}

impl<'a> IntoIterator for &'a IntPath {
    type Item = &'a IntHop;
    type IntoIter = std::slice::Iter<'a, IntHop>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
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
/// plain copies (the type is `Copy`); only putting a frame on the wire
/// allocates, once, to keep it out of every `Packet` (see
/// [`PacketKind::FlowPause`]).
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
    /// ingress link. The frame is boxed so this rare control variant does
    /// not inflate every `Packet` by the 128-byte inline filter; the one
    /// allocation happens per transmitted pause frame, never on the
    /// per-packet data path.
    FlowPause {
        /// Snapshot of the downstream switch's counting bloom filter.
        frame: Box<PauseFrame>,
    },
}

bfc_sim::snap_enum!(PacketKind, "unknown packet kind tag" {
    0 => Data,
    1 => Ack { is_nack },
    2 => Cnp,
    3 => PfcPause { pause },
    4 => FlowPause { frame },
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
    /// ECN congestion-experienced mark set by switches when the egress queue
    /// exceeds the marking threshold.
    pub ecn_ce: bool,
    /// HPCC in-band telemetry accumulated hop by hop (empty unless INT is
    /// enabled). For ACKs this is the echo of the data packet's telemetry.
    /// An 8-byte handle ([`IntPath`]): the records live out of line.
    pub int: IntPath,
    /// What the packet is.
    pub kind: PacketKind,
}

bfc_sim::snap_struct! {
    Packet {
        flow, src, dst, seq, size_bytes, vfid, first_of_flow, ecn_ce, int, kind,
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
            ecn_ce: false,
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
            ecn_ce: false,
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
            ecn_ce: false,
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
            ecn_ce: false,
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
            ecn_ce: false,
            int: IntPath::new(),
            kind: PacketKind::FlowPause {
                frame: Box::new(frame),
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
        assert!(fp > 0, "expected some false positives in a saturated filter");
    }

    #[test]
    fn bit_positions_are_deterministic() {
        let a = PauseFrame::bit_position(5, 0, 1024);
        let b = PauseFrame::bit_position(5, 0, 1024);
        assert_eq!(a, b);
        assert!(a < 1024);
    }

    #[test]
    fn int_path_allocates_once_and_recycles_its_storage() {
        let hop = |ts| IntHop {
            qlen_bytes: 1,
            tx_bytes: 2,
            timestamp_ps: ts,
            link_gbps: 100.0,
        };
        let mut path = IntPath::new();
        assert!(path.is_empty() && !path.has_storage());
        path.push(hop(1));
        path.push(hop(2));
        assert_eq!(path.len(), 2);
        assert_eq!(path[1].timestamp_ps, 2);
        assert_eq!(path, IntPath::from_slice(&[hop(1), hop(2)]));
        // Moving the handle moves the records; clearing keeps the storage.
        let mut moved = std::mem::take(&mut path);
        assert!(path.is_empty() && !path.has_storage());
        assert_eq!(moved.len(), 2);
        moved.clear();
        assert!(moved.is_empty() && moved.has_storage());
        // Equality and the wire format ignore whether storage is held.
        assert_eq!(moved, IntPath::new());
        assert!(!moved.clone().has_storage());
        let (mut a, mut b) = (SnapWriter::new(), SnapWriter::new());
        moved.save(&mut a);
        IntPath::new().save(&mut b);
        assert_eq!(a.into_bytes(), b.into_bytes());
    }

    #[test]
    #[should_panic(expected = "INT-recording hops")]
    fn int_path_rejects_more_than_max_hops() {
        let mut path = IntPath::new();
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
            (0..64u32).map(|f| vfid_for_flow(FlowId(f), 1, 1 << 20)).collect::<Vec<_>>(),
            (0..64u32).map(|f| vfid_for_flow(FlowId(f), 2, 1 << 20)).collect::<Vec<_>>()
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
