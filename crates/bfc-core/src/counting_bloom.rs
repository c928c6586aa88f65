//! Counting bloom filter kept at the downstream switch (§3.6).
//!
//! The paper sends pauses as a plain multistage bloom filter but keeps a
//! *counting* version internally: each bit position has a small counter so
//! that when two paused VFIDs share a bit, resuming one of them leaves the
//! bit set for the other. The on-the-wire [`PauseFrame`] is a snapshot of the
//! positions whose count is non-zero — kept up to date as counts cross zero,
//! so taking one (every dirty pause tick of every ingress) is a copy, not a
//! scan of the counters.

use bfc_net::packet::{PauseFrame, PAUSE_FRAME_HASHES};
use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// A counting bloom filter over the VFID space.
#[derive(Debug, Clone)]
pub struct CountingBloom {
    counts: Vec<u32>,
    /// The wire image: bit `pos` is set iff `counts[pos] > 0`. Also the
    /// filter's geometry (its bit count).
    image: PauseFrame,
    members: u64,
}

impl CountingBloom {
    /// Creates a filter whose snapshot is `size_bytes` long; each VFID
    /// counts on [`PAUSE_FRAME_HASHES`] positions.
    pub fn new(size_bytes: usize) -> Self {
        CountingBloom {
            counts: vec![0; size_bytes * 8],
            image: PauseFrame::new(size_bytes),
            members: 0,
        }
    }

    /// Records one pause of `vfid` (increments its bit positions).
    pub fn insert(&mut self, vfid: u32) {
        for i in 0..PAUSE_FRAME_HASHES {
            let pos = PauseFrame::bit_position(vfid, i, self.image.num_bits());
            let count = &mut self.counts[pos as usize];
            if *count == 0 {
                self.image.set_bit(pos);
            }
            *count += 1;
        }
        self.members += 1;
    }

    /// Records one resume of `vfid` (decrements its bit positions). Every
    /// `remove` must match an earlier `insert`; the policy maintains that
    /// invariant by pairing each pause with exactly one eventual resume.
    pub fn remove(&mut self, vfid: u32) {
        for i in 0..PAUSE_FRAME_HASHES {
            let pos = PauseFrame::bit_position(vfid, i, self.image.num_bits());
            let count = &mut self.counts[pos as usize];
            debug_assert!(*count > 0, "counting bloom underflow for vfid {vfid}");
            if *count == 1 {
                self.image.clear_bit(pos);
            }
            *count = count.saturating_sub(1);
        }
        debug_assert!(self.members > 0);
        self.members = self.members.saturating_sub(1);
    }

    /// True if `vfid` currently matches on all hash positions (it, or a
    /// colliding VFID, is paused).
    pub fn contains(&self, vfid: u32) -> bool {
        // Every bit of the image mirrors "its count is non-zero".
        self.image.contains(vfid)
    }

    /// Number of outstanding pauses (inserts minus removes).
    pub fn members(&self) -> u64 {
        self.members
    }

    /// True if no pauses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.members == 0
    }

    /// The on-the-wire pause frame: a plain bloom filter with a bit set
    /// wherever the count is non-zero.
    pub fn snapshot(&self) -> PauseFrame {
        self.image
    }

    /// Rebuilds the wire image from the counters.
    fn rescan_image(&mut self) {
        let mut image = PauseFrame::new(self.image.size_bytes());
        for (pos, &count) in self.counts.iter().enumerate() {
            if count > 0 {
                image.set_bit(pos as u32);
            }
        }
        self.image = image;
    }

    /// Serializes counts and membership for snapshot/restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let CountingBloom {
            counts,
            image: _, // derived from the counts; its geometry is configuration
            members,
        } = self;
        counts.save(w);
        members.save(w);
    }

    /// Overlays state captured by [`CountingBloom::save_state`] onto this
    /// filter: checks the counter count is the geometry it was built with,
    /// and rebuilds the wire image from the counters.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.get_exact(&mut self.counts, "counting-bloom geometry mismatch")?;
        self.members = r.get()?;
        self.rescan_image();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_round_trip() {
        let mut cb = CountingBloom::new(128);
        cb.insert(5);
        cb.insert(9);
        assert!(cb.contains(5) && cb.contains(9));
        assert_eq!(cb.members(), 2);
        cb.remove(5);
        assert!(!cb.contains(5));
        assert!(cb.contains(9));
        cb.remove(9);
        assert!(cb.is_empty());
        assert!(cb.snapshot().is_empty());
    }

    #[test]
    fn shared_bits_survive_one_resume() {
        // Force two VFIDs to collide by using a tiny filter; removing one
        // must keep the other paused because counts, not bits, are tracked.
        let mut cb = CountingBloom::new(1);
        cb.insert(1);
        cb.insert(2);
        cb.remove(1);
        assert!(cb.contains(2), "the other flow must stay paused");
    }

    #[test]
    fn snapshot_matches_membership() {
        let mut cb = CountingBloom::new(64);
        for v in [3u32, 14, 159, 2653] {
            cb.insert(v);
        }
        let frame = cb.snapshot();
        for v in [3u32, 14, 159, 2653] {
            assert!(frame.contains(v));
        }
        assert_eq!(frame.size_bytes(), 64);
    }

    #[test]
    fn restore_rebuilds_the_wire_image() {
        let mut cb = CountingBloom::new(64);
        for v in [3u32, 14, 14, 159] {
            cb.insert(v);
        }
        cb.remove(3);
        let mut w = SnapWriter::new();
        cb.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = CountingBloom::new(64);
        back.restore_state(&mut SnapReader::new(&bytes))
            .expect("restores");
        assert_eq!(back.snapshot(), cb.snapshot());
        assert!(!back.snapshot().is_empty());
    }

    #[test]
    fn saturated_filter_matches_everything_until_drained() {
        // A 1-byte filter (8 bit positions) saturates quickly: once every
        // position has a non-zero count, *any* VFID reads as paused (the
        // expected bloom false-positive regime) and the snapshot is all-ones.
        let mut cb = CountingBloom::new(1);
        for v in 0..64u32 {
            cb.insert(v);
        }
        assert_eq!(cb.members(), 64);
        for probe in [0u32, 7, 1_000, u32::MAX] {
            assert!(cb.contains(probe), "saturated filter must match {probe}");
        }
        assert_eq!(cb.snapshot().popcount(), 8, "snapshot is fully set");
        // Draining restores exact emptiness: counts, membership and snapshot
        // all return to zero even from deep saturation.
        for v in 0..64u32 {
            cb.remove(v);
        }
        assert!(cb.is_empty());
        assert_eq!(cb.members(), 0);
        assert_eq!(cb.snapshot().popcount(), 0);
        assert!(!cb.contains(0));
    }

    #[test]
    fn heavy_reinsertion_of_one_vfid_counts_correctly() {
        // Pausing the same flow many times must require exactly as many
        // resumes — counters, not bits, carry the state.
        let mut cb = CountingBloom::new(16);
        let n = 10_000u32;
        for _ in 0..n {
            cb.insert(77);
        }
        assert_eq!(cb.members(), n as u64);
        for _ in 0..n - 1 {
            cb.remove(77);
        }
        assert!(cb.contains(77), "one outstanding pause remains");
        cb.remove(77);
        assert!(!cb.contains(77));
        assert!(cb.is_empty());
    }

    #[test]
    fn double_pause_requires_double_resume() {
        let mut cb = CountingBloom::new(128);
        cb.insert(7);
        cb.insert(7);
        cb.remove(7);
        assert!(cb.contains(7), "still one outstanding pause");
        cb.remove(7);
        assert!(!cb.contains(7));
    }
}
