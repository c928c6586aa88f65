//! Shared-buffer memory model.
//!
//! Modern data-center switches share one packet buffer across all ports
//! (the paper uses 12 MB, matching Broadcom Tomahawk3's buffer-to-capacity
//! ratio). This module accounts for total occupancy plus per-ingress-port
//! occupancy — the latter drives the dynamic PFC threshold: the paper
//! triggers PFC "when traffic from an input port occupies more than 11% of
//! the free buffer", and an ingress resumes its upstream once it falls below
//! a hysteresis fraction of that threshold, so pause and resume frames do
//! not oscillate every packet. An infinite buffer (`u64::MAX` bytes, the
//! Ideal-FQ and SFQ+InfBuffer baselines) runs no PFC: no ingress can ever
//! hold 11 % of it, so the threshold is not even computed.

use bfc_sim::snapshot::{Snap, SnapError, SnapReader, SnapWriter};

/// Fraction of the *free* shared buffer one ingress may occupy before a PFC
/// pause frame is sent upstream.
const PFC_THRESHOLD_FRACTION: f64 = 0.11;

/// A paused ingress resumes its upstream once its occupancy falls below this
/// fraction of the current pause threshold.
pub const PFC_RESUME_FRACTION: f64 = 0.85;

/// The PFC pause threshold in bytes given the currently free shared buffer.
pub fn pfc_pause_threshold(free_bytes: u64) -> u64 {
    (PFC_THRESHOLD_FRACTION * free_bytes as f64) as u64
}

/// Shared packet buffer of one switch.
#[derive(Debug)]
pub struct SharedBuffer {
    capacity: u64,
    occupancy: u64,
    per_ingress: Vec<u64>,
    /// Ingress ports that currently have an outstanding PFC pause toward
    /// their upstream.
    pfc_paused_upstream: Vec<bool>,
    /// Cached PFC pause threshold, keyed by the occupancy it was computed
    /// at. The dynamic threshold is a float function of the *free* buffer,
    /// so it only changes when total occupancy does — one "region" is a
    /// maximal run of evaluations at constant occupancy. Within a region
    /// (every ingress of a link-down flush, repeated checks between buffer
    /// movements) the float math runs once instead of per call; the cached
    /// value is byte-exact, so PFC decisions are unchanged.
    pfc_cache: Option<(u64, u64)>,
}

impl SharedBuffer {
    /// Creates a buffer with `capacity` bytes shared across `num_ports`
    /// ingress ports. Use `u64::MAX` for the infinite-buffer baselines.
    pub fn new(capacity: u64, num_ports: usize) -> Self {
        SharedBuffer {
            capacity,
            occupancy: 0,
            per_ingress: vec![0; num_ports],
            pfc_paused_upstream: vec![false; num_ports],
            pfc_cache: None,
        }
    }

    /// Bytes currently stored.
    pub fn occupancy(&self) -> u64 {
        self.occupancy
    }

    /// Bytes currently stored that arrived via `ingress`.
    pub fn ingress_occupancy(&self, ingress: u32) -> u64 {
        self.per_ingress[ingress as usize]
    }

    /// Free bytes.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.occupancy)
    }

    /// Tries to admit a packet of `bytes` arriving on `ingress`. Returns
    /// false if the packet does not fit.
    pub fn admit(&mut self, bytes: u32, ingress: u32) -> bool {
        let bytes = bytes as u64;
        if self.occupancy.saturating_add(bytes) > self.capacity {
            return false;
        }
        self.occupancy += bytes;
        self.per_ingress[ingress as usize] += bytes;
        true
    }

    /// Releases a packet of `bytes` that arrived on `ingress` (called when
    /// the packet starts transmission out of the switch).
    pub fn release(&mut self, bytes: u32, ingress: u32) {
        let bytes = bytes as u64;
        debug_assert!(self.occupancy >= bytes, "buffer release underflow");
        debug_assert!(
            self.per_ingress[ingress as usize] >= bytes,
            "ingress release underflow"
        );
        self.occupancy -= bytes;
        self.per_ingress[ingress as usize] -= bytes;
    }

    /// PFC decision for `ingress` after an arrival or departure. Returns
    /// `Some(true)` if a pause frame must be sent upstream now, `Some(false)`
    /// if a resume frame must be sent, and `None` if nothing changes — always
    /// `None` for an infinite buffer.
    pub fn pfc_transition(&mut self, ingress: u32) -> Option<bool> {
        if self.capacity == u64::MAX {
            return None;
        }
        let idx = ingress as usize;
        let threshold = self.pfc_threshold();
        let occ = self.per_ingress[idx];
        if !self.pfc_paused_upstream[idx] && occ > threshold {
            self.pfc_paused_upstream[idx] = true;
            Some(true)
        } else if self.pfc_paused_upstream[idx]
            && (occ as f64) < PFC_RESUME_FRACTION * threshold as f64
        {
            self.pfc_paused_upstream[idx] = false;
            Some(false)
        } else {
            None
        }
    }

    /// The dynamic pause threshold for the current occupancy, recomputed
    /// only when the occupancy has moved out of the cached region (see
    /// `pfc_cache`).
    #[inline]
    fn pfc_threshold(&mut self) -> u64 {
        if let Some((occ, threshold)) = self.pfc_cache {
            if occ == self.occupancy {
                debug_assert_eq!(threshold, pfc_pause_threshold(self.free()));
                return threshold;
            }
        }
        let threshold = pfc_pause_threshold(self.free());
        self.pfc_cache = Some((self.occupancy, threshold));
        threshold
    }

    /// Whether this switch currently has a PFC pause outstanding toward the
    /// upstream of `ingress`.
    pub fn upstream_paused(&self, ingress: u32) -> bool {
        self.pfc_paused_upstream[ingress as usize]
    }

    /// Serializes the buffer's mutable state for snapshot/restore.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let SharedBuffer {
            capacity: _, // configuration
            occupancy,
            per_ingress,
            pfc_paused_upstream,
            pfc_cache: _, // memoization
        } = self;
        occupancy.save(w);
        per_ingress.save(w);
        w.put_all(pfc_paused_upstream);
    }

    /// Overlays state captured by [`SharedBuffer::save_state`] onto this
    /// buffer: checks the port count is the one it was built with and drops
    /// the threshold cache.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.occupancy = r.get()?;
        r.get_exact(&mut self.per_ingress, "shared-buffer port count mismatch")?;
        r.fill(&mut self.pfc_paused_upstream)?;
        self.pfc_cache = None;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admit_and_release_track_occupancy() {
        let mut b = SharedBuffer::new(10_000, 4);
        assert!(b.admit(4_000, 0));
        assert!(b.admit(4_000, 1));
        assert_eq!(b.occupancy(), 8_000);
        assert_eq!(b.ingress_occupancy(0), 4_000);
        assert_eq!(b.free(), 2_000);
        assert!(!b.admit(4_000, 2), "over-capacity admit must fail");
        b.release(4_000, 0);
        assert_eq!(b.occupancy(), 4_000);
        assert_eq!(b.ingress_occupancy(0), 0);
    }

    #[test]
    fn pfc_threshold_tracks_free_buffer() {
        assert_eq!(pfc_pause_threshold(1_000_000), 110_000);
        assert_eq!(pfc_pause_threshold(0), 0);
    }

    #[test]
    fn infinite_buffer_never_drops() {
        let mut b = SharedBuffer::new(u64::MAX, 1);
        for _ in 0..1_000 {
            assert!(b.admit(1_000_000, 0));
        }
    }

    #[test]
    fn pfc_pause_and_resume_transitions() {
        let mut b = SharedBuffer::new(1_000_000, 2);
        // Fill ingress 0 until it exceeds 11% of the free buffer.
        let mut paused = false;
        for _ in 0..200 {
            b.admit(1_000, 0);
            if let Some(p) = b.pfc_transition(0) {
                paused = p;
                break;
            }
        }
        assert!(paused, "ingress should eventually trigger PFC");
        // Draining it back down must eventually produce a resume.
        let mut resumed = false;
        while b.ingress_occupancy(0) > 0 {
            b.release(1_000, 0);
            if let Some(p) = b.pfc_transition(0) {
                assert!(!p);
                resumed = true;
                break;
            }
        }
        assert!(resumed, "ingress should eventually resume");
    }

    #[test]
    fn an_infinite_buffer_never_transitions() {
        let mut b = SharedBuffer::new(u64::MAX, 2);
        for _ in 0..1_000 {
            b.admit(1_000_000_000, 0);
            assert_eq!(b.pfc_transition(0), None);
        }
        assert!(!b.upstream_paused(0));
    }

    #[test]
    fn independent_ingress_accounting() {
        let mut b = SharedBuffer::new(1_000_000, 3);
        // Ingress 1 fills; ingress 2 stays empty and must not be paused.
        for _ in 0..60 {
            b.admit(1_000, 1);
            b.pfc_transition(1);
        }
        assert_eq!(b.pfc_transition(2), None);
        assert!(!b.upstream_paused(2));
    }
}
