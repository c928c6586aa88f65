//! BFC configuration: the five settings the paper varies, and the §3.4
//! pause threshold over its fixed hop RTT.

use bfc_net::config::PAUSE_FRAME_INTERVAL;
use bfc_sim::SimDuration;

/// One-hop round-trip time (HRTT, §4.1: 2 µs): the time for a pause to reach
/// the upstream and its effect to arrive back.
const HOP_RTT: SimDuration = SimDuration::from_micros(2);

/// The pause threshold in bytes for an egress link of `link_gbps` with
/// `n_active` active (unpaused, backlogged) queues:
/// `(HRTT + τ) · µ / Nactive` (§3.4), τ being
/// [`bfc_net::config::PAUSE_FRAME_INTERVAL`].
pub fn pause_threshold_bytes(link_gbps: f64, n_active: usize) -> u64 {
    let horizon = HOP_RTT + PAUSE_FRAME_INTERVAL;
    let bytes_per_sec = link_gbps * 1e9 / 8.0;
    let n = n_active.max(1) as f64;
    (horizon.as_secs_f64() * bytes_per_sec / n) as u64
}

/// Configuration of the BFC switch policy: the settings the paper's
/// evaluation varies (Figs. 7, 10, 11, 13 and 14). Everything it fixes is a
/// constant next to the code that reads it.
///
/// The defaults are the paper's evaluation settings (§4.1): 16 K VFIDs,
/// 128-byte bloom filters, and dynamic queue assignment with the
/// high-priority queue and resume limiting enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BfcConfig {
    /// Size of the VFID space and of the flow hash table (one bucket per
    /// VFID).
    pub num_vfids: u32,
    /// Bloom-filter pause frame size in bytes.
    pub bloom_bytes: usize,
    /// Dynamic queue assignment (true = BFC, false = the BFC-VFID straw
    /// proposal that statically hashes flows to queues).
    pub dynamic_assignment: bool,
    /// Steer the first packet of each flow to the high-priority queue
    /// (false = the BFC-HighPriorityQ ablation).
    pub use_high_priority_queue: bool,
    /// Limit resumes per physical queue per pause interval (false = the
    /// BFC-BufferOpt ablation that resumes every eligible flow immediately).
    pub limit_resumes: bool,
}

impl Default for BfcConfig {
    fn default() -> Self {
        BfcConfig {
            num_vfids: 16_384,
            bloom_bytes: 128,
            dynamic_assignment: true,
            use_high_priority_queue: true,
            limit_resumes: true,
        }
    }
}

impl BfcConfig {
    /// The straw proposal of §3.2: static hashed queue assignment
    /// (everything else identical to BFC, including the high-priority queue,
    /// matching the Fig. 7 comparison).
    pub fn vfid_straw() -> Self {
        BfcConfig {
            dynamic_assignment: false,
            ..BfcConfig::default()
        }
    }

    /// The BFC-BufferOpt ablation of Fig. 10: resume every eligible flow as
    /// soon as its queue drops below the threshold.
    pub fn without_resume_limit() -> Self {
        BfcConfig {
            limit_resumes: false,
            ..BfcConfig::default()
        }
    }

    /// The BFC-HighPriorityQ ablation of Fig. 11: first packets share the
    /// ordinary physical queues.
    pub fn without_high_priority_queue() -> Self {
        BfcConfig {
            use_high_priority_queue: false,
            ..BfcConfig::default()
        }
    }

    /// Overrides the VFID-space size (Fig. 13 sensitivity sweep).
    pub fn with_num_vfids(mut self, num_vfids: u32) -> Self {
        self.num_vfids = num_vfids;
        self
    }

    /// Overrides the bloom-filter size in bytes (Fig. 14 sensitivity sweep).
    ///
    /// Panics for sizes beyond [`bfc_net::packet::MAX_PAUSE_FRAME_BYTES`]
    /// (128, the paper's default and the top of the Fig. 14 sweep): pause
    /// frames store their bits inline at that capacity, and failing here
    /// beats a delayed panic on the first pause-frame tick mid-simulation.
    pub fn with_bloom_bytes(mut self, bytes: usize) -> Self {
        assert!(
            bytes > 0 && bytes <= bfc_net::packet::MAX_PAUSE_FRAME_BYTES,
            "bloom filter must be 1..={} bytes, got {bytes}",
            bfc_net::packet::MAX_PAUSE_FRAME_BYTES
        );
        self.bloom_bytes = bytes;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = BfcConfig::default();
        assert_eq!(c.num_vfids, 16_384);
        assert_eq!(c.bloom_bytes, 128);
        assert_eq!(HOP_RTT, SimDuration::from_micros(2));
        assert_eq!(PAUSE_FRAME_INTERVAL, HOP_RTT / 2);
        assert!(c.dynamic_assignment && c.use_high_priority_queue && c.limit_resumes);
    }

    #[test]
    fn threshold_formula() {
        // (2us + 1us) * 12.5 GB/s = 37500 bytes with one active queue.
        assert_eq!(pause_threshold_bytes(100.0, 1), 37_500);
        assert_eq!(pause_threshold_bytes(100.0, 3), 12_500);
        // Zero active queues is clamped to one.
        assert_eq!(pause_threshold_bytes(100.0, 0), 37_500);
        // Lower link speeds shrink the threshold proportionally.
        assert_eq!(pause_threshold_bytes(10.0, 1), 3_750);
    }

    #[test]
    fn ablation_constructors() {
        assert!(!BfcConfig::vfid_straw().dynamic_assignment);
        assert!(!BfcConfig::without_resume_limit().limit_resumes);
        assert!(!BfcConfig::without_high_priority_queue().use_high_priority_queue);
        let c = BfcConfig::default()
            .with_num_vfids(1024)
            .with_bloom_bytes(16);
        assert_eq!(c.num_vfids, 1024);
        assert_eq!(c.bloom_bytes, 16);
    }

    #[test]
    #[should_panic(expected = "bloom filter must be 1..=128 bytes")]
    fn oversized_bloom_is_rejected_at_configuration_time() {
        // Pause frames store their bits inline with a 128-byte capacity;
        // an oversized filter must fail here, not on the first pause tick.
        let _ = BfcConfig::default().with_bloom_bytes(256);
    }
}
