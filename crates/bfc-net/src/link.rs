//! Point-to-point link model.
//!
//! A [`Link`] describes one direction of a full-duplex cable: a capacity in
//! Gbps and a propagation delay. Serialization (store-and-forward) is modelled
//! by the egress port that owns the link: a packet of `n` bytes occupies the
//! transmitter for `n * 8 / rate` and arrives at the peer one propagation
//! delay after serialization completes.

use bfc_sim::{SimDuration, SimTime};

/// One direction of a cable between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// Capacity in gigabits per second.
    pub rate_gbps: f64,
    /// Propagation delay.
    pub propagation: SimDuration,
}

impl Link {
    /// Creates a link with the given rate and propagation delay.
    pub fn new(rate_gbps: f64, propagation: SimDuration) -> Self {
        assert!(rate_gbps > 0.0, "link rate must be positive");
        Link {
            rate_gbps,
            propagation,
        }
    }

    /// The paper's default intra-data-center link: 100 Gbps, 1 µs propagation.
    pub fn datacenter_default() -> Self {
        Link::new(100.0, SimDuration::from_micros(1))
    }

    /// Time to serialize `bytes` bytes onto this link.
    pub fn serialization(&self, bytes: u32) -> SimDuration {
        SimDuration::for_bytes_at_gbps(bytes as u64, self.rate_gbps)
    }

    /// Time from the start of transmission until the last bit arrives at the
    /// peer (serialization + propagation).
    pub fn delivery_delay(&self, bytes: u32) -> SimDuration {
        self.serialization(bytes) + self.propagation
    }

    /// The time at which a packet started now would finish arriving.
    pub fn arrival_time(&self, now: SimTime, bytes: u32) -> SimTime {
        now + self.delivery_delay(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_matches_rate() {
        let l = Link::datacenter_default();
        assert_eq!(l.serialization(1000).as_nanos(), 80);
        assert_eq!(l.delivery_delay(1000).as_nanos(), 1080);
    }

    #[test]
    fn arrival_time_adds_delay() {
        let l = Link::new(10.0, SimDuration::from_nanos(500));
        let t = l.arrival_time(SimTime::from_nanos(100), 125);
        // 125 bytes at 10 Gbps = 100 ns serialization.
        assert_eq!(t.as_nanos(), 100 + 100 + 500);
    }

    #[test]
    #[should_panic(expected = "link rate must be positive")]
    fn zero_rate_rejected() {
        let _ = Link::new(0.0, SimDuration::ZERO);
    }
}
