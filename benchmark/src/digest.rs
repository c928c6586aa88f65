//! The simulation digest: FNV-1a-64 over what a run simulated.
//!
//! Two runs with the same digest simulated the same thing, so a performance
//! change cites it as "simulation unchanged". No digest is committed: a
//! correctness change may legitimately move it.

use backpressure_flow_control::experiments::ExperimentResult;

/// One completed flow as the digest sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FlowOutcome {
    pub flow: u32,
    pub size_bytes: u64,
    pub fct_ps: u64,
    pub is_incast: bool,
}

/// A running FNV-1a-64 hash over experiments, in the order they are added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest::new()
    }
}

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Folds one experiment in: scheme name, every flow outcome sorted by
    /// flow (the order records were produced in does not matter), drops,
    /// completed flows and the simulated end time.
    pub fn add(
        &mut self,
        scheme: &str,
        flows: &[FlowOutcome],
        drops: u64,
        completed: u64,
        end_time_ps: u64,
    ) {
        self.u64(scheme.len() as u64);
        self.bytes(scheme.as_bytes());
        let mut flows = flows.to_vec();
        flows.sort_unstable();
        self.u64(flows.len() as u64);
        for f in &flows {
            self.u64(u64::from(f.flow));
            self.u64(f.size_bytes);
            self.u64(f.fct_ps);
            self.u64(u64::from(f.is_incast));
        }
        self.u64(drops);
        self.u64(completed);
        self.u64(end_time_ps);
    }

    /// The digest of a sequence of experiments.
    pub fn of<'a>(results: impl IntoIterator<Item = &'a ExperimentResult>) -> Digest {
        let mut d = Digest::new();
        for result in results {
            d.add_result(result);
        }
        d
    }

    /// Folds one [`ExperimentResult`] in.
    pub fn add_result(&mut self, result: &ExperimentResult) {
        let flows: Vec<FlowOutcome> = result
            .records
            .iter()
            .map(|r| FlowOutcome {
                flow: r.flow.0,
                size_bytes: r.size_bytes,
                fct_ps: r.fct.as_picos(),
                is_incast: r.is_incast,
            })
            .collect();
        self.add(
            &result.scheme,
            &flows,
            result.drops,
            result.completed_flows as u64,
            result.end_time.as_picos(),
        );
    }

    /// Folds another digest in (a run's digest over its traces).
    pub fn fold(&mut self, other: Digest) {
        self.u64(other.0);
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    /// The low 32 bits, which a JSON number holds exactly.
    pub fn low32(&self) -> u32 {
        self.0 as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flows() -> Vec<FlowOutcome> {
        (0..50u32)
            .map(|i| FlowOutcome {
                flow: i,
                size_bytes: 1_000 + u64::from(i) * 37,
                fct_ps: 5_000_000 + u64::from(i) * 1_001,
                is_incast: i % 7 == 0,
            })
            .collect()
    }

    fn digest_of(flows: &[FlowOutcome], drops: u64) -> u64 {
        let mut d = Digest::new();
        d.add("BFC", flows, drops, flows.len() as u64, 99_000_000);
        d.value()
    }

    #[test]
    fn digest_ignores_record_order() {
        let base = flows();
        let mut reversed = base.clone();
        reversed.reverse();
        let mut rotated = base.clone();
        rotated.rotate_left(17);
        assert_eq!(digest_of(&base, 0), digest_of(&reversed, 0));
        assert_eq!(digest_of(&base, 0), digest_of(&rotated, 0));
    }

    #[test]
    fn digest_moves_on_a_one_picosecond_fct_change() {
        let base = flows();
        let mut nudged = base.clone();
        nudged[31].fct_ps += 1;
        assert_ne!(digest_of(&base, 0), digest_of(&nudged, 0));
        assert_ne!(digest_of(&base, 0) as u32, digest_of(&nudged, 0) as u32);
        assert_ne!(digest_of(&base, 0), digest_of(&base, 1));
    }

    #[test]
    fn digest_depends_on_scheme_and_experiment_order() {
        let f = flows();
        let mut ab = Digest::new();
        ab.add("A", &f, 0, 50, 1);
        ab.add("B", &f, 0, 50, 1);
        let mut ba = Digest::new();
        ba.add("B", &f, 0, 50, 1);
        ba.add("A", &f, 0, 50, 1);
        assert_ne!(ab.value(), ba.value());
    }
}
