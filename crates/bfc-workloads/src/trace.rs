//! Trace synthesis: complete lists of flows (source, destination, size,
//! start time) fed to the simulation driver.

use bfc_net::types::NodeId;
use bfc_sim::{SimDuration, SimRng, SimTime};

use crate::arrivals::{mean_interarrival_secs, ArrivalShape, IncastSchedule};
use crate::distributions::Workload;

/// One flow of a synthesized trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFlow {
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Application bytes.
    pub size_bytes: u64,
    /// Arrival time (when the sender may begin transmitting).
    pub start: SimTime,
    /// True for flows belonging to an incast event. The paper reports FCT
    /// slowdowns only for the non-incast traffic.
    pub is_incast: bool,
}

/// Parameters of the paper's standard background-plus-incast traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceParams {
    /// Flow-size distribution of the background traffic.
    pub workload: Workload,
    /// Background offered load as a fraction of aggregate host bandwidth
    /// (e.g. 0.60 for the 60% + 5% incast experiments).
    pub load: f64,
    /// Additional offered load contributed by incast events (0 disables
    /// incast).
    pub incast_load: f64,
    /// Number of senders per incast event (the paper's default is 100-to-1).
    pub incast_fan_in: usize,
    /// Aggregate size of one incast event in bytes (20 MB in the paper).
    pub incast_total_bytes: u64,
    /// Trace duration.
    pub duration: SimDuration,
    /// Host access-link rate in Gbps.
    pub host_gbps: f64,
    /// RNG seed.
    pub seed: u64,
    /// Shape of the background inter-arrival gaps (paper: log-normal σ = 2).
    pub arrivals: ArrivalShape,
    /// How incast events are spaced (paper: strictly periodic).
    pub incast_schedule: IncastSchedule,
}

impl TraceParams {
    /// The Fig. 5a configuration: Google workload, 60% background load plus
    /// 5% incast (100-to-1, 20 MB), at 100 Gbps.
    pub fn google_with_incast(duration: SimDuration, seed: u64) -> Self {
        TraceParams {
            workload: Workload::Google,
            load: 0.60,
            incast_load: 0.05,
            incast_fan_in: 100,
            incast_total_bytes: 20_000_000,
            duration,
            host_gbps: 100.0,
            seed,
            arrivals: ArrivalShape::paper_default(),
            incast_schedule: IncastSchedule::paper_default(),
        }
    }

    /// Background-only traffic at the given load (Fig. 5c uses 65%).
    pub fn background_only(
        workload: Workload,
        load: f64,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        TraceParams {
            workload,
            load,
            incast_load: 0.0,
            incast_fan_in: 0,
            incast_total_bytes: 0,
            duration,
            host_gbps: 100.0,
            seed,
            arrivals: ArrivalShape::paper_default(),
            incast_schedule: IncastSchedule::paper_default(),
        }
    }

    /// Overrides the background arrival shape.
    pub fn with_arrivals(mut self, arrivals: ArrivalShape) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Overrides the incast event schedule.
    pub fn with_incast_schedule(mut self, schedule: IncastSchedule) -> Self {
        self.incast_schedule = schedule;
        self
    }
}

fn pick_distinct_pair(hosts: &[NodeId], rng: &mut SimRng) -> (NodeId, NodeId) {
    assert!(hosts.len() >= 2, "need at least two hosts");
    let src = *rng.choose(hosts);
    loop {
        let dst = *rng.choose(hosts);
        if dst != src {
            return (src, dst);
        }
    }
}

/// The most senders one incast event of a synthesized trace may have: 12.5 ×
/// the largest fan-in Fig. 8 sweeps at paper scale (800). An event holds one
/// flow per sender, so this bounds what one event allocates.
const MAX_INCAST_FAN_IN: usize = 10_000;

/// The most flows a synthesized trace may be expected to hold: 78 × the
/// largest figure trace (Fig. 5's full-scale Google trace on T1, 214 189
/// flows). Each input is bounded on its own, but their product is what
/// [`synthesize`] allocates.
const MAX_TRACE_FLOWS: usize = 1 << 24;

impl TraceParams {
    /// Checks the inputs [`synthesize`] asserts on or could not finish
    /// with over `hosts` hosts: `load` in (0, 1.5] (NaN is not),
    /// `incast_load` in [0, 1.5], a positive `duration`, with incast on at
    /// least 1000 bytes per event (a tiny event makes the event period
    /// vanish) and a fan-in in [1, 10 000] (0 drops every incast flow; a huge
    /// one cannot be allocated), and an expected flow count — background
    /// arrivals plus incast events × fan-in — of at most 2^24. The message
    /// names the parameter as the `trace-tool synth` options and the `.scn`
    /// reproducer headers spell it.
    pub fn check(&self, hosts: usize) -> Result<(), String> {
        if !(self.load > 0.0 && self.load <= 1.5) {
            return Err(format!("load must be in (0, 1.5], got {}", self.load));
        }
        if !(0.0..=1.5).contains(&self.incast_load) {
            return Err(format!(
                "incast-load must be in [0, 1.5], got {}",
                self.incast_load
            ));
        }
        if self.incast_load > 0.0 {
            if self.incast_total_bytes < 1_000 {
                return Err(format!(
                    "incast-bytes must be at least 1000 when incast is on, got {}",
                    self.incast_total_bytes
                ));
            }
            if !(1..=MAX_INCAST_FAN_IN).contains(&self.incast_fan_in) {
                return Err(format!(
                    "fan-in must be in [1, {MAX_INCAST_FAN_IN}] when incast is on, got {}",
                    self.incast_fan_in
                ));
            }
        }
        if self.duration.is_zero() {
            return Err("duration must be positive".to_string());
        }
        // Bits the hosts can send in `duration`, split by the two loads.
        let bits = hosts as f64 * self.host_gbps * 1e9 * self.duration.as_secs_f64();
        let background = self.load * bits / 8.0 / self.workload.cdf().mean_bytes();
        let incast = if self.incast_load > 0.0 {
            self.incast_load * bits / 8.0 / self.incast_total_bytes as f64
                * self.incast_fan_in as f64
        } else {
            0.0
        };
        let flows = background + incast;
        if flows.is_nan() || flows > MAX_TRACE_FLOWS as f64 {
            return Err(format!(
                "load, incast-load, incast-bytes, fan-in and duration ask for about {flows:.0} \
                 flows on {hosts} hosts, more than the limit of {MAX_TRACE_FLOWS}"
            ));
        }
        Ok(())
    }
}

/// Synthesizes the paper's standard workload: background arrivals matching
/// `params.load` (log-normal gaps by default; see [`TraceParams::arrivals`]),
/// plus incast events adding `params.incast_load` of extra traffic on the
/// schedule of [`TraceParams::incast_schedule`].
pub fn synthesize(hosts: &[NodeId], params: &TraceParams) -> Vec<TraceFlow> {
    let mut rng = SimRng::new(params.seed);
    let cdf = params.workload.cdf();
    let mean_size = cdf.mean_bytes();
    let horizon = SimTime::ZERO + params.duration;
    let mut flows = Vec::new();

    // Background traffic.
    if params.load > 0.0 {
        let mean_gap =
            mean_interarrival_secs(params.load, hosts.len(), params.host_gbps, mean_size);
        let mut arrival_rng = rng.split(1);
        let mut size_rng = rng.split(2);
        let mut pair_rng = rng.split(3);
        for start in params
            .arrivals
            .arrivals_until(mean_gap, horizon, &mut arrival_rng)
        {
            let (src, dst) = pick_distinct_pair(hosts, &mut pair_rng);
            flows.push(TraceFlow {
                src,
                dst,
                size_bytes: cdf.sample(&mut size_rng).max(1),
                start,
                is_incast: false,
            });
        }
    }

    // Incast events. The byte guard matters: a zero event size would make
    // the event rate infinite (period zero) below.
    if params.incast_load > 0.0 && params.incast_fan_in > 0 && params.incast_total_bytes > 0 {
        let aggregate_bps = hosts.len() as f64 * params.host_gbps * 1e9;
        let event_bits = params.incast_total_bytes as f64 * 8.0;
        let events_per_sec = params.incast_load * aggregate_bps / event_bits;
        let period = SimDuration::from_secs_f64(1.0 / events_per_sec);
        let mut incast_rng = rng.split(4);
        let mut schedule_rng = rng.split(5);
        for t in params
            .incast_schedule
            .events_until(period, horizon, &mut schedule_rng)
        {
            flows.extend(incast_event(
                hosts,
                params.incast_fan_in,
                params.incast_total_bytes,
                t,
                &mut incast_rng,
            ));
        }
    }

    flows.sort_by_key(|f| f.start);
    flows
}

/// One incast event: `fan_in` random senders each send an equal share of
/// `total_bytes` to one random receiver, all starting at `start`.
pub fn incast_event(
    hosts: &[NodeId],
    fan_in: usize,
    total_bytes: u64,
    start: SimTime,
    rng: &mut SimRng,
) -> Vec<TraceFlow> {
    assert!(hosts.len() >= 2);
    let receiver = *rng.choose(hosts);
    let per_sender = (total_bytes / fan_in as u64).max(1);
    let mut senders: Vec<NodeId> = hosts.iter().copied().filter(|h| *h != receiver).collect();
    rng.shuffle(&mut senders);
    senders
        .iter()
        .cycle()
        .take(fan_in)
        .map(|&src| TraceFlow {
            src,
            dst: receiver,
            size_bytes: per_sender,
            start,
            is_incast: true,
        })
        .collect()
}

/// Periodic incast (Fig. 8): one incast of `total_bytes` split over `fan_in`
/// senders every `period`, for `duration`.
pub fn incast_trace(
    hosts: &[NodeId],
    fan_in: usize,
    total_bytes: u64,
    period: SimDuration,
    duration: SimDuration,
    seed: u64,
) -> Vec<TraceFlow> {
    let mut rng = SimRng::new(seed);
    // `Periodic` draws nothing from `rng`: it feeds only the events' picks.
    IncastSchedule::Periodic
        .events_until(period, SimTime::ZERO + duration, &mut rng)
        .into_iter()
        .flat_map(|t| incast_event(hosts, fan_in, total_bytes, t, &mut rng))
        .collect()
}

/// Long-lived background flows for Fig. 8: `per_receiver` flows to every host
/// from random other senders, each long enough to last the whole experiment.
pub fn long_lived_per_receiver(
    hosts: &[NodeId],
    per_receiver: usize,
    size_bytes: u64,
    seed: u64,
) -> Vec<TraceFlow> {
    let mut rng = SimRng::new(seed);
    let mut flows = Vec::new();
    for &receiver in hosts {
        for _ in 0..per_receiver {
            let src = loop {
                let s = *rng.choose(hosts);
                if s != receiver {
                    break s;
                }
            };
            flows.push(TraceFlow {
                src,
                dst: receiver,
                size_bytes,
                start: SimTime::ZERO,
                is_incast: false,
            });
        }
    }
    flows
}

/// `n` concurrent long-lived flows to a single receiver from distinct senders
/// (Fig. 10's buffer-occupancy experiment). Senders are reused round-robin if
/// `n` exceeds the number of other hosts.
pub fn concurrent_long_flows(
    hosts: &[NodeId],
    receiver: NodeId,
    n: usize,
    size_bytes: u64,
) -> Vec<TraceFlow> {
    let senders: Vec<NodeId> = hosts.iter().copied().filter(|h| *h != receiver).collect();
    assert!(!senders.is_empty());
    (0..n)
        .map(|i| TraceFlow {
            src: senders[i % senders.len()],
            dst: receiver,
            size_bytes,
            start: SimTime::ZERO,
            is_incast: false,
        })
        .collect()
}

/// The cross-data-center mix of Fig. 9: background traffic where
/// `inter_dc_fraction` of flows cross between the two host groups and the
/// rest stay inside one data center.
pub fn cross_dc_trace(
    dc0_hosts: &[NodeId],
    dc1_hosts: &[NodeId],
    params: &TraceParams,
    inter_dc_fraction: f64,
) -> Vec<TraceFlow> {
    let all: Vec<NodeId> = dc0_hosts.iter().chain(dc1_hosts.iter()).copied().collect();
    let mut rng = SimRng::new(params.seed ^ 0xc0ffee);
    let cdf = params.workload.cdf();
    let mean_size = cdf.mean_bytes();
    let mean_gap = mean_interarrival_secs(params.load, all.len(), params.host_gbps, mean_size);
    let horizon = SimTime::ZERO + params.duration;
    let mut arrival_rng = rng.split(1);
    let mut size_rng = rng.split(2);
    let mut pair_rng = rng.split(3);
    let mut kind_rng = rng.split(4);
    params
        .arrivals
        .arrivals_until(mean_gap, horizon, &mut arrival_rng)
        .into_iter()
        .map(|start| {
            let inter = kind_rng.chance(inter_dc_fraction);
            let (src, dst) = if inter {
                let src = *pair_rng.choose(dc0_hosts);
                let dst = *pair_rng.choose(dc1_hosts);
                if pair_rng.chance(0.5) {
                    (src, dst)
                } else {
                    (dst, src)
                }
            } else if pair_rng.chance(0.5) {
                pick_distinct_pair(dc0_hosts, &mut pair_rng)
            } else {
                pick_distinct_pair(dc1_hosts, &mut pair_rng)
            };
            TraceFlow {
                src,
                dst,
                size_bytes: cdf.sample(&mut size_rng).max(1),
                start,
                is_incast: false,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hosts(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn synthesized_load_is_close_to_target() {
        let hosts = hosts(64);
        let params =
            TraceParams::background_only(Workload::Google, 0.5, SimDuration::from_millis(5), 7);
        let flows = synthesize(&hosts, &params);
        assert!(!flows.is_empty());
        let bytes: u64 = flows.iter().map(|f| f.size_bytes).sum();
        let offered = bytes as f64 * 8.0 / 5e-3;
        let target = 0.5 * 64.0 * 100e9;
        let ratio = offered / target;
        assert!(
            (0.6..1.4).contains(&ratio),
            "offered/target = {ratio} ({} flows)",
            flows.len()
        );
        // Sorted by start time, all before the horizon, no self-flows.
        for w in flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        assert!(flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn check_accepts_the_paper_shapes_and_refuses_each_bad_input() {
        let ms = SimDuration::from_millis(1);
        let paper = TraceParams::google_with_incast(ms, 1);
        let background = TraceParams::background_only(Workload::Google, 1.5, ms, 1);
        assert_eq!(paper.check(64), Ok(()));
        assert_eq!(background.check(64), Ok(()));
        type Edit = fn(&mut TraceParams);
        let cases: [(&str, Edit); 10] = [
            ("load", |p| p.load = 2.0),
            ("load", |p| p.load = 0.0),
            ("load", |p| p.load = f64::NAN),
            ("incast-load", |p| p.incast_load = -0.1),
            ("incast-load", |p| p.incast_load = f64::NAN),
            ("incast-bytes", |p| p.incast_total_bytes = 999),
            ("fan-in", |p| p.incast_fan_in = 0),
            ("fan-in", |p| p.incast_fan_in = 10_001),
            ("duration", |p| p.duration = SimDuration::ZERO),
            ("", |p| p.incast_fan_in = 10_000),
        ];
        for (refused, edit) in cases {
            let mut params = paper;
            edit(&mut params);
            match params.check(64) {
                Ok(()) => assert!(refused.is_empty(), "{refused} must be refused"),
                Err(e) => assert!(!refused.is_empty() && e.starts_with(refused), "{e}"),
            }
        }
        // With incast off, its event size and fan-in are not read.
        let mut no_incast = background;
        no_incast.incast_total_bytes = 1;
        assert_eq!(no_incast.check(64), Ok(()));
    }

    #[test]
    fn check_bounds_the_expected_flow_count() {
        let limit = MAX_TRACE_FLOWS as f64;
        // The largest figure trace: Fig. 5a at full scale on T1's 128 hosts.
        let fig5 = TraceParams::google_with_incast(SimDuration::from_millis(4), 1);
        assert_eq!(fig5.check(128), Ok(()));
        // The bound is on the product of the inputs: 45 000 incast events of
        // 10 000 senders each, or 1.5 × 8 hosts × 100 Gbps of Google flows
        // for 10 s, are each refused, though every input is in range.
        let incast = TraceParams {
            incast_load: 1.5,
            incast_total_bytes: 1_000,
            incast_fan_in: 10_000,
            ..TraceParams::google_with_incast(SimDuration::from_micros(300), 1)
        };
        let background = TraceParams::background_only(
            Workload::Google,
            1.5,
            SimDuration::from_millis(10_000),
            1,
        );
        for params in [incast, background] {
            let e = params.check(8).expect_err("refused");
            assert!(
                e.starts_with("load, incast-load") && e.contains("16777216"),
                "{e}"
            );
        }
        // The count is linear in the host count, and incast adds events ×
        // fan-in: find the largest accepted host count and check both sides.
        let background =
            TraceParams::background_only(Workload::Google, 1.0, SimDuration::from_millis(1), 1);
        let per_host = 100e9 * 1e-3 / 8.0 / Workload::Google.cdf().mean_bytes();
        let most = (limit / per_host) as usize;
        assert_eq!(background.check(most), Ok(()));
        assert!(background.check(most + 2).is_err());
        let mut with_incast = background;
        with_incast.incast_load = 0.5;
        with_incast.incast_total_bytes = 1_000;
        with_incast.incast_fan_in = 10;
        assert!(with_incast.check(most).is_err());
    }

    #[test]
    fn incast_adds_the_requested_extra_load() {
        let hosts = hosts(64);
        let params = TraceParams::google_with_incast(SimDuration::from_millis(5), 3);
        let flows = synthesize(&hosts, &params);
        let incast_bytes: u64 = flows
            .iter()
            .filter(|f| f.is_incast)
            .map(|f| f.size_bytes)
            .sum();
        let incast_load = incast_bytes as f64 * 8.0 / 5e-3 / (64.0 * 100e9);
        assert!(
            (0.02..0.08).contains(&incast_load),
            "incast load {incast_load}"
        );
        // Each incast event has the right fan-in and one receiver.
        let first_start = flows
            .iter()
            .find(|f| f.is_incast)
            .map(|f| f.start)
            .expect("incast flows exist");
        let event: Vec<&TraceFlow> = flows
            .iter()
            .filter(|f| f.is_incast && f.start == first_start)
            .collect();
        assert_eq!(event.len(), 100);
        assert!(event.iter().all(|f| f.dst == event[0].dst));
    }

    #[test]
    fn zero_byte_incast_is_disabled_rather_than_divergent() {
        // incast_total_bytes = 0 would make the event period zero; the
        // branch must be skipped like fan_in = 0, not loop forever.
        let hosts = hosts(8);
        let params = TraceParams {
            incast_total_bytes: 0,
            ..TraceParams::google_with_incast(SimDuration::from_micros(200), 2)
        };
        let flows = synthesize(&hosts, &params);
        assert!(flows.iter().all(|f| !f.is_incast));
        assert!(!flows.is_empty());
    }

    #[test]
    fn bursty_arrivals_and_clustered_incast_keep_the_offered_load() {
        let hosts = hosts(64);
        let params = TraceParams::google_with_incast(SimDuration::from_millis(5), 13)
            .with_arrivals(ArrivalShape::bursty_default())
            .with_incast_schedule(IncastSchedule::LogNormalGaps { sigma: 1.0 });
        let flows = synthesize(&hosts, &params);
        let bytes: u64 = flows
            .iter()
            .filter(|f| !f.is_incast)
            .map(|f| f.size_bytes)
            .sum();
        let ratio = bytes as f64 * 8.0 / 5e-3 / (0.60 * 64.0 * 100e9);
        assert!(
            (0.5..1.5).contains(&ratio),
            "background offered/target = {ratio}"
        );
        for w in flows.windows(2) {
            assert!(w[0].start <= w[1].start);
        }
        // Same seed, same trace; the variants are deterministic too.
        assert_eq!(flows, synthesize(&hosts, &params));
    }

    #[test]
    fn deterministic_given_seed() {
        let hosts = hosts(16);
        let params = TraceParams::google_with_incast(SimDuration::from_millis(1), 42);
        assert_eq!(synthesize(&hosts, &params), synthesize(&hosts, &params));
        let other = TraceParams { seed: 43, ..params };
        assert_ne!(synthesize(&hosts, &params), synthesize(&hosts, &other));
    }

    #[test]
    fn periodic_incast_trace_fires_every_period() {
        let hosts = hosts(32);
        let flows = incast_trace(
            &hosts,
            10,
            20_000_000,
            SimDuration::from_micros(500),
            SimDuration::from_millis(2),
            1,
        );
        // 4 events * 10 senders.
        assert_eq!(flows.len(), 40);
        let starts: std::collections::BTreeSet<u64> =
            flows.iter().map(|f| f.start.as_nanos()).collect();
        assert_eq!(starts.len(), 4);
        assert_eq!(flows[0].size_bytes, 2_000_000);
    }

    #[test]
    fn incast_event_reuses_senders_when_fan_in_exceeds_hosts() {
        let hosts = hosts(8);
        let mut rng = SimRng::new(5);
        let flows = incast_event(&hosts, 20, 20_000, SimTime::ZERO, &mut rng);
        assert_eq!(flows.len(), 20);
        assert!(flows.iter().all(|f| f.src != f.dst));
    }

    #[test]
    fn long_lived_and_concurrent_helpers() {
        let hosts = hosts(16);
        let ll = long_lived_per_receiver(&hosts, 4, 1_000_000_000, 9);
        assert_eq!(ll.len(), 64);
        assert!(ll.iter().all(|f| f.src != f.dst));

        let cc = concurrent_long_flows(&hosts, hosts[3], 40, 5_000_000);
        assert_eq!(cc.len(), 40);
        assert!(cc.iter().all(|f| f.dst == hosts[3] && f.src != hosts[3]));
    }

    #[test]
    fn cross_dc_trace_mixes_intra_and_inter() {
        let dc0 = hosts(32);
        let dc1: Vec<NodeId> = (100..132).map(NodeId).collect();
        let params = TraceParams {
            workload: Workload::FbHadoop,
            load: 0.65,
            incast_load: 0.0,
            incast_fan_in: 0,
            incast_total_bytes: 0,
            duration: SimDuration::from_millis(2),
            host_gbps: 10.0,
            seed: 4,
            arrivals: ArrivalShape::paper_default(),
            incast_schedule: IncastSchedule::paper_default(),
        };
        let flows = cross_dc_trace(&dc0, &dc1, &params, 0.2);
        assert!(!flows.is_empty());
        let is_inter = |f: &TraceFlow| (f.src.0 < 100) != (f.dst.0 < 100);
        let inter = flows.iter().filter(|f| is_inter(f)).count() as f64 / flows.len() as f64;
        assert!((0.1..0.3).contains(&inter), "inter-DC fraction {inter}");
    }
}
