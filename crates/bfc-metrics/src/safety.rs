//! Safety analysis: PFC deadlock, pause storms, livelock.
//!
//! The PFC/BFC literature (and §2 of the paper) cares about three failure
//! modes that ordinary FCT/goodput metrics do not surface:
//!
//! * **PFC deadlock** — priority-flow-control pauses form a *wait-for
//!   graph*: when switch `Y` sends a pause frame to its upstream `X`, `X`'s
//!   egress toward `Y` stalls, so `X` waits for `Y`. A cycle in this graph
//!   that persists means no member can ever drain — the classic circular
//!   buffer dependency. Transient cycles do occur in healthy operation
//!   (pauses are short and release as queues drain), so only a cycle that
//!   survives at least [`DEADLOCK_HOLD`] counts as a
//!   violation; shorter-lived ones are tallied as `cycles_formed`.
//! * **Pause storms** — cascades of pause frames propagating upstream. We
//!   track the total pause-frame count, the worst per-link count inside any
//!   fixed [`STORM_WINDOW`], and the maximum *propagation
//!   depth*: a pause of `X` by `Y` while `Y` is itself paused by `Z` (which
//!   is paused by …) has depth `1 + depth(Y)`.
//! * **Livelock** — the fabric is "up", flows remain pending, and yet
//!   goodput is pinned at zero for at least
//!   [`LIVELOCK_HORIZON`] at the end of the run — the
//!   signature of flapping-link schedules that keep resetting recovery.
//!
//! A [`SafetyTracker`] accumulates the pause install/release edges from the
//! driver's PFC interception during a run; [`SafetyTracker::finish`] replays
//! the canonically-sorted edge log once, and reads the trailing stall off the
//! run's [`GoodputSeries`], into a [`SafetyReport`] and the distribution of
//! pause durations. Like every other
//! metric in this workspace, the report is bit-identical across shard
//! counts: each wait-for edge `X → Y` is recorded only by the shard that
//! owns `X`, per-edge order is preserved by the engine's determinism, and
//! the replay sorts stably by `(time, X, Y)` in both the serial and the
//! merged path.

use std::collections::BTreeMap;

use bfc_net::types::NodeId;
use bfc_sim::{SimDuration, SimTime};

use crate::hist::Hist;
use crate::series::GoodputSeries;

/// A wait-for cycle must persist this long to count as a deadlock (shorter
/// cycles are healthy transients and only tally `cycles_formed`): several
/// pause/resume round trips on a datacenter RTT.
pub const DEADLOCK_HOLD: SimDuration = SimDuration::from_micros(20);

/// Zero goodput for at least this long at the end of a run — while flows
/// remain pending — counts as livelock.
pub const LIVELOCK_HORIZON: SimDuration = SimDuration::from_micros(100);

/// Window for the worst per-link pause-frame count (the default sample
/// interval).
pub const STORM_WINDOW: SimDuration = SimDuration::from_micros(10);

/// One PFC wait-for edge observation: at `at`, the egress of `from` toward
/// `to` was paused (`pause`) or resumed (`!pause`) by a PFC frame from `to`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PauseEdge {
    at: SimTime,
    from: NodeId,
    to: NodeId,
    pause: bool,
}

bfc_sim::snap_struct! { PauseEdge { at, from, to, pause } }

/// Accumulates raw safety observations during a run. See the module docs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SafetyTracker {
    edges: Vec<PauseEdge>,
}

bfc_sim::snap_struct! { SafetyTracker { edges } }

impl SafetyTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        SafetyTracker::default()
    }

    /// Records a PFC frame delivery: `from`'s egress toward `to` pauses
    /// (`pause`) or resumes (`!pause`) at `now`. Call from the shard that
    /// owns `from`, in its processing order.
    pub fn record_pause(&mut self, now: SimTime, from: NodeId, to: NodeId, pause: bool) {
        self.edges.push(PauseEdge {
            at: now,
            from,
            to,
            pause,
        });
    }

    /// Merges per-shard trackers into the tracker one fabric-wide collector
    /// would have built. Edge logs concatenate (each `(from, *)` edge is
    /// recorded by exactly one shard; [`SafetyTracker::finish`] sorts
    /// canonically anyway).
    pub fn merge<'a>(parts: impl IntoIterator<Item = &'a SafetyTracker>) -> SafetyTracker {
        SafetyTracker {
            edges: parts
                .into_iter()
                .flat_map(|part| &part.edges)
                .copied()
                .collect(),
        }
    }

    /// Replays the observations into a [`SafetyReport`] and the
    /// distribution of PFC pause intervals per wait-for edge, in
    /// nanoseconds. `goodput` is the run's fabric-wide series (the livelock
    /// detector reads its trailing stall); `end` is the run's end time (it
    /// bounds the lifetime of never-released cycles and closes the pause
    /// intervals still open); `pending_flows` is how many flows had not
    /// completed by then (livelock needs at least one).
    ///
    /// An XOFF opens an interval on its edge (a refresh keeps the original
    /// install instant) and an XON closes it. The sort below keeps each
    /// edge's records in the order they were recorded, and a histogram does
    /// not care how the edges interleave, so a merged tracker's histogram is
    /// the serial one bit for bit.
    pub fn finish(
        mut self,
        goodput: &GoodputSeries,
        end: SimTime,
        pending_flows: usize,
    ) -> (SafetyReport, Hist) {
        let mut report = SafetyReport::default();
        let mut durations = Hist::new();

        // Canonical order: stable by (time, from, to), so the merged
        // per-shard logs and the serial log replay identically; same-key
        // events (install + release of one edge at one instant) keep the
        // owning shard's processing order.
        self.edges.sort_by_key(|e| (e.at, e.from, e.to));

        // Live wait-for edges with their install instant and propagation
        // depth.
        let mut live: Live = BTreeMap::new();
        // Cycles currently intact: formation time + member edges.
        let mut candidates: Vec<(SimTime, Vec<(NodeId, NodeId)>)> = Vec::new();
        // Streaming per-link storm-window counter: (window index, count).
        let mut storm: BTreeMap<(NodeId, NodeId), (u64, u64)> = BTreeMap::new();
        let storm_ps = STORM_WINDOW.as_picos();

        let confirm = |report: &mut SafetyReport,
                       formed: SimTime,
                       released: SimTime,
                       cycle: &[(NodeId, NodeId)]| {
            if released.saturating_since(formed) >= DEADLOCK_HOLD {
                report.deadlocks += 1;
                if report.first_deadlock_at.is_none() {
                    report.first_deadlock_at = Some(formed);
                    report.first_deadlock_cycle = cycle.iter().map(|&(a, _)| a).collect();
                }
            }
        };

        for e in &self.edges {
            let key = (e.from, e.to);
            if e.pause {
                report.pause_frames += 1;
                let window = e.at.as_picos() / storm_ps;
                let entry = storm.entry(key).or_insert((window, 0));
                if entry.0 != window {
                    *entry = (window, 0);
                }
                entry.1 += 1;
                report.max_link_window_frames = report.max_link_window_frames.max(entry.1);

                if live.contains_key(&key) {
                    // A refresh of an already-live edge: the wait-for graph
                    // is unchanged, so no new depth or cycle can arise.
                    continue;
                }
                let depth = 1 + live
                    .range((e.to, NodeId(0))..=(e.to, NodeId(u32::MAX)))
                    .map(|(_, &(_, d))| d)
                    .max()
                    .unwrap_or(0);
                live.insert(key, (e.at, depth));
                report.max_pause_depth = report.max_pause_depth.max(depth);

                // Does the new edge close a cycle? DFS from `to` back to
                // `from` over live edges (BTreeMap iteration order keeps it
                // deterministic).
                if let Some(path) = find_path(&live, e.to, e.from) {
                    report.cycles_formed += 1;
                    let mut cycle = vec![key];
                    cycle.extend(path);
                    candidates.push((e.at, cycle));
                }
            } else {
                if let Some((install, _)) = live.remove(&key) {
                    durations.observe(e.at.saturating_since(install).as_nanos());
                }
                // A released member breaks every cycle it participated in;
                // cycles that were held long enough are deadlocks.
                let mut kept = Vec::with_capacity(candidates.len());
                for (formed, cycle) in candidates.drain(..) {
                    if cycle.contains(&key) {
                        confirm(&mut report, formed, e.at, &cycle);
                    } else {
                        kept.push((formed, cycle));
                    }
                }
                candidates = kept;
            }
        }
        // Cycles still intact at the end of the run were held until `end`.
        for (formed, cycle) in candidates.drain(..) {
            confirm(&mut report, formed, end, &cycle);
        }
        // Pauses still installed at the end of the run were held until
        // `end`: a deadlocked edge contributes its full hold time.
        for (install, _) in live.into_values() {
            durations.observe(end.saturating_since(install).as_nanos());
        }

        // Livelock: flows pending, and the trailing span with zero goodput
        // is at least the horizon.
        if pending_flows > 0 {
            if let Some((last_tick, _)) = goodput.per_tick().next_back() {
                let stalled_from = goodput
                    .per_tick()
                    .rev()
                    .find(|&(_, d)| d > 0)
                    .map(|(t, _)| t)
                    .unwrap_or(SimTime::ZERO);
                report.stalled_for = last_tick.saturating_since(stalled_from);
                report.livelock = report.stalled_for >= LIVELOCK_HORIZON;
            }
        }
        (report, durations)
    }
}

/// The live wait-for edges of a replay, each with its install instant and
/// propagation depth.
type Live = BTreeMap<(NodeId, NodeId), (SimTime, u32)>;

/// DFS from `start` to `goal` over the live wait-for edges; returns the
/// path's edges in order, or `None` if unreachable.
fn find_path(live: &Live, start: NodeId, goal: NodeId) -> Option<Vec<(NodeId, NodeId)>> {
    let mut stack = vec![start];
    let mut parent: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    while let Some(node) = stack.pop() {
        if node == goal {
            // Walk parents back to `start`, collecting edges.
            let mut path = Vec::new();
            let mut at = goal;
            while at != start {
                let p = parent[&at];
                path.push((p, at));
                at = p;
            }
            path.reverse();
            return Some(path);
        }
        for (&(_, next), _) in live.range((node, NodeId(0))..=(node, NodeId(u32::MAX))) {
            if next != start && !parent.contains_key(&next) {
                parent.insert(next, node);
                stack.push(next);
            }
        }
    }
    None
}

/// The safety summary of one experiment run. `Default` is the all-clear.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SafetyReport {
    /// PFC pause (XOFF) frames delivered.
    pub pause_frames: u64,
    /// Deepest pause-propagation chain observed (0 = PFC never fired).
    pub max_pause_depth: u32,
    /// Worst pause-frame count on one directed link inside one storm
    /// window.
    pub max_link_window_frames: u64,
    /// Wait-for cycles observed at pause install, including healthy
    /// transients.
    pub cycles_formed: u64,
    /// Cycles that persisted at least [`DEADLOCK_HOLD`] — the PFC
    /// deadlock count. Non-zero is a safety violation.
    pub deadlocks: u64,
    /// Formation time of the first confirmed deadlock.
    pub first_deadlock_at: Option<SimTime>,
    /// The nodes of the first confirmed deadlock's cycle, in wait order.
    pub first_deadlock_cycle: Vec<NodeId>,
    /// Goodput pinned at zero past the horizon while flows were pending.
    /// A safety violation.
    pub livelock: bool,
    /// Length of the trailing zero-goodput span (diagnostic; only a
    /// violation when `livelock` is set).
    pub stalled_for: SimDuration,
}

impl SafetyReport {
    /// Number of safety violations: confirmed deadlocks plus livelock.
    pub fn violations(&self) -> u64 {
        self.deadlocks + u64::from(self.livelock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_sim::snapshot::{Snap, SnapReader, SnapWriter};

    fn us(n: u64) -> SimTime {
        SimTime::from_micros(n)
    }

    fn node(n: u32) -> NodeId {
        NodeId(n)
    }

    /// Builds the canonical constructed-positive: a three-switch circular
    /// buffer dependency A→B→C→A installed at t=10us.
    fn cycle_at_10us(t: &mut SafetyTracker) {
        t.record_pause(us(10), node(0), node(1), true);
        t.record_pause(us(10), node(1), node(2), true);
        t.record_pause(us(10), node(2), node(0), true);
    }

    #[test]
    fn persistent_cycle_is_a_deadlock() {
        let mut t = SafetyTracker::new();
        cycle_at_10us(&mut t);
        // Released after 40us — twice the 20us hold.
        t.record_pause(us(50), node(0), node(1), false);
        let r = t.finish(&GoodputSeries::new(), us(100), 0).0;
        assert_eq!(r.cycles_formed, 1);
        assert_eq!(r.deadlocks, 1);
        assert_eq!(r.violations(), 1);
        assert_eq!(r.first_deadlock_at, Some(us(10)));
        let mut nodes = r.first_deadlock_cycle.clone();
        nodes.sort();
        assert_eq!(nodes, vec![node(0), node(1), node(2)]);
    }

    #[test]
    fn transient_cycle_is_not_a_deadlock() {
        let mut t = SafetyTracker::new();
        cycle_at_10us(&mut t);
        // Broken after 5us — well under the hold: healthy PFC churn.
        t.record_pause(us(15), node(1), node(2), false);
        let r = t.finish(&GoodputSeries::new(), us(100), 0).0;
        assert_eq!(r.cycles_formed, 1);
        assert_eq!(r.deadlocks, 0);
        assert_eq!(r.violations(), 0);
    }

    #[test]
    fn unreleased_cycle_is_held_until_the_end_of_the_run() {
        let mut t = SafetyTracker::new();
        cycle_at_10us(&mut t);
        let r = t.clone().finish(&GoodputSeries::new(), us(25), 0).0;
        assert_eq!(r.deadlocks, 0, "held 15us < 20us hold");
        let r = t.finish(&GoodputSeries::new(), us(100), 0).0;
        assert_eq!(r.deadlocks, 1, "held 90us at run end");
    }

    #[test]
    fn pause_depth_chains_through_live_edges() {
        let mut t = SafetyTracker::new();
        // C pauses B first, then B pauses A: A's pause has depth 2.
        t.record_pause(us(10), node(1), node(2), true);
        t.record_pause(us(11), node(0), node(1), true);
        let r = t.finish(&GoodputSeries::new(), us(100), 0).0;
        assert_eq!(r.max_pause_depth, 2);
        assert_eq!(r.pause_frames, 2);
        // Released edges no longer deepen later pauses.
        let mut t = SafetyTracker::new();
        t.record_pause(us(10), node(1), node(2), true);
        t.record_pause(us(12), node(1), node(2), false);
        t.record_pause(us(14), node(0), node(1), true);
        let r = t.finish(&GoodputSeries::new(), us(100), 0).0;
        assert_eq!(r.max_pause_depth, 1);
    }

    #[test]
    fn storm_window_tracks_the_worst_link() {
        assert_eq!(STORM_WINDOW, SimDuration::from_micros(10));
        let mut t = SafetyTracker::new();
        // Three pause/release rounds on one link inside one window, one
        // round on another link.
        for i in 0..3u64 {
            t.record_pause(us(20) + SimDuration::from_micros(i), node(0), node(1), true);
            t.record_pause(
                us(20) + SimDuration::from_micros(i) + SimDuration::from_nanos(100),
                node(0),
                node(1),
                false,
            );
        }
        t.record_pause(us(21), node(2), node(3), true);
        let r = t.finish(&GoodputSeries::new(), us(100), 0).0;
        assert_eq!(r.pause_frames, 4);
        assert_eq!(r.max_link_window_frames, 3);
        // The same three rounds spread across distinct windows peak at 1.
        let mut t = SafetyTracker::new();
        for i in 0..3u64 {
            t.record_pause(us(20 + 10 * i), node(0), node(1), true);
            t.record_pause(us(25 + 10 * i), node(0), node(1), false);
        }
        let r = t.finish(&GoodputSeries::new(), us(100), 0).0;
        assert_eq!(r.max_link_window_frames, 1);
    }

    #[test]
    fn livelock_needs_pending_flows_and_a_long_stall() {
        assert_eq!(LIVELOCK_HORIZON, SimDuration::from_micros(100));
        let t = SafetyTracker::new();
        let mut g = GoodputSeries::new();
        let mut cumulative = 0;
        for i in 1..=5u64 {
            cumulative += 1_000;
            g.record(us(i * 10), cumulative);
        }
        for i in 6..=20u64 {
            g.record(us(i * 10), cumulative); // zero from t=60 on
        }
        // Stalled 150us ≥ 100us horizon with flows pending: livelock.
        let r = t.clone().finish(&g, us(200), 3).0;
        assert!(r.livelock);
        assert_eq!(r.stalled_for, SimDuration::from_micros(150));
        assert_eq!(r.violations(), 1);
        // Same trace with everything completed: not a livelock.
        let r = t.clone().finish(&g, us(200), 0).0;
        assert!(!r.livelock);
        assert_eq!(r.violations(), 0);
        // A short trailing stall with flows pending: not a livelock either.
        let mut g = GoodputSeries::new();
        g.record(us(10), 1_000);
        g.record(us(20), 1_000);
        let r = t.finish(&g, us(20), 3).0;
        assert!(!r.livelock);
        assert_eq!(r.stalled_for, SimDuration::from_micros(10));
    }

    #[test]
    fn merging_shard_trackers_matches_the_fabric_wide_tracker() {
        // Shard 0 owns nodes {0, 2}, shard 1 owns node {1}: each wait-for
        // edge is recorded by its `from`-owner only.
        let mut whole = SafetyTracker::new();
        let mut shard0 = SafetyTracker::new();
        let mut shard1 = SafetyTracker::new();
        for (at, from, to, pause) in [
            (10u64, 0u32, 1u32, true),
            (10, 1, 2, true),
            (10, 2, 0, true),
            (40, 1, 2, false),
        ] {
            whole.record_pause(us(at), node(from), node(to), pause);
            let shard = if from == 1 { &mut shard1 } else { &mut shard0 };
            shard.record_pause(us(at), node(from), node(to), pause);
        }
        let merged = SafetyTracker::merge([&shard0, &shard1]);
        let g = GoodputSeries::new();
        let (report, durations) = merged.finish(&g, us(100), 2);
        assert_eq!((report.clone(), durations), whole.finish(&g, us(100), 2));
        assert_eq!(report.deadlocks, 1);
    }

    #[test]
    fn save_restore_round_trips() {
        let mut t = SafetyTracker::new();
        cycle_at_10us(&mut t);
        t.record_pause(us(30), node(0), node(1), false);
        let mut w = SnapWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = SafetyTracker::restore(&mut r).expect("restores");
        assert_eq!(restored, t);
    }

    #[test]
    fn pause_intervals_still_open_close_at_the_end_and_survive_restore() {
        let mut t = SafetyTracker::new();
        t.record_pause(us(10), node(0), node(1), true);
        t.record_pause(us(12), node(0), node(1), true); // refresh, start unchanged
        t.record_pause(us(15), node(0), node(1), false); // 5us closed
        t.record_pause(us(20), node(2), node(3), true); // open until end
        let h = t.clone().finish(&GoodputSeries::new(), us(30), 0).1;
        assert_eq!(h.count(), 2);
        let mut expect = Hist::new();
        expect.observe(SimDuration::from_micros(5).as_nanos());
        expect.observe(SimDuration::from_micros(10).as_nanos());
        assert_eq!(h, expect);
        // Restore rebuilds the same derived state from the edge log.
        let mut w = SnapWriter::new();
        t.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let restored = SafetyTracker::restore(&mut r).unwrap();
        assert_eq!(restored.finish(&GoodputSeries::new(), us(30), 0).1, h);
        // Shard-split durations merge to the serial histogram.
        let mut s0 = SafetyTracker::new();
        let mut s1 = SafetyTracker::new();
        s0.record_pause(us(10), node(0), node(1), true);
        s0.record_pause(us(12), node(0), node(1), true);
        s0.record_pause(us(15), node(0), node(1), false);
        s1.record_pause(us(20), node(2), node(3), true);
        let merged = SafetyTracker::merge([&s0, &s1]);
        assert_eq!(merged.finish(&GoodputSeries::new(), us(30), 0).1, h);
    }

    #[test]
    fn refreshed_pause_does_not_double_count_cycles() {
        let mut t = SafetyTracker::new();
        cycle_at_10us(&mut t);
        // The same edges pause again while still live: frames count,
        // cycles do not.
        cycle_at_10us(&mut t);
        let r = t.finish(&GoodputSeries::new(), us(100), 0).0;
        assert_eq!(r.pause_frames, 6);
        assert_eq!(r.cycles_formed, 1);
        assert_eq!(r.deadlocks, 1);
    }
}
