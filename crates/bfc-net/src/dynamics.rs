//! Network dynamics: scheduled link faults, repairs and rate changes.
//!
//! A static topology never exercises the regime backpressure schemes are
//! built for — reacting within a hop RTT while the fabric is in flux. This
//! module is the substrate for that scenario family:
//!
//! * [`LinkAction`] — one mutation of a cable: take it down, bring it back,
//!   or change its rate (degradation / repair: never above the cable's
//!   native rate, which every ideal FCT is computed at).
//! * [`FaultEvent`] / [`FaultSchedule`] — actions pinned to simulated
//!   timestamps, sorted and validated against a topology before a run.
//! * [`LinkStateMap`] — the live per-port up/down overlay the driver
//!   consults on every packet delivery and that routing recomputation
//!   filters dead links through (rates live on the ports themselves).
//!
//! Semantics are defined at three points, all deterministic:
//!
//! 1. **In-flight packets** are dropped ("blackholed") if the cable they are
//!    crossing is down *at their delivery instant* — the driver checks the
//!    [`LinkStateMap`] when the `PacketArrive` event fires.
//! 2. **Queued packets** on a dead egress are flushed immediately (buffer
//!    space released, data packets counted as blackholed); Go-Back-N at the
//!    sender recovers them end to end.
//! 3. **Routing** re-converges by recomputing [`crate::RoutingTables`] over
//!    the surviving links, with a rendezvous-hash ECMP choice so flows whose
//!    old next hop survived keep their path (stable rehash).

use std::fmt;

use bfc_sim::SimTime;

use crate::topology::Topology;
use crate::types::NodeId;

/// One mutation of a full-duplex cable, identified by its two endpoints.
/// Both directions of the cable are affected symmetrically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkAction {
    /// Take the cable down: queued packets on both egresses are flushed and
    /// in-flight packets are blackholed at delivery time.
    Down {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Bring the cable back up at its current configured rate.
    Up {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// Change the cable's rate in both directions (degrade or restore).
    SetRate {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// New rate in Gbps: positive, and at most the cable's native rate
        /// in the topology.
        gbps: f64,
    },
}

impl LinkAction {
    /// The two endpoints of the affected cable.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        match *self {
            LinkAction::Down { a, b }
            | LinkAction::Up { a, b }
            | LinkAction::SetRate { a, b, .. } => (a, b),
        }
    }
}

/// A [`LinkAction`] pinned to a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the action takes effect.
    pub at: SimTime,
    /// What happens to the link.
    pub action: LinkAction,
}

/// Fastest rate a fault may give a link, in Gbps: 100× the paper's links, and
/// slow enough that a 1-byte packet still takes time on the wire (1 ps; above
/// 16 000 Gbps it would take 0 ps).
pub const MAX_LINK_GBPS: f64 = 10_000.0;

/// Why a schedule cannot be applied to a topology.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicsError {
    /// The two endpoints of an action are not connected by a cable.
    NotAdjacent {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
    /// A node id does not exist in the topology.
    UnknownNode {
        /// The offending id.
        node: NodeId,
    },
    /// A `SetRate` action carried a rate that is not positive or is above
    /// [`MAX_LINK_GBPS`] (infinity and NaN included).
    BadRate {
        /// The offending rate.
        gbps: f64,
    },
    /// A `SetRate` action would run a cable faster than its native rate in
    /// the topology. A flow's ideal FCT is computed at the native rates, so
    /// it is a lower bound on the FCT only while no cable runs faster.
    AboveNative {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The offending rate.
        gbps: f64,
        /// The cable's native rate (the slower direction's).
        native: f64,
    },
}

impl fmt::Display for DynamicsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicsError::NotAdjacent { a, b } => {
                write!(f, "no cable between {a} and {b}")
            }
            DynamicsError::UnknownNode { node } => write!(f, "{node} is not in the topology"),
            DynamicsError::BadRate { gbps } => {
                write!(
                    f,
                    "link rate must be in (0, {MAX_LINK_GBPS}] Gbps, got {gbps}"
                )
            }
            DynamicsError::AboveNative { a, b, gbps, native } => write!(
                f,
                "a rate fault may only degrade or restore a cable: {gbps} Gbps is above \
                 the {native} Gbps native rate of the cable between {a} and {b}"
            ),
        }
    }
}

impl std::error::Error for DynamicsError {}

/// A time-sorted list of link events — the "what goes wrong when" of one
/// experiment. An empty schedule (the default) is bit-identical to a run of
/// this build with dynamics absent entirely: the link-state checks
/// short-circuit and nothing else changes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultSchedule {
    events: Vec<FaultEvent>,
}

impl FaultSchedule {
    /// Builds a schedule, sorting the events by time (stable, so same-instant
    /// events keep their given order).
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultSchedule { events }
    }

    /// The events in time order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True if the schedule contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Checks every event against the topology: endpoints must exist and be
    /// adjacent, and rates must be positive, at most [`MAX_LINK_GBPS`] and at
    /// most the cable's native rate.
    pub fn validate(&self, topo: &Topology) -> Result<(), DynamicsError> {
        for event in &self.events {
            let (a, b) = event.action.endpoints();
            for node in [a, b] {
                if node.index() >= topo.num_nodes() {
                    return Err(DynamicsError::UnknownNode { node });
                }
            }
            let (Some(port_a), Some(port_b)) = (topo.port_towards(a, b), topo.port_towards(b, a))
            else {
                return Err(DynamicsError::NotAdjacent { a, b });
            };
            if let LinkAction::SetRate { gbps, .. } = event.action {
                check_rate(topo, [(a, port_a), (b, port_b)], gbps)?;
            }
        }
        Ok(())
    }
}

/// Checks a `SetRate` to `gbps` of the cable whose two ends are `ends`:
/// within (0, [`MAX_LINK_GBPS`]] and at most the cable's native rate.
fn check_rate(topo: &Topology, ends: [(NodeId, u32); 2], gbps: f64) -> Result<(), DynamicsError> {
    if !(gbps > 0.0 && gbps <= MAX_LINK_GBPS) {
        return Err(DynamicsError::BadRate { gbps });
    }
    let [(a, port_a), (b, port_b)] = ends;
    let native = topo.ports(a)[port_a as usize]
        .link
        .rate_gbps
        .min(topo.ports(b)[port_b as usize].link.rate_gbps);
    if gbps > native {
        return Err(DynamicsError::AboveNative { a, b, gbps, native });
    }
    Ok(())
}

/// One directed endpoint of a cable affected by an applied action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The node whose local egress changed.
    pub node: NodeId,
    /// The local port index at that node.
    pub port: u32,
}

/// The live up/down overlay of one running experiment, per directed port.
/// Built all-up from a topology; mutated only through
/// [`LinkStateMap::apply`], so it is the fold of the fault events applied so
/// far — which is how a resumed run rebuilds it instead of reading it from
/// a snapshot. Current link *rates* are not duplicated here —
/// they live where the simulation reads them (the switch `Port`s and host
/// uplinks), which `apply` callers update via the returned endpoints.
#[derive(Debug, Clone)]
pub struct LinkStateMap {
    up: Vec<Vec<bool>>,
    down_links: usize,
}

impl LinkStateMap {
    /// All links up.
    pub fn new(topo: &Topology) -> Self {
        let up = (0..topo.num_nodes())
            .map(|node| vec![true; topo.ports(NodeId(node as u32)).len()])
            .collect();
        LinkStateMap { up, down_links: 0 }
    }

    /// Whether the cable at (`node`, local `port`) is currently up.
    pub fn is_up(&self, node: NodeId, port: u32) -> bool {
        self.up[node.index()][port as usize]
    }

    /// True if no link is currently down.
    pub fn all_up(&self) -> bool {
        self.down_links == 0
    }

    /// Number of cables currently down.
    pub fn down_links(&self) -> usize {
        self.down_links
    }

    /// Applies one action, returning the two directed endpoints whose state
    /// changed so the caller can update the matching switch/host ports.
    /// Fails (without mutating) if the endpoints are not adjacent in `topo`
    /// or a rate is invalid.
    pub fn apply(
        &mut self,
        topo: &Topology,
        action: &LinkAction,
    ) -> Result<[Endpoint; 2], DynamicsError> {
        let (a, b) = action.endpoints();
        for node in [a, b] {
            if node.index() >= topo.num_nodes() {
                return Err(DynamicsError::UnknownNode { node });
            }
        }
        let port_a = topo
            .port_towards(a, b)
            .ok_or(DynamicsError::NotAdjacent { a, b })?;
        let port_b = topo
            .port_towards(b, a)
            .ok_or(DynamicsError::NotAdjacent { a, b })?;
        match *action {
            LinkAction::Down { .. } => {
                let was_up = self.up[a.index()][port_a as usize];
                self.up[a.index()][port_a as usize] = false;
                self.up[b.index()][port_b as usize] = false;
                if was_up {
                    self.down_links += 1;
                }
            }
            LinkAction::Up { .. } => {
                let was_up = self.up[a.index()][port_a as usize];
                self.up[a.index()][port_a as usize] = true;
                self.up[b.index()][port_b as usize] = true;
                if !was_up {
                    self.down_links -= 1;
                }
            }
            LinkAction::SetRate { gbps, .. } => {
                // Rates are owned by the ports themselves; the map only
                // validates the action and names the endpoints to update.
                check_rate(topo, [(a, port_a), (b, port_b)], gbps)?;
            }
        }
        Ok([
            Endpoint {
                node: a,
                port: port_a,
            },
            Endpoint {
                node: b,
                port: port_b,
            },
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::topology::{fat_tree, FatTreeParams};
    use bfc_sim::{SimDuration, SimTime};

    fn tiny() -> Topology {
        fat_tree(FatTreeParams::tiny())
    }

    #[test]
    fn schedule_sorts_by_time_stably() {
        let topo = tiny();
        let tor = topo.switches()[0];
        let spine = topo.switches()[2];
        let s = FaultSchedule::new(vec![
            FaultEvent {
                at: SimTime::from_micros(20),
                action: LinkAction::Up { a: tor, b: spine },
            },
            FaultEvent {
                at: SimTime::from_micros(5),
                action: LinkAction::Down { a: tor, b: spine },
            },
        ]);
        assert_eq!(s.len(), 2);
        assert!(matches!(s.events()[0].action, LinkAction::Down { .. }));
        assert!(s.validate(&topo).is_ok());
    }

    #[test]
    fn validate_rejects_non_adjacent_and_unknown_nodes() {
        let topo = tiny();
        let hosts = topo.hosts();
        let s = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::ZERO,
            action: LinkAction::Down {
                a: hosts[0],
                b: hosts[1],
            },
        }]);
        assert!(matches!(
            s.validate(&topo),
            Err(DynamicsError::NotAdjacent { .. })
        ));
        let s = FaultSchedule::new(vec![FaultEvent {
            at: SimTime::ZERO,
            action: LinkAction::Up {
                a: hosts[0],
                b: NodeId(999),
            },
        }]);
        assert!(matches!(
            s.validate(&topo),
            Err(DynamicsError::UnknownNode { node: NodeId(999) })
        ));
        let tor = topo.switches()[0];
        let at_rate = |gbps| {
            FaultSchedule::new(vec![FaultEvent {
                at: SimTime::ZERO,
                action: LinkAction::SetRate {
                    a: hosts[0],
                    b: tor,
                    gbps,
                },
            }])
        };
        // Past `MAX_LINK_GBPS` a 1-byte packet would serialize in 0 ps.
        for gbps in [0.0, f64::INFINITY, f64::NAN, 1e308, MAX_LINK_GBPS * 1.5] {
            assert!(
                matches!(
                    at_rate(gbps).validate(&topo),
                    Err(DynamicsError::BadRate { .. })
                ),
                "{gbps} Gbps"
            );
        }
        let native = topo.host_uplink(hosts[0]).link.rate_gbps;
        assert!(at_rate(native).validate(&topo).is_ok());
        for gbps in [native * 1.01, MAX_LINK_GBPS] {
            assert_eq!(
                at_rate(gbps).validate(&topo),
                Err(DynamicsError::AboveNative {
                    a: hosts[0],
                    b: tor,
                    gbps,
                    native
                }),
                "{gbps} Gbps"
            );
        }
        assert!(!Link::new(MAX_LINK_GBPS, SimDuration::ZERO)
            .serialization(1)
            .is_zero());
    }

    #[test]
    fn apply_mutates_both_directions() {
        let topo = tiny();
        let mut state = LinkStateMap::new(&topo);
        assert!(state.all_up());
        let tor = topo.switches()[0];
        let spine = topo.switches()[2];
        let ends = state
            .apply(&topo, &LinkAction::Down { a: tor, b: spine })
            .expect("adjacent");
        assert_eq!(ends[0].node, tor);
        assert_eq!(ends[1].node, spine);
        assert!(!state.is_up(tor, ends[0].port));
        assert!(!state.is_up(spine, ends[1].port));
        assert_eq!(state.down_links(), 1);
        // Idempotent down, then repair.
        state
            .apply(&topo, &LinkAction::Down { a: spine, b: tor })
            .expect("adjacent");
        assert_eq!(state.down_links(), 1);
        state
            .apply(&topo, &LinkAction::Up { a: tor, b: spine })
            .expect("adjacent");
        assert!(state.all_up());
    }

    #[test]
    fn apply_set_rate_names_both_directions_without_downing() {
        let topo = tiny();
        let mut state = LinkStateMap::new(&topo);
        let host = topo.hosts()[0];
        let tor = topo.host_uplink(host).peer;
        let ends = state
            .apply(
                &topo,
                &LinkAction::SetRate {
                    a: host,
                    b: tor,
                    gbps: 25.0,
                },
            )
            .expect("adjacent");
        assert_eq!(ends[0].node, host);
        assert_eq!(ends[1].node, tor);
        assert!(state.all_up(), "rate changes do not take the link down");
        assert!(matches!(
            state.apply(
                &topo,
                &LinkAction::SetRate {
                    a: host,
                    b: tor,
                    gbps: -1.0
                }
            ),
            Err(DynamicsError::BadRate { .. })
        ));
        let native = topo.host_uplink(host).link.rate_gbps;
        assert!(matches!(
            state.apply(
                &topo,
                &LinkAction::SetRate {
                    a: tor,
                    b: host,
                    gbps: native * 4.0
                }
            ),
            Err(DynamicsError::AboveNative { .. })
        ));
    }
}
