//! Sharding: within-run parallelism with bit-identical results.
//!
//! [`ShardPlan::partition`] assigns one topology's switches and hosts to N
//! shards. [`run_experiment_sharded`] builds the engine ([`crate::engine`])
//! over that plan — one worker per shard, each with its own calendar queue
//! and its own slice of the fabric (switches, hosts, link-state and routing
//! replicas) — and advances it to the deadline in conservative lockstep
//! epochs ([`bfc_sim::shard::run_conservative`]) bounded by the minimum
//! cross-shard link propagation delay. Cross-shard traffic — data packets,
//! ACKs/CNPs, PFC and BFC pause frames — travels through per-epoch mailboxes
//! that are exchanged at each barrier in deterministic `(timestamp,
//! canonical rank, source shard)` order. A plan with one shard has no
//! cross-shard cable, no mailboxes and no threads: that is the serial run.
//!
//! # Why results are bit-identical at any shard count
//!
//! Every worker orders events by `(time, canonical rank, emission order)`
//! (see [`bfc_net::event::NetEvent::canon_rank`]). The rank discriminates
//! every pair of simultaneous events except pairs emitted by one sequential
//! stream — and those reach any queue in emission order at any shard count.
//! A shard therefore pops exactly the subsequence of the one-shard pop
//! sequence that targets its nodes; since per-event handlers only touch the
//! target node's state (plus per-shard replicas recomputed from identical
//! inputs), every switch, host and flow evolves identically. Metrics merge
//! by disjoint union / exact integer arithmetic in
//! [`crate::runner::assemble_result`].
//!
//! The epoch lookahead is safe because every cross-node interaction in this
//! simulator is a scheduled packet delivery at least one link propagation
//! delay in the future; the partitioner keeps hosts in their ToR's shard, so
//! only switch-switch (and gateway) cables ever cross shards.

use std::fmt;

use bfc_net::topology::Topology;
use bfc_net::types::NodeId;
use bfc_sim::SimDuration;
use bfc_workloads::TraceFlow;

use crate::engine::Engine;
use crate::runner::{ExperimentConfig, ExperimentResult};

/// Why a topology could not be partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A cable between two shards has zero propagation delay, so no positive
    /// conservative lookahead exists.
    ZeroLookahead {
        /// One endpoint of the offending cable.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroLookahead { a, b } => write!(
                f,
                "cable {a:?} <-> {b:?} crosses shards with zero propagation delay; \
                 no conservative lookahead exists"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// A deterministic assignment of every node to one shard, plus the epoch
/// lookahead the assignment admits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shard_of: Vec<u32>,
    num_shards: usize,
    lookahead: Option<SimDuration>,
}

impl ShardPlan {
    /// Partitions `topo` into (up to) `requested` shards.
    ///
    /// The assignment is a pure function of `(topology, requested)`:
    /// switches are round-robined over the shards in node-id order — for the
    /// built-in fat trees that spreads both the ToR layer and the spine
    /// layer evenly — and every host lands in the shard of its uplink
    /// switch, so the latency-free host<->ToR hop never crosses a shard
    /// boundary. The shard count is clamped to the number of switches.
    pub fn partition(topo: &Topology, requested: usize) -> Result<ShardPlan, ShardError> {
        let switches = topo.switches();
        let num_shards = requested.clamp(1, switches.len().max(1));
        let mut shard_of = vec![0u32; topo.num_nodes()];
        for (k, sw) in switches.iter().enumerate() {
            shard_of[sw.index()] = (k % num_shards) as u32;
        }
        for h in topo.hosts() {
            shard_of[h.index()] = shard_of[topo.host_uplink(h).peer.index()];
        }

        // The conservative lookahead: the fastest any shard can influence
        // another is one cross-shard cable's propagation delay.
        let mut lookahead: Option<SimDuration> = None;
        for idx in 0..topo.num_nodes() {
            let node = NodeId(idx as u32);
            for spec in topo.ports(node) {
                if shard_of[idx] == shard_of[spec.peer.index()] {
                    continue;
                }
                if spec.link.propagation.is_zero() {
                    return Err(ShardError::ZeroLookahead {
                        a: node,
                        b: spec.peer,
                    });
                }
                lookahead = Some(match lookahead {
                    Some(l) => l.min(spec.link.propagation),
                    None => spec.link.propagation,
                });
            }
        }
        Ok(ShardPlan {
            shard_of,
            num_shards,
            lookahead,
        })
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of[node.index()]
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The epoch lookahead: the minimum propagation delay over cross-shard
    /// cables. `None` when no cable crosses shards (single-shard plans), in
    /// which case any window size is safe.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }
}

/// Runs one experiment across `num_shards` shards (clamped to the number of
/// switches), with one thread per shard when there is more than one. The
/// result is **bit-identical** at any shard count;
/// [`crate::runner::run_experiment`] is this function at one shard.
pub fn run_experiment_sharded(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    num_shards: usize,
) -> ExperimentResult {
    let mut engine = Engine::build(topo, trace, config, num_shards);
    engine.advance(engine.deadline);
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_net::topology::{fat_tree, FatTreeParams};
    use bfc_workloads::{synthesize, TraceParams, Workload};

    use crate::runner::run_experiment;
    use crate::scheme::Scheme;

    #[test]
    fn partition_covers_every_node_exactly_once() {
        let topo = fat_tree(FatTreeParams::tiny());
        for shards in 1..=6 {
            let plan = ShardPlan::partition(&topo, shards).expect("partitionable");
            assert_eq!(plan.num_shards(), shards.min(topo.switches().len()));
            for idx in 0..topo.num_nodes() {
                assert!((plan.shard_of(NodeId(idx as u32)) as usize) < plan.num_shards());
            }
        }
    }

    #[test]
    fn hosts_are_colocated_with_their_tor() {
        let topo = fat_tree(FatTreeParams::t2());
        let plan = ShardPlan::partition(&topo, 4).expect("partitionable");
        for h in topo.hosts() {
            assert_eq!(plan.shard_of(h), plan.shard_of(topo.host_uplink(h).peer));
        }
    }

    #[test]
    fn lookahead_is_the_minimum_cross_shard_propagation() {
        let topo = fat_tree(FatTreeParams::tiny());
        let plan = ShardPlan::partition(&topo, 2).expect("partitionable");
        // All fabric links have 1 us propagation in the tiny topology.
        assert_eq!(plan.lookahead(), Some(SimDuration::from_micros(1)));
        let single = ShardPlan::partition(&topo, 1).expect("partitionable");
        assert_eq!(single.lookahead(), None);
    }

    #[test]
    fn sharded_engine_matches_serial_quick() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = synthesize(
            &topo.hosts(),
            &TraceParams::background_only(Workload::Google, 0.3, SimDuration::from_micros(100), 17),
        );
        let config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(100));
        let serial = run_experiment(&topo, &trace, &config);
        for shards in [1, 2, 4] {
            let sharded = run_experiment_sharded(&topo, &trace, &config, shards);
            assert_eq!(serial.records, sharded.records, "{shards} shards");
            assert_eq!(serial.fct, sharded.fct, "{shards} shards");
            assert_eq!(serial.end_time, sharded.end_time, "{shards} shards");
            assert_eq!(serial.drops, sharded.drops);
            assert_eq!(
                serial.utilization().to_bits(),
                sharded.utilization().to_bits(),
                "{shards} shards"
            );
        }
    }
}
