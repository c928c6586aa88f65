//! ECMP shortest-path routing.
//!
//! The evaluation topologies are multi-rooted trees, so routing is the usual
//! up/down scheme: every switch forwards toward the destination host along a
//! shortest path, and when several equal-cost next hops exist (ToR → spines)
//! the choice is made per flow by hashing, so all packets of a flow follow
//! one path and arrive in order.
//!
//! Routes are precomputed with a breadth-first search from every host, which
//! works for arbitrary topologies (including the cross-DC one), not just fat
//! trees. Under network dynamics (see [`crate::dynamics`]) the tables are
//! recomputed with [`RoutingTables::compute_filtered`], which skips dead
//! links; the ECMP choice uses **rendezvous (highest-random-weight) hashing**
//! so re-convergence is a *stable rehash*: flows whose previous next hop
//! survived keep it, and only flows that were mapped to a vanished candidate
//! move.

use std::collections::VecDeque;

use bfc_sim::rng::mix64;
use bfc_sim::SimDuration;

use crate::packet::{ACK_SIZE_BYTES, MTU};
use crate::topology::Topology;
use crate::types::NodeId;

/// Precomputed routing state for a topology.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    /// `next_hops[node][dst_host_rank]` = local egress ports of `node` that
    /// lie on a shortest path to that host.
    next_hops: Vec<Vec<Vec<u32>>>,
    /// Maps a host NodeId to its dense rank used to index `next_hops`.
    host_rank: Vec<Option<usize>>,
    /// Hop count (number of links) from each node to each host.
    distance: Vec<Vec<u32>>,
    hosts: Vec<NodeId>,
}

impl RoutingTables {
    /// Computes routes for every (node, destination-host) pair, using every
    /// link of the topology.
    pub fn compute(topo: &Topology) -> Self {
        RoutingTables::compute_filtered(topo, |_, _| true)
    }

    /// Computes routes over the subgraph of links for which `link_up(node,
    /// local_port)` is true — the re-convergence primitive of the dynamics
    /// subsystem. Cables are full duplex, so `link_up` must be symmetric
    /// (both directed views of one cable agree); nodes that become
    /// unreachable get empty candidate lists and `u32::MAX` distances.
    pub fn compute_filtered(topo: &Topology, link_up: impl Fn(NodeId, u32) -> bool) -> Self {
        let n = topo.num_nodes();
        let hosts = topo.hosts();
        let mut host_rank = vec![None; n];
        for (rank, h) in hosts.iter().enumerate() {
            host_rank[h.index()] = Some(rank);
        }
        let mut next_hops = vec![vec![Vec::new(); hosts.len()]; n];
        let mut distance = vec![vec![u32::MAX; hosts.len()]; n];

        for (rank, &dst) in hosts.iter().enumerate() {
            // BFS outward from the destination host over the undirected graph
            // of live links.
            let mut dist = vec![u32::MAX; n];
            dist[dst.index()] = 0;
            let mut queue = VecDeque::new();
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for (port, spec) in topo.ports(u).iter().enumerate() {
                    if !link_up(u, port as u32) {
                        continue;
                    }
                    let v = spec.peer;
                    if dist[v.index()] == u32::MAX {
                        dist[v.index()] = dist[u.index()] + 1;
                        queue.push_back(v);
                    }
                }
            }
            for node in 0..n {
                distance[node][rank] = dist[node];
                if node == dst.index() || dist[node] == u32::MAX {
                    continue;
                }
                let node_id = NodeId(node as u32);
                for (port, spec) in topo.ports(node_id).iter().enumerate() {
                    if !link_up(node_id, port as u32) {
                        continue;
                    }
                    if dist[spec.peer.index()] != u32::MAX
                        && dist[spec.peer.index()] + 1 == dist[node]
                    {
                        next_hops[node][rank].push(port as u32);
                    }
                }
            }
        }
        RoutingTables {
            next_hops,
            host_rank,
            distance,
            hosts,
        }
    }

    fn rank(&self, dst: NodeId) -> usize {
        self.host_rank[dst.index()].expect("destination must be a host")
    }

    /// All equal-cost egress ports of `node` toward host `dst`.
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[u32] {
        &self.next_hops[node.index()][self.rank(dst)]
    }

    /// The egress port `node` uses for a packet of the flow identified by
    /// `flow_hash`, destined to host `dst`, or `None` if `dst` is
    /// unreachable from `node` over the links the tables were computed with.
    ///
    /// ECMP picks among equal-cost ports by *rendezvous hashing*: each
    /// candidate port is scored by a hash of (node, flow, port) and the
    /// highest score wins. A flow's packets stay on one path, and when the
    /// candidate set changes (link failure / repair) only flows whose winning
    /// port vanished are remapped — everyone else keeps their path.
    pub fn try_egress_port(&self, node: NodeId, dst: NodeId, flow_hash: u64) -> Option<u32> {
        let candidates = self.candidates(node, dst);
        match candidates {
            [] => None,
            [only] => Some(*only),
            _ => {
                let base = mix64(flow_hash.wrapping_add((node.0 as u64) << 40));
                let mut best = candidates[0];
                let mut best_weight = 0u64;
                for &port in candidates {
                    let weight = mix64(base ^ (port as u64 + 1));
                    if weight > best_weight {
                        best_weight = weight;
                        best = port;
                    }
                }
                Some(best)
            }
        }
    }

    /// Like [`RoutingTables::try_egress_port`] but panics when `dst` is
    /// unreachable — the right call on a path that has already validated
    /// connectivity (initial setup, ideal-FCT computation).
    pub fn egress_port(&self, node: NodeId, dst: NodeId, flow_hash: u64) -> u32 {
        self.try_egress_port(node, dst, flow_hash)
            .unwrap_or_else(|| panic!("no route from {node} to {dst}; topology is disconnected"))
    }

    /// Number of links on the shortest path from `node` to host `dst`.
    pub fn hops(&self, node: NodeId, dst: NodeId) -> u32 {
        self.distance[node.index()][self.rank(dst)]
    }

    /// The largest number of switches on a shortest path between two
    /// mutually reachable hosts — what bounds the INT records a data packet
    /// accumulates.
    pub fn switch_hop_diameter(&self) -> usize {
        self.hosts
            .iter()
            .flat_map(|h| self.distance[h.index()].iter())
            .filter(|&&links| links != u32::MAX)
            .map(|&links| links.saturating_sub(1) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The full path (sequence of `(node, egress port)` pairs, excluding the
    /// destination) a flow takes from `src` to `dst`.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId, flow_hash: u64) -> Vec<(NodeId, u32)> {
        let mut path = Vec::new();
        let mut node = src;
        while node != dst {
            let port = self.egress_port(node, dst, flow_hash);
            path.push((node, port));
            node = topo.ports(node)[port as usize].peer;
            assert!(
                path.len() <= topo.num_nodes(),
                "routing loop detected between {src} and {dst}"
            );
        }
        path
    }

    /// The best-possible (unloaded) flow completion time for `size_bytes`
    /// sent from `src` to `dst`: per-hop store-and-forward of one [`MTU`] plus
    /// propagation, plus pipelined serialization of the remaining bytes at
    /// the bottleneck link. This is the denominator of the paper's "FCT
    /// slowdown" metric.
    pub fn ideal_fct(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        size_bytes: u64,
        flow_hash: u64,
    ) -> SimDuration {
        let path = self.path(topo, src, dst, flow_hash);
        let first_packet = size_bytes.min(MTU as u64) as u32;
        let mut total = SimDuration::ZERO;
        let mut bottleneck_gbps = f64::MAX;
        for (node, port) in &path {
            let link = topo.ports(*node)[*port as usize].link;
            total += link.serialization(first_packet) + link.propagation;
            bottleneck_gbps = bottleneck_gbps.min(link.rate_gbps);
        }
        let remaining = size_bytes.saturating_sub(first_packet as u64);
        if remaining > 0 {
            total += SimDuration::for_bytes_at_gbps(remaining, bottleneck_gbps);
        }
        total
    }

    /// The base (unloaded) round-trip time between two hosts: one
    /// [`MTU`]-sized data packet out, one [`ACK_SIZE_BYTES`] ACK back.
    pub fn base_rtt(&self, topo: &Topology, a: NodeId, b: NodeId) -> SimDuration {
        self.ideal_fct(topo, a, b, MTU as u64, 0)
            + self.ideal_fct(topo, b, a, ACK_SIZE_BYTES as u64, 0)
    }

    /// Hosts known to the routing table.
    pub fn hosts(&self) -> &[NodeId] {
        &self.hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{cross_dc, fat_tree, CrossDcParams, FatTreeParams};

    #[test]
    fn routes_exist_between_all_host_pairs() {
        let topo = fat_tree(FatTreeParams::tiny());
        let routes = RoutingTables::compute(&topo);
        let hosts = topo.hosts();
        for &a in &hosts {
            for &b in &hosts {
                if a == b {
                    continue;
                }
                let path = routes.path(&topo, a, b, 12345);
                // host -> ToR -> (spine -> ToR)? -> host
                assert!(path.len() == 2 || path.len() == 4, "path len {}", path.len());
                let last = path.last().expect("non-empty path");
                assert_eq!(topo.ports(last.0)[last.1 as usize].peer, b);
            }
        }
    }

    #[test]
    fn switch_hop_diameter_of_the_built_in_topologies_fits_int() {
        // ToR → spine → ToR, and the cross-DC path through both gateways:
        // the deepest built-in topology is what `MAX_INT_HOPS` is sized to.
        let fat = RoutingTables::compute(&fat_tree(FatTreeParams::t2()));
        assert_eq!(fat.switch_hop_diameter(), 3);
        let wan = RoutingTables::compute(&cross_dc(CrossDcParams::paper_default()).topology);
        assert_eq!(wan.switch_hop_diameter(), crate::packet::MAX_INT_HOPS);
    }

    #[test]
    fn same_rack_goes_through_tor_only() {
        let topo = fat_tree(FatTreeParams::t2());
        let routes = RoutingTables::compute(&topo);
        let hosts = topo.hosts();
        // Hosts 0 and 1 share ToR 0.
        assert_eq!(routes.hops(hosts[0], hosts[1]), 2);
        // Hosts in different racks traverse a spine.
        assert_eq!(routes.hops(hosts[0], hosts[63]), 4);
    }

    #[test]
    fn ecmp_spreads_flows_across_spines() {
        let topo = fat_tree(FatTreeParams::t2());
        let routes = RoutingTables::compute(&topo);
        let hosts = topo.hosts();
        let tor0 = topo.host_uplink(hosts[0]).peer;
        let dst = hosts[63];
        let candidates = routes.candidates(tor0, dst);
        assert_eq!(candidates.len(), 8, "all spines are equal-cost");
        let mut used = std::collections::HashSet::new();
        for h in 0..256u64 {
            used.insert(routes.egress_port(tor0, dst, h));
        }
        assert!(used.len() >= 6, "ECMP should spread across most spines");
    }

    #[test]
    fn flow_path_is_stable_for_a_flow() {
        let topo = fat_tree(FatTreeParams::t1());
        let routes = RoutingTables::compute(&topo);
        let hosts = topo.hosts();
        let p1 = routes.path(&topo, hosts[3], hosts[100], 777);
        let p2 = routes.path(&topo, hosts[3], hosts[100], 777);
        assert_eq!(p1, p2);
    }

    #[test]
    fn ideal_fct_matches_hand_computation() {
        let topo = fat_tree(FatTreeParams::t2());
        let routes = RoutingTables::compute(&topo);
        let hosts = topo.hosts();
        // Cross-rack single MTU packet: 4 hops, each 80 ns serialization +
        // 1 us propagation = 4 * 1080 ns.
        let fct = routes.ideal_fct(&topo, hosts[0], hosts[63], 1000, 0);
        assert_eq!(fct.as_nanos(), 4 * 1080);
        // A 100 KB flow adds 99 KB at 100 Gbps = 7920 ns of pipelined bytes.
        let fct = routes.ideal_fct(&topo, hosts[0], hosts[63], 100_000, 0);
        assert_eq!(fct.as_nanos(), 4 * 1080 + 7_920);
    }

    #[test]
    fn base_rtt_matches_paper_order_of_magnitude() {
        // Paper: max end-to-end base RTT is 8 us on T1/T2 (100 Gbps, 1 us links).
        let topo = fat_tree(FatTreeParams::t2());
        let routes = RoutingTables::compute(&topo);
        let hosts = topo.hosts();
        let rtt = routes.base_rtt(&topo, hosts[0], hosts[63]);
        let us = rtt.as_micros_f64();
        assert!((8.0..9.5).contains(&us), "base RTT was {us} us");
    }

    #[test]
    fn filtered_compute_avoids_down_links_and_flags_disconnection() {
        let topo = fat_tree(FatTreeParams::tiny());
        let hosts = topo.hosts();
        let tor0 = topo.host_uplink(hosts[0]).peer;
        let spine0 = topo.switches()[2];
        let dead = topo.port_towards(tor0, spine0).expect("adjacent");
        let routes = RoutingTables::compute_filtered(&topo, |n, p| !(n == tor0 && p == dead)
            && !(n == spine0 && topo.ports(spine0)[p as usize].peer == tor0));
        // Cross-rack traffic from rack 0 must avoid the dead uplink.
        for h in 0..64u64 {
            let egress = routes.try_egress_port(tor0, hosts[7], h).expect("still connected");
            assert_ne!(egress, dead);
        }
        // Taking down a host's only uplink disconnects it.
        let uplink_peer = topo.host_uplink(hosts[0]).peer;
        let host_port = topo.port_towards(uplink_peer, hosts[0]).expect("adjacent");
        let routes = RoutingTables::compute_filtered(&topo, |n, p| {
            !(n == hosts[0] && p == 0) && !(n == uplink_peer && p == host_port)
        });
        assert_eq!(routes.try_egress_port(hosts[4], hosts[0], 1), None);
        assert_eq!(routes.hops(hosts[4], hosts[0]), u32::MAX);
    }

    #[test]
    fn rendezvous_rehash_is_stable_for_surviving_candidates() {
        let topo = fat_tree(FatTreeParams::t2());
        let hosts = topo.hosts();
        let tor0 = topo.host_uplink(hosts[0]).peer;
        let dst = hosts[63];
        let full = RoutingTables::compute(&topo);
        // Kill tor0's first spine uplink and recompute.
        let dead = full.candidates(tor0, dst)[0];
        let dead_peer = topo.ports(tor0)[dead as usize].peer;
        let back = topo.port_towards(dead_peer, tor0).expect("adjacent");
        let pruned = RoutingTables::compute_filtered(&topo, |n, p| {
            !(n == tor0 && p == dead) && !(n == dead_peer && p == back)
        });
        assert_eq!(pruned.candidates(tor0, dst).len(), full.candidates(tor0, dst).len() - 1);
        let mut moved = 0;
        for h in 0..512u64 {
            let before = full.egress_port(tor0, dst, h);
            let after = pruned.egress_port(tor0, dst, h);
            if before == dead {
                moved += 1;
                assert_ne!(after, dead);
            } else {
                assert_eq!(before, after, "flow {h} moved although its port survived");
            }
        }
        assert!(moved > 0, "some flows must have used the dead port");
    }

    #[test]
    fn cross_dc_paths_traverse_gateways() {
        let c = cross_dc(CrossDcParams::paper_default());
        let routes = RoutingTables::compute(&c.topology);
        let src = c.dc0_hosts[0];
        let dst = c.dc1_hosts[0];
        let path = routes.path(&c.topology, src, dst, 5);
        let nodes: Vec<NodeId> = path.iter().map(|(n, _)| *n).collect();
        assert!(nodes.contains(&c.gateway0));
        // host, tor, spine, gw0, gw1, spine, tor -> host = 7 forwarding hops.
        assert_eq!(path.len(), 7);
    }
}
