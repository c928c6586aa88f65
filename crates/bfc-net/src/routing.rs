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
//!
//! The tables are flat arrays indexed by the pair `i = node · hosts +
//! rank(dst)`, where a host's rank is its position in [`Topology::hosts`]:
//! `distance[i]` is the pair's hop count and its equal-cost egress ports are
//! `ports[offsets[i]..offsets[i + 1]]`, in port order (the order the
//! rendezvous pick scans). Building them allocates a few vectors and one BFS
//! queue, not a vector per pair or per BFS, and a path is walked, never
//! collected.

use std::collections::VecDeque;

use bfc_sim::rng::mix64;
use bfc_sim::SimDuration;

use crate::packet::{ACK_SIZE_BYTES, MTU};
use crate::topology::Topology;
use crate::types::NodeId;

/// Precomputed routing state for a topology.
#[derive(Debug, Clone)]
pub struct RoutingTables {
    /// `nodes · hosts + 1` entries: pair `i`'s candidates are
    /// `ports[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
    /// Every pair's equal-cost egress ports, pair after pair, each pair's in
    /// port order.
    ports: Vec<u32>,
    /// Hop count (number of links) of each pair, `u32::MAX` if unreachable.
    distance: Vec<u32>,
    /// Each node's rank among the hosts, `u32::MAX` for a switch.
    host_rank: Vec<u32>,
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
        let width = hosts.len();
        let mut host_rank = vec![u32::MAX; n];
        for (rank, h) in hosts.iter().enumerate() {
            host_rank[h.index()] = rank as u32;
        }

        // One BFS outward from each destination host over the undirected
        // graph of live links, writing its column of `distance`.
        let mut distance = vec![u32::MAX; n * width];
        let mut queue = VecDeque::with_capacity(n);
        for (rank, &dst) in hosts.iter().enumerate() {
            distance[dst.index() * width + rank] = 0;
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                let next = distance[u.index() * width + rank] + 1;
                for (port, spec) in topo.ports(u).iter().enumerate() {
                    let d = &mut distance[spec.peer.index() * width + rank];
                    if *d == u32::MAX && link_up(u, port as u32) {
                        *d = next;
                        queue.push_back(spec.peer);
                    }
                }
            }
        }

        // Node-major: a reachable pair's candidates are the live ports whose
        // peer is one hop closer to the destination.
        let mut offsets = Vec::with_capacity(n * width + 1);
        let mut ports = Vec::with_capacity(n * width);
        offsets.push(0);
        for node in 0..n {
            let node_id = NodeId(node as u32);
            for rank in 0..width {
                let d = distance[node * width + rank];
                if d != 0 && d != u32::MAX {
                    for (port, spec) in topo.ports(node_id).iter().enumerate() {
                        if link_up(node_id, port as u32)
                            && distance[spec.peer.index() * width + rank] == d - 1
                        {
                            ports.push(port as u32);
                        }
                    }
                }
                offsets.push(ports.len() as u32);
            }
        }
        RoutingTables {
            offsets,
            ports,
            distance,
            host_rank,
            hosts,
        }
    }

    /// The flat index of the pair (`node`, host `dst`).
    fn pair(&self, node: NodeId, dst: NodeId) -> usize {
        let rank = self.host_rank[dst.index()];
        assert!(rank != u32::MAX, "destination must be a host");
        node.index() * self.hosts.len() + rank as usize
    }

    /// All equal-cost egress ports of `node` toward host `dst`.
    pub fn candidates(&self, node: NodeId, dst: NodeId) -> &[u32] {
        let i = self.pair(node, dst);
        &self.ports[self.offsets[i] as usize..self.offsets[i + 1] as usize]
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
        self.distance[self.pair(node, dst)]
    }

    /// The largest number of switches on a shortest path between two
    /// mutually reachable hosts — what bounds the INT records a data packet
    /// accumulates.
    pub fn switch_hop_diameter(&self) -> usize {
        let width = self.hosts.len();
        self.hosts
            .iter()
            .flat_map(|h| &self.distance[h.index() * width..(h.index() + 1) * width])
            .filter(|&&links| links != u32::MAX)
            .map(|&links| links.saturating_sub(1) as usize)
            .max()
            .unwrap_or(0)
    }

    /// The path a flow takes from `src` to `dst`: its `(node, egress port)`
    /// hops in order, excluding the destination, walked lazily.
    pub fn path<'a>(
        &'a self,
        topo: &'a Topology,
        src: NodeId,
        dst: NodeId,
        flow_hash: u64,
    ) -> impl Iterator<Item = (NodeId, u32)> + 'a {
        let (mut node, mut hops) = (src, 0);
        std::iter::from_fn(move || {
            if node == dst {
                return None;
            }
            let hop = (node, self.egress_port(node, dst, flow_hash));
            node = topo.ports(node)[hop.1 as usize].peer;
            hops += 1;
            assert!(
                hops <= topo.num_nodes(),
                "routing loop detected between {src} and {dst}"
            );
            Some(hop)
        })
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
        let first_packet = size_bytes.min(MTU as u64) as u32;
        let mut total = SimDuration::ZERO;
        let mut bottleneck_gbps = f64::MAX;
        for (node, port) in self.path(topo, src, dst, flow_hash) {
            let link = topo.ports(node)[port as usize].link;
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
                let path: Vec<_> = routes.path(&topo, a, b, 12345).collect();
                // host -> ToR -> (spine -> ToR)? -> host
                assert!(
                    path.len() == 2 || path.len() == 4,
                    "path len {}",
                    path.len()
                );
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
        let path = || routes.path(&topo, hosts[3], hosts[100], 777);
        assert!(path().eq(path()));
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
        let routes = RoutingTables::compute_filtered(&topo, |n, p| {
            !(n == tor0 && p == dead)
                && !(n == spine0 && topo.ports(spine0)[p as usize].peer == tor0)
        });
        // Cross-rack traffic from rack 0 must avoid the dead uplink.
        for h in 0..64u64 {
            let egress = routes
                .try_egress_port(tor0, hosts[7], h)
                .expect("still connected");
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
        assert_eq!(
            pruned.candidates(tor0, dst).len(),
            full.candidates(tor0, dst).len() - 1
        );
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
        let nodes: Vec<NodeId> = routes
            .path(&c.topology, src, dst, 5)
            .map(|(n, _)| n)
            .collect();
        assert!(nodes.contains(&c.gateway0));
        // host, tor, spine, gw0, gw1, spine, tor -> host = 7 forwarding hops.
        assert_eq!(nodes.len(), 7);
    }
}
