//! The flat routing tables against the nested tables they replaced, kept
//! here as a test oracle (as `ReferenceEventQueue` is for the calendar
//! queue). On the built-in topologies and on generated symmetric link-down
//! subsets, every (node, host) pair has the same candidates in the same
//! order, the same hop count and the same ECMP pick for random flow hashes,
//! unreachable pairs included; the switch-hop diameter, ideal FCTs and base
//! RTTs agree by bits.

use std::collections::{HashSet, VecDeque};

use backpressure_flow_control::net::packet::{ACK_SIZE_BYTES, MTU};
use backpressure_flow_control::net::routing::RoutingTables;
use backpressure_flow_control::net::topology::{
    cross_dc, fat_tree, CrossDcParams, FatTreeParams, Topology,
};
use backpressure_flow_control::net::types::NodeId;
use backpressure_flow_control::sim::rng::{mix64, SimRng};
use backpressure_flow_control::sim::SimDuration;
use bfc_testkit::{hash_set_of, int_range, property};

/// The tables as they were nested: one candidate `Vec` per (node, host)
/// pair, one distance row per node, one BFS `dist` vector per host.
struct Nested {
    next_hops: Vec<Vec<Vec<u32>>>,
    host_rank: Vec<Option<usize>>,
    distance: Vec<Vec<u32>>,
    hosts: Vec<NodeId>,
}

impl Nested {
    fn compute_filtered(topo: &Topology, link_up: impl Fn(NodeId, u32) -> bool) -> Nested {
        let n = topo.num_nodes();
        let hosts = topo.hosts();
        let mut host_rank = vec![None; n];
        for (rank, h) in hosts.iter().enumerate() {
            host_rank[h.index()] = Some(rank);
        }
        let mut next_hops = vec![vec![Vec::new(); hosts.len()]; n];
        let mut distance = vec![vec![u32::MAX; hosts.len()]; n];
        for (rank, &dst) in hosts.iter().enumerate() {
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
        Nested {
            next_hops,
            host_rank,
            distance,
            hosts,
        }
    }

    fn rank(&self, dst: NodeId) -> usize {
        self.host_rank[dst.index()].expect("destination must be a host")
    }

    fn candidates(&self, node: NodeId, dst: NodeId) -> &[u32] {
        &self.next_hops[node.index()][self.rank(dst)]
    }

    fn try_egress_port(&self, node: NodeId, dst: NodeId, flow_hash: u64) -> Option<u32> {
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

    fn hops(&self, node: NodeId, dst: NodeId) -> u32 {
        self.distance[node.index()][self.rank(dst)]
    }

    fn switch_hop_diameter(&self) -> usize {
        self.hosts
            .iter()
            .flat_map(|h| self.distance[h.index()].iter())
            .filter(|&&links| links != u32::MAX)
            .map(|&links| links.saturating_sub(1) as usize)
            .max()
            .unwrap_or(0)
    }

    fn path(
        &self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        flow_hash: u64,
    ) -> Vec<(NodeId, u32)> {
        let mut path = Vec::new();
        let mut node = src;
        while node != dst {
            let port = self
                .try_egress_port(node, dst, flow_hash)
                .expect("a connected pair");
            path.push((node, port));
            node = topo.ports(node)[port as usize].peer;
            assert!(path.len() <= topo.num_nodes(), "routing loop");
        }
        path
    }

    fn ideal_fct(
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

    fn base_rtt(&self, topo: &Topology, a: NodeId, b: NodeId) -> SimDuration {
        self.ideal_fct(topo, a, b, MTU as u64, 0)
            + self.ideal_fct(topo, b, a, ACK_SIZE_BYTES as u64, 0)
    }
}

/// Asserts that the flat and the nested tables over the links `link_up`
/// keeps agree on everything a caller can read; returns how many (node,
/// host) pairs were unreachable.
fn assert_flat_equals_nested(
    topo: &Topology,
    link_up: impl Fn(NodeId, u32) -> bool + Copy,
    seed: u64,
) -> usize {
    let flat = RoutingTables::compute_filtered(topo, link_up);
    let nested = Nested::compute_filtered(topo, link_up);
    let hosts = topo.hosts();
    assert_eq!(flat.hosts(), &hosts[..]);
    assert_eq!(flat.switch_hop_diameter(), nested.switch_hop_diameter());
    let mut rng = SimRng::new(seed);
    let mut unreachable = 0;
    for node in (0..topo.num_nodes()).map(|i| NodeId(i as u32)) {
        for &dst in &hosts {
            let candidates = flat.candidates(node, dst);
            assert_eq!(candidates, nested.candidates(node, dst), "{node} -> {dst}");
            assert_eq!(
                flat.hops(node, dst),
                nested.hops(node, dst),
                "{node} -> {dst}"
            );
            for _ in 0..4 {
                let hash = rng.next_u64();
                let port = flat.try_egress_port(node, dst, hash);
                assert_eq!(
                    port,
                    nested.try_egress_port(node, dst, hash),
                    "{node} -> {dst}"
                );
            }
            if flat.hops(node, dst) == u32::MAX {
                assert!(candidates.is_empty(), "{node} -> {dst}");
                assert_eq!(flat.try_egress_port(node, dst, rng.next_u64()), None);
                unreachable += 1;
            }
        }
    }
    for &src in &hosts {
        for &dst in &hosts {
            if src == dst || flat.hops(src, dst) == u32::MAX {
                continue;
            }
            let (size, hash) = (1 + rng.next_below(10_000_000), rng.next_u64());
            let fct = flat.ideal_fct(topo, src, dst, size, hash);
            let want = nested.ideal_fct(topo, src, dst, size, hash);
            assert_eq!(fct.as_picos(), want.as_picos(), "{src} -> {dst}");
            let rtt = flat.base_rtt(topo, src, dst);
            assert_eq!(rtt.as_picos(), nested.base_rtt(topo, src, dst).as_picos());
        }
    }
    unreachable
}

/// Every cable once, as its two directed views `(node, local port)`.
fn cables(topo: &Topology) -> Vec<[(u32, u32); 2]> {
    let mut cables = Vec::new();
    for node in 0..topo.num_nodes() as u32 {
        for (port, spec) in topo.ports(NodeId(node)).iter().enumerate() {
            if node < spec.peer.0 {
                cables.push([(node, port as u32), (spec.peer.0, spec.peer_port)]);
            }
        }
    }
    cables
}

/// Both directed views of the cables `picks` names (each taken modulo the
/// cable count).
fn down_set(topo: &Topology, picks: &HashSet<u64>) -> HashSet<(u32, u32)> {
    let cables = cables(topo);
    picks
        .iter()
        .flat_map(|&pick| cables[pick as usize % cables.len()])
        .collect()
}

#[test]
fn flat_tables_equal_the_nested_ones_on_the_built_in_topologies() {
    for (name, topo) in [
        ("tiny", fat_tree(FatTreeParams::tiny())),
        ("t1", fat_tree(FatTreeParams::t1())),
        ("t2", fat_tree(FatTreeParams::t2())),
        (
            "cross_dc",
            cross_dc(CrossDcParams::paper_default()).topology,
        ),
    ] {
        let unreachable = assert_flat_equals_nested(&topo, |_, _| true, 42);
        assert_eq!(unreachable, 0, "{name} is connected");
    }
}

#[test]
fn flat_tables_equal_the_nested_ones_where_a_cut_leaves_pairs_unreachable() {
    // Host 0's uplink down: every other node loses host 0, and host 0 every
    // other host. The gateway cable down: the two data centers part.
    let topo = fat_tree(FatTreeParams::t2());
    let down = down_set(&topo, &HashSet::from([0]));
    let host_cut = assert_flat_equals_nested(&topo, |n, p| !down.contains(&(n.0, p)), 7);
    let n = topo.num_nodes();
    assert_eq!(host_cut, (n - 1) + (topo.hosts().len() - 1));
    let wan = cross_dc(CrossDcParams::paper_default());
    let gateway = wan
        .topology
        .port_towards(wan.gateway0, wan.gateway1)
        .expect("the gateways are adjacent");
    let spec = &wan.topology.ports(wan.gateway0)[gateway as usize];
    let down = HashSet::from([(wan.gateway0.0, gateway), (spec.peer.0, spec.peer_port)]);
    let parted = assert_flat_equals_nested(&wan.topology, |n, p| !down.contains(&(n.0, p)), 8);
    assert!(parted > 0, "the data centers no longer reach each other");
}

#[test]
fn flat_tables_equal_the_nested_ones_with_random_cables_down_on_t2() {
    // Sixteen generated subsets of up to 31 of T2's 96 cables, one seed
    // each (T2 is too large for a property's 256 cases in a debug build).
    let topo = fat_tree(FatTreeParams::t2());
    let mut unreachable = 0;
    for seed in 0..16 {
        let mut rng = SimRng::new(seed);
        let picks = (0..rng.next_below(32)).map(|_| rng.next_u64()).collect();
        let down = down_set(&topo, &picks);
        unreachable += assert_flat_equals_nested(&topo, |n, p| !down.contains(&(n.0, p)), seed);
    }
    assert!(unreachable > 0, "some subset cut a host off");
}

property! {
    /// Any symmetric subset of cables down on the tiny fat-tree, whose twelve
    /// cables a dozen picks can all cut.
    fn flat_tables_equal_the_nested_ones_with_any_cables_down(
        picks in hash_set_of(int_range(0u64..1 << 16), 0..12),
        seed in int_range(0u64..1 << 32),
    ) {
        let topo = fat_tree(FatTreeParams::tiny());
        let down = down_set(&topo, &picks);
        assert_flat_equals_nested(&topo, |n, p| !down.contains(&(n.0, p)), seed);
    }
}
