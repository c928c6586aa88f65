//! Topology description and builders.
//!
//! A [`Topology`] is a set of nodes (hosts and switches) connected by
//! full-duplex cables. The builders reproduce the paper's evaluation
//! topologies:
//!
//! * **T1** — 128 hosts, 8 ToR switches (16 hosts each), 8 spines, 2:1
//!   oversubscription, 100 Gbps links with 1 µs propagation delay.
//! * **T2** — 64 hosts, 4 ToR switches, 8 spines, same links.
//! * **Cross-DC** — two T2-style data centers joined by gateway switches over
//!   a long-haul 100 Gbps link with 200 µs one-way delay (§4.2).

use bfc_sim::SimDuration;

use crate::link::Link;
use crate::types::NodeId;

/// What a node is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host with a single NIC port.
    Host,
    /// A switch.
    Switch,
}

/// One direction of a cable as seen from a node: the local port's link and
/// the peer it reaches.
#[derive(Debug, Clone, Copy)]
pub struct PortSpec {
    /// Node on the other end.
    pub peer: NodeId,
    /// The peer's local port index for the same cable.
    pub peer_port: u32,
    /// Link characteristics in the egress direction of this port.
    pub link: Link,
}

/// A complete topology.
#[derive(Debug, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    ports: Vec<Vec<PortSpec>>,
    labels: Vec<String>,
}

impl Topology {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Kind of a node.
    pub fn kind(&self, node: NodeId) -> NodeKind {
        self.kinds[node.index()]
    }

    /// True if the node is a host (false for a switch, and for an id past
    /// the last node, which an outside trace may name).
    pub fn is_host(&self, node: NodeId) -> bool {
        self.kinds.get(node.index()) == Some(&NodeKind::Host)
    }

    /// All host node IDs, in creation order.
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.kinds.len())
            .filter(|&i| self.kinds[i] == NodeKind::Host)
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// All switch node IDs, in creation order.
    pub fn switches(&self) -> Vec<NodeId> {
        (0..self.kinds.len())
            .filter(|&i| self.kinds[i] == NodeKind::Switch)
            .map(|i| NodeId(i as u32))
            .collect()
    }

    /// The ports of a node.
    pub fn ports(&self, node: NodeId) -> &[PortSpec] {
        &self.ports[node.index()]
    }

    /// Human-readable label of a node (e.g. `"tor3"`, `"host17"`).
    pub fn label(&self, node: NodeId) -> &str {
        &self.labels[node.index()]
    }

    /// The single uplink port of a host.
    pub fn host_uplink(&self, host: NodeId) -> &PortSpec {
        debug_assert!(self.is_host(host), "host_uplink called on a switch");
        &self.ports[host.index()][0]
    }

    /// Looks up which local port of `node` faces `peer`, if they are adjacent.
    pub fn port_towards(&self, node: NodeId, peer: NodeId) -> Option<u32> {
        self.ports[node.index()]
            .iter()
            .position(|p| p.peer == peer)
            .map(|i| i as u32)
    }
}

/// Incrementally builds a [`Topology`].
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    kinds: Vec<NodeKind>,
    ports: Vec<Vec<PortSpec>>,
    labels: Vec<String>,
}

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TopologyBuilder::default()
    }

    fn add_node(&mut self, kind: NodeKind, label: String) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.ports.push(Vec::new());
        self.labels.push(label);
        id
    }

    /// Adds a host.
    pub fn add_host(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, label.into())
    }

    /// Adds a switch.
    pub fn add_switch(&mut self, label: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, label.into())
    }

    /// Connects two nodes with a symmetric full-duplex cable.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        let port_a = self.ports[a.index()].len() as u32;
        let port_b = self.ports[b.index()].len() as u32;
        self.ports[a.index()].push(PortSpec {
            peer: b,
            peer_port: port_b,
            link,
        });
        self.ports[b.index()].push(PortSpec {
            peer: a,
            peer_port: port_a,
            link,
        });
    }

    /// Finishes the topology.
    pub fn build(self) -> Topology {
        Topology {
            kinds: self.kinds,
            ports: self.ports,
            labels: self.labels,
        }
    }
}

/// Parameters of a two-level (leaf/spine) fat tree.
#[derive(Debug, Clone, Copy)]
pub struct FatTreeParams {
    /// Number of top-of-rack switches.
    pub num_tors: usize,
    /// Hosts attached to each ToR.
    pub hosts_per_tor: usize,
    /// Number of spine switches (each connects to every ToR).
    pub num_spines: usize,
    /// Host ↔ ToR links.
    pub host_link: Link,
    /// ToR ↔ spine links.
    pub fabric_link: Link,
}

impl FatTreeParams {
    /// The paper's T1 topology: 128 hosts, 8 ToRs, 8 spines, 100 Gbps, 1 µs.
    pub fn t1() -> Self {
        FatTreeParams {
            num_tors: 8,
            hosts_per_tor: 16,
            num_spines: 8,
            host_link: Link::datacenter_default(),
            fabric_link: Link::datacenter_default(),
        }
    }

    /// The paper's T2 topology: 64 hosts, 4 ToRs, 8 spines, 100 Gbps, 1 µs.
    pub fn t2() -> Self {
        FatTreeParams {
            num_tors: 4,
            hosts_per_tor: 16,
            num_spines: 8,
            host_link: Link::datacenter_default(),
            fabric_link: Link::datacenter_default(),
        }
    }

    /// Same shape as T2 but with every link scaled to `gbps` (used by the
    /// Fig. 2 link-speed sweep and the cross-DC experiment's 10 Gbps fabric).
    pub fn t2_at_rate(gbps: f64) -> Self {
        let link = Link::new(gbps, SimDuration::from_micros(1));
        FatTreeParams {
            num_tors: 4,
            hosts_per_tor: 16,
            num_spines: 8,
            host_link: link,
            fabric_link: link,
        }
    }

    /// Total number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.num_tors * self.hosts_per_tor
    }

    /// A smaller topology for tests and fast benchmarks, preserving the
    /// 2:1 oversubscription of the paper's topologies.
    pub fn tiny() -> Self {
        FatTreeParams {
            num_tors: 2,
            hosts_per_tor: 4,
            num_spines: 2,
            host_link: Link::datacenter_default(),
            fabric_link: Link::datacenter_default(),
        }
    }
}

/// Builds a two-level fat tree. Hosts are created first (so host `i` has
/// `NodeId(i)`), then ToRs, then spines.
pub fn fat_tree(params: FatTreeParams) -> Topology {
    let mut b = TopologyBuilder::new();
    let hosts: Vec<NodeId> = (0..params.num_hosts())
        .map(|i| b.add_host(format!("host{i}")))
        .collect();
    let tors: Vec<NodeId> = (0..params.num_tors)
        .map(|i| b.add_switch(format!("tor{i}")))
        .collect();
    let spines: Vec<NodeId> = (0..params.num_spines)
        .map(|i| b.add_switch(format!("spine{i}")))
        .collect();
    for (h, &host) in hosts.iter().enumerate() {
        let tor = tors[h / params.hosts_per_tor];
        b.connect(host, tor, params.host_link);
    }
    for &tor in &tors {
        for &spine in &spines {
            b.connect(tor, spine, params.fabric_link);
        }
    }
    b.build()
}

/// Parameters of the cross-data-center topology (§4.2 "Cross datacenter
/// environments").
#[derive(Debug, Clone, Copy)]
pub struct CrossDcParams {
    /// Parameters of each data center's internal fat tree.
    pub dc: FatTreeParams,
    /// The long-haul link between the two gateway switches.
    pub inter_dc_link: Link,
}

impl CrossDcParams {
    /// The paper's setup: two T2-shaped DCs with 10 Gbps internal links and a
    /// 100 Gbps gateway-to-gateway link with 200 µs one-way delay.
    pub fn paper_default() -> Self {
        CrossDcParams {
            dc: FatTreeParams::t2_at_rate(10.0),
            inter_dc_link: Link::new(100.0, SimDuration::from_micros(200)),
        }
    }
}

/// The cross-DC topology plus bookkeeping about which hosts belong to which
/// data center.
#[derive(Debug, Clone)]
pub struct CrossDcTopology {
    /// The built topology.
    pub topology: Topology,
    /// Hosts in data center 0.
    pub dc0_hosts: Vec<NodeId>,
    /// Hosts in data center 1.
    pub dc1_hosts: Vec<NodeId>,
    /// Gateway switch of data center 0.
    pub gateway0: NodeId,
    /// Gateway switch of data center 1.
    pub gateway1: NodeId,
}

/// Builds two fat-tree data centers joined by a gateway switch each. Every
/// spine of a data center connects to its gateway with a fabric link; the two
/// gateways are joined by the long-haul link.
pub fn cross_dc(params: CrossDcParams) -> CrossDcTopology {
    let mut b = TopologyBuilder::new();
    let mut dc_hosts = Vec::new();
    let mut dc_spines = Vec::new();
    for dc in 0..2 {
        let hosts: Vec<NodeId> = (0..params.dc.num_hosts())
            .map(|i| b.add_host(format!("dc{dc}-host{i}")))
            .collect();
        let tors: Vec<NodeId> = (0..params.dc.num_tors)
            .map(|i| b.add_switch(format!("dc{dc}-tor{i}")))
            .collect();
        let spines: Vec<NodeId> = (0..params.dc.num_spines)
            .map(|i| b.add_switch(format!("dc{dc}-spine{i}")))
            .collect();
        for (h, &host) in hosts.iter().enumerate() {
            b.connect(host, tors[h / params.dc.hosts_per_tor], params.dc.host_link);
        }
        for &tor in &tors {
            for &spine in &spines {
                b.connect(tor, spine, params.dc.fabric_link);
            }
        }
        dc_hosts.push(hosts);
        dc_spines.push(spines);
    }
    let gateway0 = b.add_switch("gateway0");
    let gateway1 = b.add_switch("gateway1");
    for &spine in &dc_spines[0] {
        b.connect(spine, gateway0, params.dc.fabric_link);
    }
    for &spine in &dc_spines[1] {
        b.connect(spine, gateway1, params.dc.fabric_link);
    }
    b.connect(gateway0, gateway1, params.inter_dc_link);
    CrossDcTopology {
        topology: b.build(),
        dc1_hosts: dc_hosts.pop().expect("two DCs were built"),
        dc0_hosts: dc_hosts.pop().expect("two DCs were built"),
        gateway0,
        gateway1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_shape_matches_paper() {
        let p = FatTreeParams::t1();
        let t = fat_tree(p);
        assert_eq!(t.hosts().len(), 128);
        assert_eq!(t.switches().len(), 16);
        // Each ToR has 16 host ports + 8 spine ports.
        let tor = t.switches()[0];
        assert_eq!(t.ports(tor).len(), 24);
        // Each spine has 8 ToR ports.
        let spine = t.switches()[8];
        assert_eq!(t.ports(spine).len(), 8);
        // Hosts have exactly one port.
        assert_eq!(t.ports(t.hosts()[0]).len(), 1);
        assert!(t.label(tor).starts_with("tor"));
    }

    #[test]
    fn t2_shape_matches_paper() {
        let t = fat_tree(FatTreeParams::t2());
        assert_eq!(t.hosts().len(), 64);
        assert_eq!(t.switches().len(), 12);
    }

    #[test]
    fn connectivity_is_symmetric() {
        let t = fat_tree(FatTreeParams::tiny());
        for node in 0..t.num_nodes() {
            let node = NodeId(node as u32);
            for (i, spec) in t.ports(node).iter().enumerate() {
                let back = &t.ports(spec.peer)[spec.peer_port as usize];
                assert_eq!(back.peer, node);
                assert_eq!(back.peer_port as usize, i);
            }
        }
    }

    #[test]
    fn host_ids_are_dense_and_first() {
        let t = fat_tree(FatTreeParams::tiny());
        let hosts = t.hosts();
        for (i, h) in hosts.iter().enumerate() {
            assert_eq!(h.index(), i);
            assert!(t.is_host(*h));
        }
    }

    #[test]
    fn port_towards_finds_adjacency() {
        let t = fat_tree(FatTreeParams::tiny());
        let host = t.hosts()[0];
        let tor = t.host_uplink(host).peer;
        assert!(t.port_towards(tor, host).is_some());
        assert!(t.port_towards(host, tor).is_some());
        let other_host = t.hosts()[7];
        assert_eq!(t.port_towards(host, other_host), None);
    }

    #[test]
    fn cross_dc_shape() {
        let c = cross_dc(CrossDcParams::paper_default());
        assert_eq!(c.dc0_hosts.len(), 64);
        assert_eq!(c.dc1_hosts.len(), 64);
        // Gateways: 8 spine ports + 1 long-haul port.
        assert_eq!(c.topology.ports(c.gateway0).len(), 9);
        assert_eq!(c.topology.ports(c.gateway1).len(), 9);
        let gw_link = c
            .topology
            .ports(c.gateway0)
            .last()
            .expect("gateway has ports");
        assert_eq!(gw_link.peer, c.gateway1);
        assert_eq!(gw_link.link.propagation, SimDuration::from_micros(200));
    }

    #[test]
    fn t2_at_rate_scales_links() {
        let t = fat_tree(FatTreeParams::t2_at_rate(10.0));
        let host = t.hosts()[0];
        assert_eq!(t.host_uplink(host).link.rate_gbps, 10.0);
    }
}
