//! Shared identifier types.
//!
//! Nodes (hosts and switches), ports and flows are identified by small
//! newtype indices. Using newtypes rather than bare `usize` keeps the switch
//! and host code from accidentally mixing up the three ID spaces.

use std::fmt;

/// Identifies a node (host or switch) in the topology.
///
/// Node IDs are dense indices assigned by the [`crate::topology::TopologyBuilder`];
/// hosts and switches share one ID space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifies a (full-duplex) port on a specific node. Port indices are local
/// to the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u32);

/// Identifies a flow. Flow IDs are dense indices into the experiment's trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u32);

bfc_sim::snap_newtype!(NodeId(u32), FlowId(u32));

impl NodeId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl PortId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl FlowId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<u32> for FlowId {
    fn from(v: u32) -> Self {
        FlowId(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_index() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
        assert_eq!(format!("{}", PortId(1)), "p1");
        assert_eq!(format!("{}", FlowId(9)), "f9");
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(FlowId::from(2u32), FlowId(2));
    }
}
