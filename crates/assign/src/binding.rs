//! VN-to-edge binding.
//!
//! The Binding phase assigns VNs to physical edge nodes — multiplexing
//! multiple VNs onto each machine — and binds each physical edge node to a
//! single core. Application instances must use their VN's emulated address
//! (see `mn-packet::VnAddr`), which the paper achieves with a preloaded
//! socket-interposition library; in this reproduction the `mn-edge` socket
//! layer performs the same binding.

use std::collections::HashMap;
use std::fmt;

use mn_packet::VnId;
use mn_topology::NodeId;

use crate::partition::CoreId;

/// Identifier of a physical edge node (a machine hosting VNs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeNodeId(pub usize);

impl EdgeNodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for EdgeNodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "edge{}", self.0)
    }
}

/// Parameters of the binding phase.
#[derive(Debug, Clone)]
pub struct BindingParams {
    /// Number of physical edge nodes available.
    pub edge_nodes: usize,
    /// Number of core nodes available.
    pub cores: usize,
}

impl BindingParams {
    /// Convenience constructor.
    pub fn new(edge_nodes: usize, cores: usize) -> Self {
        BindingParams { edge_nodes, cores }
    }
}

/// The complete binding: VN ↔ topology location, VN → edge node and
/// edge node → core.
#[derive(Debug, Clone)]
pub struct Binding {
    /// Topology client node hosting each VN, indexed by `VnId`.
    vn_location: Vec<NodeId>,
    /// Edge node hosting each VN, indexed by `VnId`.
    vn_edge: Vec<EdgeNodeId>,
    /// Core each edge node routes its traffic through.
    edge_core: Vec<CoreId>,
    /// Reverse map: topology node → VN (at most one VN per client node).
    location_vn: HashMap<NodeId, VnId>,
}

impl Binding {
    /// Binds one VN to every client node in `vn_locations`, spreading VNs
    /// across `params.edge_nodes` edge machines round-robin in contiguous
    /// blocks (VNs that share a stub domain land on the same edge node when
    /// possible, matching how the paper's experiments group them), and binds
    /// edge nodes to cores round-robin.
    ///
    /// # Panics
    ///
    /// Panics if `params.edge_nodes` or `params.cores` is zero.
    pub fn bind(vn_locations: &[NodeId], params: &BindingParams) -> Self {
        assert!(params.edge_nodes > 0, "need at least one edge node");
        assert!(params.cores > 0, "need at least one core");
        let n = vn_locations.len();
        let per_edge = n.div_ceil(params.edge_nodes.max(1)).max(1);
        let mut vn_location = Vec::with_capacity(n);
        let mut vn_edge = Vec::with_capacity(n);
        let mut location_vn = HashMap::with_capacity(n);
        for (i, &loc) in vn_locations.iter().enumerate() {
            let vn = VnId(i as u32);
            vn_location.push(loc);
            vn_edge.push(EdgeNodeId((i / per_edge).min(params.edge_nodes - 1)));
            location_vn.insert(loc, vn);
        }
        let edge_core = (0..params.edge_nodes)
            .map(|e| CoreId(e % params.cores))
            .collect();
        Binding {
            vn_location,
            vn_edge,
            edge_core,
            location_vn,
        }
    }

    /// Number of VNs bound.
    pub fn vn_count(&self) -> usize {
        self.vn_location.len()
    }

    /// Number of edge nodes.
    pub fn edge_count(&self) -> usize {
        self.edge_core.len()
    }

    /// Number of cores referenced.
    pub fn core_count(&self) -> usize {
        self.edge_core
            .iter()
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(1)
    }

    /// All VN identifiers.
    pub fn vns(&self) -> impl Iterator<Item = VnId> + '_ {
        (0..self.vn_location.len()).map(|i| VnId(i as u32))
    }

    /// The topology client node a VN is bound to.
    pub fn location(&self, vn: VnId) -> Option<NodeId> {
        self.vn_location.get(vn.index()).copied()
    }

    /// The VN bound at a topology client node, if any.
    pub fn vn_at(&self, node: NodeId) -> Option<VnId> {
        self.location_vn.get(&node).copied()
    }

    /// The edge machine hosting a VN.
    pub fn edge_of(&self, vn: VnId) -> Option<EdgeNodeId> {
        self.vn_edge.get(vn.index()).copied()
    }

    /// The core an edge machine routes through.
    pub fn core_of_edge(&self, edge: EdgeNodeId) -> Option<CoreId> {
        self.edge_core.get(edge.index()).copied()
    }

    /// The core a VN's traffic enters the emulation through.
    pub fn entry_core(&self, vn: VnId) -> Option<CoreId> {
        self.core_of_edge(self.edge_of(vn)?)
    }
}

/// Entry-core choice for a VN joining a running emulation: the least-loaded
/// core, lowest index breaking ties. Deterministic in the load vector alone,
/// so both execution backends assign identical entry cores from identical
/// churn histories.
///
/// # Panics
///
/// Panics if `loads` is empty.
pub fn least_loaded(loads: &[u32]) -> usize {
    assert!(!loads.is_empty(), "need at least one core");
    let mut best = 0;
    for (i, &load) in loads.iter().enumerate().skip(1) {
        if load < loads[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn locations(n: usize) -> Vec<NodeId> {
        (0..n).map(|i| NodeId(i + 100)).collect()
    }

    #[test]
    fn bind_spreads_vns_in_blocks() {
        let locs = locations(10);
        let b = Binding::bind(&locs, &BindingParams::new(5, 2));
        assert_eq!(b.vn_count(), 10);
        assert_eq!(b.edge_count(), 5);
        // First two VNs share edge 0.
        assert_eq!(b.edge_of(VnId(0)), Some(EdgeNodeId(0)));
        assert_eq!(b.edge_of(VnId(1)), Some(EdgeNodeId(0)));
        assert_eq!(b.edge_of(VnId(2)), Some(EdgeNodeId(1)));
    }

    #[test]
    fn locations_roundtrip() {
        let locs = locations(6);
        let b = Binding::bind(&locs, &BindingParams::new(3, 1));
        for (i, &loc) in locs.iter().enumerate() {
            let vn = VnId(i as u32);
            assert_eq!(b.location(vn), Some(loc));
            assert_eq!(b.vn_at(loc), Some(vn));
        }
        assert_eq!(b.location(VnId(99)), None);
        assert_eq!(b.vn_at(NodeId(0)), None);
    }

    #[test]
    fn edges_bound_to_cores_round_robin() {
        let b = Binding::bind(&locations(8), &BindingParams::new(4, 2));
        assert_eq!(b.core_of_edge(EdgeNodeId(0)), Some(CoreId(0)));
        assert_eq!(b.core_of_edge(EdgeNodeId(1)), Some(CoreId(1)));
        assert_eq!(b.core_of_edge(EdgeNodeId(2)), Some(CoreId(0)));
        assert_eq!(b.core_of_edge(EdgeNodeId(3)), Some(CoreId(1)));
        assert_eq!(b.core_count(), 2);
        assert_eq!(b.entry_core(VnId(2)), Some(CoreId(1)));
    }

    #[test]
    fn more_edges_than_vns_is_fine() {
        let b = Binding::bind(&locations(2), &BindingParams::new(10, 3));
        assert_eq!(b.edge_of(VnId(1)), Some(EdgeNodeId(1)));
    }

    #[test]
    fn single_edge_hosts_everything() {
        let b = Binding::bind(&locations(12), &BindingParams::new(1, 1));
        assert!(b.vns().all(|vn| b.edge_of(vn) == Some(EdgeNodeId(0))));
    }

    #[test]
    fn least_loaded_breaks_ties_toward_the_lowest_index() {
        assert_eq!(least_loaded(&[3, 1, 2, 1]), 1);
        assert_eq!(least_loaded(&[0, 0, 0]), 0);
        assert_eq!(least_loaded(&[5]), 0);
    }

    #[test]
    #[should_panic(expected = "at least one edge node")]
    fn zero_edges_rejected() {
        let _ = Binding::bind(&locations(1), &BindingParams::new(0, 1));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = Binding::bind(&locations(1), &BindingParams::new(1, 0));
    }
}
