//! The annotated target-network graph.
//!
//! Nodes are classified as clients, stubs or transits, borrowing the
//! transit–stub terminology the paper takes from Calvert/Doar/Zegura. Client
//! nodes are the attachment points for virtual nodes (VNs); stub and transit
//! nodes form the interior of the network. Links are undirected and carry the
//! attributes a ModelNet pipe needs: bandwidth, one-way latency, loss rate and
//! a maximum queue length.

use std::collections::VecDeque;
use std::fmt;

use mn_util::{DataRate, SimDuration};

mn_util::codec_record! {
    /// Identifier of a node within a [`Topology`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct NodeId(pub usize);
}

impl NodeId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of an undirected link within a [`Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub usize);

impl LinkId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Role of a node in the target topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An end host: the attachment point of one or more virtual nodes.
    Client,
    /// A router inside a stub domain.
    Stub,
    /// A router inside a transit (backbone) domain.
    Transit,
}

impl NodeKind {
    /// Returns `true` for [`NodeKind::Client`].
    pub fn is_client(self) -> bool {
        matches!(self, NodeKind::Client)
    }
}

impl fmt::Display for NodeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NodeKind::Client => write!(f, "client"),
            NodeKind::Stub => write!(f, "stub"),
            NodeKind::Transit => write!(f, "transit"),
        }
    }
}

/// Attributes of a target-network link, as understood by the emulation core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkAttrs {
    /// Link bandwidth.
    pub bandwidth: DataRate,
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Probability in `[0, 1]` that a packet traversing the link is dropped
    /// independently of congestion.
    pub loss_rate: f64,
    /// Maximum number of packets the link's queue may buffer before
    /// congestion drops occur.
    pub queue_len: usize,
}

impl LinkAttrs {
    /// Default queue length used when a source does not specify one.
    ///
    /// dummynet's default of 50 slots is also what the paper's pipes use
    /// unless configured otherwise.
    pub const DEFAULT_QUEUE_LEN: usize = 50;

    /// Creates link attributes with the given bandwidth and latency, no
    /// random loss and the default queue length.
    pub fn new(bandwidth: DataRate, latency: SimDuration) -> Self {
        LinkAttrs {
            bandwidth,
            latency,
            loss_rate: 0.0,
            queue_len: Self::DEFAULT_QUEUE_LEN,
        }
    }

    /// Sets the random loss rate (clamped to `[0, 1]`).
    pub fn with_loss(mut self, loss_rate: f64) -> Self {
        self.loss_rate = loss_rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the maximum queue length in packets.
    pub fn with_queue_len(mut self, queue_len: usize) -> Self {
        self.queue_len = queue_len;
        self
    }

    /// The link's reliability, `1 - loss_rate`.
    pub fn reliability(&self) -> f64 {
        1.0 - self.loss_rate
    }
}

/// A node record.
#[derive(Debug, Clone)]
pub struct Node {
    /// The node's role.
    pub kind: NodeKind,
    /// Optional human-readable name (preserved through GML round trips).
    pub name: Option<String>,
}

/// An undirected link record.
#[derive(Debug, Clone)]
pub struct Link {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Emulation attributes.
    pub attrs: LinkAttrs,
}

impl Link {
    /// Given one endpoint of the link, returns the other.
    ///
    /// Returns `None` if `node` is not an endpoint.
    pub fn other(&self, node: NodeId) -> Option<NodeId> {
        if node == self.a {
            Some(self.b)
        } else if node == self.b {
            Some(self.a)
        } else {
            None
        }
    }
}

/// Errors raised while constructing or editing a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A referenced node does not exist.
    UnknownNode(NodeId),
    /// A referenced link does not exist.
    UnknownLink(LinkId),
    /// Attempted to create a self-loop.
    SelfLoop(NodeId),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopologyError::SelfLoop(n) => write!(f, "self loop on node {n}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// An annotated target-network graph.
///
/// # Examples
///
/// ```
/// use mn_topology::{LinkAttrs, NodeKind, Topology};
/// use mn_util::{DataRate, SimDuration};
///
/// let mut topo = Topology::new();
/// let a = topo.add_node(NodeKind::Client);
/// let r = topo.add_node(NodeKind::Stub);
/// let b = topo.add_node(NodeKind::Client);
/// let attrs = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(5));
/// topo.add_link(a, r, attrs).unwrap();
/// topo.add_link(r, b, attrs).unwrap();
/// assert_eq!(topo.node_count(), 3);
/// assert_eq!(topo.client_nodes().count(), 2);
/// assert!(topo.is_connected());
/// ```
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Adjacency: for each node, the list of (neighbor, link) pairs.
    adjacency: Vec<Vec<(NodeId, LinkId)>>,
}

impl Topology {
    /// Creates an empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Adds a node of the given kind and returns its identifier.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(Node { kind, name: None });
        self.adjacency.push(Vec::new());
        id
    }

    /// Adds a named node of the given kind and returns its identifier.
    pub fn add_named_node(&mut self, kind: NodeKind, name: impl Into<String>) -> NodeId {
        let id = self.add_node(kind);
        self.nodes[id.0].name = Some(name.into());
        id
    }

    /// Adds an undirected link between `a` and `b`.
    ///
    /// Parallel links are permitted (they occur in real AS-level graphs);
    /// self-loops are not.
    pub fn add_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        attrs: LinkAttrs,
    ) -> Result<LinkId, TopologyError> {
        self.check_node(a)?;
        self.check_node(b)?;
        if a == b {
            return Err(TopologyError::SelfLoop(a));
        }
        let id = LinkId(self.links.len());
        self.links.push(Link { a, b, attrs });
        self.adjacency[a.0].push((b, id));
        self.adjacency[b.0].push((a, id));
        Ok(id)
    }

    fn check_node(&self, n: NodeId) -> Result<(), TopologyError> {
        if n.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(TopologyError::UnknownNode(n))
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Returns the node record, or an error for an unknown id.
    pub fn node(&self, id: NodeId) -> Result<&Node, TopologyError> {
        self.nodes.get(id.0).ok_or(TopologyError::UnknownNode(id))
    }

    /// Returns the link record, or an error for an unknown id.
    pub fn link(&self, id: LinkId) -> Result<&Link, TopologyError> {
        self.links.get(id.0).ok_or(TopologyError::UnknownLink(id))
    }

    /// Mutable access to a link's attributes (used by annotation and by the
    /// dynamic network-change machinery).
    pub fn link_attrs_mut(&mut self, id: LinkId) -> Result<&mut LinkAttrs, TopologyError> {
        self.links
            .get_mut(id.0)
            .map(|l| &mut l.attrs)
            .ok_or(TopologyError::UnknownLink(id))
    }

    /// Iterator over all node identifiers.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterator over all `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> + '_ {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterator over all `(id, link)` pairs.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &Link)> + '_ {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Iterator over the client (end-host) node identifiers.
    pub fn client_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes()
            .filter(|(_, n)| n.kind.is_client())
            .map(|(id, _)| id)
    }

    /// Iterator over `(neighbor, link)` pairs adjacent to `node`.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, LinkId)> + '_ {
        self.adjacency
            .get(node.0)
            .map(|v| v.iter().copied())
            .into_iter()
            .flatten()
    }

    /// Degree (number of incident links) of `node`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.adjacency.get(node.0).map_or(0, |v| v.len())
    }

    /// Breadth-first search from `start`; returns, for each node, the hop
    /// distance from `start` or `None` if unreachable.
    pub fn bfs_distances(&self, start: NodeId) -> Vec<Option<usize>> {
        let mut dist = vec![None; self.nodes.len()];
        if start.0 >= self.nodes.len() {
            return dist;
        }
        let mut queue = VecDeque::new();
        dist[start.0] = Some(0);
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            let d = dist[u.0].unwrap();
            for (v, _) in self.neighbors(u) {
                if dist[v.0].is_none() {
                    dist[v.0] = Some(d + 1);
                    queue.push_back(v);
                }
            }
        }
        dist
    }

    /// Returns `true` if every node is reachable from every other node.
    /// An empty topology is considered connected.
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        self.bfs_distances(NodeId(0)).iter().all(Option::is_some)
    }

    /// The hop-count diameter of the topology (longest shortest path), or 0
    /// for an empty or disconnected topology.
    ///
    /// This is an O(V·E) computation; it is intended for experiment setup and
    /// reporting, not for per-packet work.
    pub fn hop_diameter(&self) -> usize {
        let mut diameter = 0;
        for start in self.node_ids() {
            let dists = self.bfs_distances(start);
            if dists.iter().any(Option::is_none) {
                return 0;
            }
            if let Some(max) = dists.iter().flatten().max() {
                diameter = diameter.max(*max);
            }
        }
        diameter
    }

    /// Total number of client nodes.
    pub fn client_count(&self) -> usize {
        self.client_nodes().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs() -> LinkAttrs {
        LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(5))
    }

    fn line(n: usize) -> Topology {
        let mut t = Topology::new();
        let nodes: Vec<NodeId> = (0..n).map(|_| t.add_node(NodeKind::Stub)).collect();
        for w in nodes.windows(2) {
            t.add_link(w[0], w[1], attrs()).unwrap();
        }
        t
    }

    #[test]
    fn add_nodes_and_links() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Client);
        let b = t.add_named_node(NodeKind::Transit, "core-1");
        let l = t.add_link(a, b, attrs()).unwrap();
        assert_eq!(t.node_count(), 2);
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.link(l).unwrap().other(a), Some(b));
        assert_eq!(t.link(l).unwrap().other(b), Some(a));
        assert_eq!(t.node(b).unwrap().name.as_deref(), Some("core-1"));
        assert_eq!(t.degree(a), 1);
    }

    #[test]
    fn self_loop_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Client);
        assert_eq!(t.add_link(a, a, attrs()), Err(TopologyError::SelfLoop(a)));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Client);
        let bogus = NodeId(99);
        assert_eq!(
            t.add_link(a, bogus, attrs()),
            Err(TopologyError::UnknownNode(bogus))
        );
        assert!(t.node(bogus).is_err());
        assert!(t.link(LinkId(99)).is_err());
    }

    #[test]
    fn parallel_links_allowed() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Stub);
        let b = t.add_node(NodeKind::Stub);
        t.add_link(a, b, attrs()).unwrap();
        t.add_link(a, b, attrs()).unwrap();
        assert_eq!(t.link_count(), 2);
        assert_eq!(t.degree(a), 2);
    }

    #[test]
    fn bfs_distances_on_line() {
        let t = line(5);
        let d = t.bfs_distances(NodeId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
        assert_eq!(t.hop_diameter(), 4);
        assert!(t.is_connected());
    }

    #[test]
    fn disconnected_detection() {
        let mut t = line(3);
        t.add_node(NodeKind::Client);
        assert!(!t.is_connected());
        assert_eq!(t.hop_diameter(), 0);
    }

    #[test]
    fn client_iteration() {
        let mut t = Topology::new();
        t.add_node(NodeKind::Client);
        t.add_node(NodeKind::Stub);
        t.add_node(NodeKind::Client);
        t.add_node(NodeKind::Transit);
        assert_eq!(t.client_count(), 2);
        assert_eq!(
            t.client_nodes().collect::<Vec<_>>(),
            vec![NodeId(0), NodeId(2)]
        );
    }

    #[test]
    fn link_attrs_builder() {
        let a = attrs().with_loss(0.25).with_queue_len(7);
        assert_eq!(a.loss_rate, 0.25);
        assert_eq!(a.queue_len, 7);
        assert!((a.reliability() - 0.75).abs() < 1e-12);
        // Loss clamps into [0, 1].
        assert_eq!(attrs().with_loss(7.0).loss_rate, 1.0);
        assert_eq!(attrs().with_loss(-7.0).loss_rate, 0.0);
    }

    #[test]
    fn link_attrs_mut_updates() {
        let mut t = line(2);
        let id = LinkId(0);
        t.link_attrs_mut(id).unwrap().bandwidth = DataRate::from_mbps(99);
        assert_eq!(t.link(id).unwrap().attrs.bandwidth, DataRate::from_mbps(99));
        assert!(t.link_attrs_mut(LinkId(5)).is_err());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            TopologyError::UnknownNode(NodeId(3)).to_string(),
            "unknown node n3"
        );
        assert_eq!(
            TopologyError::SelfLoop(NodeId(1)).to_string(),
            "self loop on node n1"
        );
        assert_eq!(
            TopologyError::UnknownLink(LinkId(2)).to_string(),
            "unknown link l2"
        );
    }
}
