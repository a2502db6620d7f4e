//! Shortest paths over the target-network graph.
//!
//! These graph-level computations are used in three places:
//!
//! * the **distillation** phase collapses interior paths into single pipes and
//!   needs the latency-shortest path between node pairs,
//! * the **ACDC** case study compares the overlay's delay against an off-line
//!   shortest path tree (Figure 12),
//! * experiment setup code frequently needs path latency/bottleneck summaries
//!   for sanity checks.
//!
//! Routing inside the emulation core uses its own pipe-level machinery in
//! `mn-routing`; the functions here operate on the *undirected target graph*.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mn_util::{DataRate, SimDuration};

use crate::graph::{LinkId, NodeId, Topology};

/// The cost metric used for shortest-path computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathMetric {
    /// Minimise the sum of link latencies (ties broken by hop count).
    Latency,
    /// Minimise the number of hops.
    Hops,
}

/// A path through the target graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphPath {
    /// The node sequence, beginning with the source and ending with the
    /// destination.
    pub nodes: Vec<NodeId>,
    /// The link sequence, one entry per hop.
    pub links: Vec<LinkId>,
}

impl GraphPath {
    /// Number of hops (links) on the path.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// Sum of link latencies along the path.
    pub fn total_latency(&self, topo: &Topology) -> SimDuration {
        self.links
            .iter()
            .map(|&l| topo.link(l).expect("path link exists").attrs.latency)
            .sum()
    }

    /// Minimum link bandwidth along the path (the path's bottleneck).
    pub fn bottleneck_bandwidth(&self, topo: &Topology) -> DataRate {
        self.links
            .iter()
            .map(|&l| topo.link(l).expect("path link exists").attrs.bandwidth)
            .fold(DataRate::from_bps(u64::MAX), DataRate::min)
    }

    /// Product of link reliabilities along the path.
    pub fn reliability(&self, topo: &Topology) -> f64 {
        self.links
            .iter()
            .map(|&l| topo.link(l).expect("path link exists").attrs.reliability())
            .product()
    }

    /// Minimum queue length along the path.
    pub fn bottleneck_queue(&self, topo: &Topology) -> usize {
        self.links
            .iter()
            .map(|&l| topo.link(l).expect("path link exists").attrs.queue_len)
            .min()
            .unwrap_or(0)
    }
}

fn link_cost(topo: &Topology, link: LinkId, metric: PathMetric) -> u64 {
    match metric {
        // +1 ns per hop serves as the hop-count tie breaker.
        PathMetric::Latency => {
            topo.link(link)
                .expect("link exists")
                .attrs
                .latency
                .as_nanos()
                + 1
        }
        PathMetric::Hops => 1,
    }
}

/// Single-source shortest paths (Dijkstra) from `source` under `metric`.
///
/// Returns, for every node, the predecessor `(node, link)` on a shortest path
/// from `source`, or `None` if unreachable (or for the source itself).
///
/// Equal-cost ties are pinned to the lowest `(predecessor, link)` pair. Every
/// candidate predecessor of a node is finalised (popped) before the node
/// itself — link costs are at least 1 — so the choice is a pure function of
/// the distance labels, independent of heap relaxation order, and agrees
/// with the distiller's path collapse on tied topologies.
pub fn shortest_path_tree(
    topo: &Topology,
    source: NodeId,
    metric: PathMetric,
) -> Vec<Option<(NodeId, LinkId)>> {
    let n = topo.node_count();
    let mut dist = vec![u64::MAX; n];
    let mut pred: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    if source.index() >= n {
        return pred;
    }
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for (v, link) in topo.neighbors(u) {
            // A zero-bandwidth link models a failure: it carries no traffic,
            // so no path may use it (the routing view of fault injection).
            if topo
                .link(link)
                .expect("link exists")
                .attrs
                .bandwidth
                .is_zero()
            {
                continue;
            }
            let nd = d.saturating_add(link_cost(topo, link, metric));
            let improved = nd < dist[v.index()];
            let tie_break =
                nd == dist[v.index()] && pred[v.index()].is_some_and(|(p, l)| (u, link) < (p, l));
            if improved || tie_break {
                dist[v.index()] = nd;
                pred[v.index()] = Some((u, link));
                if improved {
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    pred
}

/// Computes the shortest path between two nodes under `metric`, or `None` if
/// the destination is unreachable.
pub fn shortest_path(
    topo: &Topology,
    source: NodeId,
    dest: NodeId,
    metric: PathMetric,
) -> Option<GraphPath> {
    if source == dest {
        return Some(GraphPath {
            nodes: vec![source],
            links: vec![],
        });
    }
    let pred = shortest_path_tree(topo, source, metric);
    pred.get(dest.index())?.as_ref()?;
    let mut nodes = vec![dest];
    let mut links = Vec::new();
    let mut cur = dest;
    while cur != source {
        let (p, link) = pred[cur.index()]?;
        links.push(link);
        nodes.push(p);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(GraphPath { nodes, links })
}

/// Computes the latency of the shortest path between two nodes, or `None` if
/// unreachable.
pub fn shortest_path_latency(topo: &Topology, source: NodeId, dest: NodeId) -> Option<SimDuration> {
    shortest_path(topo, source, dest, PathMetric::Latency).map(|p| p.total_latency(topo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{LinkAttrs, NodeKind};

    fn attrs(mbps: u64, ms: u64) -> LinkAttrs {
        LinkAttrs::new(DataRate::from_mbps(mbps), SimDuration::from_millis(ms))
    }

    /// A diamond: a-b-d is two fast hops, a-c-d is one slow + one fast hop,
    /// plus a direct (high-latency) a-d link.
    fn diamond() -> (Topology, [NodeId; 4]) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Client);
        let b = t.add_node(NodeKind::Stub);
        let c = t.add_node(NodeKind::Stub);
        let d = t.add_node(NodeKind::Client);
        t.add_link(a, b, attrs(10, 2)).unwrap();
        t.add_link(b, d, attrs(10, 2)).unwrap();
        t.add_link(a, c, attrs(100, 10)).unwrap();
        t.add_link(c, d, attrs(100, 10)).unwrap();
        t.add_link(a, d, attrs(1, 30)).unwrap();
        (t, [a, b, c, d])
    }

    #[test]
    fn shortest_path_prefers_low_latency() {
        let (t, [a, _, _, d]) = diamond();
        let p = shortest_path(&t, a, d, PathMetric::Latency).unwrap();
        assert_eq!(p.hop_count(), 2);
        assert_eq!(p.total_latency(&t), SimDuration::from_millis(4));
        assert_eq!(p.bottleneck_bandwidth(&t), DataRate::from_mbps(10));
    }

    #[test]
    fn shortest_path_by_hops_prefers_direct_link() {
        let (t, [a, _, _, d]) = diamond();
        let p = shortest_path(&t, a, d, PathMetric::Hops).unwrap();
        assert_eq!(p.hop_count(), 1);
        assert_eq!(p.total_latency(&t), SimDuration::from_millis(30));
    }

    #[test]
    fn shortest_path_to_self_is_empty() {
        let (t, [a, ..]) = diamond();
        let p = shortest_path(&t, a, a, PathMetric::Latency).unwrap();
        assert_eq!(p.hop_count(), 0);
        assert_eq!(p.nodes, vec![a]);
        assert_eq!(p.total_latency(&t), SimDuration::ZERO);
        assert_eq!(p.reliability(&t), 1.0);
    }

    #[test]
    fn unreachable_destination_returns_none() {
        let (mut t, [a, ..]) = diamond();
        let lonely = t.add_node(NodeKind::Client);
        assert!(shortest_path(&t, a, lonely, PathMetric::Latency).is_none());
        assert!(shortest_path_latency(&t, a, lonely).is_none());
    }

    #[test]
    fn path_reliability_is_product() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Client);
        let b = t.add_node(NodeKind::Stub);
        let c = t.add_node(NodeKind::Client);
        t.add_link(a, b, attrs(10, 1).with_loss(0.1)).unwrap();
        t.add_link(b, c, attrs(10, 1).with_loss(0.2)).unwrap();
        let p = shortest_path(&t, a, c, PathMetric::Latency).unwrap();
        assert!((p.reliability(&t) - 0.72).abs() < 1e-12);
        assert_eq!(p.bottleneck_queue(&t), LinkAttrs::DEFAULT_QUEUE_LEN);
    }

    #[test]
    fn spt_latency_helper_matches_path() {
        let (t, [a, _, _, d]) = diamond();
        assert_eq!(
            shortest_path_latency(&t, a, d),
            Some(SimDuration::from_millis(4))
        );
    }

    #[test]
    fn spt_tree_covers_all_reachable_nodes() {
        let (t, [a, ..]) = diamond();
        let pred = shortest_path_tree(&t, a, PathMetric::Latency);
        let reachable = pred.iter().filter(|p| p.is_some()).count();
        assert_eq!(
            reachable, 3,
            "every node except the source has a predecessor"
        );
    }
}
