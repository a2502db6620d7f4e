//! Shortest-path computation over the distilled pipe graph.
//!
//! Routes minimise total pipe latency with hop count as the tie breaker,
//! mirroring the "shortest-path routes between all pairs of VNs" the Binding
//! phase installs. The functions here are the building blocks of
//! [`crate::RoutingMatrix`] and the oracle its tests compare against.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mn_distill::{DistilledTopology, PipeId};
use mn_topology::NodeId;
use mn_util::SimDuration;

/// An ordered list of pipes a packet traverses from source to destination.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Route {
    /// The pipes, in traversal order. Empty for `src == dst`.
    pub pipes: Vec<PipeId>,
}

impl Route {
    /// Creates a route from a pipe list.
    pub fn new(pipes: Vec<PipeId>) -> Self {
        Route { pipes }
    }

    /// Number of emulated hops.
    pub fn hop_count(&self) -> usize {
        self.pipes.len()
    }

    /// Sum of pipe latencies along the route — the propagation component of
    /// the end-to-end delay the emulation should impose.
    pub fn total_latency(&self, topo: &DistilledTopology) -> SimDuration {
        self.pipes.iter().map(|&p| topo.pipe(p).attrs.latency).sum()
    }
}

/// Routing cost of a pipe in the shortest-path computation: its latency in
/// nanoseconds plus one (the hop-count tie breaker), or [`UNUSABLE_COST`]
/// for a failed (zero-bandwidth) pipe, which routing must avoid — the
/// "perfect routing protocol" reacting to a failure.
pub fn pipe_cost(attrs: &mn_distill::PipeAttrs) -> u64 {
    if attrs.bandwidth.is_zero() {
        UNUSABLE_COST
    } else {
        attrs.latency.as_nanos() + 1
    }
}

/// The cost assigned to a pipe that cannot carry traffic.
pub const UNUSABLE_COST: u64 = u64::MAX;

/// Single-source shortest routes over the pipe graph: for every node, the
/// predecessor pipe on a latency-shortest route from `source` (`None` if
/// unreachable or the source itself) and the distance label (`u64::MAX`
/// when unreachable) — what [`crate::RoutingMatrix`] stores per source as
/// a row, and sums up that row.
pub fn shortest_route_tree_with_dist(
    topo: &DistilledTopology,
    source: NodeId,
) -> (Vec<Option<PipeId>>, Vec<u64>) {
    let n = topo.node_count();
    let (mut dist, mut pred) = (vec![UNUSABLE_COST; n], vec![NO_PRED; n]);
    let nodes: Vec<u32> = (0..n as u32).collect();
    scoped_route_tree(topo, source, &nodes, &mut dist, &mut pred, &mut Vec::new());
    let pred = pred.iter().map(|&p| (p != NO_PRED).then_some(PipeId(p)));
    (pred.collect(), dist)
}

/// Sentinel in predecessor rows (no predecessor: the source itself, or an
/// unreachable node) and in the matrix's dense node→VN table (not a VN).
pub(crate) const NO_PRED: u32 = u32::MAX;

/// Component-scoped single-source shortest-route tree into reusable scratch
/// rows: only `nodes` (the source's structural component) is re-initialised,
/// and Dijkstra can only ever reach inside it, so the cost is
/// O(component log component), not O(graph). The one Dijkstra of the crate:
/// [`shortest_route_tree_with_dist`] runs it over every node, so the
/// matrix's trees and the oracle its tests compare against break ties alike.
pub(crate) fn scoped_route_tree(
    topo: &DistilledTopology,
    source: NodeId,
    nodes: &[u32],
    dist: &mut [u64],
    pred: &mut [u32],
    heap_scratch: &mut Vec<Reverse<(u64, NodeId)>>,
) {
    for &u in nodes {
        dist[u as usize] = UNUSABLE_COST;
        pred[u as usize] = NO_PRED;
    }
    if source.index() >= dist.len() {
        return;
    }
    let mut heap = BinaryHeap::from(std::mem::take(heap_scratch));
    dist[source.index()] = 0;
    heap.push(Reverse((0u64, source)));
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for &pipe_id in topo.out_pipes(u) {
            let cost = pipe_cost(&topo.pipe(pipe_id).attrs);
            if cost == UNUSABLE_COST {
                continue;
            }
            let nd = d.saturating_add(cost);
            let v = topo.pipe(pipe_id).dst;
            if nd < dist[v.index()] {
                dist[v.index()] = nd;
                pred[v.index()] = pipe_id.0;
                heap.push(Reverse((nd, v)));
            }
        }
    }
    // Hand the (drained) backing vector back for the next recompute.
    *heap_scratch = heap.into_vec();
}

/// Extracts the route to `dst` from a predecessor tree rooted at `src`.
pub fn route_from_tree(
    topo: &DistilledTopology,
    pred: &[Option<PipeId>],
    src: NodeId,
    dst: NodeId,
) -> Option<Route> {
    if src == dst {
        return Some(Route::default());
    }
    let mut pipes = Vec::new();
    let mut cur = dst;
    while cur != src {
        let pipe_id = (*pred.get(cur.index())?)?;
        pipes.push(pipe_id);
        cur = topo.pipe(pipe_id).src;
    }
    pipes.reverse();
    Some(Route::new(pipes))
}

/// Computes the latency-shortest route between two nodes, or `None` if the
/// destination is unreachable.
pub fn route_between(topo: &DistilledTopology, src: NodeId, dst: NodeId) -> Option<Route> {
    if src == dst {
        return Some(Route::default());
    }
    let pred = shortest_route_tree_with_dist(topo, src).0;
    route_from_tree(topo, &pred, src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_distill::{distill, DistillationMode};
    use mn_topology::generators::{ring_topology, RingParams};
    use mn_topology::{LinkAttrs, NodeKind, Topology};
    use mn_util::DataRate;

    fn line_topology(n: usize) -> (Topology, Vec<NodeId>) {
        let mut t = Topology::new();
        let mut ids = Vec::new();
        for i in 0..n {
            let kind = if i == 0 || i == n - 1 {
                NodeKind::Client
            } else {
                NodeKind::Stub
            };
            ids.push(t.add_node(kind));
        }
        let attrs = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(5));
        for w in ids.windows(2) {
            t.add_link(w[0], w[1], attrs).unwrap();
        }
        (t, ids)
    }

    #[test]
    fn route_along_a_line() {
        let (topo, ids) = line_topology(5);
        let d = distill(&topo, DistillationMode::HopByHop);
        let route = route_between(&d, ids[0], ids[4]).unwrap();
        assert_eq!(route.hop_count(), 4);
        assert_eq!(route.total_latency(&d), SimDuration::from_millis(20));
        // The route's pipes chain correctly from src to dst.
        let mut cur = ids[0];
        for &p in &route.pipes {
            assert_eq!(d.pipe(p).src, cur);
            cur = d.pipe(p).dst;
        }
        assert_eq!(cur, ids[4]);
    }

    #[test]
    fn trivial_route_is_empty() {
        let (topo, ids) = line_topology(3);
        let d = distill(&topo, DistillationMode::HopByHop);
        let route = route_between(&d, ids[0], ids[0]).unwrap();
        assert!(route.pipes.is_empty());
        assert_eq!(route.total_latency(&d), SimDuration::ZERO);
    }

    #[test]
    fn unreachable_returns_none() {
        let (mut topo, ids) = line_topology(3);
        let lonely = topo.add_node(NodeKind::Client);
        let d = distill(&topo, DistillationMode::HopByHop);
        assert!(route_between(&d, ids[0], lonely).is_none());
    }

    #[test]
    fn routes_prefer_lower_latency_not_fewer_hops() {
        // a -1ms- b -1ms- c  versus a -10ms- c direct.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Client);
        let b = t.add_node(NodeKind::Stub);
        let c = t.add_node(NodeKind::Client);
        let fast = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        let slow = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(10));
        t.add_link(a, b, fast).unwrap();
        t.add_link(b, c, fast).unwrap();
        t.add_link(a, c, slow).unwrap();
        let d = distill(&t, DistillationMode::HopByHop);
        let route = route_between(&d, a, c).unwrap();
        assert_eq!(route.hop_count(), 2);
        assert_eq!(route.total_latency(&d), SimDuration::from_millis(2));
    }

    #[test]
    fn ring_routes_take_shorter_arc() {
        let topo = ring_topology(&RingParams {
            routers: 8,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let vns: Vec<NodeId> = d.vns().to_vec();
        // Opposite VNs: 4 ring hops + 2 access hops.
        let route = route_between(&d, vns[0], vns[4]).unwrap();
        assert_eq!(route.hop_count(), 6);
        // Adjacent VNs: 1 ring hop + 2 access hops.
        let route = route_between(&d, vns[0], vns[1]).unwrap();
        assert_eq!(route.hop_count(), 3);
    }

    #[test]
    fn end_to_end_routes_are_single_pipe() {
        let topo = ring_topology(&RingParams {
            routers: 4,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::EndToEnd);
        let vns = d.vns().to_vec();
        for &a in &vns {
            for &b in &vns {
                if a == b {
                    continue;
                }
                let route = route_between(&d, a, b).unwrap();
                assert_eq!(route.hop_count(), 1, "{a}->{b}");
            }
        }
    }

    #[test]
    fn tree_reuse_matches_pairwise_routes() {
        let (topo, ids) = line_topology(6);
        let d = distill(&topo, DistillationMode::HopByHop);
        let pred = shortest_route_tree_with_dist(&d, ids[0]).0;
        for &dst in &ids[1..] {
            let via_tree = route_from_tree(&d, &pred, ids[0], dst).unwrap();
            let direct = route_between(&d, ids[0], dst).unwrap();
            assert_eq!(via_tree, direct);
        }
    }
}
