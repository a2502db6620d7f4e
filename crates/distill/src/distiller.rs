//! The distillation algorithms (§4.1 of the paper).
//!
//! All modes consume an annotated [`Topology`] and produce a
//! [`DistilledTopology`]. Path collapsing always follows the latency-shortest
//! path in the original topology: the collapsed pipe's bandwidth is the
//! minimum link bandwidth along that path, its latency the sum of link
//! latencies, and its reliability the product of link reliabilities.

use std::collections::BTreeSet;

use mn_topology::{NodeId, Topology};

use crate::pipe_graph::{DistilledTopology, PipeAttrs};

/// The point on the accuracy-versus-scalability continuum to distil to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistillationMode {
    /// Emulate every link of the target network.
    HopByHop,
    /// Collapse every VN pair's path into one pipe (O(n²) pipes, single-hop
    /// routes, no interior contention).
    EndToEnd,
    /// Preserve the first `walk_in` frontier links from the edges and replace
    /// the interior with a full mesh of collapsed pipes. `walk_in = 1` is the
    /// paper's "last-mile" distillation.
    WalkIn {
        /// Number of frontier sets (counting the VNs as the first) whose
        /// incident links are preserved.
        walk_in: usize,
    },
    /// Like [`DistillationMode::WalkIn`] but additionally preserves the links
    /// of the innermost `walk_out` frontier sets around the topological
    /// centre, to model an under-provisioned core.
    WalkInOut {
        /// Frontier sets preserved from the edges.
        walk_in: usize,
        /// Frontier sets preserved around the topological centre.
        walk_out: usize,
    },
}

impl DistillationMode {
    /// The paper's "last-mile" configuration (`walk_in = 1`).
    pub const LAST_MILE: DistillationMode = DistillationMode::WalkIn { walk_in: 1 };
}

/// Computes the breadth-first frontier sets of the topology.
///
/// The first frontier set is the set of all VNs (client nodes); members of
/// the `i+1`-th set are nodes one hop from the `i`-th set that are not
/// members of any preceding set. Returns for every node its 1-based frontier
/// index, or `None` for nodes unreachable from any VN.
pub fn frontier_sets(topo: &Topology) -> Vec<Option<usize>> {
    let mut level: Vec<Option<usize>> = vec![None; topo.node_count()];
    let mut current: Vec<NodeId> = topo.client_nodes().collect();
    for &vn in &current {
        level[vn.index()] = Some(1);
    }
    let mut depth = 1;
    while !current.is_empty() {
        depth += 1;
        let mut next = Vec::new();
        for &u in &current {
            for (v, _) in topo.neighbors(u) {
                if level[v.index()].is_none() {
                    level[v.index()] = Some(depth);
                    next.push(v);
                }
            }
        }
        current = next;
    }
    level
}

/// Collapses the latency-shortest paths from `source` to every other node in
/// one Dijkstra pass, accumulating bottleneck bandwidth, total latency,
/// path reliability, bottleneck queue and the number of links collapsed
/// along the way.
///
/// Returns one entry per node: `None` for unreachable nodes and for the
/// source itself.
fn collapse_from_source(topo: &Topology, source: NodeId) -> Vec<Option<(PipeAttrs, usize)>> {
    collapse_from_source_filtered(topo, source, |_| true)
}

/// [`collapse_from_source`] restricted to paths whose interior nodes satisfy
/// `allowed` (the source always is). Used by the walk distillations so mesh
/// pipes never collapse a detour through the preserved edge region — those
/// links are emulated natively on the route, and baking their attributes
/// into a mesh pipe would emulate their contention twice.
///
/// Equal-latency ties are pinned to the lowest `(predecessor, link)` pair:
/// every candidate predecessor of a node is finalised (popped) before the
/// node itself, so the choice is a pure function of the distance labels and
/// agrees with [`mn_topology::paths::shortest_path_tree`]'s tie-break
/// regardless of heap relaxation order.
fn collapse_from_source_filtered(
    topo: &Topology,
    source: NodeId,
    allowed: impl Fn(NodeId) -> bool,
) -> Vec<Option<(PipeAttrs, usize)>> {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = topo.node_count();
    let mut dist = vec![u64::MAX; n];
    let mut attrs: Vec<Option<(PipeAttrs, usize)>> = vec![None; n];
    if source.index() >= n {
        return attrs;
    }
    let mut heap = BinaryHeap::new();
    dist[source.index()] = 0;
    heap.push(Reverse((0u64, source)));
    // Reliability is tracked separately so it can be multiplied along the
    // chosen predecessor path; `pred` pins the tie-break.
    let mut reliability = vec![1.0f64; n];
    let mut pred: Vec<Option<(NodeId, mn_topology::LinkId)>> = vec![None; n];
    while let Some(Reverse((d, u))) = heap.pop() {
        if d > dist[u.index()] {
            continue;
        }
        for (v, link_id) in topo.neighbors(u) {
            if !allowed(v) {
                continue;
            }
            let link = topo.link(link_id).expect("link exists");
            let cost = link.attrs.latency.as_nanos() + 1;
            let nd = d.saturating_add(cost);
            let improved = nd < dist[v.index()];
            let tie_break = nd == dist[v.index()]
                && pred[v.index()].is_some_and(|(p, l)| (u, link_id) < (p, l));
            if improved || tie_break {
                dist[v.index()] = nd;
                pred[v.index()] = Some((u, link_id));
                let (base_bw, base_lat, base_queue, base_hops) = match &attrs[u.index()] {
                    Some((a, hops)) => (a.bandwidth, a.latency, a.queue_len, *hops),
                    None => (
                        mn_util::DataRate::from_bps(u64::MAX),
                        mn_util::SimDuration::ZERO,
                        usize::MAX,
                        0,
                    ),
                };
                let rel = reliability[u.index()] * link.attrs.reliability();
                reliability[v.index()] = rel;
                attrs[v.index()] = Some((
                    PipeAttrs {
                        bandwidth: base_bw.min(link.attrs.bandwidth),
                        latency: base_lat + link.attrs.latency,
                        loss_rate: 1.0 - rel,
                        queue_len: base_queue.min(link.attrs.queue_len).max(1),
                    },
                    base_hops + 1,
                ));
                if improved {
                    heap.push(Reverse((nd, v)));
                }
            }
        }
    }
    attrs
}

/// Derives, for every collapsed pipe, the constant-bit-rate background
/// cross-traffic that compensates for its distilled-away hops (§4.1 of the
/// paper: "background CBR cross traffic on distilled pipes").
///
/// A pipe standing in for `k` target links carries its flows without the
/// interior contention the removed `k − 1` links would have imposed. The
/// compensation model offers the pipe a background load of
/// `bandwidth × load × (k − 1) / k`: zero for preserved links (`k = 1`),
/// approaching `bandwidth × load` as the collapsed path grows — i.e. the
/// assumed interior utilisation `load ∈ [0, 1]`, discounted by the one hop
/// whose contention the pipe still emulates natively.
///
/// Returns one `(pipe, rate)` entry per collapsed pipe with a nonzero
/// compensation rate, in pipe-id order.
pub fn compensation_rates(
    topo: &DistilledTopology,
    load: f64,
) -> Vec<(crate::PipeId, mn_util::DataRate)> {
    let load = load.clamp(0.0, 1.0);
    topo.pipes()
        .filter_map(|(id, pipe)| {
            let hops = topo.collapsed_hops(id);
            if hops <= 1 {
                return None;
            }
            let fraction = load * (hops as f64 - 1.0) / hops as f64;
            let rate = pipe.attrs.bandwidth.mul_f64(fraction);
            (!rate.is_zero()).then_some((id, rate))
        })
        .collect()
}

/// Distils `topo` according to `mode`.
///
/// # Examples
///
/// ```
/// use mn_distill::{distill, DistillationMode};
/// use mn_topology::generators::{ring_topology, RingParams};
///
/// let topo = ring_topology(&RingParams::default());
/// let hop_by_hop = distill(&topo, DistillationMode::HopByHop);
/// let last_mile = distill(&topo, DistillationMode::LAST_MILE);
/// let end_to_end = distill(&topo, DistillationMode::EndToEnd);
/// // 420 links, 400 access links + 190 mesh pipes, 79,800 VN pairs.
/// assert_eq!(hop_by_hop.undirected_pipe_count(), 420);
/// assert_eq!(last_mile.undirected_pipe_count(), 590);
/// assert_eq!(end_to_end.undirected_pipe_count(), 79_800);
/// ```
pub fn distill(topo: &Topology, mode: DistillationMode) -> DistilledTopology {
    match mode {
        DistillationMode::HopByHop => distill_hop_by_hop(topo),
        DistillationMode::EndToEnd => distill_end_to_end(topo),
        DistillationMode::WalkIn { walk_in } => distill_walk(topo, walk_in, None),
        DistillationMode::WalkInOut { walk_in, walk_out } => {
            distill_walk(topo, walk_in, Some(walk_out))
        }
    }
}

fn vn_list(topo: &Topology) -> Vec<NodeId> {
    topo.client_nodes().collect()
}

fn distill_hop_by_hop(topo: &Topology) -> DistilledTopology {
    let vns = vn_list(topo);
    // No route bound: routes minimise latency, not hops.
    let mut out = DistilledTopology::new(topo.node_count(), vns, 0);
    for (_, link) in topo.links() {
        out.add_duplex(link.a, link.b, link.attrs.into());
    }
    out
}

fn distill_end_to_end(topo: &Topology) -> DistilledTopology {
    let vns = vn_list(topo);
    let mut out = DistilledTopology::new(topo.node_count(), vns.clone(), 1);
    for (i, &a) in vns.iter().enumerate() {
        let collapsed = collapse_from_source(topo, a);
        for &b in vns.iter().skip(i + 1) {
            if let Some((attrs, hops)) = collapsed[b.index()] {
                out.add_duplex_collapsed(a, b, attrs, hops);
            }
        }
    }
    out
}

/// End-to-end distillation pruned to a workload: collapses one pipe per
/// *communicating* VN pair instead of the full `O(n²)` mesh.
///
/// This is how end-to-end distillation is deployed in practice — when the
/// foreground workload is known, pipes for pairs that never exchange traffic
/// are dead weight, and pruning them is what lets end-to-end distillation
/// undercut even hop-by-hop's pipe count. Pair order and duplicates are
/// ignored; pairs whose endpoints are not VNs or are unreachable are skipped.
pub fn distill_end_to_end_pairs(topo: &Topology, pairs: &[(NodeId, NodeId)]) -> DistilledTopology {
    let vns = vn_list(topo);
    let vn_set: BTreeSet<NodeId> = vns.iter().copied().collect();
    let mut wanted: BTreeSet<(NodeId, NodeId)> = BTreeSet::new();
    for &(a, b) in pairs {
        if a != b && vn_set.contains(&a) && vn_set.contains(&b) {
            wanted.insert((a.min(b), a.max(b)));
        }
    }
    let mut out = DistilledTopology::new(topo.node_count(), vns, 1);
    let mut sources: Vec<NodeId> = wanted.iter().map(|&(a, _)| a).collect();
    sources.dedup();
    for a in sources {
        let collapsed = collapse_from_source(topo, a);
        for &(src, b) in wanted.range((a, NodeId(0))..) {
            if src != a {
                break;
            }
            if let Some((attrs, hops)) = collapsed[b.index()] {
                out.add_duplex_collapsed(a, b, attrs, hops);
            }
        }
    }
    out
}

fn distill_walk(topo: &Topology, walk_in: usize, walk_out: Option<usize>) -> DistilledTopology {
    let walk_in = walk_in.max(1);
    let vns = vn_list(topo);
    let levels = frontier_sets(topo);

    // Edge region: nodes whose frontier index is within the walk-in.
    let in_edge_region =
        |n: NodeId| -> bool { matches!(levels[n.index()], Some(l) if l <= walk_in) };

    // Core region (walk-out): frontier sets c-walk_out..=c where c is the
    // deepest frontier (the paper stops at the first frontier of size <= 1,
    // which is also the deepest non-empty one for connected topologies).
    let mut core: BTreeSet<NodeId> = BTreeSet::new();
    if let Some(walk_out) = walk_out {
        let c = levels.iter().flatten().copied().max().unwrap_or(0);
        if c > walk_in {
            let lo = c.saturating_sub(walk_out).max(walk_in + 1);
            for (i, level) in levels.iter().enumerate() {
                if let Some(l) = level {
                    if *l >= lo && *l <= c {
                        core.insert(NodeId(i));
                    }
                }
            }
        }
    }

    // Interior nodes: beyond the walk-in region and not preserved as core.
    let interior: Vec<NodeId> = topo
        .node_ids()
        .filter(|&n| levels[n.index()].is_some() && !in_edge_region(n) && !core.contains(&n))
        .collect();

    // Longest distilled route: `walk_in` preserved links on each side, plus
    // either a single mesh pipe (no preserved core) or — for a route crossing
    // the preserved core — one mesh pipe *into* the core boundary, up to
    // `core.len()` core links, and a second mesh pipe back *out* of it.
    let route_bound = if core.is_empty() {
        2 * walk_in + 1
    } else {
        2 * walk_in + 2 + core.len()
    };
    let mut out = DistilledTopology::new(topo.node_count(), vns, route_bound);

    // Preserve links incident to the edge region and links internal to the
    // preserved core.
    for (_, link) in topo.links() {
        let touches_edge = in_edge_region(link.a) || in_edge_region(link.b);
        let inside_core = core.contains(&link.a) && core.contains(&link.b);
        if touches_edge || inside_core {
            out.add_duplex(link.a, link.b, link.attrs.into());
        }
    }

    // Mesh over the interior (plus, when a core is preserved, its boundary so
    // the mesh attaches to it).
    let mut mesh_nodes: Vec<NodeId> = interior;
    if !core.is_empty() {
        for &c in &core {
            let boundary = topo
                .neighbors(c)
                .any(|(v, _)| !core.contains(&v) && !in_edge_region(v));
            if boundary {
                mesh_nodes.push(c);
            }
        }
    }
    mesh_nodes.sort();
    mesh_nodes.dedup();

    for (i, &a) in mesh_nodes.iter().enumerate() {
        // Restrict the collapse to nodes outside the preserved edge region:
        // a mesh pipe that detoured through a preserved last-mile link would
        // bake that link's bandwidth into its own attributes while the route
        // still crosses the link natively, emulating its contention twice.
        let collapsed = collapse_from_source_filtered(topo, a, |n| !in_edge_region(n));
        for &b in mesh_nodes.iter().skip(i + 1) {
            // Skip pairs already joined by a preserved core link.
            if core.contains(&a) && core.contains(&b) {
                continue;
            }
            if let Some((attrs, hops)) = collapsed[b.index()] {
                out.add_duplex_collapsed(a, b, attrs, hops);
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topology::generators::{
        dumbbell_topology, ring_topology, star_topology, DumbbellParams, RingParams, StarParams,
    };
    use mn_topology::{LinkAttrs, NodeKind};
    use mn_util::{DataRate, SimDuration};

    fn small_ring() -> Topology {
        ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        })
    }

    #[test]
    fn frontier_sets_of_ring() {
        let topo = small_ring();
        let levels = frontier_sets(&topo);
        for vn in topo.client_nodes() {
            assert_eq!(levels[vn.index()], Some(1));
        }
        for (id, node) in topo.nodes() {
            if node.kind == NodeKind::Transit {
                assert_eq!(levels[id.index()], Some(2), "routers are one hop from VNs");
            }
        }
    }

    #[test]
    fn frontier_sets_mark_unreachable_nodes_none() {
        let mut topo = small_ring();
        let orphan = topo.add_node(NodeKind::Stub);
        let levels = frontier_sets(&topo);
        assert_eq!(levels[orphan.index()], None);
    }

    #[test]
    fn hop_by_hop_is_isomorphic() {
        let topo = small_ring();
        let d = distill(&topo, DistillationMode::HopByHop);
        assert_eq!(d.undirected_pipe_count(), topo.link_count());
        assert_eq!(d.pipe_count(), 2 * topo.link_count());
        assert_eq!(d.vns().len(), topo.client_count());
        // Every pipe's attributes match its source link.
        for (_, pipe) in d.pipes() {
            assert!(pipe.attrs.bandwidth >= DataRate::from_mbps(2));
        }
    }

    #[test]
    fn end_to_end_is_full_mesh_over_vns() {
        let topo = small_ring();
        let n = topo.client_count();
        let d = distill(&topo, DistillationMode::EndToEnd);
        assert_eq!(d.undirected_pipe_count(), n * (n - 1) / 2);
        assert_eq!(d.max_route_pipes(), 1);
        // All pipes connect VN pairs directly.
        for (_, pipe) in d.pipes() {
            assert!(d.vns().contains(&pipe.src));
            assert!(d.vns().contains(&pipe.dst));
        }
    }

    #[test]
    fn end_to_end_collapse_attrs() {
        // Two clients joined through one router over asymmetric-quality links.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let r = topo.add_node(NodeKind::Stub);
        let b = topo.add_node(NodeKind::Client);
        topo.add_link(
            a,
            r,
            LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(3)).with_loss(0.1),
        )
        .unwrap();
        topo.add_link(
            r,
            b,
            LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(7)).with_loss(0.2),
        )
        .unwrap();
        let d = distill(&topo, DistillationMode::EndToEnd);
        assert_eq!(d.undirected_pipe_count(), 1);
        let (_, pipe) = d.pipes().next().unwrap();
        assert_eq!(pipe.attrs.bandwidth, DataRate::from_mbps(2));
        assert_eq!(pipe.attrs.latency, SimDuration::from_millis(10));
        assert!((pipe.attrs.loss_rate - (1.0 - 0.9 * 0.8)).abs() < 1e-12);
    }

    #[test]
    fn paper_ring_pipe_counts() {
        // The distillation experiment: 20 routers at 20 Mb/s, 20 VNs each.
        let topo = ring_topology(&RingParams::default());
        let hop = distill(&topo, DistillationMode::HopByHop);
        let last_mile = distill(&topo, DistillationMode::LAST_MILE);
        let e2e = distill(&topo, DistillationMode::EndToEnd);
        assert_eq!(hop.undirected_pipe_count(), 420);
        // 400 preserved access links + C(20,2) = 190 mesh pipes.
        assert_eq!(last_mile.undirected_pipe_count(), 590);
        // One pipe per VN pair: C(400,2) = 79,800.
        assert_eq!(e2e.undirected_pipe_count(), 79_800);
        assert_eq!(last_mile.max_route_pipes(), 3);
    }

    #[test]
    fn last_mile_mesh_collapses_ring_bandwidth() {
        let topo = ring_topology(&RingParams::default());
        let last_mile = distill(&topo, DistillationMode::LAST_MILE);
        // Mesh pipes (router-to-router) carry the ring bandwidth of 20 Mb/s;
        // access pipes carry 2 Mb/s.
        let mut mesh = 0;
        let mut access = 0;
        for (_, pipe) in last_mile.pipes() {
            if pipe.attrs.bandwidth == DataRate::from_mbps(20) {
                mesh += 1;
            } else if pipe.attrs.bandwidth == DataRate::from_mbps(2) {
                access += 1;
            } else {
                panic!("unexpected pipe bandwidth {}", pipe.attrs.bandwidth);
            }
        }
        assert_eq!(mesh, 190 * 2);
        assert_eq!(access, 400 * 2);
    }

    #[test]
    fn walk_in_2_preserves_more_than_last_mile() {
        let (topo, _, _) = dumbbell_topology(&DumbbellParams::default());
        let w1 = distill(&topo, DistillationMode::WalkIn { walk_in: 1 });
        let w2 = distill(&topo, DistillationMode::WalkIn { walk_in: 2 });
        let hop = distill(&topo, DistillationMode::HopByHop);
        // Dumbbell: interior is just the two routers, so walk-in 2 covers the
        // whole topology and equals hop-by-hop.
        assert_eq!(w2.undirected_pipe_count(), hop.undirected_pipe_count());
        assert!(w1.undirected_pipe_count() <= w2.undirected_pipe_count());
    }

    #[test]
    fn walk_in_star_preserves_everything() {
        // In a star all routers are one hop from VNs, so last-mile keeps all
        // spokes and there is no interior to mesh.
        let topo = star_topology(&StarParams {
            clients: 10,
            ..StarParams::default()
        });
        let lm = distill(&topo, DistillationMode::LAST_MILE);
        assert_eq!(lm.undirected_pipe_count(), 10);
    }

    #[test]
    fn walk_in_out_preserves_core_links() {
        // A long chain: VN - s1 - s2 - s3 - s4 - s5 - VN. The centre frontier
        // should be preserved with walk-out.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let stubs: Vec<NodeId> = (0..5).map(|_| topo.add_node(NodeKind::Stub)).collect();
        let b = topo.add_node(NodeKind::Client);
        let attrs = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        topo.add_link(a, stubs[0], attrs).unwrap();
        for w in stubs.windows(2) {
            topo.add_link(w[0], w[1], attrs).unwrap();
        }
        topo.add_link(stubs[4], b, attrs).unwrap();

        let walk_only = distill(&topo, DistillationMode::WalkIn { walk_in: 1 });
        let with_core = distill(
            &topo,
            DistillationMode::WalkInOut {
                walk_in: 1,
                walk_out: 1,
            },
        );
        // Frontiers: {a,b}=1, {s1,s5}=2, {s2,s4}=3, {s3}=4. With walk_in=1 and
        // walk_out=1 the core is {s2,s3,s4}; its internal links are preserved
        // and s3 (not a core-boundary node) stays out of the mesh. Without the
        // core, s3 is an interior mesh node and gets collapsed pipes to every
        // other interior node.
        let s1 = stubs[0];
        let s2 = stubs[1];
        let s3 = stubs[2];
        assert!(walk_only.find_pipe(s1, s3).is_some());
        assert!(with_core.find_pipe(s1, s3).is_none());
        // The preserved core link s2-s3 appears with its original one-hop
        // latency.
        let core_pipe = with_core.find_pipe(s2, s3).expect("core link preserved");
        assert_eq!(
            with_core.pipe(core_pipe).attrs.latency,
            SimDuration::from_millis(1)
        );
    }

    #[test]
    fn distilled_graphs_connect_all_vn_pairs() {
        // Reachability check: in each mode, every VN can reach every other VN
        // by following pipes.
        let topo = small_ring();
        for mode in [
            DistillationMode::HopByHop,
            DistillationMode::LAST_MILE,
            DistillationMode::WalkIn { walk_in: 2 },
            DistillationMode::EndToEnd,
        ] {
            let d = distill(&topo, mode);
            let vns = d.vns().to_vec();
            let src = vns[0];
            // BFS over pipes.
            let mut seen = vec![false; d.node_count()];
            let mut queue = std::collections::VecDeque::new();
            seen[src.index()] = true;
            queue.push_back(src);
            while let Some(u) = queue.pop_front() {
                for &p in d.out_pipes(u) {
                    let v = d.pipe(p).dst;
                    if !seen[v.index()] {
                        seen[v.index()] = true;
                        queue.push_back(v);
                    }
                }
            }
            for &vn in &vns {
                assert!(seen[vn.index()], "{mode:?}: VN {vn} unreachable from {src}");
            }
        }
    }

    #[test]
    fn collapsed_hop_counts_follow_the_distillation_mode() {
        let topo = small_ring();
        let hop = distill(&topo, DistillationMode::HopByHop);
        for id in hop.pipe_ids() {
            assert_eq!(
                hop.collapsed_hops(id),
                1,
                "preserved links collapse nothing"
            );
        }
        let e2e = distill(&topo, DistillationMode::EndToEnd);
        for id in e2e.pipe_ids() {
            // Client - router - ... - router - client: at least 2 access
            // links plus any ring hops.
            assert!(
                e2e.collapsed_hops(id) >= 2,
                "end-to-end pipes collapse paths"
            );
        }
        let lm = distill(&topo, DistillationMode::LAST_MILE);
        let (mut preserved, mut collapsed) = (0, 0);
        for id in lm.pipe_ids() {
            if lm.collapsed_hops(id) == 1 {
                preserved += 1;
            } else {
                collapsed += 1;
            }
        }
        assert!(preserved > 0 && collapsed > 0, "last-mile mixes both");
    }

    #[test]
    fn compensation_rates_cover_exactly_the_collapsed_pipes() {
        let topo = small_ring();
        let hop = distill(&topo, DistillationMode::HopByHop);
        assert!(
            compensation_rates(&hop, 0.5).is_empty(),
            "nothing distilled away"
        );
        let lm = distill(&topo, DistillationMode::LAST_MILE);
        let rates = compensation_rates(&lm, 0.5);
        let collapsed = lm
            .pipe_ids()
            .filter(|&id| lm.collapsed_hops(id) > 1)
            .count();
        assert_eq!(rates.len(), collapsed);
        for (pipe, rate) in &rates {
            let bw = lm.pipe(*pipe).attrs.bandwidth;
            let hops = lm.collapsed_hops(*pipe) as f64;
            assert!(*rate < bw, "compensation stays below capacity");
            let expected = bw.mul_f64(0.5 * (hops - 1.0) / hops);
            assert_eq!(*rate, expected);
        }
        // Zero assumed load: no compensation at all.
        assert!(compensation_rates(&lm, 0.0).is_empty());
        // Load is clamped into [0, 1].
        for (pipe, rate) in compensation_rates(&lm, 7.5) {
            assert!(rate <= lm.pipe(pipe).attrs.bandwidth);
        }
    }

    #[test]
    fn walk_in_out_route_bound_counts_both_mesh_crossings() {
        // Chain a - s1..s5 - b with walk_in = walk_out = 1: core {s2,s3,s4},
        // interior {s1,s5}. A route from a to b takes the preserved access
        // link, a mesh pipe into the core boundary, preserved core links, a
        // second mesh pipe back out, and the far access link — the bound must
        // budget for two mesh pipes, not one.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let stubs: Vec<NodeId> = (0..5).map(|_| topo.add_node(NodeKind::Stub)).collect();
        let b = topo.add_node(NodeKind::Client);
        let attrs = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        topo.add_link(a, stubs[0], attrs).unwrap();
        for w in stubs.windows(2) {
            topo.add_link(w[0], w[1], attrs).unwrap();
        }
        topo.add_link(stubs[4], b, attrs).unwrap();
        let d = distill(
            &topo,
            DistillationMode::WalkInOut {
                walk_in: 1,
                walk_out: 1,
            },
        );
        // 2*walk_in + 2 mesh/frontier pipes + 3 core links.
        assert_eq!(d.max_route_pipes(), 7);
    }

    #[test]
    fn mesh_collapse_never_detours_through_the_edge_region() {
        // A multihomed client c1 offers a 2-hop, 2 ms shortcut between stubs
        // s1 and s2; the interior path via s3 takes 20 ms but avoids the
        // preserved access links. The mesh pipe must collapse the interior
        // path — collapsing the shortcut would bake the access links'
        // contention into a pipe the route then crosses natively as well.
        let mut topo = Topology::new();
        let c1 = topo.add_node(NodeKind::Client);
        let c2 = topo.add_node(NodeKind::Client);
        let s1 = topo.add_node(NodeKind::Stub);
        let s2 = topo.add_node(NodeKind::Stub);
        let s3 = topo.add_node(NodeKind::Stub);
        let access = LinkAttrs::new(DataRate::from_mbps(100), SimDuration::from_millis(1));
        let interior = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(10));
        topo.add_link(c1, s1, access).unwrap();
        topo.add_link(c1, s2, access).unwrap();
        topo.add_link(c2, s3, access).unwrap();
        topo.add_link(s1, s3, interior).unwrap();
        topo.add_link(s3, s2, interior).unwrap();
        let d = distill(&topo, DistillationMode::LAST_MILE);
        let pipe = d.find_pipe(s1, s2).expect("interior mesh pipe");
        assert_eq!(d.pipe(pipe).attrs.bandwidth, DataRate::from_mbps(10));
        assert_eq!(d.pipe(pipe).attrs.latency, SimDuration::from_millis(20));
        assert_eq!(d.collapsed_hops(pipe), 2);
    }

    #[test]
    fn tied_shortest_paths_collapse_the_lowest_predecessor() {
        // Two equal-latency paths from a to b: via r1 (added first, lower id)
        // at 5 Mb/s and via r2 at 50 Mb/s. The tie-break must pin the
        // lowest-id predecessor chain — r1 — regardless of relaxation order.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let r1 = topo.add_node(NodeKind::Stub);
        let r2 = topo.add_node(NodeKind::Stub);
        let b = topo.add_node(NodeKind::Client);
        let lat = SimDuration::from_millis(2);
        topo.add_link(a, r1, LinkAttrs::new(DataRate::from_mbps(5), lat))
            .unwrap();
        topo.add_link(a, r2, LinkAttrs::new(DataRate::from_mbps(50), lat))
            .unwrap();
        topo.add_link(r1, b, LinkAttrs::new(DataRate::from_mbps(5), lat))
            .unwrap();
        topo.add_link(r2, b, LinkAttrs::new(DataRate::from_mbps(50), lat))
            .unwrap();
        let d = distill(&topo, DistillationMode::EndToEnd);
        let pipe = d.find_pipe(a, b).expect("collapsed pair");
        assert_eq!(d.pipe(pipe).attrs.bandwidth, DataRate::from_mbps(5));
        assert_eq!(d.pipe(pipe).attrs.latency, SimDuration::from_millis(4));
    }

    #[test]
    fn end_to_end_pairs_prunes_to_the_workload() {
        let topo = small_ring();
        let vns: Vec<NodeId> = topo.client_nodes().collect();
        let pairs = [
            (vns[0], vns[5]),
            (vns[5], vns[0]), // duplicate in reverse order
            (vns[1], vns[7]),
            (vns[2], vns[2]), // self pair: skipped
        ];
        let d = distill_end_to_end_pairs(&topo, &pairs);
        assert_eq!(d.undirected_pipe_count(), 2);
        assert_eq!(d.max_route_pipes(), 1);
        // Attributes match the full end-to-end collapse for the same pair.
        let full = distill(&topo, DistillationMode::EndToEnd);
        for (x, y) in [(vns[0], vns[5]), (vns[1], vns[7])] {
            let p = d.find_pipe(x, y).expect("workload pair collapsed");
            let q = full.find_pipe(x, y).expect("full mesh pair");
            assert_eq!(d.pipe(p).attrs, full.pipe(q).attrs);
            assert_eq!(d.collapsed_hops(p), full.collapsed_hops(q));
        }
    }

    #[test]
    fn walk_in_zero_is_clamped_to_one() {
        let topo = small_ring();
        let w0 = distill(&topo, DistillationMode::WalkIn { walk_in: 0 });
        let w1 = distill(&topo, DistillationMode::WalkIn { walk_in: 1 });
        assert_eq!(w0.undirected_pipe_count(), w1.undirected_pipe_count());
    }
}
