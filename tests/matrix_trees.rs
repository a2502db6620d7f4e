//! Property suite for the tree-only routing matrix.
//!
//! The matrix stores one shortest-route tree per source (a predecessor row)
//! and derives routes and distance labels on demand; the rows also say which
//! trees a pipe is an edge of, which drives output-sensitive
//! reconfiguration. Three invariants pin the design against a dense
//! reference built from the raw Dijkstra primitives:
//!
//! 1. **Observational equivalence.** Across random fail/restore/renegotiate
//!    sequences, every route *and* every distance label the incrementally
//!    maintained matrix serves must agree with an independent from-scratch
//!    single-source computation on the mutated pipe graph.
//! 2. **`RouteId` stability.** Driving a sharded route table with the
//!    matrix's updates keeps the ids of untouched pairs intact, and every
//!    id still resolves to the reference pipe sequence.
//! 3. **Tree-membership exactness.** After every step the trees each pipe
//!    is an edge of equal those of a scratch build, and a pure worsening
//!    recomputes exactly the trees the reference rows had the changed pipes
//!    in — the output-sensitivity claim itself.

mod common;

use std::collections::HashSet;

use proptest::prelude::*;

use common::{arb_tied_stub_ring, arb_unique_path_topology};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeId};
use mn_routing::{
    route_from_tree, shortest_route_tree_with_dist, RouteId, RouteTable, RoutingMatrix,
    UNUSABLE_COST,
};
use mn_topology::{LinkAttrs, NodeId, NodeKind, Topology};
use mn_util::{DataRate, SimDuration};

/// One random perturbation of a duplex link.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Fail the link (bandwidth to zero): routes detour or disappear.
    Down,
    /// Restore the link's build-time attributes.
    Restore,
    /// Double the link's latency: routes may shift without a failure.
    SlowerLatency,
    /// Halve the link's (nonzero) bandwidth: no routing impact at all.
    RenegotiateBandwidth,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Down),
        Just(Op::Restore),
        Just(Op::SlowerLatency),
        Just(Op::RenegotiateBandwidth),
    ]
}

/// Applies `op` to both directions of the `link_choice`-th duplex link,
/// returning the mutated pipes. Hop-by-hop distillation adds duplex pairs
/// back to back: pipes 2k and 2k+1 are the two directions of link k.
fn apply_op(
    d: &mut DistilledTopology,
    original: &[mn_distill::PipeAttrs],
    link_choice: usize,
    op: Op,
) -> Vec<PipeId> {
    let links = d.pipe_count() / 2;
    let k = link_choice % links;
    let pipes = vec![PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
    for &p in &pipes {
        let attrs = d.pipe_attrs_mut(p).expect("pipe exists");
        match op {
            Op::Down => attrs.bandwidth = DataRate::ZERO,
            Op::Restore => *attrs = original[p.index()],
            Op::SlowerLatency => attrs.latency = attrs.latency * 2,
            Op::RenegotiateBandwidth => attrs.bandwidth = attrs.bandwidth.mul_f64(0.5),
        }
    }
    pipes
}

/// Independent dense reference for one source: predecessor tree + labels
/// straight from the exported Dijkstra primitive (no `RoutingMatrix` code).
fn reference_tree(d: &DistilledTopology, src: NodeId) -> (Vec<Option<PipeId>>, Vec<u64>) {
    shortest_route_tree_with_dist(d, src)
}

/// The three invariants, checked after every step of `ops` on `topo`.
fn check_random_dynamics(topo: &mn_topology::Topology, ops: Vec<(usize, Op)>) {
    let mut d = distill(topo, DistillationMode::HopByHop);
    let original: Vec<_> = d.pipes().map(|(_, p)| p.attrs).collect();
    let mut matrix = RoutingMatrix::build(&d);
    let vns = matrix.vns().to_vec();
    let locations = vns.clone();
    let n = locations.len();
    let mut table = RouteTable::build(&matrix, &locations);

    for (choice, op) in ops {
        // Output-sensitivity oracle, captured before the step: a pure
        // worsening (Down on a live link, or a latency increase) must
        // recompute exactly the sources whose reference tree has either
        // pipe as an edge (its head's predecessor).
        let changed_pipes = [
            PipeId::from_index(2 * (choice % (d.pipe_count() / 2))),
            PipeId::from_index(2 * (choice % (d.pipe_count() / 2)) + 1),
        ];
        let pure_worsening = match op {
            Op::Down => changed_pipes
                .iter()
                .all(|&p| !d.pipe(p).attrs.bandwidth.is_zero()),
            // Doubling a zero latency changes nothing.
            Op::SlowerLatency => changed_pipes.iter().all(|&p| {
                let attrs = d.pipe(p).attrs;
                !attrs.bandwidth.is_zero() && attrs.latency > SimDuration::ZERO
            }),
            _ => false,
        };
        let crosses = |src: &NodeId| {
            let (pred, _) = reference_tree(&d, *src);
            let edge = |p: &PipeId| pred[d.pipe(*p).dst.index()] == Some(*p);
            changed_pipes.iter().any(edge)
        };
        let expected_recompute = vns.iter().filter(|src| crosses(src)).count();

        let ids_before: Vec<Option<RouteId>> =
            (0..n * n).map(|i| table.route_id(i / n, i % n)).collect();
        let changed = apply_op(&mut d, &original, choice, op);
        let update = matrix.update_pipes(&d, &changed);
        if !update.is_empty() {
            table.rewire_in_place(&matrix, &locations, &update.changed_pairs);
        }

        if pure_worsening {
            prop_assert_eq!(
                update.recomputed_sources,
                expected_recompute,
                "a worsening must recompute exactly the trees crossing it after {:?}",
                op
            );
        }

        // 1. Route and distance agreement with the dense reference.
        for (si, &src) in vns.iter().enumerate() {
            let (pred, dist) = reference_tree(&d, src);
            for (di, &dst) in vns.iter().enumerate() {
                let want = route_from_tree(&d, &pred, src, dst);
                prop_assert_eq!(
                    matrix.lookup(src, dst),
                    want,
                    "route {} -> {} diverged after {:?}",
                    src,
                    dst,
                    op
                );
                let want_dist = (dist[dst.index()] != UNUSABLE_COST).then_some(dist[dst.index()]);
                prop_assert_eq!(
                    matrix.distance(src, dst),
                    want_dist,
                    "distance {} -> {} diverged after {:?}",
                    src,
                    dst,
                    op
                );
                // Zero-copy resolution agrees with the allocating path.
                let mut buf = Vec::new();
                let ok = matrix.materialize_at(si, di, &mut buf);
                prop_assert_eq!(ok, matrix.lookup(src, dst).is_some());
                if ok {
                    prop_assert_eq!(&buf, &matrix.lookup(src, dst).unwrap().pipes);
                }
            }
        }

        // 2. RouteId stability on untouched pairs, and reference
        //    resolution for every live id.
        let changed_set: HashSet<(NodeId, NodeId)> = update.changed_pairs.iter().copied().collect();
        for s in 0..n {
            for t in 0..n {
                if !changed_set.contains(&(locations[s], locations[t])) {
                    prop_assert_eq!(
                        table.route_id(s, t),
                        ids_before[s * n + t],
                        "untouched pair ({}, {}) must keep its RouteId after {:?}",
                        s,
                        t,
                        op
                    );
                }
                if let Some(id) = table.route_id(s, t) {
                    let want = matrix
                        .lookup(locations[s], locations[t])
                        .expect("wired pairs are routable");
                    prop_assert_eq!(table.pipes(id), want.pipes.as_slice());
                }
            }
        }

        // 3. Tree-membership exactness: the incrementally maintained rows
        //    put every pipe in the trees a from-scratch build does.
        let fresh = RoutingMatrix::build(&d);
        for pid in 0..d.pipe_count() {
            let trees = |m: &RoutingMatrix| {
                let sources = m.pipe_tree_sources(&d, PipeId::from_index(pid));
                sources.collect::<Vec<u32>>()
            };
            prop_assert_eq!(
                trees(&matrix),
                trees(&fresh),
                "tree membership diverged for pipe {} after {:?}",
                pid,
                op
            );
        }
    }
}

/// `parts` disjoint components, each a chain of 1–3 stubs with 0–3 clients
/// hung off random stubs, then 1–2 isolated clients (components of one VN)
/// and an isolated stub (a component with no VN). Every link has a random
/// latency of 1–4 ms, so routes inside a component tie now and then.
fn arb_disjoint_components() -> impl Strategy<Value = Topology> {
    let part = (1usize..4, 0usize..4, prop::collection::vec(1u64..5, 8..9));
    let parts = prop::collection::vec(part, 2..5);
    (parts, 1usize..3).prop_map(|(parts, isolated)| {
        let mut topo = Topology::new();
        for (stubs, clients, latencies) in parts {
            let mut latency = latencies.into_iter().cycle();
            let mut link = |topo: &mut Topology, a, b| {
                let ms = SimDuration::from_millis(latency.next().expect("cycled"));
                topo.add_link(a, b, LinkAttrs::new(DataRate::from_mbps(10), ms))
                    .unwrap();
            };
            let stub_ids: Vec<_> = (0..stubs).map(|_| topo.add_node(NodeKind::Stub)).collect();
            for w in stub_ids.windows(2) {
                link(&mut topo, w[0], w[1]);
            }
            for c in 0..clients {
                let client = topo.add_node(NodeKind::Client);
                link(&mut topo, client, stub_ids[c % stubs]);
            }
        }
        for _ in 0..isolated {
            topo.add_node(NodeKind::Client);
        }
        topo.add_node(NodeKind::Stub);
        topo
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same invariants over many structural components, where each
    /// source's row covers its own component only.
    #[test]
    fn rows_over_disjoint_components_match_dense_reference_under_random_dynamics(
        topo in arb_disjoint_components(),
        ops in prop::collection::vec((any::<usize>(), arb_op()), 1..10),
    ) {
        check_random_dynamics(&topo, ops);
    }

    #[test]
    fn tree_matrix_matches_dense_reference_under_random_dynamics(
        topo in arb_unique_path_topology(Just(0.0)),
        ops in prop::collection::vec((any::<usize>(), arb_op()), 1..10),
    ) {
        check_random_dynamics(&topo, ops);
    }

    /// The same invariants where shortest routes tie and most sources are
    /// stubs: a stub's tree is its router's shifted, never its own run.
    #[test]
    fn stub_trees_match_dense_reference_under_ties_and_random_dynamics(
        topo in arb_tied_stub_ring(),
        ops in prop::collection::vec((any::<usize>(), arb_op()), 1..10),
    ) {
        check_random_dynamics(&topo, ops);
    }
}
