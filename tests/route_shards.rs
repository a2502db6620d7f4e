//! Property suite for the sharded copy-on-write route table.
//!
//! Three invariants anchor the shard design:
//!
//! 1. **Observational equivalence.** Across random fail/restore/renegotiate
//!    sequences, the incrementally rewired sharded table must agree with a
//!    from-scratch dense reference on **every** `(src, dst)` lookup — same
//!    routability, same pipe sequence — with endpoints multiplexed two per
//!    location so row dedup is exercised throughout.
//! 2. **`RouteId` stability.** Pairs a step did not change keep their exact
//!    `RouteId` (descriptors in flight keep resolving), and every id still
//!    resolves to the pipe sequence the reference prescribes.
//! 3. **Copy-on-write identity.** After a rewire, the row shards of
//!    untouched sources are literally the same storage as before the step
//!    (`Arc` identity for spilled rows), and co-located endpoints keep
//!    sharing one shard — the publish cost is O(changed rows), which is the
//!    tentpole's whole point.

mod common;

use std::collections::HashSet;

use proptest::prelude::*;

use common::arb_unique_path_topology;
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeId};
use mn_routing::{RouteId, RouteTable, RoutingMatrix};
use mn_topology::NodeId;
use mn_util::DataRate;

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
    let pipes = vec![PipeId(2 * k), PipeId(2 * k + 1)];
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sharded_table_matches_dense_reference_under_random_dynamics(
        topo in arb_unique_path_topology(Just(0.0)),
        ops in prop::collection::vec((any::<usize>(), arb_op()), 1..10),
    ) {
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let original: Vec<_> = d.pipes().map(|(_, p)| p.attrs).collect();
        let mut matrix = RoutingMatrix::build(&d);
        // Two endpoints per location: half the endpoint set repeats the VN
        // list, so every row shard is shared by a co-located pair and
        // same-location pairs must stay unroutable (local delivery).
        let mut locations = d.vns().to_vec();
        locations.extend(d.vns().to_vec());
        let n = locations.len();
        let half = n / 2;
        let mut table = RouteTable::build(&matrix, &locations);

        for (choice, op) in ops {
            let before = table.clone();
            let ids_before: Vec<Option<RouteId>> = (0..n * n)
                .map(|i| table.route_id(i / n, i % n))
                .collect();
            let changed_pipes = apply_op(&mut d, &original, choice, op);
            let update = matrix.update_pipes(&d, &changed_pipes);
            if !update.is_empty() {
                table.rewire_in_place(&matrix, &locations, &update.changed_pairs);
            }

            // 1. Every (src, dst) lookup agrees with a scratch-built dense
            //    reference of the mutated pipe graph.
            let scratch = RoutingMatrix::build(&d);
            for s in 0..n {
                for t in 0..n {
                    let expected = if locations[s] == locations[t] {
                        None
                    } else {
                        scratch.lookup(locations[s], locations[t]).and_then(|r| {
                            if r.is_empty() {
                                None
                            } else {
                                Some(r.pipes)
                            }
                        })
                    };
                    let got = table.route_id(s, t).map(|id| table.pipes(id).to_vec());
                    prop_assert_eq!(got, expected, "pair ({}, {}) after {:?}", s, t, op);
                }
            }

            // 2. RouteId stability: pairs the update did not list keep
            //    their exact pre-step id.
            let changed_set: HashSet<(NodeId, NodeId)> =
                update.changed_pairs.iter().copied().collect();
            for s in 0..n {
                for t in 0..n {
                    if !changed_set.contains(&(locations[s], locations[t])) {
                        prop_assert_eq!(
                            table.route_id(s, t),
                            ids_before[s * n + t],
                            "untouched pair ({}, {}) must keep its RouteId after {:?}",
                            s, t, op
                        );
                    }
                }
            }

            // 3. Copy-on-write identity: sources with no changed pair keep
            //    literally the same row storage across the rewire, and
            //    co-located endpoints still share one shard.
            let changed_sources: HashSet<NodeId> =
                changed_set.iter().map(|&(src, _)| src).collect();
            for (s, loc) in locations.iter().enumerate() {
                if !changed_sources.contains(loc) {
                    prop_assert!(
                        table.row_storage_shared(&before, s),
                        "untouched source {} lost its shard storage after {:?}",
                        s, op
                    );
                }
            }
            for s in 0..half {
                prop_assert!(
                    table.row_storage_shared(&table, s),
                    "shard identity must be reflexive"
                );
                prop_assert_eq!(
                    table.spilled_row_ptr(s),
                    table.spilled_row_ptr(s + half),
                    "co-located endpoints {} and {} must share one shard",
                    s, s + half
                );
            }
        }
    }
}

/// One link-down or link-up half of a flap, the way `Emulator::reroute` and
/// `publish_routes` run it: mutate both directions of ring link `k`, update
/// the matrix, clone the published table, rewire the clone, and only then
/// let go of the old generation. Returns the new generation, the pairs the
/// update listed, and the content-index probes the rewire spent.
fn flap_half(
    d: &mut DistilledTopology,
    healthy: &[mn_distill::PipeAttrs],
    matrix: &mut RoutingMatrix,
    locations: &[NodeId],
    published: &RouteTable,
    k: usize,
    up: bool,
) -> (RouteTable, Vec<(NodeId, NodeId)>, u64) {
    let link = [PipeId(2 * k), PipeId(2 * k + 1)];
    for p in link {
        d.pipe_attrs_mut(p).expect("pipe exists").bandwidth = if up {
            healthy[p.index()].bandwidth
        } else {
            DataRate::ZERO
        };
    }
    let update = matrix.update_pipes(d, &link);
    let mut next = published.clone();
    next.rewire_in_place(matrix, locations, &update.changed_pairs);
    let probes = next.content_index_probes() - published.content_index_probes();
    (next, update.changed_pairs, probes)
}

/// The k-th flap costs what the first did, stated as a count. Twelve
/// *distinct* links of a 16-router ring (8 VN locations per router, 4
/// endpoints per location) fail and recover in sequence, so every link-down
/// interns thousands of detours the table has never seen. Re-flapping one
/// link, as the `reconfig_cost` bench does, interns nothing after its first
/// cycle and so never saw what the index costs once it has grown.
#[test]
fn the_kth_distinct_link_flap_costs_what_the_first_did() {
    const ROUTERS: usize = 16;
    const LINKS: usize = 12;
    let topo = mn_topology::generators::ring_topology(&mn_topology::generators::RingParams {
        routers: ROUTERS,
        clients_per_router: 8,
        ..Default::default()
    });
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let healthy: Vec<_> = d.pipes().map(|(_, p)| p.attrs).collect();
    for k in 0..ROUTERS {
        let pipe = d.pipe(PipeId(2 * k));
        assert!(
            !d.vns().contains(&pipe.src) && !d.vns().contains(&pipe.dst),
            "the first {ROUTERS} duplex pairs are the ring links"
        );
    }
    let mut matrix = RoutingMatrix::build(&d);
    let locations: Vec<NodeId> = (0..4).flat_map(|_| d.vns().to_vec()).collect();
    // The first endpoint bound at each location stands for all four.
    let first_endpoint: std::collections::HashMap<NodeId, usize> =
        d.vns().iter().copied().zip(0..).collect();
    let endpoint_at = |loc: NodeId| first_endpoint[&loc];
    let mut table = RouteTable::build(&matrix, &locations);

    // Per pass, per link: (lookups, probes) of the down half and of the up.
    let mut cost: Vec<Vec<[(usize, u64); 2]>> = Vec::new();
    for pass in 0..3 {
        let routes_at_pass_start = table.route_count();
        let mut pass_cost = Vec::new();
        for k in 0..LINKS {
            let before = table.clone();
            let (down, failed_pairs, down_probes) =
                flap_half(&mut d, &healthy, &mut matrix, &locations, &table, k, false);
            assert!(!failed_pairs.is_empty(), "a ring link carries routes");
            if pass == 0 {
                assert!(down.route_count() > table.route_count(), "detours are new");
            }
            // The old generation is still published while the new one
            // interns: nothing it answers may move.
            assert_eq!(table.route_count(), before.route_count());
            for &(src, dst) in &failed_pairs {
                let (s, t) = (endpoint_at(src), endpoint_at(dst));
                let id = table.route_id(s, t);
                assert_eq!(id, before.route_id(s, t), "old generation, {s}->{t}");
                if let (Some(id), Some(new)) = (id, down.route_id(s, t)) {
                    assert_ne!(table.pipes(id), down.pipes(new), "{s}->{t} rerouted");
                }
            }
            table = down;

            let routes_while_down = table.route_count();
            let (restored, restored_pairs, up_probes) =
                flap_half(&mut d, &healthy, &mut matrix, &locations, &table, k, true);
            table = restored;
            assert_eq!(
                table.route_count(),
                routes_while_down,
                "a link-up interns nothing"
            );
            assert_eq!(restored_pairs.len(), failed_pairs.len());
            for &(src, dst) in &restored_pairs {
                let (s, t) = (endpoint_at(src), endpoint_at(dst));
                assert_eq!(
                    table.route_id(s, t),
                    before.route_id(s, t),
                    "{s}->{t} returns to its pre-failure id"
                );
            }
            pass_cost.push([
                (failed_pairs.len(), down_probes),
                (restored_pairs.len(), up_probes),
            ]);
        }
        if pass > 0 {
            assert_eq!(
                table.route_count(),
                routes_at_pass_start,
                "no growth under oscillation"
            );
        }
        cost.push(pass_cost);
    }

    // One changed pair is one lookup, and a lookup is a handful of slot
    // reads and store comparisons whichever flap it serves: a hit on its
    // home slot is 2 probes, and no half of any cycle averages more than 8
    // (the first pass's link-downs miss, at up to 3/4 load) — 3 once every
    // lookup is a hit.
    for (pass, pass_cost) in cost.iter().enumerate() {
        for (k, halves) in pass_cost.iter().enumerate() {
            for &(lookups, probes) in halves {
                let bound = if pass == 0 { 8 } else { 3 };
                assert!(
                    probes <= bound * lookups as u64,
                    "pass {pass} link {k}: {probes} probes for {lookups} lookups"
                );
            }
        }
    }
    // Once nothing new is interned, a lookup's probe sequence is fixed by
    // the index alone: replaying the sequence costs exactly the same count,
    // cycle by cycle, first link to twelfth. Cost does not depend on how
    // many generations came before.
    assert_eq!(cost[1], cost[2]);
}
