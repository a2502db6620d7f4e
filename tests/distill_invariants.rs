//! Distillation invariants (§4.1 of the paper), pinned across all four
//! modes on generated topologies: pipe counts, the collapse arithmetic
//! (minimum bandwidth, summed latency, multiplied reliability), route
//! length bounds, and the paper's "last-mile" configuration.

mod common;

use proptest::prelude::*;

use common::{arb_tied_path_topology, arb_unique_path_topology};

use mn_distill::{distill, frontier_sets, DistillationMode};
use mn_routing::route_between;
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::paths::{shortest_path, PathMetric};
use mn_topology::{LinkAttrs, NodeId, NodeKind, Topology};
use mn_util::{DataRate, SimDuration};

/// Undirected pipe count the paper's last-mile distillation must produce:
/// every client access link preserved, plus a full mesh over the reachable
/// non-client interior.
fn expected_last_mile_pipes(topo: &Topology) -> usize {
    let levels = frontier_sets(topo);
    let is_client = |n: NodeId| -> bool { matches!(levels[n.index()], Some(1)) };
    let preserved = topo
        .links()
        .filter(|(_, l)| is_client(l.a) || is_client(l.b))
        .count();
    let interior = topo
        .node_ids()
        .filter(|&n| matches!(levels[n.index()], Some(l) if l > 1))
        .count();
    preserved + interior * (interior - 1) / 2
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Hop-by-hop distillation is isomorphic to the target: two directed
    /// pipes per link, each carrying its link's exact attributes.
    #[test]
    fn hop_by_hop_pipe_count_and_attrs(topo in arb_unique_path_topology(0.0f64..0.05)) {
        let d = distill(&topo, DistillationMode::HopByHop);
        prop_assert_eq!(d.pipe_count(), 2 * topo.link_count());
        prop_assert_eq!(d.undirected_pipe_count(), topo.link_count());
        for (_, pipe) in d.pipes() {
            // The source link is the unique link joining the pipe's ends.
            let link = topo
                .links()
                .find(|(_, l)| {
                    (l.a == pipe.src && l.b == pipe.dst) || (l.a == pipe.dst && l.b == pipe.src)
                })
                .map(|(_, l)| l)
                .expect("every pipe mirrors a target link");
            prop_assert_eq!(pipe.attrs.bandwidth, link.attrs.bandwidth);
            prop_assert_eq!(pipe.attrs.latency, link.attrs.latency);
            prop_assert!((pipe.attrs.reliability() - link.attrs.reliability()).abs() < 1e-12);
        }
    }

    /// End-to-end distillation is a full mesh over the VNs whose collapsed
    /// pipes carry exactly (min bandwidth, sum latency, product
    /// reliability) of the unique shortest path.
    #[test]
    fn end_to_end_collapse_arithmetic(topo in arb_unique_path_topology(0.0f64..0.05)) {
        let d = distill(&topo, DistillationMode::EndToEnd);
        let vns: Vec<NodeId> = topo.client_nodes().collect();
        let n = vns.len();
        prop_assert_eq!(d.undirected_pipe_count(), n * (n - 1) / 2);
        prop_assert_eq!(d.max_route_pipes(), 1);
        for (i, &a) in vns.iter().enumerate() {
            for &b in vns.iter().skip(i + 1) {
                let path = shortest_path(&topo, a, b, PathMetric::Latency)
                    .expect("connected topology");
                let pipe = d.pipe(d.find_pipe(a, b).expect("mesh pipe exists"));
                prop_assert_eq!(pipe.attrs.bandwidth, path.bottleneck_bandwidth(&topo),
                    "collapsed bandwidth is the path minimum");
                prop_assert_eq!(pipe.attrs.latency, path.total_latency(&topo),
                    "collapsed latency is the path sum");
                prop_assert!(
                    (pipe.attrs.reliability() - path.reliability(&topo)).abs() < 1e-9,
                    "collapsed reliability is the path product"
                );
            }
        }
    }

    /// Walk-in 1 produces the paper's last-mile pipe count — preserved
    /// access links plus a full interior mesh — and its mesh pipes carry
    /// the same collapse arithmetic as end-to-end pipes.
    #[test]
    fn walk_in_one_is_the_last_mile_distillation(topo in arb_unique_path_topology(0.0f64..0.05)) {
        let d = distill(&topo, DistillationMode::WalkIn { walk_in: 1 });
        prop_assert_eq!(d.undirected_pipe_count(), expected_last_mile_pipes(&topo));
        // WalkIn{1} and the LAST_MILE alias are the same configuration.
        let alias = distill(&topo, DistillationMode::LAST_MILE);
        prop_assert_eq!(alias.undirected_pipe_count(), d.undirected_pipe_count());
        // Mesh pipes (both endpoints interior) collapse their unique
        // shortest path.
        let levels = frontier_sets(&topo);
        let interior = |n: NodeId| matches!(levels[n.index()], Some(l) if l > 1);
        let mut mesh_pipes = 0usize;
        for (_, pipe) in d.pipes() {
            if interior(pipe.src) && interior(pipe.dst) {
                mesh_pipes += 1;
                let path = shortest_path(&topo, pipe.src, pipe.dst, PathMetric::Latency)
                    .expect("connected topology");
                prop_assert_eq!(pipe.attrs.latency, path.total_latency(&topo));
                prop_assert_eq!(pipe.attrs.bandwidth, path.bottleneck_bandwidth(&topo));
                prop_assert!(
                    (pipe.attrs.reliability() - path.reliability(&topo)).abs() < 1e-9
                );
            }
        }
        let interior_count = topo
            .node_ids()
            .filter(|&n| interior(n))
            .count();
        prop_assert_eq!(mesh_pipes, interior_count * (interior_count - 1),
            "directed mesh covers every interior pair");
    }

    /// Route-length invariants per mode. End-to-end and the last-mile walk
    /// guarantee a hard per-route pipe bound (1 and `2*walk_in + 1`); the
    /// deeper walks guarantee that collapsing never *lengthens* a route —
    /// every distilled route takes at most as many pipes as the target
    /// network's own shortest path takes links.
    #[test]
    fn route_lengths_respect_the_mode_bound(topo in arb_unique_path_topology(0.0f64..0.05)) {
        let hard_bound = [
            DistillationMode::EndToEnd,
            DistillationMode::WalkIn { walk_in: 1 },
        ];
        let never_longer = [
            DistillationMode::WalkIn { walk_in: 2 },
            DistillationMode::WalkInOut { walk_in: 1, walk_out: 1 },
        ];
        let vns: Vec<NodeId> = topo.client_nodes().collect();
        for mode in hard_bound {
            let d = distill(&topo, mode);
            let bound = d.max_route_pipes();
            for &a in &vns {
                for &b in &vns {
                    if a == b {
                        continue;
                    }
                    let route = route_between(&d, a, b)
                        .unwrap_or_else(|| panic!("{mode:?}: no route {a} -> {b}"));
                    prop_assert!(
                        route.hop_count() <= bound,
                        "{:?}: route {} -> {} takes {} pipes, bound {}",
                        mode, a, b, route.hop_count(), bound
                    );
                }
            }
        }
        for mode in never_longer {
            let d = distill(&topo, mode);
            for &a in &vns {
                for &b in &vns {
                    if a == b {
                        continue;
                    }
                    let route = route_between(&d, a, b)
                        .unwrap_or_else(|| panic!("{mode:?}: no route {a} -> {b}"));
                    let real = shortest_path(&topo, a, b, PathMetric::Latency)
                        .expect("connected topology");
                    prop_assert!(
                        route.hop_count() <= real.hop_count(),
                        "{:?}: distilled route {} -> {} takes {} pipes but the \
                         target path is only {} links",
                        mode, a, b, route.hop_count(), real.hop_count()
                    );
                }
            }
        }
    }

    /// Equal-latency tie-breaking: on topologies where *every* link has the
    /// same latency, shortest paths tie constantly, and the distiller's
    /// collapse must still agree with `shortest_path` — both pin ties to the
    /// lowest `(predecessor, link)` pair, so the collapsed bandwidth (the
    /// attribute that differs between tied paths) must match exactly. The
    /// unique-path generator can never catch a divergence here because its
    /// power-of-two latencies make every shortest path unique.
    #[test]
    fn tied_shortest_paths_collapse_deterministically(topo in arb_tied_path_topology()) {
        let d = distill(&topo, DistillationMode::EndToEnd);
        let vns: Vec<NodeId> = topo.client_nodes().collect();
        for (i, &a) in vns.iter().enumerate() {
            for &b in vns.iter().skip(i + 1) {
                let path = shortest_path(&topo, a, b, PathMetric::Latency)
                    .expect("connected topology");
                let pipe = d.pipe(d.find_pipe(a, b).expect("mesh pipe exists"));
                prop_assert_eq!(pipe.attrs.latency, path.total_latency(&topo),
                    "tied paths must still agree on (latency, hop) cost");
                prop_assert_eq!(pipe.attrs.bandwidth, path.bottleneck_bandwidth(&topo),
                    "collapse and shortest_path picked different tied paths \
                     between {} and {}", a, b);
                prop_assert!(
                    (pipe.attrs.reliability() - path.reliability(&topo)).abs() < 1e-9
                );
            }
        }
    }
}

/// The last-mile count on the paper's ring family, parametrised:
/// `routers * clients` access pipes plus `C(routers, 2)` mesh pipes.
#[test]
fn last_mile_counts_on_the_paper_ring_family() {
    for (routers, clients) in [(4usize, 2usize), (8, 3), (20, 20)] {
        let topo = ring_topology(&RingParams {
            routers,
            clients_per_router: clients,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::LAST_MILE);
        let expected = routers * clients + routers * (routers - 1) / 2;
        assert_eq!(
            d.undirected_pipe_count(),
            expected,
            "ring({routers},{clients}): access + interior mesh"
        );
        assert_eq!(d.undirected_pipe_count(), expected_last_mile_pipes(&topo));
        assert_eq!(d.max_route_pipes(), 3, "client-mesh-client");
    }
}

/// Walk-in/walk-out on a chain: the under-provisioned core is preserved
/// link-for-link, the remaining interior meshes around it, and collapsed
/// pipes sum the chain latencies they replace.
#[test]
fn walk_in_out_preserves_the_core_and_collapses_around_it() {
    // client - s1 - s2 - s3 - s4 - s5 - client, 1 ms per link.
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
    // Frontiers: {a,b}=1, {s1,s5}=2, {s2,s4}=3, {s3}=4; core = {s2,s3,s4}.
    // Preserved: 2 access links + 2 core-internal links (s2-s3, s3-s4).
    // Mesh nodes: interior {s1, s5} plus core boundary {s2, s4}; all pairs
    // except the core-core pair (s2,s4) get collapsed pipes: C(4,2)-1 = 5.
    assert_eq!(d.undirected_pipe_count(), 2 + 2 + 5);
    // The collapsed s1 -> s5 pipe replaces the four-link chain.
    let collapsed = d.pipe(d.find_pipe(stubs[0], stubs[4]).expect("mesh pipe"));
    assert_eq!(collapsed.attrs.latency, SimDuration::from_millis(4));
    assert_eq!(collapsed.attrs.bandwidth, DataRate::from_mbps(10));
    // Preserved core links keep their original single-hop attributes.
    let core_link = d.pipe(d.find_pipe(stubs[1], stubs[2]).expect("core link"));
    assert_eq!(core_link.attrs.latency, SimDuration::from_millis(1));
    // Routes fit the advertised bound: 2*walk_in preserved edge links, one
    // mesh pipe into the core boundary, up to |core| preserved core links,
    // and a second mesh pipe back out of the core.
    assert_eq!(d.max_route_pipes(), 2 + 2 + 3);
}

/// Hop-by-hop records no route bound: routes minimise latency, not hops, so
/// the hop diameter bounds no route. x and y hang off routers A and C, joined
/// by A–B–C at 1 ms a link and by a direct 10 ms A–C link: the diameter is 3,
/// and the route x → y takes the 4 fast pipes.
#[test]
fn hop_by_hop_records_no_bound_since_a_route_may_exceed_the_hop_diameter() {
    let mut topo = Topology::new();
    let x = topo.add_node(NodeKind::Client);
    let routers: Vec<NodeId> = (0..3).map(|_| topo.add_node(NodeKind::Stub)).collect();
    let y = topo.add_node(NodeKind::Client);
    let ms = |ms| LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(ms));
    topo.add_link(x, routers[0], ms(1)).unwrap();
    topo.add_link(routers[0], routers[1], ms(1)).unwrap();
    topo.add_link(routers[1], routers[2], ms(1)).unwrap();
    topo.add_link(routers[2], y, ms(1)).unwrap();
    topo.add_link(routers[0], routers[2], ms(10)).unwrap();

    let d = distill(&topo, DistillationMode::HopByHop);
    assert_eq!(topo.hop_diameter(), 3);
    assert_eq!(route_between(&d, x, y).expect("route").hop_count(), 4);
    assert_eq!(d.max_route_pipes(), 0, "unknown, not the diameter");
}

/// Regression for the walk-in/out route bound: a route crossing the
/// preserved core traverses *two* mesh pipes (interior→boundary and
/// boundary→interior), so the bound must budget `2*walk_in + 2 + |core|` —
/// the pre-fix `2*walk_in + 1 + |core|` assumed a single mesh crossing.
/// Every distilled route must fit the advertised bound.
#[test]
fn walk_in_out_routes_fit_the_two_mesh_crossing_bound() {
    // Two clients per end so the edge region is non-trivial, joined by a
    // seven-stub chain: core {s3,s4,s5}, interior {s1,s2,s6,s7}.
    let mut topo = Topology::new();
    let a1 = topo.add_node(NodeKind::Client);
    let a2 = topo.add_node(NodeKind::Client);
    let stubs: Vec<NodeId> = (0..7).map(|_| topo.add_node(NodeKind::Stub)).collect();
    let b1 = topo.add_node(NodeKind::Client);
    let b2 = topo.add_node(NodeKind::Client);
    let attrs = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
    topo.add_link(a1, stubs[0], attrs).unwrap();
    topo.add_link(a2, stubs[0], attrs).unwrap();
    for w in stubs.windows(2) {
        topo.add_link(w[0], w[1], attrs).unwrap();
    }
    topo.add_link(stubs[6], b1, attrs).unwrap();
    topo.add_link(stubs[6], b2, attrs).unwrap();

    let d = distill(
        &topo,
        DistillationMode::WalkInOut {
            walk_in: 1,
            walk_out: 1,
        },
    );
    // Frontiers: clients=1, {s1,s7}=2, {s2,s6}=3, {s3,s5}=4, {s4}=5; with
    // walk_out=1 the core is frontiers 4..=5 = {s3,s4,s5}: the bound is
    // 2*walk_in + 2 mesh/frontier pipes + 3 core links.
    assert_eq!(d.max_route_pipes(), 7);
    let vns: Vec<NodeId> = topo.client_nodes().collect();
    for &x in &vns {
        for &y in &vns {
            if x == y {
                continue;
            }
            let route = route_between(&d, x, y).expect("route exists");
            assert!(
                route.hop_count() <= d.max_route_pipes(),
                "route {x} -> {y} takes {} pipes, bound {}",
                route.hop_count(),
                d.max_route_pipes()
            );
        }
    }
    // The bound leaves room for a route entering and leaving the core on
    // separate mesh pipes (access + mesh + s3-s4 + s4-s5 + mesh + access =
    // six pipes), which the pre-fix bound of 2*walk_in + 1 + |core| = 6
    // only met with zero slack by double-counting a core link as the
    // second mesh crossing.
    let route = route_between(&d, a1, b1).expect("cross-chain route");
    assert!(route.hop_count() <= d.max_route_pipes());
}

/// Regression for mesh-collapse double-counting: a mesh pipe whose shortest
/// path detours through a preserved edge link would bake that link's
/// contention into its own attributes while routes also cross the link
/// natively. The collapse is restricted to non-edge-region nodes, so the
/// multihomed client's 2 ms shortcut must be ignored in favour of the 20 ms
/// interior path.
#[test]
fn mesh_collapse_ignores_preserved_edge_shortcuts() {
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
    let pipe = d.pipe(d.find_pipe(s1, s2).expect("interior mesh pipe"));
    assert_eq!(pipe.attrs.latency, SimDuration::from_millis(20));
    assert_eq!(pipe.attrs.bandwidth, DataRate::from_mbps(10));
}
