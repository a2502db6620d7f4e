//! Property-based tests on the invariants DESIGN.md calls out: distillation
//! preserves end-to-end path quality bounds, routing structures agree, pipes
//! conserve packets, CDFs are monotone, and the virtual-time emulation is
//! deterministic for a seed.

use proptest::prelude::*;

use mn_distill::{distill, frontier_sets, DistillationMode};
use mn_pipe::EmuPipe;
use mn_routing::route_between;
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::paths::{shortest_path, PathMetric};
use mn_topology::{LinkAttrs, NodeKind, Topology};
use mn_util::rngs::seeded_rng;
use mn_util::{ByteSize, Cdf, DataRate, SimDuration, SimTime};

/// A small random connected topology: a chain of stubs with clients hanging
/// off random positions and a few random chords.
fn arb_topology() -> impl Strategy<Value = Topology> {
    (3usize..10, 2usize..8, any::<u64>()).prop_map(|(stubs, clients, seed)| {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let mut topo = Topology::new();
        let stub_ids: Vec<_> = (0..stubs).map(|_| topo.add_node(NodeKind::Stub)).collect();
        for w in stub_ids.windows(2) {
            let attrs = LinkAttrs::new(
                DataRate::from_mbps(rng.gen_range(1..100)),
                SimDuration::from_millis(rng.gen_range(1..20)),
            )
            .with_loss(rng.gen_range(0.0..0.05));
            topo.add_link(w[0], w[1], attrs).unwrap();
        }
        // A few chords.
        for _ in 0..stubs / 2 {
            let a = stub_ids[rng.gen_range(0..stubs)];
            let b = stub_ids[rng.gen_range(0..stubs)];
            if a != b {
                let attrs = LinkAttrs::new(
                    DataRate::from_mbps(rng.gen_range(1..100)),
                    SimDuration::from_millis(rng.gen_range(1..20)),
                );
                let _ = topo.add_link(a, b, attrs);
            }
        }
        for _ in 0..clients {
            let c = topo.add_node(NodeKind::Client);
            let s = stub_ids[rng.gen_range(0..stubs)];
            let attrs = LinkAttrs::new(
                DataRate::from_mbps(rng.gen_range(1..20)),
                SimDuration::from_millis(rng.gen_range(1..10)),
            );
            topo.add_link(c, s, attrs).unwrap();
        }
        topo
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// End-to-end distillation preserves each VN pair's path quality: the
    /// collapsed pipe's latency equals the shortest-path latency and its
    /// bandwidth equals the path bottleneck.
    #[test]
    fn end_to_end_collapse_preserves_path_quality(topo in arb_topology()) {
        let distilled = distill(&topo, DistillationMode::EndToEnd);
        let vns: Vec<_> = topo.client_nodes().collect();
        for (i, &a) in vns.iter().enumerate() {
            for &b in vns.iter().skip(i + 1) {
                let path = shortest_path(&topo, a, b, PathMetric::Latency).unwrap();
                let pipe_id = distilled.find_pipe(a, b).expect("mesh pipe exists");
                let pipe = distilled.pipe(pipe_id);
                prop_assert_eq!(pipe.attrs.latency, path.total_latency(&topo));
                prop_assert_eq!(pipe.attrs.bandwidth, path.bottleneck_bandwidth(&topo));
                // Reliability never exceeds any single link's reliability.
                prop_assert!(pipe.attrs.reliability() <= 1.0 + 1e-12);
                prop_assert!(pipe.attrs.reliability() >= path.reliability(&topo) - 1e-9);
            }
        }
    }

    /// Every distillation mode keeps all VN pairs mutually reachable through
    /// the pipe graph.
    #[test]
    fn distillation_preserves_vn_reachability(topo in arb_topology()) {
        for mode in [DistillationMode::HopByHop, DistillationMode::LAST_MILE, DistillationMode::EndToEnd] {
            let d = distill(&topo, mode);
            let vns = d.vns().to_vec();
            for &a in &vns {
                for &b in &vns {
                    if a != b {
                        prop_assert!(
                            route_between(&d, a, b).is_some(),
                            "{:?}: no route {} -> {}", mode, a, b
                        );
                    }
                }
            }
        }
    }

    /// Frontier sets: VNs are level 1 and every level-k node (k > 1) has a
    /// neighbour at level k-1.
    #[test]
    fn frontier_sets_are_well_formed(topo in arb_topology()) {
        let levels = frontier_sets(&topo);
        for vn in topo.client_nodes() {
            prop_assert_eq!(levels[vn.index()], Some(1));
        }
        for node in topo.node_ids() {
            if let Some(level) = levels[node.index()] {
                if level > 1 {
                    let has_parent = topo
                        .neighbors(node)
                        .any(|(n, _)| levels[n.index()] == Some(level - 1));
                    prop_assert!(has_parent);
                }
            }
        }
    }

    /// Pipes conserve packets: offered = delivered + dropped + in flight.
    #[test]
    fn pipes_conserve_packets(
        queue in 1usize..40,
        loss in 0.0f64..0.3,
        sizes in prop::collection::vec(40u64..1500, 1..300),
    ) {
        let mut attrs = mn_distill::PipeAttrs::new(
            DataRate::from_mbps(2),
            SimDuration::from_millis(10),
        );
        attrs.queue_len = queue;
        attrs.loss_rate = loss;
        let mut pipe: EmuPipe<usize> = EmuPipe::new(attrs);
        let mut rng = seeded_rng(7);
        let mut t = SimTime::ZERO;
        let mut delivered = 0u64;
        for (i, &size) in sizes.iter().enumerate() {
            t += SimDuration::from_micros(200);
            let _ = pipe.enqueue(t, ByteSize::from_bytes(size), i, &mut rng);
            delivered += pipe.dequeue_ready(t).len() as u64;
        }
        let in_flight = pipe.in_flight_count() as u64;
        let stats = pipe.stats();
        prop_assert!(stats.is_conserved(sizes.len() as u64));
        prop_assert_eq!(stats.dequeued, delivered);
        prop_assert_eq!(
            sizes.len() as u64,
            delivered + in_flight + stats.dropped_total()
        );
    }

    /// CDFs are monotone non-decreasing in both coordinates and end at 1.0.
    #[test]
    fn cdf_points_are_monotone(samples in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut cdf = Cdf::new();
        cdf.extend(samples.iter().copied());
        let pts = cdf.points();
        for w in pts.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
            prop_assert!(w[0].1 <= w[1].1);
        }
        prop_assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-9);
    }
}

/// Determinism is checked outside proptest (it is expensive): two runs with
/// the same seed produce identical flow results and core counters.
#[test]
fn emulation_is_deterministic_for_a_seed() {
    use modelnet::{
        ByteSize as B, DistillationMode as DM, Experiment, SimDuration as D, SimTime as T,
    };
    let run = || {
        let topo = ring_topology(&RingParams {
            routers: 5,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let mut runner = Experiment::new(topo)
            .distillation(DM::HopByHop)
            .seed(1234)
            .build()
            .unwrap();
        let vns = runner.vn_ids();
        let f1 = runner.add_bulk_flow(vns[0], vns[5], Some(B::from_kb(200)), T::ZERO);
        let f2 = runner.add_bulk_flow(vns[2], vns[7], None, T::ZERO);
        runner.run_for(D::from_secs(6)).unwrap();
        (
            runner.flow_completed_at(f1),
            runner.flow_bytes_acked(f2),
            runner.emulator().total_stats().packets_delivered,
        )
    };
    assert_eq!(run(), run());
}
