//! Shared generators for the repository-level test suites.

use proptest::prelude::*;

use mn_topology::{LinkAttrs, NodeKind, Topology};
use mn_util::rngs::seeded_rng;
use mn_util::{DataRate, SimDuration};

/// A random connected topology whose link latencies are powers of two:
/// distinct links carry distinct powers, so no two different link subsets
/// can sum to the same path latency (unique binary representation). The
/// latency-shortest path between any node pair is therefore unique, and
/// independent path computations (the reference simulator, the routing
/// matrix, `shortest_path`) cannot tie-break differently.
///
/// `loss` is the loss rate applied to the stub backbone links (client
/// access links and chords stay loss-free); pass `Just(0.0)` for the
/// loss-free variant where every submitted packet must be delivered.
pub fn arb_unique_path_topology(
    loss: impl Strategy<Value = f64>,
) -> impl Strategy<Value = Topology> {
    (3usize..8, 2usize..7, any::<u64>(), loss).prop_map(|(stubs, clients, seed, loss)| {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let mut k = 0u32;
        let mut next_latency = move || {
            k += 1;
            SimDuration::from_micros(1u64 << k)
        };
        let mut topo = Topology::new();
        let stub_ids: Vec<_> = (0..stubs).map(|_| topo.add_node(NodeKind::Stub)).collect();
        for w in stub_ids.windows(2) {
            let attrs = LinkAttrs::new(DataRate::from_mbps(rng.gen_range(5..100)), next_latency())
                .with_loss(loss);
            topo.add_link(w[0], w[1], attrs).unwrap();
        }
        for _ in 0..stubs / 2 {
            let a = stub_ids[rng.gen_range(0..stubs)];
            let b = stub_ids[rng.gen_range(0..stubs)];
            let joined = a == b || topo.neighbors(a).any(|(v, _)| v == b);
            if !joined {
                let attrs =
                    LinkAttrs::new(DataRate::from_mbps(rng.gen_range(5..100)), next_latency());
                let _ = topo.add_link(a, b, attrs);
            }
        }
        for _ in 0..clients {
            let c = topo.add_node(NodeKind::Client);
            let s = stub_ids[rng.gen_range(0..stubs)];
            let attrs = LinkAttrs::new(DataRate::from_mbps(rng.gen_range(5..20)), next_latency());
            topo.add_link(c, s, attrs).unwrap();
        }
        topo
    })
}

/// The adversarial counterpart of [`arb_unique_path_topology`]: every link
/// carries the *same* 1 ms latency, so any two equal-hop paths between a
/// node pair tie exactly, and random chords make such ties plentiful.
/// Bandwidths stay random — they are the observable that betrays *which*
/// tied path an algorithm collapsed, without affecting path cost.
///
/// Any two independent shortest-path computations (the distiller's collapse,
/// `shortest_path`, the reference simulator) must agree on these topologies
/// only if they pin ties the same way.
#[allow(dead_code)]
pub fn arb_tied_path_topology() -> impl Strategy<Value = Topology> {
    (4usize..9, 2usize..7, any::<u64>()).prop_map(|(stubs, clients, seed)| {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let latency = SimDuration::from_millis(1);
        let mut topo = Topology::new();
        let stub_ids: Vec<_> = (0..stubs).map(|_| topo.add_node(NodeKind::Stub)).collect();
        for w in stub_ids.windows(2) {
            let attrs = LinkAttrs::new(DataRate::from_mbps(rng.gen_range(5..100)), latency);
            topo.add_link(w[0], w[1], attrs).unwrap();
        }
        // Chords create the equal-latency alternatives; aim for plenty.
        for _ in 0..stubs {
            let a = stub_ids[rng.gen_range(0..stubs)];
            let b = stub_ids[rng.gen_range(0..stubs)];
            let joined = a == b || topo.neighbors(a).any(|(v, _)| v == b);
            if !joined {
                let attrs = LinkAttrs::new(DataRate::from_mbps(rng.gen_range(5..100)), latency);
                let _ = topo.add_link(a, b, attrs);
            }
        }
        for _ in 0..clients {
            let c = topo.add_node(NodeKind::Client);
            let s = stub_ids[rng.gen_range(0..stubs)];
            let attrs = LinkAttrs::new(DataRate::from_mbps(rng.gen_range(5..20)), latency);
            topo.add_link(c, s, attrs).unwrap();
        }
        topo
    })
}

/// Equal-cost ties at stub VNs: an even ring of equal-latency routers, so
/// every router reaches the opposite one both ways round at one cost, with
/// one to three client VNs hanging off each — every client a stub whose only
/// out-pipe is its access link, some of those at zero latency (routing cost
/// 1). The routing matrix derives a stub's tree from its router's, which
/// must match Dijkstra's own tie-breaking here too.
#[allow(dead_code)]
pub fn arb_tied_stub_ring() -> impl Strategy<Value = Topology> {
    (2usize..5, any::<u64>()).prop_map(|(half, seed)| {
        use rand::Rng;
        let mut rng = seeded_rng(seed);
        let ring = LinkAttrs::new(DataRate::from_mbps(100), SimDuration::from_millis(1));
        let mut topo = Topology::new();
        let routers: Vec<_> = (0..2 * half)
            .map(|_| topo.add_node(NodeKind::Stub))
            .collect();
        for (i, &r) in routers.iter().enumerate() {
            topo.add_link(r, routers[(i + 1) % routers.len()], ring)
                .unwrap();
        }
        for &r in &routers {
            for _ in 0..rng.gen_range(1..4) {
                let c = topo.add_node(NodeKind::Client);
                let zero = rng.gen_bool(0.3);
                let latency = SimDuration::from_millis(if zero { 0 } else { 1 });
                topo.add_link(c, r, LinkAttrs::new(DataRate::from_mbps(10), latency))
                    .unwrap();
            }
        }
        topo
    })
}
