//! The scale claims, stated without a clock.
//!
//! Each claim here used to be a wall-clock ratio in a bench target of its
//! own, gated in CI by a `shape_holds` flag that a busy 2-vCPU runner could
//! flip either way. What they claim is not a speed but a *shape* — a cost
//! that does not grow with the VN count, a state that fits a memory budget,
//! a model that stands for more work than the cores execute — and a shape
//! can be counted: bytes requested from the counting allocator, trees
//! recomputed, pipe transits. Counted, the claims are exact and the same on
//! every host, so `cargo test` enforces them. `cargo test --test
//! scale_claims -- --nocapture` prints the counts (BENCH.md records them).

use std::sync::{Mutex, MutexGuard};

use mn_assign::{Binding, BindingParams};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeAttrs, PipeId};
use mn_emucore::{Emulator, HardwareProfile};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::{RouteTable, RoutingMatrix};
use mn_topology::generators::{
    path_pairs_topology, ring_topology, star_topology, PathPairsParams, RingParams, StarParams,
};
use mn_topology::NodeId;
use mn_util::alloc::{bytes_in_use, thread_alloc_bytes};
use mn_util::{DataRate, SimDuration, SimTime};

#[global_allocator]
static ALLOCATOR: mn_util::alloc::CountingAlloc = mn_util::alloc::CountingAlloc;

/// `bytes_in_use` is process-wide and these tests hold up to a gigabyte
/// each: every test here takes its turn, so a byte count sees its own.
fn my_turn() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The 512-location ring (64 routers × 8 clients) the residency and churn
/// claims multiplex their endpoints over.
fn ring_512() -> DistilledTopology {
    let topo = ring_topology(&RingParams {
        routers: 64,
        clients_per_router: 8,
        ..RingParams::default()
    });
    distill(&topo, DistillationMode::HopByHop)
}

/// (i) Route state for 100 000 endpoints over 512 locations is resident in
/// under 1 GiB: one tree per location in the matrix, one row per location
/// and four bytes per endpoint in the table, nothing per endpoint pair.
#[test]
fn route_state_for_100k_endpoints_is_resident_under_a_gib() {
    let _turn = my_turn();
    const ENDPOINTS: usize = 100_000;
    let d = ring_512();
    let before = bytes_in_use();
    let matrix = RoutingMatrix::build(&d);
    let base = d.vns();
    assert_eq!(base.len(), 512);
    let locations: Vec<NodeId> = (0..ENDPOINTS).map(|i| base[i % base.len()]).collect();
    let table = RouteTable::build(&matrix, &locations);
    let resident = bytes_in_use().saturating_sub(before);
    assert_eq!(table.endpoint_count(), ENDPOINTS);
    println!("(i) {ENDPOINTS} endpoints over 512 locations: {resident} B resident");
    assert!(
        resident < 1 << 30,
        "route state for {ENDPOINTS} endpoints holds {resident} B"
    );
    // What a pair table would hold instead: 4 B for each of 10^10 pairs.
    assert!(table.memory().dense_equivalent_bytes > 32 << 30);
}

/// Endpoints bound at each location of [`ring_5x4_multiplexed`].
const MUX: usize = 16;

/// The 5 x 4 ring (20 locations) with `MUX` endpoints bound at each
/// location, and its matrix: the geometry of claims (i') and (i'').
fn ring_5x4_multiplexed() -> (RoutingMatrix, Vec<NodeId>, usize) {
    let topo = ring_topology(&RingParams {
        routers: 5,
        clients_per_router: 4,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let base = d.vns();
    let locations = (0..MUX * base.len()).map(|i| base[i % base.len()]);
    (RoutingMatrix::build(&d), locations.collect(), base.len())
}

/// A table's routes and the hops of all of them.
fn routes_and_hops(table: &RouteTable) -> (usize, usize) {
    let routes = table.route_count();
    let hops = (0..routes)
        .map(|id| table.pipes(mn_routing::RouteId(id as u32)).len())
        .sum();
    (routes, hops)
}

/// (i') A checkpoint's route section is the size of what a restore cannot
/// derive, not of the table: 8 B an endpoint (its column and its place in
/// its location's list), 16 B a location (its node and its list's length),
/// 4 B a held route and a held hop, and four length words. The routes the
/// rows read cost nothing, as a restore derives them from the matrix; a
/// section that wrote them, 4 B a route and a hop at least, fails by count.
#[test]
fn a_route_section_is_the_geometry_and_the_held_routes() {
    let _turn = my_turn();
    let (matrix, locations, n) = ring_5x4_multiplexed();
    let mut table = RouteTable::build(&matrix, &locations);
    let (rows, row_hops) = routes_and_hops(&table);
    assert_eq!(rows, n * (n - 1));
    // Held routes, which no row reads: every tenth row route reversed.
    for id in (0..rows as u32).step_by(10).map(mn_routing::RouteId) {
        let reversed: Vec<PipeId> = table.pipes(id).iter().rev().copied().collect();
        table.intern(&reversed);
    }
    let (routes, hops) = routes_and_hops(&table);
    let (held, held_hops) = (routes - rows, hops - row_hops);
    let mut w = mn_util::ByteWriter::new();
    table.encode_section(&mut w, rows, None);
    let size = 8 * locations.len() + 16 * n + 4 * (held + held_hops) + 32;
    println!(
        "(i') {n} locations x {MUX} VNs, {held} held routes of {held_hops} hops: {} B, not the rows' {rows} routes of {row_hops} hops",
        w.len()
    );
    assert_eq!(w.len(), size);
}

/// (i'') The resident route arena is four bytes a hop, as a held route is
/// encoded: `RouteTable::build` leaves allocated 4 B a route end and 4 B a
/// hop — twice that at most here, as all 380 routes sit in the open chunk,
/// whose two buffers grow by doubling — 4 B a row entry (one row a
/// location), 8 B an endpoint (its column and its place in its location's
/// list) and 4 KiB for the fixed-size parts: the store, block and location
/// tables and the resolver's per-node scratch. An 8-byte pipe id adds at
/// least 4 B a hop, more than the bound leaves over: it fails by count.
#[test]
fn the_resident_route_arena_is_four_bytes_a_hop() {
    let _turn = my_turn();
    let (matrix, locations, n) = ring_5x4_multiplexed();
    let before = bytes_in_use();
    let table = RouteTable::build(&matrix, &locations);
    let resident = bytes_in_use().saturating_sub(before);
    let (routes, hops) = routes_and_hops(&table);
    assert!(routes < 1024, "one open chunk");
    let bound = 2 * 4 * (routes + hops) + 4 * n * n + 8 * locations.len() + 4096;
    println!(
        "(i'') {routes} routes, {hops} hops, {n} locations x {MUX} VNs: {resident} B resident, bound {bound}"
    );
    assert!(resident <= bound, "{resident} B resident, bound {bound}");
    assert!(
        bound - resident < 4 * hops,
        "the bound would pass 8 B a hop: tighten it"
    );
}

/// (vii) The routing matrix is four bytes a stored row and a node: on the
/// 512-location ring (64 routers × 8 clients) a client's slot reads its
/// router's row, so its 64 predecessor rows hold 4 B for each (row, node),
/// and the rest — pipe costs and tails, the node and component maps, each
/// slot's row, the count prefixes, the scratch and every list's header —
/// fits 64 B a node and a pipe, encoded or resident. Nothing is stored per
/// tree edge: which trees cross a pipe is read off the rows. A stored
/// 8-byte label per (row, node) adds more than the bound leaves over, and a
/// row per slot, as format v10 stored, is over the bound alone: both fail
/// by count.
#[test]
fn the_routing_matrix_is_four_bytes_a_slot_and_a_node() {
    let _turn = my_turn();
    let d = ring_512();
    let before = bytes_in_use();
    let matrix = RoutingMatrix::build(&d);
    let resident = bytes_in_use().saturating_sub(before);
    let (slots, nodes, pipes) = (matrix.vn_count(), d.node_count(), d.pipe_count());
    let rows = matrix.stored_row_count();
    assert_eq!(rows, 64, "one row a router");
    let encoded = mn_util::Codec::encoded_len(&matrix);
    let mut w = mn_util::ByteWriter::new();
    mn_util::Codec::put(&matrix, &mut w);
    assert_eq!(encoded, w.len());
    let bound = 4 * rows * nodes + 64 * (nodes + pipes);
    println!(
        "(vii) {slots} slots, {rows} rows x {nodes} nodes, {pipes} pipes: \
         {encoded} B encoded, {resident} B resident (bound {bound})"
    );
    assert!(encoded <= bound, "{encoded} B encoded");
    assert!(resident <= bound, "{resident} B resident");
    let label_bytes = 8 * rows * nodes;
    assert!(bound - encoded < label_bytes && bound - resident < label_bytes);
    assert!(4 * slots * nodes > bound, "a row per slot fits the bound");
}

/// (viii) A routing matrix row covers its source's component only: on the
/// Fig. 4 capacity topology (256 disjoint 8-hop paths, 512 source slots,
/// 2 304 nodes) each slot reaches the 9 nodes of its own path, so the
/// matrix, encoded and resident, fits 4 B a (slot, node of its component),
/// 32 B a node and 36 B a pipe for the rest — pipe tables (a pipe's head,
/// 4 B, beside its tail), component maps and positions, headers. A row over every node of the
/// graph, 4.5 MiB here, adds more than the bound leaves over: it fails by
/// count.
#[test]
fn a_routing_matrix_row_is_as_wide_as_its_component() {
    let _turn = my_turn();
    let (pairs, hops) = (256, 8);
    let (topo, _) = path_pairs_topology(&PathPairsParams {
        pairs,
        hops,
        bandwidth: DataRate::from_mbps(100),
        end_to_end_latency: SimDuration::from_millis(8),
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let before = bytes_in_use();
    let matrix = RoutingMatrix::build(&d);
    let resident = bytes_in_use().saturating_sub(before);
    let (slots, nodes, pipes) = (matrix.vn_count(), d.node_count(), d.pipe_count());
    assert_eq!((slots, nodes), (2 * pairs, pairs * (hops + 1)));
    let encoded = mn_util::Codec::encoded_len(&matrix);
    let rows = 4 * slots * (hops + 1);
    let bound = rows + 32 * nodes + 36 * pipes;
    println!(
        "(viii) {slots} slots x {} nodes of {nodes}, {pipes} pipes: {encoded} B encoded, \
         {resident} B resident, {} B counted (bound {bound})",
        hops + 1,
        matrix.memory_bytes()
    );
    assert!(encoded <= bound, "{encoded} B encoded");
    assert!(resident <= bound, "{resident} B resident");
    assert!(
        matrix.memory_bytes() <= resident,
        "memory_bytes counts what is resident"
    );
    let dense_rows = 4 * slots * nodes;
    assert!(bound - encoded < dense_rows - rows && bound - resident < dense_rows - rows);
}

/// One full flap of both directions of a link through the incremental path
/// (fail, `update_pipes` + `rewire_in_place`, restore, again): the trees it
/// recomputed and the bytes it requested from the allocator.
fn flap(
    matrix: &mut RoutingMatrix,
    table: &mut RouteTable,
    d: &mut DistilledTopology,
    locations: &[NodeId],
    victims: &[PipeId; 2],
    healthy: &[PipeAttrs; 2],
) -> (usize, u64) {
    let bytes = thread_alloc_bytes();
    let mut trees = 0;
    for up in [false, true] {
        for (&p, &attrs) in victims.iter().zip(healthy) {
            let bandwidth = if up { attrs.bandwidth } else { DataRate::ZERO };
            d.pipe_attrs_mut(p).expect("pipe exists").bandwidth = bandwidth;
        }
        let update = matrix.update_pipes(d, victims);
        assert!(!update.is_empty(), "the victim link carries a route");
        trees += update.recomputed_sources;
        table.rewire_in_place(matrix, locations, &update.changed_pairs);
    }
    (trees, thread_alloc_bytes() - bytes)
}

/// A warm flap of pair 0's first link on `pairs` disjoint 2-hop duplex
/// paths (two VN locations each), `multiplex` endpoints per location.
fn warm_flap_cost(pairs: usize, multiplex: usize) -> (usize, u64) {
    let (topo, endpoints) = path_pairs_topology(&PathPairsParams {
        pairs,
        hops: 2,
        bandwidth: DataRate::from_mbps(100),
        end_to_end_latency: SimDuration::from_millis(8),
    });
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let mut matrix = RoutingMatrix::build(&d);
    let base = d.vns();
    assert_eq!(base.len(), 2 * pairs);
    let locations: Vec<NodeId> = (0..base.len() * multiplex)
        .map(|i| base[i % base.len()])
        .collect();
    let mut table = RouteTable::build(&matrix, &locations);
    let first = matrix
        .lookup(endpoints[0].0, endpoints[0].1)
        .expect("pair 0 routes")
        .pipes[0];
    let reverse = {
        let p = d.pipe(first);
        d.find_pipe(p.dst, p.src).expect("duplex link")
    };
    let victims = [first, reverse];
    let healthy = [d.pipe(first).attrs, d.pipe(reverse).attrs];
    let mut cost = (0, 0);
    for _ in 0..4 {
        cost = flap(
            &mut matrix,
            &mut table,
            &mut d,
            &locations,
            &victims,
            &healthy,
        );
    }
    cost
}

/// (ii) A link flap costs what the trees crossing the link cost, not what
/// the emulation holds: the same trees and the same bytes at 2 048 and at
/// 8 192 VNs, and no more of either with 16 endpoints at every location.
#[test]
fn a_link_flap_costs_the_same_at_2048_and_8192_vns() {
    let _turn = my_turn();
    let (trees, bytes) = warm_flap_cost(1024, 1);
    let (trees_4x, bytes_4x) = warm_flap_cost(4096, 1);
    let (trees_mux, bytes_mux) = warm_flap_cost(1024, 16);
    println!(
        "(ii) one flap: {trees} trees, {bytes} B at 2048 VNs; {trees_4x} trees, {bytes_4x} B \
         at 8192 VNs; {trees_mux} trees, {bytes_mux} B at 16 x 2048 endpoints"
    );
    assert!(trees > 0 && bytes > 0);
    assert_eq!(
        (trees_4x, bytes_4x),
        (trees, bytes),
        "(trees, bytes) of one flap at 8192 VNs against 2048"
    );
    assert!(
        trees_mux <= trees && bytes_mux <= bytes,
        "16x multiplexed: {trees_mux} trees, {bytes_mux} B; unmultiplexed: {trees} trees, {bytes} B"
    );
}

/// What churn costs on an overlay of `n` endpoints over the 512-location
/// ring: bytes requested by a leave + rejoin of an endpoint that shares its
/// location and of one alone at its location, process-wide growth over 256
/// shared cycles, and the bytes a from-scratch rebuild requests.
struct ChurnCost {
    shared_bytes: u64,
    singleton_bytes: u64,
    growth: usize,
    rebuild_bytes: u64,
}

fn churn_cost(n: usize) -> ChurnCost {
    let d = ring_512();
    let base = d.vns();
    // All but the last endpoint multiplex over 511 locations; the last is
    // alone at the 512th, so its cycle retires and recomputes a tree.
    let mut locations: Vec<NodeId> = (0..n - 1).map(|i| base[i % (base.len() - 1)]).collect();
    locations.push(base[base.len() - 1]);
    let binding = Binding::bind(&locations, &BindingParams::new(4, 1));
    let matrix = RoutingMatrix::build(&d);
    let mut emu = Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);

    let mut clock = 0u64;
    let mut cycle = |emu: &mut Emulator, endpoint: usize| {
        clock += 2;
        let vn = VnId(endpoint as u32);
        assert!(emu.vn_leave(vn, SimTime::from_nanos(clock - 1)));
        assert!(emu.vn_join(&d, vn, locations[endpoint], SimTime::from_nanos(clock)));
    };
    let mut cycle_bytes = |emu: &mut Emulator, endpoint: usize| {
        for _ in 0..4 {
            cycle(emu, endpoint);
        }
        let (bytes, trees) = (thread_alloc_bytes(), emu.routing().version());
        cycle(emu, endpoint);
        let trees = emu.routing().version() - trees;
        (thread_alloc_bytes() - bytes, trees)
    };
    let (shared_bytes, shared_trees) = cycle_bytes(&mut emu, 0);
    assert_eq!(shared_trees, 0, "a sibling keeps the location's tree");
    let (singleton_bytes, singleton_trees) = cycle_bytes(&mut emu, n - 1);
    assert_eq!(singleton_trees, 2, "one tree retired, one recomputed");

    let before = bytes_in_use();
    for _ in 0..256 {
        cycle(&mut emu, 0);
    }
    let growth = bytes_in_use().saturating_sub(before);

    let before = thread_alloc_bytes();
    let matrix = RoutingMatrix::build(&d);
    let table = RouteTable::build(&matrix, &locations);
    let rebuild_bytes = thread_alloc_bytes() - before;
    assert_eq!(table.endpoint_count(), n);
    ChurnCost {
        shared_bytes,
        singleton_bytes,
        growth,
        rebuild_bytes,
    }
}

/// (iii) A VN leaving and rejoining is a column write, not a rebuild: no
/// tree recomputed while a sibling stays, the bytes requested flat from
/// 4 096 to 16 384 VNs and a twentieth of a rebuild's at most, and nothing
/// left behind however long the churn goes on.
#[test]
fn a_churn_cycle_is_flat_in_vn_count_and_far_below_a_rebuild() {
    let _turn = my_turn();
    let small = churn_cost(4096);
    let large = churn_cost(16_384);
    let within_5_pct = |a: u64, b: u64| a.abs_diff(b) * 20 <= a.min(b);
    assert!(
        within_5_pct(small.shared_bytes, large.shared_bytes),
        "shared cycle: {} B at 4096 VNs, {} B at 16384",
        small.shared_bytes,
        large.shared_bytes
    );
    assert!(
        within_5_pct(small.singleton_bytes, large.singleton_bytes),
        "singleton cycle: {} B at 4096 VNs, {} B at 16384",
        small.singleton_bytes,
        large.singleton_bytes
    );
    for (n, cost) in [(4096, &small), (16_384, &large)] {
        println!(
            "(iii) {n} VNs: shared cycle {} B, singleton cycle {} B, rebuild {} B, \
             {} B left by 256 shared cycles",
            cost.shared_bytes, cost.singleton_bytes, cost.rebuild_bytes, cost.growth
        );
        assert!(
            cost.shared_bytes * 20 <= cost.rebuild_bytes,
            "shared cycle {} B, rebuild {} B",
            cost.shared_bytes,
            cost.rebuild_bytes
        );
        // 16 KiB over 256 cycles is the test harness starting a thread
        // meanwhile, not a leak: one retained row is 2 KiB a cycle.
        assert!(
            cost.growth <= 16 << 10,
            "256 shared cycles left {} B behind",
            cost.growth
        );
    }
}

/// (iv) The fluid model's reason to exist: 64 fluid flows standing for a
/// million bulk clients model at least 50× more MTU-sized pipe transits
/// than the packet hops the core executes over the same virtual interval.
#[test]
fn a_million_fluid_clients_model_50x_the_hops_the_core_executes() {
    let _turn = my_turn();
    const CROWD_PAIRS: usize = 64;
    const CLIENTS_PER_FLOW: u32 = 16_384;
    const FOREGROUND_PACKETS: u64 = 10_000;
    const MTU_BYTES: u64 = 1_500;
    // 64 crowd pairs on VNs [0, 128), a packet foreground on [128, 160).
    let topo = star_topology(&StarParams {
        clients: 160,
        spoke_bandwidth: DataRate::from_gbps(10),
        ..StarParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let vns: Vec<VnId> = binding.vns().collect();
    let mut emu = Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    for i in 0..CROWD_PAIRS {
        // 9 of the spoke's 10 Gb/s: the residual carries packets too.
        assert!(emu.add_fluid_flow(
            i as u64,
            vns[i],
            vns[CROWD_PAIRS + i],
            DataRate::from_gbps(9),
            CLIENTS_PER_FLOW,
            SimTime::ZERO,
        ));
    }
    assert!(emu.fluid().modelled_clients() >= 1 << 20);

    // One foreground packet per 20 µs, then fixed 10 ms steps to idle (a
    // wakeup chase would never end while fluid epochs recur).
    let fg = &vns[2 * CROWD_PAIRS..];
    let mut deliveries = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..FOREGROUND_PACKETS {
        now = SimTime::from_micros(i * 20);
        let flow = FlowKey {
            src: fg[i as usize % fg.len()],
            dst: fg[(i as usize + 7) % fg.len()],
            src_port: 1000,
            dst_port: 2000,
            protocol: Protocol::Udp,
        };
        let header = TransportHeader::Udp {
            payload_len: 1000,
            seq: i,
        };
        let _ = emu.submit(now, Packet::new(PacketId(i), flow, header, now));
        if i % 8 == 7 {
            emu.advance_into(now, &mut deliveries).unwrap();
        }
    }
    while (deliveries.len() as u64) < FOREGROUND_PACKETS && now < SimTime::from_secs(2) {
        now += SimDuration::from_millis(10);
        emu.advance_into(now, &mut deliveries).unwrap();
    }
    let stats = emu.total_stats();
    assert_eq!(stats.packets_delivered, FOREGROUND_PACKETS);
    // A delivered packet crossed two spokes; the fluid integral already
    // counts its bytes once per pipe crossed.
    let executed = 2 * stats.packets_delivered;
    let modelled = stats.fluid_modelled_bytes / MTU_BYTES;
    println!("(iv) {modelled} MTU transits modelled, {executed} packet hops executed");
    assert!(
        modelled >= 50 * executed,
        "{modelled} MTU transits modelled, {executed} packet hops executed"
    );
}

/// (v) Route state costs one Dijkstra per access router, not per VN: a stub
/// VN's tree is its router's shifted by the access pipe, so building the
/// 512-client star runs one Dijkstra and the paper's 20 x 20 ring twenty,
/// and each half of a link flap on the 32 x 8 ring runs at most one per
/// router while recomputing the 256 trees it did when each ran its own.
#[test]
fn route_state_costs_one_dijkstra_per_access_router() {
    let _turn = my_turn();
    let star = star_topology(&StarParams {
        clients: 512,
        ..StarParams::default()
    });
    let star = RoutingMatrix::build(&distill(&star, DistillationMode::HopByHop));
    let ring = |routers, clients_per_router| {
        let topo = ring_topology(&RingParams {
            routers,
            clients_per_router,
            ..RingParams::default()
        });
        distill(&topo, DistillationMode::HopByHop)
    };
    let paper = RoutingMatrix::build(&ring(20, 20));
    println!(
        "(v) Dijkstra runs building the 512-star: {}, the 20 x 20 ring: {}",
        star.dijkstra_runs(),
        paper.dijkstra_runs()
    );
    assert_eq!(star.dijkstra_runs(), 1);
    assert_eq!(paper.dijkstra_runs(), 20);
    let mut d = ring(32, 8);
    let mut matrix = RoutingMatrix::build(&d);
    let vns = d.vns();
    let first = matrix.lookup(vns[0], vns[16 * 8]).expect("routes").pipes[1];
    let reverse = {
        let p = d.pipe(first);
        d.find_pipe(p.dst, p.src).expect("duplex link")
    };
    let healthy = [d.pipe(first).attrs, d.pipe(reverse).attrs];
    for up in [false, true] {
        for (p, attrs) in [first, reverse].into_iter().zip(healthy) {
            let bandwidth = if up { attrs.bandwidth } else { DataRate::ZERO };
            d.pipe_attrs_mut(p).expect("pipe exists").bandwidth = bandwidth;
        }
        let runs = matrix.dijkstra_runs();
        let update = matrix.update_pipes(&d, &[first, reverse]);
        let runs = matrix.dijkstra_runs() - runs;
        println!(
            "(v) the 32 x 8 ring's link up = {up}: {runs} runs for {} trees",
            update.recomputed_sources
        );
        assert_eq!(
            update.recomputed_sources, 256,
            "every tree crosses the link"
        );
        assert!(runs <= 32, "{runs} Dijkstra runs");
    }
}

/// (ix) Route state at the scale of the paper's routing sentence, the
/// matrix half: on the 64 × 64 ring (4 096 VN locations, 4 160 nodes) the
/// matrix, resident and encoded, fits 8 B a stored row and node plus 64 B
/// a node and a pipe — about 2.9 MB, where a row per location took 137 MB.
/// Each client reads its router's row, so the matrix stores 64 rows and
/// runs 64 Dijkstras; a row per slot fails the bound by count.
#[test]
fn the_routing_matrix_of_4096_locations_stores_a_row_a_router() {
    let _turn = my_turn();
    let topo = ring_topology(&RingParams {
        routers: 64,
        clients_per_router: 64,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let before = bytes_in_use();
    let matrix = RoutingMatrix::build(&d);
    let resident = bytes_in_use().saturating_sub(before);
    let (slots, nodes, pipes) = (matrix.vn_count(), d.node_count(), d.pipe_count());
    assert_eq!((slots, nodes), (4096, 4160));
    let rows = matrix.stored_row_count();
    let encoded = mn_util::Codec::encoded_len(&matrix);
    let bound = 8 * rows * nodes + 64 * (nodes + pipes);
    println!(
        "(ix) {slots} slots, {rows} rows x {nodes} nodes, {pipes} pipes: {encoded} B encoded, \
         {resident} B resident, {} B counted (bound {bound}), {} Dijkstra runs",
        matrix.memory_bytes(),
        matrix.dijkstra_runs()
    );
    assert_eq!((rows, matrix.dijkstra_runs()), (64, 64));
    assert!(encoded <= bound, "{encoded} B encoded");
    assert!(resident <= bound, "{resident} B resident");
    assert!(matrix.memory_bytes() <= resident);
    assert!(4 * slots * nodes > bound, "a row per slot fits the bound");
}

/// (x) Setup at the paper's §5 scale, "10,000 unmodified gnutella clients":
/// the 100 × 100 ring (10 000 VN locations, 10 100 nodes) distils hop-by-hop
/// with no all-pairs pass (hop-by-hop records no route bound, which the hop
/// diameter was not) and builds its matrix with one Dijkstra a router.
#[test]
fn the_100x100_ring_distils_and_builds_its_matrix_at_a_dijkstra_a_router() {
    let _turn = my_turn();
    let topo = ring_topology(&RingParams {
        routers: 100,
        clients_per_router: 100,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    assert_eq!((d.vns().len(), d.node_count()), (10_000, 10_100));
    assert_eq!(d.max_route_pipes(), 0, "no bound recorded");
    let matrix = RoutingMatrix::build(&d);
    println!(
        "(x) 100 x 100 ring: {} pipes, {} rows, {} Dijkstra runs",
        d.pipe_count(),
        matrix.stored_row_count(),
        matrix.dijkstra_runs()
    );
    assert_eq!(matrix.dijkstra_runs(), 100);
}

/// (vi) A rewire walks a source's tree once a run, not once a route: on
/// `ctl_live4k`'s geometry (the 32 x 8 ring, 16 VNs a location) one
/// link-down changes thousands of routes, and walking each alone read a
/// predecessor per hop of every one of them. Through the resolver a run
/// reads each node's predecessor at most once, and the 8 clients behind a
/// router share every read but their last.
#[test]
fn a_rewire_reads_each_predecessor_once_a_run() {
    let _turn = my_turn();
    let topo = ring_topology(&RingParams {
        routers: 32,
        clients_per_router: 8,
        ..RingParams::default()
    });
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let mut matrix = RoutingMatrix::build(&d);
    let locations: Vec<NodeId> = (0..16).flat_map(|_| d.vns().to_vec()).collect();
    let mut table = RouteTable::build(&matrix, &locations);
    // The first duplex pair is a ring link.
    let link = [PipeId(0), PipeId(1)];
    for p in link {
        d.pipe_attrs_mut(p).expect("pipe exists").bandwidth = DataRate::ZERO;
    }
    let update = matrix.update_pipes(&d, &link);
    let changed = &update.changed_pairs;
    let walked_alone: usize = changed
        .iter()
        .map(|&(src, dst)| matrix.lookup(src, dst).map_or(0, |route| route.hop_count()))
        .sum();
    let runs = changed.chunk_by(|a, b| a.0 == b.0).count();
    let steps = table.predecessor_steps();
    table.rewire_in_place(&matrix, &locations, changed);
    let steps = table.predecessor_steps() - steps;
    println!(
        "(vi) one link-down on the 32 x 8 ring, 16 VNs a location: {} changed routes in {runs} \
         runs; {walked_alone} predecessor reads walking each alone, {steps} walking each run once",
        changed.len()
    );
    assert!(changed.len() > 16_000, "{} changed routes", changed.len());
    assert!(
        steps <= (runs * d.node_count()) as u64,
        "{steps} reads in {runs} runs over {} nodes",
        d.node_count()
    );
    assert!(
        steps * 8 <= walked_alone as u64,
        "{steps} reads walking runs, {walked_alone} walking routes alone"
    );
}
