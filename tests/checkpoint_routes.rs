//! A checkpoint writes no route a restore can derive (`MNSP` since v14). The
//! route table's rows and the routes they read are a function of the
//! routing matrix and the endpoint geometry, so the route section carries
//! the geometry and, numbered canonically after the rows' routes, the
//! routes only descriptors in flight read. A restore derives the rows over
//! the restored matrix, or keeps the table of a fresh build whose matrix
//! and geometry are the frame's. So the rows must always be a derive: a
//! location's last leave clears the columns toward it. A frame numbered any
//! other way is refused.
//!
//! Every scenario runs on both executors, at one and two cores.

mod common;

use common::on_threads;
use mn_assign::{Binding, BindingParams, CoreId, PipeOwnershipDirectory};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeAttrs, PipeId};
use mn_emucore::snapshot::SNAPSHOT_MAGIC;
use mn_emucore::{Emulator, HardwareProfile, SNAPSHOT_VERSION};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::{RouteTable, RoutingMatrix};
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::NodeId;
use mn_util::{ByteReader, ByteWriter, Codec, CodecError, DataRate, SimDuration, SimTime};
use modelnet::{ExecutionBackend, Experiment};
use proptest::prelude::*;

const ROUTERS: usize = 6;
/// Virtual time between two rounds of traffic.
const ROUND: SimDuration = SimDuration::from_micros(400);

/// The four configurations every scenario runs on.
const CONFIGS: [(usize, bool); 4] = [(1, false), (1, true), (2, false), (2, true)];

/// A ring of [`ROUTERS`] routers with two clients each and `mux` VNs at
/// every client, on `cores` cores (neighbouring ring links on different
/// cores, so routes tunnel), on the threaded executor if `threaded`.
fn build_mux(cores: usize, threaded: bool, mux: usize) -> (Emulator, DistilledTopology) {
    let topo = ring_topology(&RingParams {
        routers: ROUTERS,
        clients_per_router: 2,
        ring_bandwidth: DataRate::from_mbps(20),
        ring_latency: SimDuration::from_micros(300),
        client_bandwidth: DataRate::from_mbps(10),
        client_latency: SimDuration::from_micros(100),
    });
    let distilled = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&distilled);
    let locations: Vec<NodeId> = (0..mux).flat_map(|_| distilled.vns().to_vec()).collect();
    let binding = Binding::bind(&locations, &BindingParams::new(cores, cores));
    let owners = (0..distilled.pipe_count())
        .map(|p| CoreId((p / 2) % cores))
        .collect();
    let pod = PipeOwnershipDirectory::from_owners(owners, cores);
    let mut profile = HardwareProfile::unconstrained();
    profile.tunnel_latency = SimDuration::from_micros(250);
    let emu = Emulator::new(&distilled, pod, matrix, &binding, profile, 5);
    (on(threaded, emu), distilled)
}

fn build(cores: usize, threaded: bool) -> (Emulator, DistilledTopology) {
    build_mux(cores, threaded, 1)
}

fn on(threaded: bool, emu: Emulator) -> Emulator {
    match threaded {
        true => on_threads(emu),
        false => emu,
    }
}

/// Fails (`healthy: None`) or restores both directions of ring link `k`;
/// returns whether any route changed.
fn flap(
    emu: &mut Emulator,
    d: &mut DistilledTopology,
    k: usize,
    healthy: Option<&[PipeAttrs]>,
) -> bool {
    let link = [PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
    for p in link {
        let attrs = d.pipe_attrs_mut(p).expect("ring pipe exists");
        match healthy {
            Some(healthy) => *attrs = healthy[p.index()],
            None => attrs.bandwidth = DataRate::ZERO,
        }
        let attrs = *attrs;
        assert!(emu.update_pipe_attrs(p, attrs));
    }
    !emu.reroute(d, &link).is_empty()
}

/// [`flap`], on a link that carries routes.
fn set_link(
    emu: &mut Emulator,
    d: &mut DistilledTopology,
    k: usize,
    healthy: Option<&[PipeAttrs]>,
) {
    assert!(flap(emu, d, k, healthy), "a ring link carries routes");
}

/// What a run delivered: each packet's id, delivery time and hop count.
type Delivered = Vec<(u64, SimTime, usize)>;

/// One round at `round × ROUND`: the emulator advanced there (what it
/// delivers noted in `seen`), then one packet from every VN to a
/// destination that moves round by round.
fn round(emu: &mut Emulator, round: u64, seen: &mut Delivered) {
    let now = SimTime::ZERO + ROUND * round;
    let mut deliveries = Vec::new();
    emu.advance_into(now, &mut deliveries).unwrap();
    seen.extend(
        deliveries
            .iter()
            .map(|d| (d.packet.id.0, d.delivered_at, d.hops)),
    );
    let vns = emu.route_table().endpoint_count();
    for src in 0..vns {
        let dst = (src * 5 + round as usize + 1) % vns;
        let flow = FlowKey {
            src: VnId(src as u32),
            dst: VnId(dst as u32),
            src_port: 1,
            dst_port: 2,
            protocol: Protocol::Udp,
        };
        let header = TransportHeader::Udp {
            payload_len: 900,
            seq: round,
        };
        let id = PacketId(round * 1_000 + src as u64);
        let _ = emu.submit(now, Packet::new(id, flow, header, now)).unwrap();
    }
}

fn snapshot(emu: &mut Emulator) -> Vec<u8> {
    emu.snapshot().unwrap().to_bytes()
}

/// Rounds 0–3 with ring link 1 taken down at round 2: the checkpoint is
/// taken with packets on the detour and packets that entered on the
/// failed link still inside, and a matrix a fresh build does not have.
fn to_checkpoint(emu: &mut Emulator, d: &mut DistilledTopology) {
    for r in 0..4 {
        round(emu, r, &mut Vec::new());
        if r == 2 {
            set_link(emu, d, 1, None);
        }
    }
}

/// Rounds 4–9: link 1 up at round 5 and down again at round 8, then the
/// run drained. Returns the checkpoints taken with the link up (after
/// round 6: the rows read the routes the link up brought back, which a
/// resumed run interned afresh) and at the end, and what was delivered.
fn after_checkpoint(
    emu: &mut Emulator,
    d: &mut DistilledTopology,
    healthy: &[PipeAttrs],
) -> ([Vec<u8>; 2], Delivered) {
    let (mut link_up, mut seen) = (Vec::new(), Vec::new());
    for r in 4..9 {
        round(emu, r, &mut seen);
        match r {
            5 => set_link(emu, d, 1, Some(healthy)),
            6 => link_up = snapshot(emu),
            8 => set_link(emu, d, 1, None),
            _ => {}
        }
    }
    let (mid, mut deliveries) = (SimTime::ZERO + ROUND * 9 - ROUND / 2, Vec::new());
    emu.advance_into(mid, &mut deliveries).unwrap();
    let at_end = snapshot(emu);
    while let Some(t) = emu.next_wakeup() {
        emu.advance_into(t, &mut deliveries).unwrap();
    }
    seen.extend(
        deliveries
            .iter()
            .map(|d| (d.packet.id.0, d.delivered_at, d.hops)),
    );
    ([link_up, at_end], seen)
}

/// `true` when every live VN of `restored` reads the very row storage it
/// read in `before`.
fn keeps_rows(restored: &Emulator, before: &RouteTable) -> bool {
    let table = restored.route_table();
    let live = (0..table.endpoint_count()).filter(|&vn| table.is_endpoint_bound(vn));
    live.clone().count() > 0
        && live
            .into_iter()
            .all(|vn| table.row_storage_shared(before, vn))
}

/// The three runs a fresh build restores into while keeping its table:
/// stopped with no flap, after a link down and up, and after a VN, the
/// last at its location, left and joined again.
fn kept_scenarios(cores: usize, threaded: bool) -> [Vec<u8>; 3] {
    type Step = fn(&mut Emulator, &mut DistilledTopology, &[PipeAttrs], u64);
    let scenario = |step: Step| {
        let (mut emu, mut d) = build(cores, threaded);
        let healthy: Vec<PipeAttrs> = d.pipes().map(|(_, p)| p.attrs).collect();
        for r in 0..5 {
            round(&mut emu, r, &mut Vec::new());
            step(&mut emu, &mut d, &healthy, r);
        }
        snapshot(&mut emu)
    };
    [
        scenario(|_, _, _, _| {}),
        scenario(|emu, d, healthy, r| match r {
            1 => set_link(emu, d, 1, None),
            3 => set_link(emu, d, 1, Some(healthy)),
            _ => {}
        }),
        scenario(|emu, d, _, r| {
            let (vn, now) = (VnId(3), SimTime::ZERO + ROUND * r);
            match r {
                1 => assert!(emu.vn_leave(vn, now)),
                3 => assert!(emu.vn_join(d, vn, d.vns()[3], now)),
                _ => {}
            }
        }),
    ]
}

#[test]
fn a_fresh_build_restored_from_a_frame_keeps_its_own_table() {
    for (cores, threaded) in CONFIGS {
        for (at, frame) in kept_scenarios(cores, threaded).iter().enumerate() {
            let (fresh, _) = build(cores, threaded);
            let before = fresh.route_table().clone();
            let mut restored = fresh.restore_like(frame).unwrap();
            let case = format!("{cores} core(s), threaded {threaded}, scenario {at}");
            assert!(keeps_rows(&restored, &before), "{case}");
            assert!(snapshot(&mut restored) == *frame, "{case}");
        }
    }
}

/// `Runner::recover_from` into a freshly built runner, as the benchmark
/// restores, keeps that runner's table, on either executor.
#[test]
fn a_fresh_runner_recovering_a_checkpoint_keeps_its_own_table() {
    let runner = |exec| {
        let topo = ring_topology(&RingParams {
            routers: ROUTERS,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let experiment = Experiment::new(topo).cores(2).edge_nodes(4).backend(exec);
        let built = experiment.unconstrained_hardware().seed(7).build();
        let mut runner = built.expect("experiment builds");
        let vns = runner.vn_ids();
        runner.add_bulk_flow(vns[0], vns[5], None, SimTime::ZERO);
        runner
    };
    for exec in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let mut run = runner(exec);
        run.run_until(SimTime::from_millis(300)).unwrap();
        let checkpoint = run.snapshot().unwrap();
        let mut fresh = runner(exec);
        let before = fresh.backend().route_table().clone();
        fresh.recover_from(&checkpoint).unwrap();
        assert!(keeps_rows(fresh.backend(), &before), "{exec:?}");
        assert!(fresh.snapshot().unwrap() == checkpoint, "{exec:?}");
    }
}

#[test]
fn a_standalone_restore_derives_the_table_and_writes_the_frame_again() {
    for (cores, threaded) in CONFIGS {
        for frame in kept_scenarios(cores, threaded) {
            let (fresh, _) = build(cores, threaded);
            let mut restored = on(threaded, Emulator::restore_bytes(&frame).unwrap());
            assert!(!keeps_rows(&restored, fresh.route_table()), "derived anew");
            let (table, built) = (restored.route_table(), fresh.route_table());
            let n = built.endpoint_count();
            for (s, t) in (0..n * n).map(|i| (i / n, i % n)) {
                let pipes =
                    |table: &RouteTable| table.route_id(s, t).map(|id| table.pipes(id).to_vec());
                assert_eq!(pipes(table), pipes(built), "{s} -> {t}");
            }
            assert!(snapshot(&mut restored) == frame, "{cores} core(s)");
        }
    }
}

#[test]
fn a_run_resumed_across_a_flap_writes_the_uninterrupted_runs_bytes() {
    for (cores, threaded) in CONFIGS {
        let (mut emu, mut d) = build(cores, threaded);
        let healthy: Vec<PipeAttrs> = d.pipes().map(|(_, p)| p.attrs).collect();
        to_checkpoint(&mut emu, &mut d);
        let checkpoint = snapshot(&mut emu);
        let at_checkpoint = d.clone();
        let uninterrupted = after_checkpoint(&mut emu, &mut d, &healthy);

        let (fresh, _) = build(cores, threaded);
        let mut resumed = fresh.restore_like(&checkpoint).unwrap();
        assert!(
            !keeps_rows(&resumed, fresh.route_table()),
            "{cores} core(s)"
        );
        // The frame held routes only descriptors read (the ones through the
        // failed link), and the restored store is smaller than the live one.
        let (rows, _) = resumed
            .route_table()
            .numbering(|_| Ok::<(), ()>(()))
            .unwrap();
        assert!(
            rows < resumed.route_table().route_count(),
            "{cores} core(s)"
        );
        assert!(resumed.route_table().route_count() < emu.route_table().route_count());
        let mut d = at_checkpoint;
        let resumed = after_checkpoint(&mut resumed, &mut d, &healthy);
        assert!(!resumed.1.is_empty());
        assert!(
            resumed == uninterrupted,
            "{cores} core(s), threaded {threaded}: the resumed run differs"
        );
    }
}

/// Every row of `emu`'s table reads what a table built over the routing
/// matrix and the live endpoints' locations reads, route for route.
fn assert_rows_are_a_derive(emu: &Emulator, what: &str) {
    let table = emu.route_table();
    let n = table.endpoint_count();
    let live: Vec<usize> = (0..n).filter(|&vn| table.is_endpoint_bound(vn)).collect();
    let homes: Vec<NodeId> = live
        .iter()
        .map(|&vn| table.endpoint_location(vn).unwrap())
        .collect();
    let derived = RouteTable::build(emu.routing(), &homes);
    let at = |vn: usize| {
        homes
            .iter()
            .position(|&h| Some(h) == table.endpoint_location(vn))
    };
    for (s, t) in (0..n * n).map(|i| (i / n, i % n)) {
        let actual = table.route_id(s, t).map(|id| table.pipes(id));
        let expected = match (live.contains(&s), at(s), at(t)) {
            (true, Some(i), Some(j)) => derived.route_id(i, j).map(|id| derived.pipes(id)),
            _ => None,
        };
        assert_eq!(actual, expected, "{s} -> {t} after {what}");
    }
}

/// A control operation of the property run.
#[derive(Debug, Clone, Copy)]
enum Op {
    Down(usize),
    Up(usize),
    Leave(usize),
    Join(usize),
}

/// Two VNs at each of the twelve clients.
const MUX: usize = 2;
const VNS: usize = 2 * ROUTERS * MUX;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..ROUTERS).prop_map(Op::Down),
        (0..ROUTERS).prop_map(Op::Up),
        (0..VNS).prop_map(Op::Leave),
        (0..VNS).prop_map(Op::Join),
    ]
}

/// Runs `ops` with a round of traffic after each, checking the rows
/// against a derive after every one. Both VNs at client 0 leave first, so
/// every run has a location's last leave.
fn run_ops(cores: usize, threaded: bool, ops: &[Op]) {
    let (mut emu, mut d) = build_mux(cores, threaded, MUX);
    let healthy: Vec<PipeAttrs> = d.pipes().map(|(_, p)| p.attrs).collect();
    let homes = d.vns().to_vec();
    let first = [Op::Leave(0), Op::Leave(homes.len())];
    for (r, &op) in first.iter().chain(ops).enumerate() {
        let now = SimTime::ZERO + ROUND * r as u64;
        match op {
            Op::Down(k) => drop(flap(&mut emu, &mut d, k, None)),
            Op::Up(k) => drop(flap(&mut emu, &mut d, k, Some(&healthy))),
            Op::Leave(vn) => drop(emu.vn_leave(VnId(vn as u32), now)),
            Op::Join(vn) => drop(emu.vn_join(&d, VnId(vn as u32), homes[vn % homes.len()], now)),
        }
        assert_rows_are_a_derive(&emu, &format!("{op:?}"));
        round(&mut emu, r as u64, &mut Vec::new());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn after_every_control_op_the_rows_are_a_derive(
        ops in prop::collection::vec(arb_op(), 1..16),
        config in 0..CONFIGS.len(),
    ) {
        let (cores, threaded) = CONFIGS[config];
        run_ops(cores, threaded, &ops);
    }
}

#[test]
fn a_drained_run_after_twenty_flaps_writes_a_fresh_builds_route_section() {
    for (cores, threaded) in CONFIGS {
        let (mut emu, mut d) = build(cores, threaded);
        let healthy: Vec<PipeAttrs> = d.pipes().map(|(_, p)| p.attrs).collect();
        let fresh = emu.route_table().route_count();
        for cycle in 0..20u64 {
            let k = (cycle as usize * 5) % ROUTERS;
            round(&mut emu, 2 * cycle, &mut Vec::new());
            set_link(&mut emu, &mut d, k, None);
            round(&mut emu, 2 * cycle + 1, &mut Vec::new());
            set_link(&mut emu, &mut d, k, Some(&healthy));
        }
        while let Some(t) = emu.next_wakeup() {
            emu.advance_into(t, &mut Vec::new()).unwrap();
        }
        assert!(
            emu.route_table().route_count() > fresh,
            "the flaps interned detours"
        );
        let flapped = snapshot(&mut emu);
        let (mut built, _) = build(cores, threaded);
        assert!(
            section(&flapped) == section(&snapshot(&mut built)),
            "{cores} core(s), threaded {threaded}"
        );
    }
}

/// The payload of a framed snapshot.
fn payload(framed: &[u8]) -> &[u8] {
    &framed[16..framed.len() - 8]
}

/// A frame's route section: what follows the hardware profile and the
/// routing matrix.
fn section(framed: &[u8]) -> &[u8] {
    let payload = payload(framed);
    let mut r = ByteReader::new(payload);
    HardwareProfile::get(&mut r).unwrap();
    let matrix = RoutingMatrix::get(&mut r).unwrap();
    let start = payload.len() - r.remaining();
    RouteTable::decode_section(&mut r, &matrix, None).unwrap();
    &payload[start..payload.len() - r.remaining()]
}

/// `framed`'s payload with `range` replaced by `with`, sealed again.
fn reframed(framed: &[u8], range: std::ops::Range<usize>, with: &[u8]) -> Vec<u8> {
    let payload = payload(framed);
    let mut w = ByteWriter::new();
    let frame = w.begin_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    w.put_bytes(&payload[..range.start]);
    w.put_bytes(with);
    w.put_bytes(&payload[range.end..]);
    w.end_frame(frame);
    w.into_bytes()
}

/// The routes a frame's route section holds, and their payload range: the
/// runs after the column map, the locations and their endpoint lists.
fn held_routes(framed: &[u8]) -> (std::ops::Range<usize>, Vec<Vec<u32>>) {
    let payload = payload(framed);
    let mut r = ByteReader::new(payload);
    HardwareProfile::get(&mut r).unwrap();
    RoutingMatrix::get(&mut r).unwrap();
    let (endpoints, slots) = (r.get_usize().unwrap(), r.get_len().unwrap());
    for _ in 0..endpoints {
        r.get_u32().unwrap();
    }
    for _ in 0..slots {
        r.get_usize().unwrap();
    }
    for _ in 0..slots {
        r.get_u32s().unwrap();
    }
    let start = payload.len() - r.remaining();
    let (ends, pipes) = (r.get_u32s().unwrap(), r.get_u32s().unwrap());
    let mut from = 0;
    let routes = ends.iter().map(|&end| {
        let route = pipes[from..end as usize].to_vec();
        from = end as usize;
        route
    });
    (start..payload.len() - r.remaining(), routes.collect())
}

/// `framed` with its held routes replaced by `routes`.
fn with_held(framed: &[u8], routes: &[Vec<u32>]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    let mut end = 0;
    let ends: Vec<u32> = routes
        .iter()
        .map(|r| (end += r.len() as u32, end).1)
        .collect();
    w.put_u32s(&ends);
    w.put_u32s(&routes.concat());
    reframed(framed, held_routes(framed).0, w.as_slice())
}

#[test]
fn a_frame_whose_held_routes_are_not_canonical_is_refused() {
    for (cores, threaded) in CONFIGS {
        let (mut emu, mut d) = build(cores, threaded);
        to_checkpoint(&mut emu, &mut d);
        let framed = snapshot(&mut emu);
        let (_, held) = held_routes(&framed);
        assert!(
            held.len() >= 2,
            "{cores} core(s): descriptors hold detoured routes"
        );
        let restore =
            |routes: &[Vec<u32>]| Emulator::restore_bytes(&with_held(&framed, routes)).map(|_| ());
        assert_eq!(restore(&held), Ok(()));

        // A held route the rows give: 0 -> 1 is routed on a live pair.
        let table = emu.route_table();
        let derived = table.pipes(table.route_id(0, 1).unwrap());
        let mut equal = held.clone();
        equal[0] = derived.iter().map(|p| p.0).collect();
        let refused = Err(CodecError::Invalid("held route equal to a derived one"));
        assert_eq!(restore(&equal), refused, "{cores} core(s)");

        // Held routes out of pipe-sequence order. On two cores a tunnel
        // may meet a next pipe its core does not hold first.
        let mut reversed = held.clone();
        reversed.reverse();
        let refused = match restore(&reversed) {
            Err(CodecError::Invalid(what)) if cores > 1 => Err(CodecError::Invalid(what)),
            _ => Err(CodecError::Invalid(
                "routes not numbered as a checkpoint numbers them",
            )),
        };
        assert_eq!(restore(&reversed), refused, "{cores} core(s)");

        // One held route fewer: the descriptors on the last one read an id
        // past the rows' and the held routes.
        let refused = Err(CodecError::Invalid("descriptor route or hop out of range"));
        assert_eq!(restore(&held[..held.len() - 1]), refused, "{cores} core(s)");
    }
}

/// A frame whose held routes include one nothing reads, or put a later
/// route before an earlier one, is not numbered as a checkpoint numbers
/// its routes, and is refused.
#[test]
fn a_frame_with_an_unread_route_or_out_of_canonical_order_is_refused() {
    for (cores, threaded) in CONFIGS {
        let (mut emu, mut d) = build(cores, threaded);
        to_checkpoint(&mut emu, &mut d);
        let framed = snapshot(&mut emu);
        let (_, held) = held_routes(&framed);
        let restore =
            |routes: &[Vec<u32>]| Emulator::restore_bytes(&with_held(&framed, routes)).map(|_| ());
        assert_eq!(restore(&held), Ok(()));
        let refused = Err(CodecError::Invalid(
            "routes not numbered as a checkpoint numbers them",
        ));

        // One more, which no descriptor reads: it sorts after the last, so
        // no descriptor's id moves, and a checkpoint would not write it.
        let mut unread = held.last().unwrap().clone();
        unread.push(unread[unread.len() - 1]);
        assert_eq!(
            restore(&[held.clone(), vec![unread]].concat()),
            refused,
            "{cores} core(s)"
        );

        // The last held route moved before the first. On two cores a
        // tunnel may meet a next pipe its core does not hold first.
        let mut reordered = held.clone();
        reordered.rotate_right(1);
        let refused = match restore(&reordered) {
            Err(CodecError::Invalid(what)) if cores > 1 => Err(CodecError::Invalid(what)),
            _ => refused,
        };
        assert_eq!(restore(&reordered), refused, "{cores} core(s)");
    }
}
