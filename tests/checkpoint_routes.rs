//! A checkpoint writes only the routes something reads, numbered
//! canonically (`MNSP` v13): first the routes the rows read, in order of
//! first appearance, then the routes only descriptors in flight read, in
//! pipe-sequence order. The frame is then a function of the emulation
//! state, not of the order the append-only route store interned routes in,
//! so a run resumed from a checkpoint — whose store holds the frame's
//! routes only — writes the bytes the uninterrupted run writes, after both
//! have interned more; and a flapped run, drained, writes a fresh build's
//! route section. A frame numbered any other way is refused.
//!
//! Every scenario runs on both executors, at one and two cores.

mod common;

use common::on_threads;
use mn_assign::{Binding, BindingParams, CoreId, PipeOwnershipDirectory};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeAttrs, PipeId};
use mn_emucore::snapshot::SNAPSHOT_MAGIC;
use mn_emucore::{Emulator, HardwareProfile, SNAPSHOT_VERSION};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::{RouteId, RouteTable, RoutingMatrix};
use mn_topology::generators::{ring_topology, RingParams};
use mn_util::{ByteReader, ByteWriter, Codec, CodecError, DataRate, SimDuration, SimTime};

const ROUTERS: usize = 6;
/// Virtual time between two rounds of traffic.
const ROUND: SimDuration = SimDuration::from_micros(400);

/// The four configurations every scenario runs on.
const CONFIGS: [(usize, bool); 4] = [(1, false), (1, true), (2, false), (2, true)];

/// A ring of [`ROUTERS`] routers with two clients each, on `cores` cores
/// (neighbouring ring links on different cores, so routes tunnel), on the
/// threaded executor if `threaded`.
fn build(cores: usize, threaded: bool) -> (Emulator, DistilledTopology) {
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
    let binding = Binding::bind(distilled.vns(), &BindingParams::new(cores, cores));
    let owners = (0..distilled.pipe_count())
        .map(|p| CoreId((p / 2) % cores))
        .collect();
    let pod = PipeOwnershipDirectory::from_owners(owners, cores);
    let mut profile = HardwareProfile::unconstrained();
    profile.tunnel_latency = SimDuration::from_micros(250);
    let emu = Emulator::new(&distilled, pod, matrix, &binding, profile, 5);
    (on(threaded, emu), distilled)
}

fn on(threaded: bool, emu: Emulator) -> Emulator {
    match threaded {
        true => on_threads(emu),
        false => emu,
    }
}

/// Fails (`healthy: None`) or restores both directions of ring link `k`.
fn set_link(
    emu: &mut Emulator,
    d: &mut DistilledTopology,
    k: usize,
    healthy: Option<&[PipeAttrs]>,
) {
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
    assert!(
        !emu.reroute(d, &link).is_empty(),
        "a ring link carries routes"
    );
}

/// One round at `round × ROUND`: the emulator advanced there, then one
/// packet from every VN to a destination that moves round by round.
fn round(emu: &mut Emulator, round: u64) {
    let now = SimTime::ZERO + ROUND * round;
    emu.advance_into(now, &mut Vec::new()).unwrap();
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
/// failed link still inside.
fn to_checkpoint(emu: &mut Emulator, d: &mut DistilledTopology) {
    for r in 0..4 {
        round(emu, r);
        if r == 2 {
            set_link(emu, d, 1, None);
        }
    }
}

/// Rounds 4–9: link 1 up at round 5 and down again at round 8, then the
/// run to the middle of round 9. Returns the checkpoints taken with the
/// link up (after round 6: the rows read the routes the link up brought
/// back, which a resumed run interned afresh) and at the end.
fn after_checkpoint(
    emu: &mut Emulator,
    d: &mut DistilledTopology,
    healthy: &[PipeAttrs],
) -> [Vec<u8>; 2] {
    let mut link_up = Vec::new();
    for r in 4..9 {
        round(emu, r);
        match r {
            5 => set_link(emu, d, 1, Some(healthy)),
            6 => link_up = snapshot(emu),
            8 => set_link(emu, d, 1, None),
            _ => {}
        }
    }
    let mid = SimTime::ZERO + ROUND * 9 - ROUND / 2;
    emu.advance_into(mid, &mut Vec::new()).unwrap();
    [link_up, snapshot(emu)]
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

        let mut resumed = on(threaded, Emulator::restore_bytes(&checkpoint).unwrap());
        let restored = resumed.route_table();
        // The frame kept routes only descriptors read (the ones through the
        // failed link): without them the numbering would drop some. And the
        // restored store is smaller than the live one.
        let rows_only = restored.numbering(|_| Ok::<(), ()>(())).unwrap();
        assert!(rows_only.is_some(), "{cores} core(s)");
        assert!(restored.route_count() < emu.route_table().route_count());
        let mut d = at_checkpoint;
        let checkpoints = after_checkpoint(&mut resumed, &mut d, &healthy);
        // The two stores number the same routes differently.
        let (live, resumed_table) = (emu.route_table(), resumed.route_table());
        let vns = live.endpoint_count();
        let ids = |table: &RouteTable| -> Vec<Option<RouteId>> {
            (0..vns * vns)
                .map(|i| table.route_id(i / vns, i % vns))
                .collect()
        };
        assert!(ids(live) != ids(resumed_table), "the stores diverged");
        assert!(
            checkpoints == uninterrupted,
            "{cores} core(s), threaded {threaded}: the resumed run's checkpoints differ"
        );
    }
}

/// The route section of a framed snapshot: what follows the hardware
/// profile, up to the routing matrix.
fn route_section(framed: &[u8]) -> &[u8] {
    let payload = &framed[16..framed.len() - 8];
    let mut r = ByteReader::new(payload);
    HardwareProfile::get(&mut r).unwrap();
    let start = payload.len() - r.remaining();
    RouteTable::decode(&mut r).unwrap();
    &payload[start..payload.len() - r.remaining()]
}

#[test]
fn a_drained_run_after_twenty_flaps_writes_a_fresh_builds_route_section() {
    for (cores, threaded) in CONFIGS {
        let (mut emu, mut d) = build(cores, threaded);
        let healthy: Vec<PipeAttrs> = d.pipes().map(|(_, p)| p.attrs).collect();
        let fresh = emu.route_table().route_count();
        for cycle in 0..20u64 {
            let k = (cycle as usize * 5) % ROUTERS;
            round(&mut emu, 2 * cycle);
            set_link(&mut emu, &mut d, k, None);
            round(&mut emu, 2 * cycle + 1);
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
            route_section(&flapped) == route_section(&snapshot(&mut built)),
            "{cores} core(s), threaded {threaded}"
        );
    }
}

/// `framed` with its route section replaced by `routes`' verbatim
/// encoding, re-framed as the current version.
fn with_routes(framed: &[u8], routes: &RouteTable) -> Vec<u8> {
    let section = route_section(framed);
    let payload = &framed[16..framed.len() - 8];
    let start = section.as_ptr() as usize - payload.as_ptr() as usize;
    let mut w = ByteWriter::new();
    let frame = w.begin_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    w.put_bytes(&payload[..start]);
    routes.encode(&mut w);
    w.put_bytes(&payload[start + section.len()..]);
    w.end_frame(frame);
    w.into_bytes()
}

#[test]
fn a_frame_with_an_unread_route_or_out_of_canonical_order_is_refused() {
    for (cores, threaded) in CONFIGS {
        let (mut emu, _) = build(cores, threaded);
        let framed = snapshot(&mut emu);
        let table = || RouteTable::decode(&mut ByteReader::new(route_section(&framed))).unwrap();
        assert!(Emulator::restore_bytes(&with_routes(&framed, &table())).is_ok());
        let refused = Err(CodecError::Invalid(
            "routes not numbered as a checkpoint numbers them",
        ));
        let restore = |routes: &RouteTable| {
            Emulator::restore_bytes(&with_routes(&framed, routes)).map(|_| ())
        };

        // A route nothing reads, after the rows' routes.
        let mut unread = table();
        let pipes = unread.pipes(RouteId(0)).to_vec();
        unread.intern(&pipes);
        assert_eq!(restore(&unread), refused, "{cores} core(s)");

        // The rows read a later route before an earlier one.
        let mut reordered = table();
        let last = RouteId(reordered.route_count() as u32 - 1);
        reordered.set_pair(0, 1, last);
        assert_eq!(restore(&reordered), refused, "{cores} core(s)");

        // Two routes past the rows', which descriptors read: canonical in
        // ascending pipe-sequence order only.
        let (a, b) = (
            table().pipes(RouteId(0)).to_vec(),
            table().pipes(RouteId(1)).to_vec(),
        );
        let (low, high) = if a < b { (a, b) } else { (b, a) };
        let count = table().route_count() as u32;
        let held = |ids: &mut Vec<RouteId>| {
            ids.extend([RouteId(count + 1), RouteId(count)]);
            Ok::<(), ()>(())
        };
        let (mut ascending, mut descending) = (table(), table());
        for (table, first, second) in [
            (&mut ascending, &low, &high),
            (&mut descending, &high, &low),
        ] {
            table.intern(first);
            table.intern(second);
        }
        assert!(ascending.numbering(held).unwrap().is_none());
        assert!(descending.numbering(held).unwrap().is_some());
        // Unread in a frame, both are refused.
        assert_eq!(restore(&descending), refused, "{cores} core(s)");
    }
}
