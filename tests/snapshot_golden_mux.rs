//! Golden `MNSP` fixtures for the multiplexed, churned case.
//!
//! `tests/data/mnsp_v8_path4.bin` (see `snapshot_golden.rs`) has one VN per
//! location and inline route-table rows only. The scenario below pins what
//! that leaves out: an 8-router ring with three VNs bound at every client
//! (rows 8 columns wide, so they spill), two cores, one fluid flow, stopped
//! mid-run after — in this order — a link down, a leave whose siblings
//! stay, a location emptied, the link up again, a rejoin into the emptied
//! location, a rejoin elsewhere, a fresh VN id and a second link down.
//!
//! `tests/data/mnsp_v7_mux_churn.bin` is the scenario under the v7
//! encoder, which also wrote the fluid solver's per-pipe capacities and
//! demands and each core's fluid total and (here empty) CBR meters. Format
//! v8 rebuilds the first three from the pipes and has no meters (see
//! `snapshot_golden.rs`): `tests/data/mnsp_v8_mux_churn.bin` is the
//! scenario under the current encoder, which every later commit must
//! re-create byte for byte and which the v7 file, restored and serialised
//! again, is. Both files restore into
//! both executors and finish the run on the recorded delivery digest; they
//! are never re-blessed. The digest cannot see the rebuilt load vector (no
//! VN joins after the stop), so fresh joins after each restore are checked
//! against the uninterrupted run separately.
//!
//! The scenario is driven through `Emulator`, one type for either
//! executor.

use mn_assign::{Binding, BindingParams, CoreId, PipeOwnershipDirectory};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeAttrs, PipeId};
use mn_emucore::{Emulator, EmulatorSnapshot, HardwareProfile, SNAPSHOT_VERSION};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::NodeId;
use mn_util::codec::fnv1a64;
use mn_util::{ByteWriter, DataRate, SimDuration, SimTime};

mod common;
mod membership;
use common::on_threads;
use membership::membership;

const FIXTURE_V7: &[u8] = include_bytes!("data/mnsp_v7_mux_churn.bin");
const FIXTURE_V8: &[u8] = include_bytes!("data/mnsp_v8_mux_churn.bin");

const ROUTERS: usize = 8;
/// VNs bound at each client location when the run starts.
const MUX: usize = 3;
/// Virtual time the scenario is stopped (and the fixture taken) at.
const STOP_AT: SimTime = SimTime::from_micros(4_850);
/// The restored run is driven wakeup by wakeup up to this horizon (the
/// fluid epoch keeps the emulator busy forever).
const HORIZON: SimTime = SimTime::from_millis(30);
/// FNV-1a over the run restored from the fixtures: its delivery stream,
/// final counters and fluid goodput.
const TAIL_DIGEST: u64 = 0x3756_c0d7_c052_e133;

fn udp_packet(id: u64, src: VnId, dst: VnId, now: SimTime) -> Packet {
    Packet::new(
        PacketId(id),
        FlowKey {
            src,
            dst,
            src_port: 1000,
            dst_port: 2000,
            protocol: Protocol::Udp,
        },
        TransportHeader::Udp {
            payload_len: 600,
            seq: id,
        },
        now,
    )
}

struct Scenario {
    backend: Emulator,
    distilled: DistilledTopology,
    /// The client node VN `i`, `i + ROUTERS` and `i + 2 * ROUTERS` start at.
    homes: Vec<NodeId>,
}

fn build(threaded: bool) -> Scenario {
    let topo = ring_topology(&RingParams {
        routers: ROUTERS,
        clients_per_router: 1,
        ring_bandwidth: DataRate::from_mbps(20),
        ring_latency: SimDuration::from_micros(300),
        client_bandwidth: DataRate::from_mbps(10),
        client_latency: SimDuration::from_micros(100),
    });
    let distilled = distill(&topo, DistillationMode::HopByHop);
    let homes = distilled.vns().to_vec();
    assert_eq!(homes.len(), ROUTERS);
    for k in 0..ROUTERS {
        let pipe = distilled.pipe(PipeId::from_index(2 * k));
        assert!(
            !homes.contains(&pipe.src) && !homes.contains(&pipe.dst),
            "the first {ROUTERS} duplex pairs are the ring links"
        );
    }
    let matrix = RoutingMatrix::build(&distilled);
    let locations: Vec<NodeId> = (0..MUX).flat_map(|_| homes.clone()).collect();
    let binding = Binding::bind(&locations, &BindingParams::new(2, 2));
    // Neighbouring pipes alternate between the two cores, so routes tunnel.
    let owners = (0..distilled.pipe_count())
        .map(|p| CoreId((p / 2) % 2))
        .collect();
    let pod = PipeOwnershipDirectory::from_owners(owners, 2);
    let mut profile = HardwareProfile::unconstrained();
    profile.tunnel_latency = SimDuration::from_micros(250);
    let sequential = Emulator::new(&distilled, pod, matrix, &binding, profile, 29);
    let backend = if threaded {
        on_threads(sequential)
    } else {
        sequential
    };
    Scenario {
        backend,
        distilled,
        homes,
    }
}

/// Fails (`healthy: None`) or restores both directions of ring link `k`.
fn set_link(
    backend: &mut Emulator,
    distilled: &mut DistilledTopology,
    k: usize,
    healthy: Option<&[PipeAttrs]>,
) {
    let link = [PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
    for p in link {
        let attrs = distilled.pipe_attrs_mut(p).expect("ring pipe exists");
        match healthy {
            Some(healthy) => *attrs = healthy[p.index()],
            None => attrs.bandwidth = DataRate::ZERO,
        }
        let attrs = *attrs;
        assert!(backend.update_pipe_attrs(p, attrs));
    }
    let update = backend.reroute(distilled, &link);
    assert!(!update.is_empty(), "a ring link carries routes");
}

/// Drives the scenario to [`STOP_AT`] and returns the framed snapshot.
fn run_to_stop(threaded: bool) -> Vec<u8> {
    let (mut backend, _, _) = stop(threaded);
    backend.snapshot().unwrap().to_bytes()
}

/// Drives the scenario to [`STOP_AT`]; returns the emulator there, the
/// topology as the run left it and the client locations.
fn stop(threaded: bool) -> (Emulator, DistilledTopology, Vec<NodeId>) {
    let Scenario {
        mut backend,
        mut distilled,
        homes,
    } = build(threaded);
    let healthy: Vec<PipeAttrs> = distilled.pipes().map(|(_, p)| p.attrs).collect();
    let vn = |i: usize| VnId(i as u32);
    assert!(backend.add_fluid_flow(1, vn(1), vn(4), DataRate::from_mbps(3), 4, SimTime::ZERO));
    let mut vn_count = MUX * ROUTERS;
    let mut sink = Vec::new();
    let mut id = 0u64;
    for round in 0..12usize {
        let now = SimTime::from_micros(round as u64 * 400);
        backend.advance_into(now, &mut sink).unwrap();
        match round {
            2 => set_link(&mut backend, &mut distilled, 2, None),
            // Leaves location 0 to VNs 0 and 16.
            3 => assert!(backend.vn_leave(vn(ROUTERS), now)),
            // Empties location 3.
            4 => {
                for m in 0..MUX {
                    assert!(backend.vn_leave(vn(3 + m * ROUTERS), now));
                }
            }
            6 => set_link(&mut backend, &mut distilled, 2, Some(&healthy)),
            // Into the emptied location, routes refreshed from the matrix.
            7 => assert!(backend.vn_join(&distilled, vn(3 + ROUTERS), homes[3], now)),
            // Elsewhere: VN 8 left location 0 and comes back at location 5.
            8 => assert!(backend.vn_join(&distilled, vn(ROUTERS), homes[5], now)),
            9 => {
                assert!(backend.vn_join(&distilled, vn(vn_count), homes[6], now));
                vn_count += 1;
            }
            10 => set_link(&mut backend, &mut distilled, 5, None),
            _ => {}
        }
        // Every other VN sends, departed ones included (refused at
        // admission), to a destination that moves round by round.
        for src in (round % 2..vn_count).step_by(2) {
            let dst = (src * 7 + round + 1) % vn_count;
            let _ = backend
                .submit(now, udp_packet(id, vn(src), vn(dst), now))
                .unwrap();
            id += 1;
        }
    }
    backend.advance_into(STOP_AT, &mut sink).unwrap();
    let stats = backend.total_stats();
    assert!(!sink.is_empty(), "some packets arrive before the stop");
    assert!(
        stats.tunnels_out > 0 && stats.fluid_modelled_bytes > 0,
        "tunnels and the fluid flow are exercised"
    );
    assert!(backend.next_wakeup().is_some(), "stopped mid-run");
    assert!(!backend.vn_is_active(vn(3)) && !backend.vn_is_active(vn(3 + 2 * ROUTERS)));
    assert!(backend.vn_is_active(vn(3 + ROUTERS)) && backend.vn_is_active(vn(ROUTERS)));
    assert_eq!(backend.active_vn_count(), MUX * ROUTERS + 1 - 2);
    (backend, distilled, homes)
}

/// Runs a restored emulator to [`HORIZON`] and digests everything observable.
fn tail_digest(mut backend: Emulator) -> u64 {
    let mut w = ByteWriter::with_capacity(4096);
    let mut deliveries = Vec::new();
    let mut now = STOP_AT;
    while let Some(t) = backend.next_wakeup().filter(|&t| t <= HORIZON) {
        now = now.max(t);
        deliveries.clear();
        backend.advance_into(now, &mut deliveries).unwrap();
        for d in &deliveries {
            w.put_u64(d.packet.id.0);
            w.put_time(d.delivered_at);
            w.put_time(d.entered_at);
            w.put_usize(d.hops);
            w.put_duration(d.emulation_error);
        }
    }
    assert!(!w.is_empty(), "the tail of the run delivers");
    let stats = backend.total_stats();
    assert_eq!(stats.tunnels_out, stats.tunnels_in, "tunnels all landed");
    w.put_bytes(format!("{stats:?}").as_bytes());
    w.put_u64(backend.fluid_flow_goodput_bytes(1).expect("flow 1 is live"));
    fnv1a64(&w.into_bytes())
}

/// The current encoder writes the v8 fixture on both executors, and so does
/// restoring the v7 file.
#[test]
fn both_executors_reproduce_the_v8_fixture_byte_for_byte() {
    assert_eq!(SNAPSHOT_VERSION, 8, "this fixture pins format v8");
    for threaded in [false, true] {
        let bytes = run_to_stop(threaded);
        assert!(
            bytes == FIXTURE_V8,
            "snapshot bytes drifted from the v8 fixture (threaded: {threaded})"
        );
    }
    let mut restored = Emulator::restore_bytes(FIXTURE_V7).unwrap();
    assert!(restored.snapshot().unwrap().to_bytes() == FIXTURE_V8);
    let mut restored = on_threads(Emulator::restore_bytes(FIXTURE_V7).unwrap());
    assert!(restored.snapshot().unwrap().to_bytes() == FIXTURE_V8);
}

#[test]
fn the_fixture_restores_into_both_executors_and_finishes_identically() {
    for fixture in [FIXTURE_V7, FIXTURE_V8] {
        let snapshot = EmulatorSnapshot::from_bytes(fixture).expect("the fixture decodes");
        let sequential = Emulator::restore(&snapshot).unwrap();
        assert_eq!(tail_digest(sequential), TAIL_DIGEST);
        let threaded = on_threads(Emulator::restore(&snapshot).unwrap());
        assert_eq!(tail_digest(threaded), TAIL_DIGEST);
    }
}

/// The tables a restore rebuilds rather than reads hold what the
/// uninterrupted run holds: every VN agrees, and fresh VNs joined at every
/// client land on the same cores.
#[test]
fn a_restore_rebuilds_the_vn_tables_and_the_join_index() {
    let (backend, distilled, homes) = stop(false);
    let mut uninterrupted = backend;
    let expected = membership(&mut uninterrupted, &distilled, &homes, STOP_AT);
    assert_eq!(expected.0.len(), MUX * ROUTERS + 1);
    assert!(expected.2.contains(&Some(CoreId(0))) && expected.2.contains(&Some(CoreId(1))));
    for fixture in [FIXTURE_V7, FIXTURE_V8] {
        let mut sequential = Emulator::restore_bytes(fixture).unwrap();
        let restored = membership(&mut sequential, &distilled, &homes, STOP_AT);
        assert_eq!(restored, expected);
        let mut threaded = on_threads(Emulator::restore_bytes(fixture).unwrap());
        let restored = membership(&mut threaded, &distilled, &homes, STOP_AT);
        assert_eq!(restored, expected);
    }
}

/// Writes the current version's fixture and prints the digest (`cargo test
/// --test snapshot_golden_mux -- --ignored --nocapture`, after renaming the
/// path below — run at the rebuilt VN tables for v6, at the summed labels
/// for v7, at the rebuilt fluid vectors for v8); see the module docs for
/// why an existing file is never rewritten.
#[test]
#[ignore = "writes tests/data/mnsp_v8_mux_churn.bin"]
fn write_fixture() {
    let bytes = run_to_stop(false);
    assert!(bytes == run_to_stop(true), "executors disagree");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/data/mnsp_v8_mux_churn.bin"
    );
    std::fs::write(path, &bytes).unwrap();
    let snapshot = EmulatorSnapshot::from_bytes(&bytes).unwrap();
    let digest = tail_digest(Emulator::restore(&snapshot).unwrap());
    println!("{} bytes, TAIL_DIGEST = {digest:#018x}", bytes.len());
}
