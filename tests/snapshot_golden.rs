//! Golden `MNSP` fixtures: the emulator snapshot format, pinned to bytes.
//!
//! The scenario below: three 4-hop paths whose hops alternate between two
//! cores, stopped mid-run with tunnels in flight, one fluid flow, one CBR
//! episode, one compensation rate, one departed VN and one that left and
//! rejoined. A build decodes its own format version and the one before, so
//! two files of it are kept, each restoring into either executor and
//! finishing the run on the recorded delivery digest. A file is never
//! re-blessed, and its digest is re-recorded only by a deliberate behaviour
//! change.
//!
//! `tests/data/mnsp_v12_path4.bin` is the scenario under the v12 encoder,
//! which wrote the route table's whole store as it lay. Format v13 writes
//! only the routes a row or a descriptor in flight reads, numbered
//! canonically: restored on either executor and serialised again, the v12
//! file is `tests/data/mnsp_v13_path4.bin` byte for byte, which every later
//! commit must re-create on both executors. (Here the store holds nothing
//! else, in that order, so the two files differ only in the version word.)
//! Here one stub is the only reader of
//! its hub's row (its path's other end departed), whose entry at that stub
//! the row does not keep. Without the CBR meter v8 dropped, the emulator no longer
//! wakes at each injection, so the tail digest was re-recorded at v8, once:
//! it digests every counter.
//!
//! A failure here means the snapshot format or the emulated behaviour
//! changed: bump `SNAPSHOT_VERSION`, add a fixture for the new version
//! (for a layout change, one written by the parent commit's encoder), and
//! delete the decoder and the fixtures of the version two behind.
//!
//! The scenario is driven through `Emulator`, one type for either
//! executor.

use mn_assign::{Binding, BindingParams, CoreId, PipeOwnershipDirectory};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeId};
use mn_emucore::snapshot::SNAPSHOT_MAGIC;
use mn_emucore::{Emulator, EmulatorSnapshot, HardwareProfile, SNAPSHOT_VERSION};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{path_pairs_topology, PathPairsParams};
use mn_util::codec::fnv1a64;
use mn_util::{ByteWriter, CodecError, DataRate, SimDuration, SimTime};

mod common;
mod membership;
use common::on_threads;
use membership::membership;

const FIXTURE_V12: &[u8] = include_bytes!("data/mnsp_v12_path4.bin");
const FIXTURE_V13: &[u8] = include_bytes!("data/mnsp_v13_path4.bin");

/// Virtual time the scenario is stopped (and the fixtures taken) at.
const STOP_AT: SimTime = SimTime::from_micros(4_900);
/// The restored run is driven wakeup by wakeup up to this horizon (the
/// fluid epoch keeps the emulator busy forever, so there is no idle point
/// to run to).
const HORIZON: SimTime = SimTime::from_millis(40);
/// FNV-1a over the run restored from the fixtures: its delivery stream,
/// final counters and fluid goodput.
const TAIL_DIGEST: u64 = 0xe2a2_658b_1cfc_bdc6;

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
    /// `(sender, receiver)` VN of each path.
    pairs: Vec<(VnId, VnId)>,
    /// The four pipes of path 0, sender to receiver.
    path0: Vec<PipeId>,
}

fn build(threaded: bool) -> Scenario {
    let (topo, node_pairs) = path_pairs_topology(&PathPairsParams {
        pairs: 3,
        hops: 4,
        bandwidth: DataRate::from_mbps(10),
        end_to_end_latency: SimDuration::from_millis(8),
    });
    let distilled = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&distilled);
    let binding = Binding::bind(distilled.vns(), &BindingParams::new(2, 2));
    // Hops alternate between the two cores, so every hop boundary tunnels.
    let mut owners = vec![CoreId(0); distilled.pipe_count()];
    for &(a, b) in &node_pairs {
        for (src, dst) in [(a, b), (b, a)] {
            let route = matrix.lookup(src, dst).expect("path routes");
            for (hop, pipe) in route.pipes.iter().enumerate() {
                owners[pipe.index()] = CoreId(hop % 2);
            }
        }
    }
    let pod = PipeOwnershipDirectory::from_owners(owners, 2);
    let (a0, b0) = node_pairs[0];
    let path0 = matrix.lookup(a0, b0).expect("path routes").pipes.to_vec();
    assert_eq!(path0.len(), 4);
    let mut profile = HardwareProfile::unconstrained();
    profile.tunnel_latency = SimDuration::from_micros(250);
    let pairs = node_pairs
        .iter()
        .map(|&(a, b)| (binding.vn_at(a).unwrap(), binding.vn_at(b).unwrap()))
        .collect();
    let sequential = Emulator::new(&distilled, pod, matrix, &binding, profile, 13);
    let backend = if threaded {
        on_threads(sequential)
    } else {
        sequential
    };
    Scenario {
        backend,
        distilled,
        pairs,
        path0,
    }
}

/// Drives the scenario to [`STOP_AT`] and returns the framed snapshot.
fn run_to_stop(threaded: bool) -> Vec<u8> {
    let (mut backend, _) = stop(threaded);
    backend.snapshot().unwrap().to_bytes()
}

/// Drives the scenario to [`STOP_AT`]; returns the emulator there and the
/// topology.
fn stop(threaded: bool) -> (Emulator, DistilledTopology) {
    let Scenario {
        mut backend,
        distilled,
        pairs,
        path0,
    } = build(threaded);
    assert!(backend.set_pipe_compensation(path0[1], Some(DataRate::from_mbps(1)), SimTime::ZERO));
    assert!(backend.set_pipe_compensation(
        path0[2],
        Some(DataRate::from_mbps(2)),
        SimTime::from_millis(1),
    ));
    assert!(backend.add_fluid_flow(
        1,
        pairs[0].0,
        pairs[0].1,
        DataRate::from_mbps(3),
        4,
        SimTime::ZERO
    ));
    let rejoiner = pairs[1].0;
    let rejoin_at = distilled.vns()[rejoiner.index()];
    let departed = pairs[2].1;
    let mut sink = Vec::new();
    let mut id = 0u64;
    for round in 0..12u64 {
        let now = SimTime::from_micros(round * 400);
        backend.advance_into(now, &mut sink).unwrap();
        match round {
            3 => {
                assert!(backend.vn_leave(rejoiner, now));
                assert!(backend.vn_leave(departed, now));
            }
            7 => assert!(backend.vn_join(&distilled, rejoiner, rejoin_at, now)),
            _ => {}
        }
        for &(a, b) in &pairs {
            for (src, dst) in [(a, b), (b, a)] {
                let _ = backend.submit(now, udp_packet(id, src, dst, now)).unwrap();
                id += 1;
            }
        }
    }
    backend.advance_into(STOP_AT, &mut sink).unwrap();
    let stats = backend.total_stats();
    assert!(
        stats.tunnels_out > stats.tunnels_in,
        "the scenario stops with tunnels in flight"
    );
    // Path 0's four pipes carry flow 1's 3 Mb/s, its second the 1 Mb/s
    // compensation and its third the 2 Mb/s episode. By 4.9 ms core 1 (hops
    // 1 and 3) has modelled 7 Mb/s for 4.9 ms, 4 287 bytes of 4 287.5, and
    // core 0 (hops 0 and 2) 8 Mb/s for 3.9 ms, 3 900 bytes: the episode,
    // installed first, moved that core's fluid clock to its 1 ms start.
    assert_eq!(stats.fluid_modelled_bytes, 8_187);
    assert!(!backend.vn_is_active(departed) && backend.vn_is_active(rejoiner));
    (backend, distilled)
}

/// Runs an emulator restored at [`STOP_AT`] to [`HORIZON`] and digests
/// everything observable.
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

/// The current encoder writes the v13 fixture on both executors, and so
/// does restoring the v12 file on either.
#[test]
fn both_executors_reproduce_the_v13_fixture_byte_for_byte() {
    assert_eq!(SNAPSHOT_VERSION, 13, "this fixture pins format v13");
    for threaded in [false, true] {
        let bytes = run_to_stop(threaded);
        assert!(
            bytes == FIXTURE_V13,
            "snapshot bytes drifted from the v13 fixture (threaded: {threaded})"
        );
        let mut restored = Emulator::restore_bytes(FIXTURE_V12).unwrap();
        if threaded {
            restored = on_threads(restored);
        }
        let stats = restored.total_stats();
        assert!(stats.tunnels_out > stats.tunnels_in, "tunnels in flight");
        assert!(restored.snapshot().unwrap().to_bytes() == FIXTURE_V13);
    }
}

fn restores_into_both_executors_and_finishes_identically(fixture: &[u8]) {
    let snapshot = EmulatorSnapshot::from_bytes(fixture).expect("the fixture decodes");
    let sequential = Emulator::restore(&snapshot).unwrap();
    assert_eq!(tail_digest(sequential), TAIL_DIGEST);
    let threaded = on_threads(Emulator::restore(&snapshot).unwrap());
    assert_eq!(tail_digest(threaded), TAIL_DIGEST);
}

#[test]
fn the_v12_fixture_restores_into_both_executors_and_finishes_identically() {
    restores_into_both_executors_and_finishes_identically(FIXTURE_V12);
}

#[test]
fn the_v13_fixture_restores_into_both_executors_and_finishes_identically() {
    restores_into_both_executors_and_finishes_identically(FIXTURE_V13);
}

/// The tables a restore rebuilds rather than reads hold what the
/// uninterrupted run holds. Here, unlike in the multiplexed scenario, the
/// one departed VN leaves the two cores' loads unequal, so a load vector
/// that counted it would send a join elsewhere.
#[test]
fn a_restore_rebuilds_the_vn_tables_and_the_join_index() {
    let (backend, distilled) = stop(false);
    let mut uninterrupted = backend;
    let homes = distilled.vns().to_vec();
    let expected = membership(&mut uninterrupted, &distilled, &homes, STOP_AT);
    for fixture in [FIXTURE_V12, FIXTURE_V13] {
        let mut sequential = Emulator::restore_bytes(fixture).unwrap();
        let restored = membership(&mut sequential, &distilled, &homes, STOP_AT);
        assert_eq!(restored, expected);
        let mut threaded = on_threads(Emulator::restore_bytes(fixture).unwrap());
        let restored = membership(&mut threaded, &distilled, &homes, STOP_AT);
        assert_eq!(restored, expected);
    }
}

/// A frame guards its bytes: whatever single bit flips, wherever the file
/// is cut, decoding stops at a typed error — before any state is built.
#[test]
fn every_bit_flip_and_every_truncation_of_the_v12_fixture_is_a_typed_error() {
    every_bit_flip_and_every_truncation_is_a_typed_error(FIXTURE_V12);
}

#[test]
fn every_bit_flip_and_every_truncation_of_the_v13_fixture_is_a_typed_error() {
    every_bit_flip_and_every_truncation_is_a_typed_error(FIXTURE_V13);
}

fn every_bit_flip_and_every_truncation_is_a_typed_error(fixture: &[u8]) {
    let mut bytes = fixture.to_vec();
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert!(
            Emulator::restore_bytes(&bytes).is_err(),
            "bit {bit} flipped and the snapshot still restored"
        );
        bytes[bit / 8] ^= 1 << (bit % 8);
    }
    for len in 0..bytes.len() {
        assert!(
            EmulatorSnapshot::from_bytes(&bytes[..len]).is_err(),
            "cut to {len} bytes and the snapshot still parsed"
        );
    }
    assert!(Emulator::restore_bytes(&bytes).is_ok());
}

/// Bytes after the frame, and bytes the payload's decoder did not consume,
/// are refused by every entry point rather than silently ignored.
#[test]
fn bytes_after_the_frame_or_after_the_decoded_payload_are_refused() {
    let trailing = Err(CodecError::Invalid("trailing bytes"));
    let mut after_frame = FIXTURE_V13.to_vec();
    after_frame.push(0);
    assert_eq!(
        EmulatorSnapshot::from_bytes(&after_frame).map(|_| ()),
        trailing
    );
    assert_eq!(Emulator::restore_bytes(&after_frame).map(|_| ()), trailing);

    // A well-formed frame (length and checksum cover the extra byte) around
    // a payload with one byte more than the decoder reads.
    let mut w = ByteWriter::new();
    let frame = w.begin_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    w.put_bytes(&FIXTURE_V13[16..FIXTURE_V13.len() - 8]);
    w.put_u8(0);
    w.end_frame(frame);
    let after_payload = w.into_bytes();
    let snapshot = EmulatorSnapshot::from_bytes(&after_payload).expect("the frame is sound");
    assert_eq!(Emulator::restore(&snapshot).map(|_| ()), trailing);
    assert_eq!(
        Emulator::restore_bytes(&after_payload).map(|_| ()),
        trailing
    );
}

/// Writes the current version's fixture and prints the digest. Run once, at
/// the commit that introduces the version (`cargo test --test
/// snapshot_golden -- --ignored --nocapture`, after renaming the path
/// below); see the module docs for why an existing fixture is never
/// rewritten.
#[test]
#[ignore = "writes tests/data/mnsp_v13_path4.bin"]
fn write_fixture() {
    let bytes = run_to_stop(false);
    assert!(bytes == run_to_stop(true), "executors disagree");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/mnsp_v13_path4.bin");
    std::fs::write(path, &bytes).unwrap();
    let snapshot = EmulatorSnapshot::from_bytes(&bytes).unwrap();
    let digest = tail_digest(Emulator::restore(&snapshot).unwrap());
    println!("{} bytes, TAIL_DIGEST = {digest:#018x}", bytes.len());
}
