//! Golden `MNSP` fixtures: the emulator snapshot format, pinned to bytes.
//!
//! `tests/data/mnsp_v1_path4.bin` was written by the commit *before* the
//! coordinator/executor refactor (PR 13) from the scenario below: three
//! 4-hop paths whose hops alternate between two cores, stopped mid-run with
//! tunnels in flight, one fluid flow, one CBR injector, one compensation
//! rate, one departed VN and one that left and rejoined. Every later commit
//! must restore that file into either executor and finish the run on the
//! recorded delivery digest — the file is never re-blessed, and its digest
//! is re-recorded only by a deliberate behaviour change (v4 below).
//!
//! Format v2 (PR 17) changed the frame's checksum and nothing else, so
//! `tests/data/mnsp_v2_path4.bin` is the same scenario under that encoder:
//! its payload section equals the v1 file's byte for byte, and like it the
//! file must keep restoring and finishing on the recorded digest.
//!
//! Format v3 (PR 23) changed the route table's section — the route arena
//! chunk by chunk with `u32` pipe ids, one row per location — and nothing
//! else: `tests/data/mnsp_v3_path4.bin` is the same scenario under that
//! encoder, every other section equal to the v2 file's, restoring to the
//! same digest.
//!
//! Format v4 dropped the state of the accumulating timing rule — the
//! hardware profile's packet-debt byte and each descriptor's accumulated
//! error — when every pipe and every tunnel came to be entered at its ideal
//! time. That is a behaviour change as well as a layout one: the v1–v3 files
//! still restore to the state they hold, byte for byte unmodified, but the
//! run that continues from it is a different run, so their digest was
//! re-recorded once, at that change. `tests/data/mnsp_v4_path4.bin` is the
//! scenario under that encoder and timing, stopped at [`STOP_AT`] — under
//! deadline re-entry the first 50 µs step after the old stop at which
//! tunnels are in flight.
//!
//! Format v5 moved the tunnels in flight from a section of their own into
//! the inbox of the core each is addressed to, and dropped every pipe's
//! retired RED fields: a layout change only, so the v4 file (written by the
//! parent of that change) restores to the same digest, and restored and
//! serialised again — its tunnels filed core by core on the way — it is
//! `tests/data/mnsp_v5_path4.bin` byte for byte. Every later commit must
//! re-create exactly those bytes on both executors. A failure here means
//! the snapshot format or the emulated behaviour changed: bump
//! `SNAPSHOT_VERSION`, keep every file decoding, and add a fixture for the
//! new version (a layout change also needs one written by the parent
//! commit's encoder — `mnsp_v2_mux_churn.bin`, `mnrs_v2_tcp.bin` and the
//! four v4 files were).
//!
//! The scenario is driven through [`EmulatorBackend`] so the same source
//! compiles against the commit that wrote the fixture.

use mn_assign::{Binding, BindingParams, CoreId, PipeOwnershipDirectory};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeId};
use mn_emucore::snapshot::SNAPSHOT_MAGIC;
use mn_emucore::{
    EmulatorSnapshot, HardwareProfile, MultiCoreEmulator, ParallelEmulator, SNAPSHOT_VERSION,
};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_pipe::CbrConfig;
use mn_routing::RoutingMatrix;
use mn_topology::generators::{path_pairs_topology, PathPairsParams};
use mn_util::codec::{checksum64, fnv1a64};
use mn_util::{ByteSize, ByteWriter, CodecError, DataRate, SimDuration, SimTime};
use modelnet::EmulatorBackend;

const FIXTURE: &[u8] = include_bytes!("data/mnsp_v1_path4.bin");
const FIXTURE_V2: &[u8] = include_bytes!("data/mnsp_v2_path4.bin");
const FIXTURE_V3: &[u8] = include_bytes!("data/mnsp_v3_path4.bin");
const FIXTURE_V4: &[u8] = include_bytes!("data/mnsp_v4_path4.bin");
const FIXTURE_V5: &[u8] = include_bytes!("data/mnsp_v5_path4.bin");

/// Virtual time the v1–v3 fixtures were taken at.
const STOPPED_AT: SimTime = SimTime::from_micros(4_850);
/// Virtual time the scenario is stopped (and the v4 and v5 fixtures taken) at.
const STOP_AT: SimTime = SimTime::from_micros(4_900);
/// The restored run is driven wakeup by wakeup up to this horizon (the CBR
/// injector and the fluid epoch keep the emulator busy forever, so there is
/// no idle point to run to).
const HORIZON: SimTime = SimTime::from_millis(40);
/// FNV-1a over the run restored from the v1–v3 fixtures: its delivery
/// stream, final counters and fluid goodput. Recorded by the commit that
/// wrote the v1 fixture; re-recorded once, when every pipe and every tunnel
/// came to be entered at its ideal time (the same state runs on
/// differently).
const TAIL_DIGEST: u64 = 0x3eaa_6516_a126_000d;
/// The same digest over the run restored from the v4 and v5 fixtures.
const TAIL_DIGEST_V4: u64 = 0xaeee_df54_c7ba_c8f9;

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
    backend: EmulatorBackend,
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
    let sequential = MultiCoreEmulator::new(&distilled, pod, matrix, &binding, profile, 13);
    let backend = if threaded {
        EmulatorBackend::Threaded(ParallelEmulator::from_sequential(sequential))
    } else {
        EmulatorBackend::Sequential(sequential)
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
    let Scenario {
        mut backend,
        distilled,
        pairs,
        path0,
    } = build(threaded);
    assert!(backend.set_pipe_compensation(path0[1], Some(DataRate::from_mbps(1)), SimTime::ZERO));
    assert!(backend.set_pipe_cbr(
        path0[2],
        Some(CbrConfig::new(
            DataRate::from_mbps(2),
            ByteSize::from_bytes(500)
        )),
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
    assert!(stats.cbr_injected > 0 && stats.fluid_modelled_bytes > 0);
    assert!(!backend.vn_is_active(departed) && backend.vn_is_active(rejoiner));
    backend.snapshot().unwrap().to_bytes()
}

/// Runs an emulator restored at `stopped_at` to [`HORIZON`] and digests
/// everything observable.
fn tail_digest(mut backend: EmulatorBackend, stopped_at: SimTime) -> u64 {
    let mut w = ByteWriter::with_capacity(4096);
    let mut deliveries = Vec::new();
    let mut now = stopped_at;
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

/// The current encoder writes the v5 fixture on both executors, and so does
/// restoring the parent-written v4 file, whose tunnels in flight are filed
/// with their target cores on the way.
#[test]
fn both_executors_reproduce_the_v5_fixture_byte_for_byte() {
    assert_eq!(SNAPSHOT_VERSION, 5, "this fixture pins format v5");
    for threaded in [false, true] {
        let bytes = run_to_stop(threaded);
        assert!(
            bytes == FIXTURE_V5,
            "snapshot bytes drifted from the v5 fixture (threaded: {threaded})"
        );
    }
    let mut restored = MultiCoreEmulator::restore_bytes(FIXTURE_V4).unwrap();
    let stats = restored.total_stats();
    assert!(stats.tunnels_out > stats.tunnels_in, "tunnels in flight");
    assert!(restored.snapshot().unwrap().to_bytes() == FIXTURE_V5);
}

/// v1, v2 and v3 hold one state: restored and serialised again they are one
/// v5 frame, which restores to that state's digest — and which is the v3
/// file less the packet-debt byte, 8 bytes a descriptor, 17 a pipe (RED's
/// tag, average and drop counter) and 8 a tunnel in flight (its target),
/// with one inbox count a core for the one tunnel count.
#[test]
fn the_v1_to_v3_fixtures_re_serialise_to_one_v5_frame() {
    let v5 = |fixture| {
        let mut restored = MultiCoreEmulator::restore_bytes(fixture).unwrap();
        // Descriptors: in the cores' slabs and in their inboxes.
        let stats = restored.total_stats();
        let tunnels = (stats.tunnels_out - stats.tunnels_in) as usize;
        let in_cores: usize = restored.cores().iter().map(|c| c.in_flight()).sum();
        let bytes = restored.snapshot().unwrap().to_bytes();
        (bytes, in_cores + tunnels, tunnels, restored.core_count())
    };
    let (bytes, descriptors, tunnels, cores) = v5(FIXTURE_V3);
    assert!(v5(FIXTURE).0 == bytes && v5(FIXTURE_V2).0 == bytes);
    assert_eq!(bytes[4..8], 5u32.to_le_bytes());
    assert!(tunnels > 0);
    let pipes = build(false).distilled.pipe_count();
    let dropped = 1 + 8 * descriptors + 17 * pipes + 8 * tunnels;
    assert_eq!(bytes.len(), FIXTURE_V3.len() - dropped + 8 * (cores - 1));
    let snapshot = EmulatorSnapshot::from_bytes(&bytes).unwrap();
    let restored = EmulatorBackend::Sequential(MultiCoreEmulator::restore(&snapshot).unwrap());
    assert_eq!(tail_digest(restored, STOPPED_AT), TAIL_DIGEST);
}

/// v3 is v2 with another version word, another route-table section (right
/// after the 66-byte hardware profile) and so another length and checksum:
/// every byte after the table is v2's.
#[test]
fn the_v3_fixture_differs_from_v2_only_in_the_route_table_section() {
    let payload = |frame: &'static [u8]| &frame[16..frame.len() - 8];
    let (v2, v3) = (payload(FIXTURE_V2), payload(FIXTURE_V3));
    assert_eq!(FIXTURE_V3[4..8], 3u32.to_le_bytes());
    assert_eq!(v2[..66], v3[..66], "hardware profile");
    let restored = MultiCoreEmulator::restore_bytes(FIXTURE_V3).unwrap();
    let table = restored.route_table().encoded_len();
    let rest = v3.len() - 66 - table;
    assert!(
        rest > 8_000 && table < v2.len() - 66 - rest,
        "a smaller table"
    );
    assert!(
        v2[v2.len() - rest..] == v3[66 + table..],
        "matrix, tables, cores"
    );
    let sum_at = FIXTURE_V3.len() - 8;
    assert_eq!(FIXTURE_V3[sum_at..], checksum64(v3).to_le_bytes());
}

/// Frames are magic, version, payload length, payload, checksum: v2 is v1
/// with another version word and another checksum, nothing else.
#[test]
fn the_v2_fixture_differs_from_v1_only_in_version_word_and_checksum() {
    assert_eq!(FIXTURE.len(), FIXTURE_V2.len());
    let sum_at = FIXTURE.len() - 8;
    assert_eq!(FIXTURE[..4], FIXTURE_V2[..4], "magic");
    assert_eq!(FIXTURE[4..8], 1u32.to_le_bytes());
    assert_eq!(FIXTURE_V2[4..8], 2u32.to_le_bytes());
    assert!(
        FIXTURE[8..sum_at] == FIXTURE_V2[8..sum_at],
        "length and payload"
    );
    let payload = &FIXTURE[16..sum_at];
    assert_eq!(FIXTURE[sum_at..], fnv1a64(payload).to_le_bytes());
    assert_eq!(FIXTURE_V2[sum_at..], checksum64(payload).to_le_bytes());
}

fn restores_into_both_executors_and_finishes_identically(
    fixture: &[u8],
    stopped_at: SimTime,
    digest: u64,
) {
    let snapshot = EmulatorSnapshot::from_bytes(fixture).expect("the fixture decodes");
    let sequential = EmulatorBackend::Sequential(MultiCoreEmulator::restore(&snapshot).unwrap());
    assert_eq!(tail_digest(sequential, stopped_at), digest);
    let threaded = EmulatorBackend::Threaded(ParallelEmulator::restore(&snapshot).unwrap());
    assert_eq!(tail_digest(threaded, stopped_at), digest);
}

#[test]
fn the_v1_fixture_restores_into_both_executors_and_finishes_identically() {
    restores_into_both_executors_and_finishes_identically(FIXTURE, STOPPED_AT, TAIL_DIGEST);
}

#[test]
fn the_v2_and_v3_fixtures_restore_into_both_executors_and_finish_identically() {
    restores_into_both_executors_and_finishes_identically(FIXTURE_V2, STOPPED_AT, TAIL_DIGEST);
    restores_into_both_executors_and_finishes_identically(FIXTURE_V3, STOPPED_AT, TAIL_DIGEST);
}

#[test]
fn the_v4_fixture_restores_into_both_executors_and_finishes_identically() {
    restores_into_both_executors_and_finishes_identically(FIXTURE_V4, STOP_AT, TAIL_DIGEST_V4);
}

#[test]
fn the_v5_fixture_restores_into_both_executors_and_finishes_identically() {
    restores_into_both_executors_and_finishes_identically(FIXTURE_V5, STOP_AT, TAIL_DIGEST_V4);
}

/// A checksum-valid v2 frame whose first route names a pipe the ownership
/// directory does not cover used to restore, accept a packet and panic on
/// the first advance; it is refused like any other out-of-range index. (The
/// v3 case is a row of `restore_rejects_out_of_range_indices` in emucore.)
#[test]
fn a_v2_frame_whose_route_names_a_pipe_the_pod_lacks_is_refused() {
    let mut hostile = FIXTURE_V2.to_vec();
    // Payload: 66 bytes of profile, the table's endpoint count, version and
    // route count, then the first route: its hop count and its pipes.
    let first_route = 16 + 66 + 24;
    let hops = u64::from_le_bytes(hostile[first_route..first_route + 8].try_into().unwrap());
    assert_eq!(hops, 4, "the first route is a 4-hop path");
    hostile[first_route + 8..first_route + 16].copy_from_slice(&9_999u64.to_le_bytes());
    let sum_at = hostile.len() - 8;
    let sum = checksum64(&hostile[16..sum_at]);
    hostile[sum_at..].copy_from_slice(&sum.to_le_bytes());
    assert!(
        EmulatorSnapshot::from_bytes(&hostile).is_ok(),
        "the frame is sound"
    );
    let refused = Err(CodecError::Invalid(
        "route names a pipe the POD does not cover",
    ));
    assert_eq!(
        MultiCoreEmulator::restore_bytes(&hostile).map(|_| ()),
        refused
    );
    assert_eq!(
        ParallelEmulator::restore_bytes(&hostile).map(|_| ()),
        refused
    );
}

/// A frame guards its bytes: whatever single bit flips, wherever the file
/// is cut, decoding stops at a typed error — before any state is built.
#[test]
fn every_bit_flip_and_every_truncation_of_the_v2_fixture_is_a_typed_error() {
    every_bit_flip_and_every_truncation_is_a_typed_error(FIXTURE_V2);
}

#[test]
fn every_bit_flip_and_every_truncation_of_the_v3_fixture_is_a_typed_error() {
    every_bit_flip_and_every_truncation_is_a_typed_error(FIXTURE_V3);
}

#[test]
fn every_bit_flip_and_every_truncation_of_the_v4_fixture_is_a_typed_error() {
    every_bit_flip_and_every_truncation_is_a_typed_error(FIXTURE_V4);
}

#[test]
fn every_bit_flip_and_every_truncation_of_the_v5_fixture_is_a_typed_error() {
    every_bit_flip_and_every_truncation_is_a_typed_error(FIXTURE_V5);
}

fn every_bit_flip_and_every_truncation_is_a_typed_error(fixture: &[u8]) {
    let mut bytes = fixture.to_vec();
    for bit in 0..bytes.len() * 8 {
        bytes[bit / 8] ^= 1 << (bit % 8);
        assert!(
            MultiCoreEmulator::restore_bytes(&bytes).is_err(),
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
    assert!(MultiCoreEmulator::restore_bytes(&bytes).is_ok());
}

/// Bytes after the frame, and bytes the payload's decoder did not consume,
/// are refused by every entry point rather than silently ignored.
#[test]
fn bytes_after_the_frame_or_after_the_decoded_payload_are_refused() {
    let trailing = Err(CodecError::Invalid("trailing bytes"));
    let mut after_frame = FIXTURE_V5.to_vec();
    after_frame.push(0);
    assert_eq!(
        EmulatorSnapshot::from_bytes(&after_frame).map(|_| ()),
        trailing
    );
    assert_eq!(
        MultiCoreEmulator::restore_bytes(&after_frame).map(|_| ()),
        trailing
    );

    // A well-formed frame (length and checksum cover the extra byte) around
    // a payload with one byte more than the decoder reads.
    let mut w = ByteWriter::new();
    let frame = w.begin_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
    w.put_bytes(&FIXTURE_V5[16..FIXTURE_V5.len() - 8]);
    w.put_u8(0);
    w.end_frame(frame);
    let after_payload = w.into_bytes();
    let snapshot = EmulatorSnapshot::from_bytes(&after_payload).expect("the frame is sound");
    assert_eq!(MultiCoreEmulator::restore(&snapshot).map(|_| ()), trailing);
    assert_eq!(
        ParallelEmulator::restore_bytes(&after_payload).map(|_| ()),
        trailing
    );
}

/// Writes the current version's fixture and prints the digest. Run once, at
/// the commit that introduces the version (`cargo test --test
/// snapshot_golden -- --ignored --nocapture`, after renaming the path
/// below); see the module docs for why an existing fixture is never
/// rewritten.
#[test]
#[ignore = "writes tests/data/mnsp_v5_path4.bin"]
fn write_fixture() {
    let bytes = run_to_stop(false);
    assert!(bytes == run_to_stop(true), "executors disagree");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/mnsp_v5_path4.bin");
    std::fs::write(path, &bytes).unwrap();
    let snapshot = EmulatorSnapshot::from_bytes(&bytes).unwrap();
    let digest = tail_digest(
        EmulatorBackend::Sequential(MultiCoreEmulator::restore(&snapshot).unwrap()),
        STOP_AT,
    );
    println!("{} bytes, TAIL_DIGEST = {digest:#018x}", bytes.len());
}
