//! Golden `MNRS` fixtures: a whole-run checkpoint in every format version
//! this build reads.
//!
//! The scenario below: two TCP flows over a small ring on two cores,
//! stopped mid-transfer with segments in flight, retransmission timers
//! armed and an auto-checkpoint pending. A build decodes its own format
//! version and the one before, so two files of it are kept, each restoring
//! into either backend and finishing the run on the recorded digest of
//! everything the runner lets a caller observe. As with the `MNSP`
//! fixtures: a format change bumps the version, adds a fixture written by
//! its parent, and deletes the decoder and the fixtures of the version two
//! behind; a kept file is never re-blessed.
//!
//! `tests/data/mnrs_v12_tcp.bin` is the scenario under the v12 encoder, which
//! nests an `MNSP` v12 frame. Format v13 nests an `MNSP` v13 frame (only the
//! routes something reads, numbered canonically; see `snapshot_golden.rs`)
//! and is otherwise the same: `tests/data/mnrs_v13_tcp.bin` is the scenario
//! under the current encoder, which both backends must re-create byte for
//! byte and which the v12 file, restored and serialised again, is.
//!
//! The fixture tests use only the runner's public API, so the same source
//! compiles against the commit that wrote the fixture. The version-window
//! test also restores the `MNSP` fixtures of `snapshot_golden.rs`.

use mn_emucore::{Emulator, EmulatorSnapshot};
use mn_topology::generators::{ring_topology, RingParams};
use mn_util::codec::fnv1a64;
use mn_util::{ByteWriter, CodecError};
use modelnet::{
    ByteSize, DistillationMode, ExecutionBackend, Experiment, FlowId, RecoverError, Runner,
    SimDuration, SimTime,
};

const FIXTURE_V12: &[u8] = include_bytes!("data/mnrs_v12_tcp.bin");
const FIXTURE_V13: &[u8] = include_bytes!("data/mnrs_v13_tcp.bin");

/// Virtual time the scenario is stopped (and the fixture taken) at.
const STOP_AT: SimTime = SimTime::from_millis(1_500);
/// The restored run is driven on to here.
const HORIZON: SimTime = SimTime::from_secs(4);
/// FNV-1a over the observable state of the run finished from the fixtures.
const TAIL_DIGEST: u64 = 0x8199_df7f_0859_e4bd;

fn build(backend: ExecutionBackend) -> (Runner, [FlowId; 2]) {
    let topo = ring_topology(&RingParams {
        routers: 4,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let mut runner = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(2)
        .edge_nodes(4)
        .backend(backend)
        .unconstrained_hardware()
        .seed(17)
        .build()
        .expect("experiment builds");
    let vns = runner.vn_ids();
    let bounded = runner.add_bulk_flow(vns[0], vns[5], Some(ByteSize::from_kb(768)), SimTime::ZERO);
    let open = runner.add_bulk_flow(vns[2], vns[7], None, SimTime::from_millis(200));
    (runner, [bounded, open])
}

/// Drives the scenario to [`STOP_AT`] and returns the framed checkpoint.
fn run_to_stop(backend: ExecutionBackend) -> Vec<u8> {
    let (mut runner, flows) = build(backend);
    runner.set_auto_checkpoint(SimDuration::from_millis(700));
    runner.run_until(STOP_AT).unwrap();
    assert!(
        runner.flow_bytes_acked(flows[0]) > 0 && runner.flow_completed_at(flows[0]).is_none(),
        "the scenario stops mid-transfer"
    );
    runner.snapshot().unwrap()
}

/// Runs a restored runner to [`HORIZON`] and digests everything observable.
fn tail_digest(mut runner: Runner, flows: [FlowId; 2]) -> u64 {
    assert_eq!(runner.now(), STOP_AT);
    runner.run_until(HORIZON).unwrap();
    let mut w = ByteWriter::with_capacity(256);
    w.put_time(runner.now());
    w.put_u64(runner.packets_submitted());
    w.put_u64(runner.packets_delivered());
    for flow in flows {
        w.put_u64(runner.flow_bytes_acked(flow));
        w.put_u64(runner.flow_retransmissions(flow));
        w.put_opt_time(runner.flow_completed_at(flow));
    }
    assert!(
        runner.flow_completed_at(flows[0]).is_some(),
        "the bounded transfer finishes in the tail"
    );
    let (at, _) = runner
        .last_checkpoint()
        .expect("auto-checkpointing survived");
    w.put_time(at);
    w.put_bytes(format!("{:?}", runner.backend().total_stats()).as_bytes());
    fnv1a64(w.as_slice())
}

fn restores_into_both_backends_and_finishes_identically(fixture: &[u8], version: u8) {
    assert_eq!(fixture[..8], [0x53, 0x52, 0x4E, 0x4D, version, 0, 0, 0]);
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let (mut runner, flows) = build(backend);
        runner.recover_from(fixture).expect("the fixture restores");
        assert_eq!(
            tail_digest(runner, flows),
            TAIL_DIGEST,
            "the restored v{version} tail diverged on {backend:?}"
        );
    }
}

#[test]
fn the_v12_runner_fixture_restores_into_both_backends_and_finishes_identically() {
    restores_into_both_backends_and_finishes_identically(FIXTURE_V12, 12);
}

#[test]
fn the_v13_runner_fixture_restores_into_both_backends_and_finishes_identically() {
    restores_into_both_backends_and_finishes_identically(FIXTURE_V13, 13);
}

#[test]
fn both_backends_reproduce_the_v13_runner_fixture_byte_for_byte() {
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        assert!(
            run_to_stop(backend) == FIXTURE_V13,
            "checkpoint bytes drifted from the v13 fixture on {backend:?}"
        );
        // The v12 file holds the same run: restored and serialised again, it
        // is the v13 checkpoint.
        let (mut runner, _) = build(backend);
        runner.recover_from(FIXTURE_V12).unwrap();
        assert!(runner.snapshot().unwrap() == FIXTURE_V13);
    }
}

/// The outer sum skips the nested frame's payload and nothing else: a bit
/// flipped in any byte of the file (the bit moves along with the byte; the
/// `MNSP` fixture's own test flips all eight) is still a typed error —
/// caught by the outer sum, or by the nested frame's own — and so is a cut.
#[test]
fn a_bit_flip_in_any_byte_of_the_v13_runner_fixture_is_a_typed_error() {
    let (mut runner, _) = build(ExecutionBackend::Sequential);
    let mut bytes = FIXTURE_V13.to_vec();
    for at in 0..bytes.len() {
        bytes[at] ^= 1 << (at % 8);
        assert!(
            runner.recover_from(&bytes).is_err(),
            "a bit of byte {at} flipped and the checkpoint still restored"
        );
        bytes[at] ^= 1 << (at % 8);
    }
    for len in (0..64).chain((64..bytes.len()).step_by(13)) {
        assert!(runner.recover_from(&bytes[..len]).is_err(), "cut to {len}");
    }
    assert!(runner.recover_from(&bytes).is_ok());
}

/// Both frames decode their current version and the one before, and no
/// other: a v13 fixture with any other version word is refused with
/// exactly that version by every entry point, and a refused recovery leaves
/// the runner as it was.
#[test]
fn both_frames_restore_versions_12_and_13_and_refuse_every_other() {
    const MNSP_V12: &[u8] = include_bytes!("data/mnsp_v12_path4.bin");
    const MNSP_V13: &[u8] = include_bytes!("data/mnsp_v13_path4.bin");
    const RETIRED_OR_FUTURE: [u32; 13] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 14];
    let with_version = |frame: &[u8], version: u32| {
        let mut bytes = frame.to_vec();
        bytes[4..8].copy_from_slice(&version.to_le_bytes());
        bytes
    };
    for v in RETIRED_OR_FUTURE {
        let (frame, refused) = (with_version(MNSP_V13, v), Err(CodecError::BadVersion(v)));
        assert_eq!(EmulatorSnapshot::from_bytes(&frame).map(|_| ()), refused);
        assert_eq!(Emulator::restore_bytes(&frame).map(|_| ()), refused);
    }
    for frame in [MNSP_V12, MNSP_V13] {
        assert!(Emulator::restore_bytes(frame).is_ok());
    }
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let (mut runner, _) = build(backend);
        runner.recover_from(FIXTURE_V12).expect("v12 restores");
        let before = runner.snapshot().unwrap();
        for v in RETIRED_OR_FUTURE {
            assert_eq!(
                runner.recover_from(&with_version(FIXTURE_V13, v)),
                Err(RecoverError::Codec(CodecError::BadVersion(v)))
            );
            assert!(
                runner.snapshot().unwrap() == before,
                "a refused v{v} recovery changed the runner on {backend:?}"
            );
        }
        runner.recover_from(FIXTURE_V13).expect("v13 restores");
    }
}

/// Writes the fixture and prints the digest. Run once, at the commit whose
/// format is being pinned (`cargo test --test runner_golden -- --ignored
/// --nocapture`, after renaming the path below), never to overwrite an
/// existing fixture.
#[test]
#[ignore = "writes tests/data/mnrs_v13_tcp.bin"]
fn write_fixture() {
    let bytes = run_to_stop(ExecutionBackend::Sequential);
    assert!(
        bytes == run_to_stop(ExecutionBackend::Threaded),
        "backends disagree"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/mnrs_v13_tcp.bin");
    std::fs::write(path, &bytes).unwrap();
    let (mut runner, flows) = build(ExecutionBackend::Sequential);
    runner.recover_from(&bytes).unwrap();
    let digest = tail_digest(runner, flows);
    println!("{} bytes, TAIL_DIGEST = {digest:#018x}", bytes.len());
}
