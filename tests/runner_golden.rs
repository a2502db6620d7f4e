//! Golden `MNRS` fixtures: a whole-run checkpoint in every format version.
//!
//! `tests/data/mnrs_v1_tcp.bin` was written by the commit *before* the
//! runner's frame moved to version 2 (PR 17: word-wise checksum, payload
//! layout untouched) from the scenario below — two TCP flows over a small
//! ring on two cores, stopped mid-transfer with segments in flight,
//! retransmission timers armed and an auto-checkpoint pending. Every later
//! commit must restore that file into either backend and finish the run on
//! the recorded digest of everything the runner lets a caller observe. As
//! with the `MNSP` fixture next to it: a format change bumps the version,
//! keeps this file restoring, and adds a fixture written by its parent —
//! this one is never re-blessed.
//!
//! `tests/data/mnrs_v2_tcp.bin` is that parent-written fixture for format
//! v3 (PR 23: the nested `MNSP` frame's route table went to chunks and rows
//! per location, and the runner's checksum stopped covering the nested
//! payload a second time): the same scenario, written by the last commit
//! whose encoder wrote v2, restoring to the same digest.
//! `tests/data/mnrs_v3_tcp.bin` is the scenario under the v3 encoder.
//!
//! Format v4 nests an `MNSP` v4 frame, which dropped the accumulating timing
//! rule's state when every pipe and every tunnel came to be entered at its
//! ideal time (see `snapshot_golden.rs`); the runner's own bytes are v3's.
//! `tests/data/mnrs_v4_tcp.bin` is the scenario under that encoder and the
//! current timing. The older files keep restoring unmodified; the run from
//! their state changed with the timing rule, so their digest was
//! re-recorded once, at that change.
//!
//! Format v5 nests an `MNSP` v5 frame (tunnels in flight inside their
//! target cores, no RED fields; see `snapshot_golden.rs`), the runner's own
//! bytes unchanged: `tests/data/mnrs_v5_tcp.bin` is the scenario under the
//! current encoder, which both backends must re-create byte for byte and
//! which the parent-written v4 file, restored and serialised again, is.
//!
//! Only the runner's public API is used, so the same source compiles
//! against the commit that wrote the fixture.

use mn_topology::generators::{ring_topology, RingParams};
use mn_util::codec::fnv1a64;
use mn_util::ByteWriter;
use modelnet::{
    ByteSize, DistillationMode, ExecutionBackend, Experiment, FlowId, Runner, SimDuration, SimTime,
};

const FIXTURE: &[u8] = include_bytes!("data/mnrs_v1_tcp.bin");
const FIXTURE_V2: &[u8] = include_bytes!("data/mnrs_v2_tcp.bin");
const FIXTURE_V3: &[u8] = include_bytes!("data/mnrs_v3_tcp.bin");
const FIXTURE_V4: &[u8] = include_bytes!("data/mnrs_v4_tcp.bin");
const FIXTURE_V5: &[u8] = include_bytes!("data/mnrs_v5_tcp.bin");

/// Virtual time the scenario is stopped (and the fixture taken) at.
const STOP_AT: SimTime = SimTime::from_millis(1_500);
/// The restored run is driven on to here.
const HORIZON: SimTime = SimTime::from_secs(4);
/// FNV-1a over the observable state of the run finished from the v1–v3
/// fixtures. Recorded by the commit that wrote the v1 fixture; re-recorded
/// once, when every pipe and every tunnel came to be entered at its ideal
/// time (the same state runs on differently).
const TAIL_DIGEST: u64 = 0x65ba_441d_6b01_fd7b;
/// The same digest over the run finished from the v4 and v5 fixtures.
const TAIL_DIGEST_V4: u64 = 0x8199_df7f_0859_e4bd;

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
    let digest = if version < 4 {
        TAIL_DIGEST
    } else {
        TAIL_DIGEST_V4
    };
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let (mut runner, flows) = build(backend);
        runner.recover_from(fixture).expect("the fixture restores");
        assert_eq!(
            tail_digest(runner, flows),
            digest,
            "the restored v{version} tail diverged on {backend:?}"
        );
    }
}

#[test]
fn the_v1_runner_fixture_restores_into_both_backends_and_finishes_identically() {
    restores_into_both_backends_and_finishes_identically(FIXTURE, 1);
}

#[test]
fn the_v2_and_v3_runner_fixtures_restore_into_both_backends_and_finish_identically() {
    restores_into_both_backends_and_finishes_identically(FIXTURE_V2, 2);
    restores_into_both_backends_and_finishes_identically(FIXTURE_V3, 3);
}

#[test]
fn the_v4_runner_fixture_restores_into_both_backends_and_finishes_identically() {
    restores_into_both_backends_and_finishes_identically(FIXTURE_V4, 4);
}

#[test]
fn the_v5_runner_fixture_restores_into_both_backends_and_finishes_identically() {
    restores_into_both_backends_and_finishes_identically(FIXTURE_V5, 5);
}

#[test]
fn both_backends_reproduce_the_v5_runner_fixture_byte_for_byte() {
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        assert!(
            run_to_stop(backend) == FIXTURE_V5,
            "checkpoint bytes drifted from the v5 fixture on {backend:?}"
        );
    }
    let again = |fixture| {
        let (mut runner, _) = build(ExecutionBackend::Sequential);
        runner.recover_from(fixture).unwrap();
        runner.snapshot().unwrap()
    };
    // The parent-written v4 file holds the same run; so do the
    // parent-written v2 file and the v3 file, under the old timing rule:
    // restored and serialised again, each group is one v5 checkpoint.
    assert!(again(FIXTURE_V4) == FIXTURE_V5);
    let v5 = again(FIXTURE_V2);
    assert_eq!(v5[..8], [0x53, 0x52, 0x4E, 0x4D, 5, 0, 0, 0]);
    assert!(v5 == again(FIXTURE_V3));
}

/// The outer sum skips the nested frame's payload and nothing else: a bit
/// flipped in any byte of the file (the bit moves along with the byte; the
/// `MNSP` fixture's own test flips all eight) is still a typed error —
/// caught by the outer sum, or by the nested frame's own — and so is a cut.
#[test]
fn a_bit_flip_in_any_byte_of_the_v3_runner_fixture_is_a_typed_error() {
    let (mut runner, _) = build(ExecutionBackend::Sequential);
    let mut bytes = FIXTURE_V3.to_vec();
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

/// Writes the fixture and prints the digest. Run once, at the commit whose
/// format is being pinned (`cargo test --test runner_golden -- --ignored
/// --nocapture`, after renaming the path below), never to overwrite an
/// existing fixture.
#[test]
#[ignore = "writes tests/data/mnrs_v5_tcp.bin"]
fn write_fixture() {
    let bytes = run_to_stop(ExecutionBackend::Sequential);
    assert!(
        bytes == run_to_stop(ExecutionBackend::Threaded),
        "backends disagree"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/mnrs_v5_tcp.bin");
    std::fs::write(path, &bytes).unwrap();
    let (mut runner, flows) = build(ExecutionBackend::Sequential);
    runner.recover_from(&bytes).unwrap();
    let digest = tail_digest(runner, flows);
    println!("{} bytes, TAIL_DIGEST = {digest:#018x}", bytes.len());
}
