//! Golden `MNRS` v1 fixture: a whole-run checkpoint from before format v2.
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
//! Only the runner's public API is used, so the same source compiles
//! against the commit that wrote the fixture.

use mn_topology::generators::{ring_topology, RingParams};
use mn_util::codec::fnv1a64;
use mn_util::ByteWriter;
use modelnet::{
    ByteSize, DistillationMode, ExecutionBackend, Experiment, FlowId, Runner, SimDuration, SimTime,
};

const FIXTURE: &[u8] = include_bytes!("data/mnrs_v1_tcp.bin");

/// Virtual time the scenario is stopped (and the fixture taken) at.
const STOP_AT: SimTime = SimTime::from_millis(1_500);
/// The restored run is driven on to here.
const HORIZON: SimTime = SimTime::from_secs(4);
/// FNV-1a over the finished run's observable state, recorded by the commit
/// that wrote the fixture.
const TAIL_DIGEST: u64 = 0xbd54_9729_a53d_b683;

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

#[test]
fn the_v1_runner_fixture_restores_into_both_backends_and_finishes_identically() {
    assert_eq!(FIXTURE[..8], [0x53, 0x52, 0x4E, 0x4D, 1, 0, 0, 0]);
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let (mut runner, flows) = build(backend);
        runner
            .recover_from(FIXTURE)
            .expect("the v1 fixture restores");
        assert_eq!(
            tail_digest(runner, flows),
            TAIL_DIGEST,
            "the restored tail diverged on {backend:?}"
        );
    }
}

/// Writes the fixture and prints the digest. Run once, at the commit whose
/// format is being pinned (`cargo test --test runner_golden -- --ignored
/// --nocapture`), never to overwrite an existing fixture.
#[test]
#[ignore = "writes tests/data/mnrs_v1_tcp.bin"]
fn write_fixture() {
    let bytes = run_to_stop(ExecutionBackend::Sequential);
    assert!(
        bytes == run_to_stop(ExecutionBackend::Threaded),
        "backends disagree"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/mnrs_v1_tcp.bin");
    std::fs::write(path, &bytes).unwrap();
    let (mut runner, flows) = build(ExecutionBackend::Sequential);
    runner.recover_from(&bytes).unwrap();
    let digest = tail_digest(runner, flows);
    println!("{} bytes, TAIL_DIGEST = {digest:#018x}", bytes.len());
}
