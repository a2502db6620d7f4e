//! Golden `MNRS` fixture for the runner's UDP records.
//!
//! `tests/data/mnrs_v13_tcp.bin` holds TCP flows only. This file pins what
//! it leaves out: two paced UDP flows — one open-ended, one bounded by
//! `max_datagrams` and still sending when the run stops — beside an
//! unbounded bulk TCP flow, on two cores. Its checkpoint carries the
//! streams' pacing state, the runner's UDP flow table, `Udp` port bindings
//! and pending `UdpPoll` events. `tests/data/mnrs_v12_udp.bin` is the
//! scenario under the v12 encoder (`MNRS` v12: the route table's whole
//! store as it lay), which both backends must restore and finish on the
//! recorded digest. `tests/data/mnrs_v13_udp.bin` is the scenario under the
//! current encoder (`MNRS` v13), which both backends must re-create byte
//! for byte and which the v12 file, restored and serialised again, is.
//!
//! Only the runner's public API is used, so the same source compiles
//! against the commit that wrote the fixture.

use mn_topology::generators::{ring_topology, RingParams};
use mn_transport::UdpStreamConfig;
use mn_util::codec::fnv1a64;
use mn_util::ByteWriter;
use modelnet::{
    DataRate, DistillationMode, ExecutionBackend, Experiment, FlowId, Runner, SimTime, UdpFlowId,
};

const FIXTURE_V12: &[u8] = include_bytes!("data/mnrs_v12_udp.bin");
const FIXTURE_V13: &[u8] = include_bytes!("data/mnrs_v13_udp.bin");

/// Virtual time the scenario is stopped (and the fixture taken) at.
const STOP_AT: SimTime = SimTime::from_millis(1_500);
/// The restored run is driven on to here.
const HORIZON: SimTime = SimTime::from_secs(3);
/// FNV-1a over the finished run's observable state: what was sent,
/// received and acked, not when.
const TAIL_DIGEST: u64 = 0x43a2_a02a_f374_57bc;

fn build(backend: ExecutionBackend) -> (Runner, FlowId, [UdpFlowId; 2]) {
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
        .seed(23)
        .build()
        .expect("experiment builds");
    let vns = runner.vn_ids();
    let bulk = runner.add_bulk_flow(vns[0], vns[5], None, SimTime::ZERO);
    let open = UdpStreamConfig {
        payload: 1_000,
        rate: DataRate::from_mbps(2),
        max_datagrams: None,
    };
    let bounded = UdpStreamConfig {
        payload: 512,
        rate: DataRate::from_mbps(1),
        max_datagrams: Some(300),
    };
    let udp = [
        runner.add_udp_flow(vns[1], vns[6], open, SimTime::from_millis(50)),
        runner.add_udp_flow(vns[3], vns[4], bounded, SimTime::from_millis(500)),
    ];
    (runner, bulk, udp)
}

/// Drives the scenario to [`STOP_AT`] and returns the framed checkpoint.
fn run_to_stop(backend: ExecutionBackend) -> Vec<u8> {
    let (mut runner, _, udp) = build(backend);
    runner.run_until(STOP_AT).unwrap();
    let sent = runner.udp_flow_sent(udp[1]);
    assert!(
        sent > 0 && sent < 300,
        "the bounded stream is mid-way when the run stops"
    );
    runner.snapshot().unwrap()
}

/// Runs a restored runner to [`HORIZON`] and digests everything observable.
fn tail_digest(mut runner: Runner, bulk: FlowId, udp: [UdpFlowId; 2]) -> u64 {
    assert_eq!(runner.now(), STOP_AT);
    runner.run_until(HORIZON).unwrap();
    assert_eq!(
        runner.udp_flow_sent(udp[1]),
        300,
        "the bounded stream ends in the tail"
    );
    let mut w = ByteWriter::with_capacity(256);
    w.put_time(runner.now());
    w.put_u64(runner.packets_submitted());
    w.put_u64(runner.packets_delivered());
    w.put_u64(runner.flow_bytes_acked(bulk));
    w.put_u64(runner.flow_retransmissions(bulk));
    for flow in udp {
        let (received, bytes) = runner.udp_flow_received(flow);
        w.put_u64(runner.udp_flow_sent(flow));
        w.put_u64(received);
        w.put_u64(bytes);
    }
    w.put_bytes(format!("{:?}", runner.backend().total_stats()).as_bytes());
    fnv1a64(w.as_slice())
}

#[test]
fn the_udp_runner_fixture_restores_into_both_backends_and_finishes_identically() {
    for (fixture, version) in [(FIXTURE_V12, 12), (FIXTURE_V13, 13)] {
        assert_eq!(fixture[..8], [0x53, 0x52, 0x4E, 0x4D, version, 0, 0, 0]);
        for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
            let (mut runner, bulk, udp) = build(backend);
            runner.recover_from(fixture).expect("the fixture restores");
            assert_eq!(
                tail_digest(runner, bulk, udp),
                TAIL_DIGEST,
                "the restored v{version} tail diverged on {backend:?}"
            );
        }
    }
}

#[test]
fn both_backends_reproduce_the_udp_runner_fixture_byte_for_byte() {
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        assert!(
            run_to_stop(backend) == FIXTURE_V13,
            "checkpoint bytes drifted from the v13 UDP fixture on {backend:?}"
        );
        let (mut runner, ..) = build(backend);
        runner.recover_from(FIXTURE_V12).unwrap();
        assert!(runner.snapshot().unwrap() == FIXTURE_V13);
    }
}

/// Writes the fixture and prints the digest. Run once, at the commit whose
/// format is being pinned (`cargo test --test runner_golden_udp --
/// --ignored --nocapture`, after renaming the path below), never to
/// overwrite an existing fixture.
#[test]
#[ignore = "writes tests/data/mnrs_v13_udp.bin"]
fn write_fixture() {
    let bytes = run_to_stop(ExecutionBackend::Sequential);
    assert!(
        bytes == run_to_stop(ExecutionBackend::Threaded),
        "backends disagree"
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/mnrs_v13_udp.bin");
    std::fs::write(path, &bytes).unwrap();
    let (mut runner, bulk, udp) = build(ExecutionBackend::Sequential);
    runner.recover_from(&bytes).unwrap();
    let digest = tail_digest(runner, bulk, udp);
    println!("{} bytes, TAIL_DIGEST = {digest:#018x}", bytes.len());
}
