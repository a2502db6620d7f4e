//! Checkpoint/restore acceptance tests.
//!
//! The contract under test (ISSUE 10): a run snapshotted at virtual time `T`
//! and restored into a freshly built runner resumes **bit-identically** — the
//! final serialized state equals that of a run that was never interrupted —
//! on either execution backend at 1, 2 and 4 cores, in both restore
//! directions (a sequential snapshot into a threaded runner and vice versa).
//! On top of that, a worker killed mid-run by chaos injection surfaces as a
//! structured error, and recovery from the last auto-checkpoint lands on the
//! exact output of the uninterrupted run.

use proptest::prelude::*;

use mn_dynamics::{FaultKind, LinkPerturbation};
use mn_topology::generators::{ring_topology, RingParams};
use mn_transport::UdpStreamConfig;
use mn_util::CodecError;
use modelnet::{
    ByteSize, ChaosPlan, CoreId, DataRate, DistillationMode, EmuError, ExecutionBackend,
    Experiment, FailureCause, LinkAttrs, NodeKind, RecoverError, Runner, Schedule, SimDuration,
    SimTime, Topology, VnId,
};

/// A ring workload with two TCP flows and a paced UDP flow: enough state
/// (congestion windows, RTO timers, pacing positions, wheel entries, RNGs)
/// that any drift after restore shows up in the serialized bytes.
fn build_seeded(cores: usize, backend: ExecutionBackend, seed: u64) -> Runner {
    let topo = ring_topology(&RingParams {
        routers: 4,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let mut runner = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(cores)
        .edge_nodes(4)
        .backend(backend)
        .unconstrained_hardware()
        .seed(seed)
        .build()
        .expect("experiment builds");
    // An inert chaos plan installs only on worker threads.
    let on_threads = runner.backend_mut().set_chaos(CoreId(0), ChaosPlan::new());
    assert_eq!(on_threads, backend == ExecutionBackend::Threaded);
    let vns = runner.vn_ids();
    runner.add_bulk_flow(vns[0], vns[5], Some(ByteSize::from_kb(512)), SimTime::ZERO);
    runner.add_bulk_flow(vns[2], vns[7], None, SimTime::from_millis(250));
    runner.add_udp_flow(
        vns[1],
        vns[6],
        UdpStreamConfig::default(),
        SimTime::from_millis(100),
    );
    runner
}

fn build(cores: usize, backend: ExecutionBackend) -> Runner {
    build_seeded(cores, backend, 11)
}

#[test]
fn restore_resumes_bit_identically_on_both_backends() {
    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        for cores in [1usize, 2, 4] {
            // The uninterrupted run: straight to the end.
            let mut reference = build(cores, backend);
            reference.run_until(SimTime::from_secs(6)).unwrap();
            let want = reference.snapshot().unwrap();

            // The interrupted run: snapshot at t=3s, throw the runner away,
            // restore into a freshly built one and continue.
            let mut first = build(cores, backend);
            first.run_until(SimTime::from_secs(3)).unwrap();
            let checkpoint = first.snapshot().unwrap();
            drop(first);

            let mut resumed = build(cores, backend);
            resumed.recover_from(&checkpoint).unwrap();
            assert_eq!(resumed.now(), SimTime::from_secs(3));
            resumed.run_until(SimTime::from_secs(6)).unwrap();
            let got = resumed.snapshot().unwrap();
            assert!(
                got == want,
                "resume diverged from the uninterrupted run ({backend:?}, {cores} cores)"
            );
        }
    }
}

#[test]
fn snapshots_restore_across_backends() {
    for cores in [1usize, 2, 4] {
        // Both backends produce byte-identical snapshots of the same run...
        let mut sequential = build(cores, ExecutionBackend::Sequential);
        sequential.run_until(SimTime::from_secs(3)).unwrap();
        let at_mid = sequential.snapshot().unwrap();
        let mut threaded = build(cores, ExecutionBackend::Threaded);
        threaded.run_until(SimTime::from_secs(3)).unwrap();
        assert!(
            threaded.snapshot().unwrap() == at_mid,
            "sequential and threaded snapshots differ at {cores} cores"
        );

        sequential.run_until(SimTime::from_secs(6)).unwrap();
        let want = sequential.snapshot().unwrap();

        // ...and a mid-run snapshot restores into either backend, landing
        // both on the uninterrupted run's exact final state.
        for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
            let mut resumed = build(cores, backend);
            resumed.recover_from(&at_mid).unwrap();
            resumed.run_until(SimTime::from_secs(6)).unwrap();
            assert!(
                resumed.snapshot().unwrap() == want,
                "cross-backend resume into {backend:?} diverged at {cores} cores"
            );
        }
    }
}

#[test]
fn chaos_panic_recovery_matches_the_uninterrupted_run() {
    let cores = 2;
    // The uninterrupted reference, auto-checkpointing on the same grid so
    // its serialized state (armed checkpoint events) matches the victim's.
    let mut reference = build(cores, ExecutionBackend::Threaded);
    reference.set_auto_checkpoint(SimDuration::from_secs(1));
    reference.run_until(SimTime::from_secs(8)).unwrap();
    let want = reference.snapshot().unwrap();

    // The victim: checkpoints until t=4s, then a chaos plan kills one of
    // its workers.
    let mut victim = build(cores, ExecutionBackend::Threaded);
    victim.set_auto_checkpoint(SimDuration::from_secs(1));
    victim.run_until(SimTime::from_secs(4)).unwrap();
    let (checkpoint_at, _) = victim.last_checkpoint().expect("auto-checkpoint fired");
    assert!(checkpoint_at >= SimTime::from_secs(1));
    let plan = ChaosPlan::new().panic_on_next_command();
    assert!(victim.backend_mut().set_chaos(CoreId(1), plan));
    // The inline executor has no worker to fault.
    let mut inline = build(cores, ExecutionBackend::Sequential);
    assert!(!inline.backend_mut().set_chaos(CoreId(1), plan));

    // The death is a structured error, not a panic or a hang — and it
    // poisons the runner so later calls keep failing fast.
    let err = victim.run_until(SimTime::from_secs(8)).unwrap_err();
    assert!(
        matches!(
            &err,
            EmuError::WorkerFailure {
                cause: FailureCause::Panicked(_),
                ..
            }
        ),
        "unexpected failure shape: {err:?}"
    );
    assert_eq!(victim.failure(), Some(&err));
    assert!(victim.run_until(SimTime::from_secs(9)).is_err());

    // Recovery: a fresh runner (fresh worker pool) from the last surviving
    // checkpoint, run to the same deadline, lands on the exact final state.
    let (resume_at, bytes) = victim
        .last_checkpoint()
        .expect("checkpoint survives the crash");
    let bytes = bytes.to_vec();
    let mut recovered = build(cores, ExecutionBackend::Threaded);
    recovered.recover_from(&bytes).unwrap();
    assert_eq!(recovered.now(), resume_at);
    assert!(recovered.failure().is_none());
    recovered.run_until(SimTime::from_secs(8)).unwrap();
    assert!(
        recovered.snapshot().unwrap() == want,
        "recovery from the last checkpoint diverged from the uninterrupted run"
    );
}

/// One poison rule: once a worker has died, every control operation is
/// refused and none of them changes what the coordinator owns — membership,
/// fluid flows, the published route table — so the state a supervisor reads
/// off a failed emulator is the state at the failure, not a half-applied
/// change the cores never saw.
#[test]
fn chaos_poisoned_pool_refuses_control_operations_without_mutating_the_coordinator() {
    let topo = ring_topology(&RingParams {
        routers: 4,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let (mut runner, mut distilled) = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(2)
        .edge_nodes(4)
        .backend(ExecutionBackend::Threaded)
        .unconstrained_hardware()
        .seed(11)
        .build_with_distilled()
        .expect("experiment builds");
    let vns = runner.vn_ids();
    let at = SimTime::from_millis(50);
    let (some_pipe, attrs) = distilled
        .pipes()
        .next()
        .map(|(id, pipe)| (id, pipe.attrs))
        .expect("ring has pipes");
    let par = runner.backend_mut();
    assert!(par.add_fluid_flow(1, vns[0], vns[5], DataRate::from_mbps(2), 1, SimTime::ZERO));
    assert!(par.set_chaos(CoreId(1), ChaosPlan::new().panic_on_next_command()));
    let err = par.advance(at).unwrap_err();
    assert!(matches!(err, EmuError::WorkerFailure { .. }));

    let members = par.active_vn_count();
    let flows = par.fluid().flow_count();
    let flow_rate = par.fluid_flow_rate(1);
    let table: *const _ = par.route_table();

    assert!(!par.vn_leave(vns[2], at));
    let fresh = VnId(vns.len() as u32);
    assert!(!par.vn_join(&distilled, fresh, distilled.vns()[0], at));
    distilled.pipe_attrs_mut(some_pipe).unwrap().bandwidth = DataRate::ZERO;
    assert!(par.reroute(&distilled, &[some_pipe]).is_empty());
    assert!(!par.update_pipe_attrs(some_pipe, attrs));
    assert!(!par.set_pipe_compensation(some_pipe, None, at));
    assert!(!par.set_pipe_compensation(some_pipe, Some(DataRate::from_mbps(1)), at));
    assert!(!par.add_fluid_flow(2, vns[1], vns[6], DataRate::from_mbps(1), 1, at));
    assert!(!par.resize_fluid_flow(1, DataRate::from_mbps(1), 3, at));
    assert!(!par.remove_fluid_flow(1, at));

    assert_eq!(par.active_vn_count(), members);
    assert!(par.vn_is_active(vns[2]) && !par.vn_is_active(fresh));
    assert_eq!(par.fluid().flow_count(), flows);
    assert_eq!(par.fluid_flow_rate(1), flow_rate);
    assert!(
        std::ptr::eq(par.route_table(), table),
        "no route-table generation was published"
    );
    assert_eq!(
        par.advance(at).unwrap_err(),
        err,
        "the first failure is kept"
    );
}

/// A core keeps its descriptors in a slab and its pipes queue slot handles;
/// which slot a packet got depends on the order earlier packets left. None
/// of that may reach a snapshot or the run: long- and short-route datagrams
/// interleaved on every router free their slots out of order, so the cores
/// that are snapshotted hold fragmented slabs, while a restored core's slab
/// is dense — different handles for the same packets.
#[test]
fn a_fragmented_descriptor_slab_never_reaches_bytes_or_behaviour() {
    let build = |backend| {
        let topo = ring_topology(&RingParams {
            routers: 6,
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
        let stream = |mbps| UdpStreamConfig {
            payload: 600,
            rate: DataRate::from_mbps(mbps),
            max_datagrams: None,
        };
        for router in 0..6 {
            // Across the ring (5 pipes) and to the neighbouring client on
            // the same router (2 pipes), from the same sender.
            let (here, beside) = (vns[2 * router], vns[2 * router + 1]);
            let opposite = vns[2 * ((router + 3) % 6)];
            let start = SimTime::from_millis(router as u64);
            runner.add_udp_flow(here, opposite, stream(2), start);
            runner.add_udp_flow(here, beside, stream(3), start);
        }
        runner
    };
    let (mid, end) = (SimTime::from_millis(1_500), SimTime::from_secs(3));

    let mut reference = build(ExecutionBackend::Sequential);
    reference.run_until(end).unwrap();
    let want = reference.snapshot().unwrap();

    let mut first = build(ExecutionBackend::Sequential);
    first.run_until(mid).unwrap();
    let stats = first.backend().total_stats();
    assert!(stats.packets_delivered > 1_000 && stats.tunnels_out > 100);
    for core in first.emulator().cores() {
        assert!(core.in_flight() > 0, "snapshotted with packets inside");
    }
    let checkpoint = first.snapshot().unwrap();

    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let mut resumed = build(backend);
        resumed.recover_from(&checkpoint).unwrap();
        assert!(
            resumed.snapshot().unwrap() == checkpoint,
            "restored state re-serialises differently on {backend:?}"
        );
        resumed.run_until(end).unwrap();
        assert!(
            resumed.snapshot().unwrap() == want,
            "resume from a fragmented slab diverged on {backend:?}"
        );
    }
}

/// Restore with a dynamics schedule installed: the cursor fast-forwards over
/// the already-applied prefix and the remaining events fire on time.
#[test]
fn restore_replays_the_dynamics_cursor() {
    // Half the pipes get up to 25 % more delay before the stop; after it,
    // every pipe gets 10 % more on top of what it then has, so a restored
    // engine must have folded the first draws in to send the same delays.
    let jitter = LinkPerturbation {
        fraction: 0.5,
        kind: FaultKind::DelayIncrease {
            min: 0.0,
            max: 0.25,
        },
    };
    let slowdown = LinkPerturbation {
        fraction: 1.0,
        kind: FaultKind::DelayIncrease { min: 0.1, max: 0.1 },
    };
    let build = |backend| {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        let r1 = topo.add_node(NodeKind::Stub);
        let r2 = topo.add_node(NodeKind::Stub);
        let fast = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        let slow = LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(6));
        topo.add_link(a, r1, fast).unwrap();
        topo.add_link(r1, b, fast).unwrap();
        topo.add_link(a, r2, slow).unwrap();
        topo.add_link(r2, b, slow).unwrap();
        let d = modelnet::distill(&topo, DistillationMode::HopByHop);
        let (ar1, r1a) = (d.find_pipe(a, r1).unwrap(), d.find_pipe(r1, a).unwrap());
        let schedule = Schedule::new()
            .perturb(SimTime::from_secs(1), jitter, 7)
            .duplex_down(SimTime::from_secs(2), ar1, r1a)
            .duplex_up(SimTime::from_secs(5), ar1, r1a)
            .perturb(SimTime::from_secs(6), slowdown, 8);
        let mut runner = Experiment::new(topo)
            .distillation(DistillationMode::HopByHop)
            .backend(backend)
            .cores(1)
            .edge_nodes(2)
            .unconstrained_hardware()
            .seed(7)
            .with_schedule(schedule)
            .build()
            .expect("experiment builds");
        let binding = runner.binding().clone();
        let src = binding.vn_at(a).unwrap();
        let dst = binding.vn_at(b).unwrap();
        runner.add_bulk_flow(src, dst, None, SimTime::ZERO);
        runner
    };

    for backend in [ExecutionBackend::Sequential, ExecutionBackend::Threaded] {
        let mut reference = build(backend);
        reference.run_until(SimTime::from_secs(8)).unwrap();
        let want = reference.snapshot().unwrap();

        // Snapshot between the flap's two halves: the restore must fold the
        // perturbation and the link-down into the engine's graph without
        // re-touching the emulator, then apply the rest live.
        let mut first = build(backend);
        first.run_until(SimTime::from_secs(3)).unwrap();
        assert_eq!(first.dynamics().unwrap().cursor(), 3);
        let checkpoint = first.snapshot().unwrap();

        let mut resumed = build(backend);
        resumed.recover_from(&checkpoint).unwrap();
        assert_eq!(resumed.dynamics().unwrap().cursor(), 3);
        resumed.run_until(SimTime::from_secs(8)).unwrap();
        assert!(
            resumed.snapshot().unwrap() == want,
            "{backend:?}: resume across a dynamics schedule diverged"
        );
    }
}

#[test]
fn recover_rejects_corruption_and_mismatched_configs() {
    let mut runner = build(1, ExecutionBackend::Sequential);
    runner.run_until(SimTime::from_secs(2)).unwrap();
    let bytes = runner.snapshot().unwrap();

    let mut fresh = build(1, ExecutionBackend::Sequential);
    // Truncation and bit-flips are structured codec errors, and a failed
    // restore leaves the runner untouched (it still accepts a good one).
    assert!(matches!(
        fresh.recover_from(&bytes[..bytes.len() - 1]),
        Err(RecoverError::Codec(_))
    ));
    let mut corrupt = bytes.clone();
    let last_payload_byte = corrupt.len() - 9; // final 8 bytes are the checksum
    corrupt[last_payload_byte] ^= 0xff;
    assert!(matches!(
        fresh.recover_from(&corrupt),
        Err(RecoverError::Codec(CodecError::BadChecksum))
    ));
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xff;
    assert!(matches!(
        fresh.recover_from(&wrong_magic),
        Err(RecoverError::Codec(CodecError::BadMagic))
    ));

    // A snapshot from a schedule-free run cannot restore into a runner that
    // has a dynamics schedule installed (and vice versa by symmetry).
    let topo = ring_topology(&RingParams {
        routers: 4,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let d = modelnet::distill(&topo, DistillationMode::HopByHop);
    let some_pipe = d.pipes().next().map(|(id, _)| id).expect("ring has pipes");
    let mut with_schedule = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .unconstrained_hardware()
        .seed(11)
        .with_schedule(Schedule::new().link_down(SimTime::from_secs(30), some_pipe))
        .build()
        .unwrap();
    assert!(matches!(
        with_schedule.recover_from(&bytes),
        Err(RecoverError::ScheduleMismatch)
    ));

    assert!(fresh.recover_from(&bytes).is_ok());
    assert_eq!(fresh.now(), SimTime::from_secs(2));
}

/// The runner's frame refuses what the emulator's does: bytes after the
/// checksum, and bytes its payload decoder did not consume.
#[test]
fn recover_refuses_bytes_after_the_frame_or_after_the_decoded_payload() {
    let mut runner = build(2, ExecutionBackend::Threaded);
    runner.run_until(SimTime::from_secs(1)).unwrap();
    let bytes = runner.snapshot().unwrap();
    let trailing = RecoverError::Codec(CodecError::Invalid("trailing bytes"));

    let mut fresh = build(2, ExecutionBackend::Threaded);
    let mut after_frame = bytes.clone();
    after_frame.push(0);
    assert_eq!(fresh.recover_from(&after_frame), Err(trailing.clone()));

    // A well-formed frame (length and checksum cover the extra byte) around
    // a payload with one byte more than the decoder reads. The payload
    // leads with the clock and the nested frame's length, then that frame.
    let mut w = mn_util::ByteWriter::new();
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    let frame = w.begin_frame(u32::from_le_bytes(*b"SRNM"), version);
    w.put_bytes(&bytes[16..bytes.len() - 8]);
    w.put_u8(0);
    let nested = u64::from_le_bytes(bytes[24..32].try_into().unwrap()) as usize;
    w.end_frame_around(frame, frame + 16..frame + 16 + nested);
    assert_eq!(fresh.recover_from(w.as_slice()), Err(trailing));

    // Neither refusal touched the runner: the real snapshot still restores.
    assert_eq!(fresh.now(), SimTime::ZERO);
    fresh.recover_from(&bytes).unwrap();
    assert_eq!(fresh.now(), SimTime::from_secs(1));
}

/// One executor's run of [`a_checkpoint_right_after_a_late_fluid_start_restores`]:
/// returns the checkpoint taken at 100 ms and the one taken once the
/// original and its restored copy have both run on to 200 ms.
fn late_fluid_start(
    mut emu: mn_emucore::Emulator,
    d: &mn_distill::DistilledTopology,
    vns: &[VnId],
) -> (Vec<u8>, Vec<u8>) {
    use mn_dynamics::{Schedule, ScheduleEngine};
    use modelnet::Reconfigure;
    let ms = SimTime::from_millis;
    // Due at 90 ms, applied at 100 ms: at its scheduled time, more than one
    // fluid epoch behind the clock the advance left.
    let schedule =
        Schedule::new().fluid_start(ms(90), 1, vns[0], vns[9], DataRate::from_mbps(3), 2);
    let mut engine = ScheduleEngine::new(d.clone(), schedule);
    emu.advance(ms(100)).unwrap();
    let applied = engine.apply_due(ms(100), &mut Reconfigure(&mut emu));
    assert_eq!(applied.fluid_changes, 1);
    assert_eq!(
        emu.fluid().next_epoch(),
        Some(ms(100)),
        "the epoch grid starts at the clock, not behind it"
    );
    let snap = emu.snapshot().unwrap();
    let mut restored = emu.restore_like(&snap.to_bytes()).unwrap();
    for step in 1..=5 {
        let t = ms(100 + 20 * step);
        assert_eq!(
            emu.advance(t).unwrap().len(),
            restored.advance(t).unwrap().len()
        );
    }
    assert_eq!(
        emu.fluid_flow_goodput_bytes(1),
        restored.fluid_flow_goodput_bytes(1)
    );
    assert!(emu.fluid_flow_goodput_bytes(1).unwrap() > 0);
    let on = restored.snapshot().unwrap().to_bytes();
    assert!(emu.snapshot().unwrap().to_bytes() == on);
    (snap.to_bytes(), on)
}

/// A checkpoint taken right after a fluid flow's late start — the
/// dynamics engine applies an event at its scheduled time, which can lie
/// behind the emulator's clock — restores on either executor, and the
/// restored copy runs on exactly as the original does.
#[test]
fn a_checkpoint_right_after_a_late_fluid_start_restores() {
    use mn_assign::{Binding, BindingParams};
    use mn_distill::distill;
    use mn_emucore::{Emulator, HardwareProfile};
    use mn_routing::RoutingMatrix;
    let topo = ring_topology(&RingParams {
        routers: 4,
        clients_per_router: 4,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 2));
    let vns: Vec<VnId> = binding.vns().collect();
    let build = || {
        let pod = mn_assign::greedy_k_clusters(&d, 2, 3);
        let matrix = RoutingMatrix::build(&d);
        let profile = HardwareProfile::unconstrained();
        Emulator::new(&d, pod, matrix, &binding, profile, 3)
    };
    let inline = late_fluid_start(build(), &d, &vns);
    let mut threaded = build().threaded();
    assert!(
        threaded.set_chaos(CoreId(0), ChaosPlan::new()),
        "on worker threads"
    );
    let threaded = late_fluid_start(threaded, &d, &vns);
    assert!(inline == threaded, "the executors' checkpoints differ");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Serialization is a fixed point: restoring a snapshot into a fresh
    /// runner and re-serializing reproduces the exact bytes, for arbitrary
    /// seeds, interruption points and core counts.
    #[test]
    fn snapshot_round_trip_is_byte_stable(
        seed in 0u64..6,
        mid_ms in 500u64..4000,
        cores in (0usize..3).prop_map(|i| [1usize, 2, 4][i]),
    ) {
        let mut runner = build_seeded(cores, ExecutionBackend::Sequential, seed);
        runner.run_until(SimTime::from_millis(mid_ms)).unwrap();
        let first = runner.snapshot().unwrap();
        let mut restored = build_seeded(cores, ExecutionBackend::Sequential, seed);
        restored.recover_from(&first).unwrap();
        let second = restored.snapshot().unwrap();
        prop_assert!(first == second, "round trip not byte-stable");
    }
}
