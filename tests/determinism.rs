//! Determinism guarantees of the emulation core.
//!
//! Reproducibility from a single seed is what makes regression comparisons
//! between PRs meaningful, so it is pinned by tests: re-running the same
//! workload yields byte-identical `CoreStats`, and splitting the same
//! emulation across cores changes only the tunnelling book-keeping: the same
//! packets are delivered over the same routes, shifted by at most the
//! tick-quantisation cost of the core crossings (the unconstrained profile
//! has zero tunnel latency, so nothing else may leak into emulated
//! behaviour).

use mn_assign::{greedy_k_clusters, Binding, BindingParams};
use mn_distill::{distill, DistillationMode};
use mn_emucore::{
    CoreExecutor, CoreStats, Emulator, HardwareProfile, InlineExecutor, MultiCoreEmulator,
    ParallelEmulator, ThreadedExecutor,
};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{ring_topology, RingParams};
use mn_util::{ByteSize, DataRate, SimDuration, SimTime};

fn tcp_packet(id: u64, src: VnId, dst: VnId, now: SimTime) -> Packet {
    Packet::new(
        PacketId(id),
        FlowKey {
            src,
            dst,
            src_port: 1000,
            dst_port: 2000,
            protocol: Protocol::Tcp,
        },
        TransportHeader::Tcp {
            seq: 0,
            ack: 0,
            payload_len: 1000,
            flags: TcpFlags::ACK,
            window: 65535,
        },
        now,
    )
}

/// One delivered packet, reduced to the fields determinism must pin.
type DeliveryRecord = (u64, SimTime, usize);

/// Runs a fixed all-pairs burst workload over a ring and returns the
/// aggregate counters plus every delivery (packet id, delivered at, hops).
fn run_workload(cores: usize, seed: u64) -> (CoreStats, Vec<DeliveryRecord>) {
    let (mut emu, binding) = build_emulator(cores, seed);
    let mut deliveries: Vec<DeliveryRecord> = drive_strict(&binding, &mut emu)
        .into_iter()
        .map(|(id, delivered_at, _, hops, _)| (id, delivered_at, hops))
        .collect();
    deliveries.sort_unstable();
    (emu.total_stats(), deliveries)
}

/// Builds the same emulation [`run_workload`] uses, without driving it.
fn build_emulator(cores: usize, seed: u64) -> (MultiCoreEmulator, Binding) {
    let topo = ring_topology(&RingParams {
        routers: 6,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, cores));
    let pod = greedy_k_clusters(&d, cores, 7);
    let emu = MultiCoreEmulator::new(
        &d,
        pod,
        matrix,
        &binding,
        HardwareProfile::unconstrained(),
        seed,
    );
    (emu, binding)
}

/// The full-fidelity delivery record for bit-identity checks: packet id,
/// delivery and entry times, hop count, accumulated scheduling error —
/// kept in raw arrival order (NOT sorted), so stream order is pinned too.
type StrictRecord = (u64, SimTime, SimTime, usize, SimDuration);

/// Drives the standard burst workload on either executor — one driver, one
/// schedule, no per-backend copies to drift apart.
fn drive_strict<X: CoreExecutor>(binding: &Binding, emu: &mut Emulator<X>) -> Vec<StrictRecord> {
    let vns: Vec<VnId> = binding.vns().collect();
    let mut id = 0u64;
    for round in 0..5u64 {
        let now = SimTime::from_micros(round * 700);
        for (i, &src) in vns.iter().enumerate() {
            let dst = vns[(i + 3) % vns.len()];
            let _ = emu.submit(now, tcp_packet(id, src, dst, now));
            id += 1;
        }
    }
    let mut log = Vec::new();
    let mut deliveries = Vec::new();
    let mut now = SimTime::ZERO;
    for _ in 0..1_000_000 {
        let Some(t) = emu.next_wakeup() else { break };
        now = now.max(t);
        deliveries.clear();
        emu.advance_into(now, &mut deliveries).unwrap();
        log.extend(deliveries.iter().map(|d| {
            (
                d.packet.id.0,
                d.delivered_at,
                d.entered_at,
                d.hops,
                d.emulation_error,
            )
        }));
    }
    log
}

#[test]
fn parallel_backend_is_bit_identical_to_sequential() {
    // The headline contract of the threaded backend: same deliveries, in
    // the same stream order, at the same times, with the same accumulated
    // error and the same counters — at every core count.
    for cores in [1usize, 2, 4] {
        let (mut seq, binding) = build_emulator(cores, 42);
        let seq_log = drive_strict(&binding, &mut seq);
        let (seq2, binding2) = build_emulator(cores, 42);
        let mut par = ParallelEmulator::from_sequential(seq2);
        let par_log = drive_strict(&binding2, &mut par);
        assert!(!seq_log.is_empty());
        assert_eq!(
            seq_log, par_log,
            "{cores}-core parallel delivery stream must be bit-identical"
        );
        assert_eq!(
            seq.total_stats(),
            par.total_stats(),
            "{cores}-core parallel counters must be bit-identical"
        );
        for c in 0..cores {
            let core = mn_assign::CoreId(c);
            assert_eq!(
                seq.core_stats(core),
                par.core_stats(core),
                "core {c} counters must match per-thread"
            );
        }
    }
}

#[test]
fn parallel_backend_reruns_are_byte_identical() {
    // The threaded backend is itself deterministic across reruns, despite
    // OS scheduling: thread interleaving must never leak into results.
    let run = || {
        let (seq, binding) = build_emulator(4, 42);
        let mut par = ParallelEmulator::from_sequential(seq);
        let log = drive_strict(&binding, &mut par);
        (log, par.total_stats())
    };
    let (log_a, stats_a) = run();
    let (log_b, stats_b) = run();
    assert_eq!(log_a, log_b);
    assert_eq!(stats_a, stats_b);
}

#[test]
fn same_seed_reruns_are_byte_identical() {
    for cores in [1, 4] {
        let (stats_a, deliveries_a) = run_workload(cores, 42);
        let (stats_b, deliveries_b) = run_workload(cores, 42);
        assert_eq!(
            format!("{stats_a:?}"),
            format!("{stats_b:?}"),
            "{cores}-core reruns must produce byte-identical CoreStats"
        );
        assert_eq!(deliveries_a, deliveries_b);
    }
}

#[test]
fn core_count_does_not_change_emulated_behaviour() {
    let (stats_1, deliveries_1) = run_workload(1, 42);
    let (stats_4, deliveries_4) = run_workload(4, 42);
    // Equivalent emulated outcomes: the same packets are delivered over the
    // same routes. Delivery times may shift by a bounded number of scheduler
    // ticks — a descriptor crossing cores is enqueued at the owning core's
    // next tick (the cost Table 1 of the paper quantifies), once per hop at
    // worst, plus the final tick-quantised delivery — but never by more.
    assert!(!deliveries_1.is_empty());
    assert_eq!(deliveries_1.len(), deliveries_4.len());
    let tick = SimDuration::from_micros(100);
    for (a, b) in deliveries_1.iter().zip(&deliveries_4) {
        assert_eq!(a.0, b.0, "same packets delivered");
        assert_eq!(a.2, b.2, "same route length for packet {}", a.0);
        let skew = if a.1 >= b.1 { a.1 - b.1 } else { b.1 - a.1 };
        assert!(
            skew <= tick * (a.2 as u64 + 1),
            "packet {} delivery skew {skew} exceeds one tick per hop plus delivery",
            a.0
        );
    }
    // Identical admission counters; only the tunnelling book-keeping (and
    // the wire bytes it adds) may differ between core counts.
    assert_eq!(stats_1.packets_offered, stats_4.packets_offered);
    assert_eq!(stats_1.packets_admitted, stats_4.packets_admitted);
    assert_eq!(stats_1.packets_delivered, stats_4.packets_delivered);
    assert_eq!(stats_1.physical_drops(), 0);
    assert_eq!(stats_4.physical_drops(), 0);
    assert_eq!(stats_1.tunnels_out, 0, "a single core never tunnels");
    assert!(
        stats_4.tunnels_out > 0,
        "a 4-way split of a ring must tunnel some descriptors"
    );
    assert_eq!(stats_4.tunnels_out, stats_4.tunnels_in);
}

#[test]
fn seed_changes_the_random_stream_but_not_conservation() {
    // Different seeds may reorder random decisions, but packets are conserved
    // and the deterministic parts (offered counts) stay fixed.
    let (stats_a, _) = run_workload(1, 1);
    let (stats_b, _) = run_workload(1, 2);
    assert_eq!(stats_a.packets_offered, stats_b.packets_offered);
    assert_eq!(stats_a.packets_delivered, stats_b.packets_delivered);
}

/// What a driver can observe between calls; must not depend on the executor.
type Observed = (
    &'static str,
    bool,
    Option<SimTime>,
    CoreStats,
    Option<SimTime>,
);

/// Applies every control-plane operation to an idle emulator, observing the
/// emulator after each one.
fn control_plane_trace<X: CoreExecutor>(cores: usize) -> Vec<Observed> {
    let topo = ring_topology(&RingParams {
        routers: 6,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, cores));
    let pod = greedy_k_clusters(&d, cores, 7);
    let vns: Vec<VnId> = binding.vns().collect();
    let (src, dst, churner) = (vns[0], vns[5], vns[3]);
    let route: Vec<_> = matrix
        .lookup(
            binding.location(src).unwrap(),
            binding.location(dst).unwrap(),
        )
        .expect("ring routes")
        .pipes
        .to_vec();
    assert!(route.len() >= 3, "the flow crosses access and ring pipes");
    let mut emu = Emulator::<X>::new(
        &d,
        pod,
        matrix,
        &binding,
        HardwareProfile::unconstrained(),
        42,
    );
    let ms = SimTime::from_millis;
    let cbr = mn_pipe::CbrConfig::new(DataRate::from_mbps(2), ByteSize::from_bytes(500));
    let mut slow = d.pipe(route[1]).attrs;
    slow.bandwidth = DataRate::from_mbps(1);
    let mut trace = Vec::new();
    let mut observe = |op: &'static str, accepted: bool, emu: &Emulator<X>| {
        trace.push((
            op,
            accepted,
            emu.next_wakeup(),
            emu.total_stats(),
            emu.fluid().next_epoch(),
        ));
    };
    let ok = emu.set_pipe_cbr(route[0], Some(cbr), ms(5));
    observe("set_pipe_cbr", ok, &emu);
    let ok = emu.update_pipe_attrs(route[1], slow);
    observe("update_pipe_attrs", ok, &emu);
    let ok = emu.set_pipe_compensation(route[2], Some(DataRate::from_mbps(1)), ms(6));
    observe("set_pipe_compensation", ok, &emu);
    let ok = emu.add_fluid_flow(1, src, dst, DataRate::from_mbps(3), 4, ms(7));
    observe("add_fluid_flow", ok, &emu);
    let ok = emu.resize_fluid_flow(1, DataRate::from_mbps(1), 2, ms(8));
    observe("resize_fluid_flow", ok, &emu);
    d.pipe_attrs_mut(route[1]).unwrap().bandwidth = DataRate::ZERO;
    let rerouted = !emu.reroute(&d, &[route[1]]).is_empty();
    observe("reroute", rerouted, &emu);
    let ok = emu.vn_leave(churner, ms(9));
    observe("vn_leave", ok, &emu);
    let ok = emu.vn_join(&d, churner, binding.location(churner).unwrap(), ms(10));
    observe("vn_join", ok, &emu);
    let ok = emu.remove_fluid_flow(1, ms(11));
    observe("remove_fluid_flow", ok, &emu);
    let ok = emu.set_pipe_cbr(route[0], None, ms(12));
    observe("set_pipe_cbr(None)", ok, &emu);
    trace
}

#[test]
fn control_plane_operations_leave_both_executors_in_the_same_observable_state() {
    // Between calls a driver sees the emulator through `next_wakeup`, the
    // counters and the fluid epoch; after any control-plane operation all
    // three must be what the inline executor reports — a threaded executor
    // serving stale cached deadlines would make the driver sleep past due
    // work (13.388608 ms instead of the CBR injector's 5 ms start).
    for cores in [1usize, 2, 4] {
        let inline = control_plane_trace::<InlineExecutor>(cores);
        let threaded = control_plane_trace::<ThreadedExecutor>(cores);
        assert!(inline.iter().all(|&(_, accepted, ..)| accepted));
        assert_eq!(inline[0].2, Some(SimTime::from_millis(5)));
        for (a, b) in inline.iter().zip(&threaded) {
            assert_eq!(a, b, "{cores}-core executors diverge after {}", a.0);
        }
    }
}
