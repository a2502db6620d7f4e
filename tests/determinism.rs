//! Determinism guarantees of the emulation core.
//!
//! Reproducibility from a single seed is what makes regression comparisons
//! between PRs meaningful, so it is pinned by tests: re-running the same
//! workload yields byte-identical `CoreStats`; splitting the same emulation
//! across cores changes only the tunnelling book-keeping — exactly nothing
//! else where no packet waits behind another (the unconstrained profile has
//! zero tunnel latency), and under congestion only the service order of
//! packets that reach one pipe within the same advance; and how many packets
//! the caller submits per advance changes no packet's ideal delivery time.

use mn_assign::{greedy_k_clusters, Binding, BindingParams, CoreId, PipeOwnershipDirectory};
use mn_distill::{distill, DistillationMode};
use mn_emucore::{
    CoreExecutor, CoreStats, Delivery, Emulator, HardwareProfile, InlineExecutor,
    MultiCoreEmulator, ParallelEmulator, ThreadedExecutor,
};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{path_pairs_topology, ring_topology, PathPairsParams, RingParams};
use mn_util::{DataRate, SimDuration, SimTime};

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
/// delivery and entry times, hop count, scheduling error —
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
    // the same stream order, at the same times, with the same error and
    // the same counters — at every core count.
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

/// The burst's packets one at a time, each drained to idle before the
/// next: nothing ever waits behind another packet.
fn drive_uncongested<X: CoreExecutor>(
    binding: &Binding,
    emu: &mut Emulator<X>,
) -> Vec<StrictRecord> {
    let vns: Vec<VnId> = binding.vns().collect();
    let mut log = Vec::new();
    let mut deliveries = Vec::new();
    for id in 0..5 * vns.len() as u64 {
        let at = SimTime::from_millis(id * 50);
        let (src, dst) = (
            vns[id as usize % vns.len()],
            vns[(id as usize + 3) % vns.len()],
        );
        assert!(emu
            .submit(at, tcp_packet(id, src, dst, at))
            .unwrap()
            .is_accepted());
        while let Some(t) = emu.next_wakeup() {
            deliveries.clear();
            emu.advance_into(t, &mut deliveries).unwrap();
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
    }
    log
}

#[test]
fn core_count_does_not_change_emulated_behaviour() {
    // Every pipe and every tunnel is entered at its ideal time and the
    // unconstrained profile's tunnels add no latency, so where no packet
    // waits behind another, splitting the emulation across cores changes
    // nothing a packet experiences: the same deliveries at the same instants
    // with the same error, at every core count.
    let (mut one, binding) = build_emulator(1, 42);
    let reference = drive_uncongested(&binding, &mut one);
    assert_eq!(reference.len(), 60);
    let stats_1 = one.total_stats();
    for cores in [2usize, 4] {
        let (mut emu, binding) = build_emulator(cores, 42);
        assert_eq!(
            drive_uncongested(&binding, &mut emu),
            reference,
            "{cores} cores"
        );
        let stats = emu.total_stats();
        assert!(stats.tunnels_out > 0, "a {cores}-way split must tunnel");
        assert_eq!(stats.tunnels_out, stats.tunnels_in);
        assert_eq!(stats_1.packets_delivered, stats.packets_delivered);
    }
}

#[test]
fn core_count_shifts_a_congested_burst_only_by_reordered_service() {
    // Why core count can move a congested packet at all: an advance accepts
    // the tunnels due in it only after every core has ticked its own
    // deadlines, so at the pipe it enters, a tunnelled packet can be queued
    // behind a local packet that ideally arrived after it — by less than a
    // tick, since an advance driven wakeup by wakeup handles deadlines
    // inside one tick. On one core the two are served in deadline order.
    //
    // How far that reaches in this burst: the only packets that reach one
    // pipe within a tick of each other are the two clients of a router
    // entering the ring link they share — admitted together over identical
    // access links. Every other pair of arrivals at a pipe is at least a
    // 416 µs ring transmission apart (4.16 ms on the 2 Mb/s access links;
    // relayed packets reach a ring link 1.26 ms off the local ones, modulo
    // an access transmission). So a reordering swaps those two on one ring
    // link; all packets are one size, so each moves by one transmission
    // time of that link, and its delivery by at most one tick more.
    let size = tcp_packet(0, VnId(0), VnId(1), SimTime::ZERO).size;
    let ring_tx = RingParams::default().ring_bandwidth.transmission_time(size);
    let bound = ring_tx + HardwareProfile::unconstrained().tick;
    let (stats_1, deliveries_1) = run_workload(1, 42);
    for cores in [2usize, 4] {
        let (stats, deliveries) = run_workload(cores, 42);
        assert!(!deliveries_1.is_empty());
        assert_eq!(deliveries_1.len(), deliveries.len());
        for (a, b) in deliveries_1.iter().zip(&deliveries) {
            assert_eq!(a.0, b.0, "same packets delivered");
            assert_eq!(a.2, b.2, "same route length for packet {}", a.0);
            let skew = if a.1 >= b.1 { a.1 - b.1 } else { b.1 - a.1 };
            assert!(
                skew <= bound,
                "{cores} cores: packet {} moved {skew}, more than one swap ({bound})",
                a.0
            );
        }
        // Identical admission counters; only the tunnelling book-keeping
        // (and the wire bytes it adds) may differ between core counts.
        assert_eq!(stats_1.packets_offered, stats.packets_offered);
        assert_eq!(stats_1.packets_admitted, stats.packets_admitted);
        assert_eq!(stats_1.packets_delivered, stats.packets_delivered);
        assert_eq!(stats_1.physical_drops(), 0);
        assert_eq!(stats.physical_drops(), 0);
        assert_eq!(stats_1.tunnels_out, 0, "a single core never tunnels");
        assert!(stats.tunnels_out > 0, "a {cores}-way split must tunnel");
        assert_eq!(stats.tunnels_out, stats.tunnels_in);
    }
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
    let ok = emu.set_pipe_compensation(route[0], Some(DataRate::from_mbps(2)), ms(5));
    observe("set_pipe_compensation", ok, &emu);
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
    let ok = emu.set_pipe_compensation(route[0], None, ms(12));
    observe("set_pipe_compensation(None)", ok, &emu);
    trace
}

#[test]
fn control_plane_operations_leave_both_executors_in_the_same_observable_state() {
    // Between calls a driver sees the emulator through `next_wakeup`, the
    // counters and the fluid epoch; after any control-plane operation all
    // three must be what the inline executor reports — a threaded executor
    // serving stale cached deadlines would make the driver sleep past due
    // work. A CBR episode is a fluid demand, so the first call's only work
    // is the fair share's next solve, one epoch after the episode starts.
    for cores in [1usize, 2, 4] {
        let inline = control_plane_trace::<InlineExecutor>(cores);
        let threaded = control_plane_trace::<ThreadedExecutor>(cores);
        assert!(inline.iter().all(|&(_, accepted, ..)| accepted));
        let epoch = mn_emucore::fluid::DEFAULT_FLUID_EPOCH;
        assert_eq!(inline[0].2, Some(SimTime::from_millis(5) + epoch));
        for (a, b) in inline.iter().zip(&threaded) {
            assert_eq!(a, b, "{cores}-core executors diverge after {}", a.0);
        }
    }
}

/// Disjoint paths of the cadence test, and their hop count.
const PATHS: usize = 4;
const PATH_HOPS: usize = 8;
/// Submission gap of the cadence test: round robin over both directions
/// of every path, a pipe sees a packet every `2 * PATHS * GAP` (16 µs),
/// longer than the 8.7 µs it takes to transmit one at 1 Gb/s — so no packet
/// ever waits behind another.
const GAP: SimDuration = SimDuration::from_micros(2);
const CADENCE_PACKETS: u64 = 1024;

/// `PATHS` disjoint `PATH_HOPS`-hop paths at 1 Gb/s whose hops alternate
/// over `cores` cores (on two, every hop boundary is a tunnel), with each
/// direction of each path as a flow: `(src, dst)` and the flow's
/// uncontended delay for one packet.
fn uncongested_paths(cores: usize) -> (MultiCoreEmulator, Vec<(VnId, VnId, SimDuration)>) {
    let (topo, pairs) = path_pairs_topology(&PathPairsParams {
        pairs: PATHS,
        hops: PATH_HOPS,
        bandwidth: DataRate::from_gbps(1),
        end_to_end_latency: SimDuration::from_millis(2),
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
    let size = tcp_packet(0, VnId(0), VnId(1), SimTime::ZERO).size;
    let mut owners = vec![CoreId(0); d.pipe_count()];
    let mut flows = Vec::new();
    for (a, b) in pairs {
        for (src, dst) in [(a, b), (b, a)] {
            let route = &matrix.lookup(src, dst).expect("path routes").pipes;
            assert_eq!(route.len(), PATH_HOPS);
            let mut delay = SimDuration::ZERO;
            for (hop, &pipe) in route.iter().enumerate() {
                owners[pipe.index()] = CoreId(hop % cores);
                let attrs = d.pipe(pipe).attrs;
                delay += attrs.bandwidth.transmission_time(size) + attrs.latency;
            }
            let vn = |node| binding.vn_at(node).expect("client is bound");
            flows.push((vn(src), vn(dst), delay));
        }
    }
    let pod = PipeOwnershipDirectory::from_owners(owners, cores);
    let profile = HardwareProfile::unconstrained();
    let emu = MultiCoreEmulator::new(&d, pod, matrix, &binding, profile, 5);
    (emu, flows)
}

/// Submits `CADENCE_PACKETS` packets `GAP` apart round robin over `flows`,
/// advancing after every `per_advance` of them and then on at that interval
/// until all are delivered; returns the deliveries by packet id and the
/// counters.
fn drive_cadence<X: CoreExecutor>(
    emu: &mut Emulator<X>,
    flows: &[(VnId, VnId, SimDuration)],
    per_advance: u64,
) -> (Vec<Delivery>, CoreStats) {
    let mut log = Vec::new();
    let mut deliveries = Vec::new();
    let mut now = SimTime::ZERO;
    let mut next = 0..CADENCE_PACKETS;
    for _ in 0..CADENCE_PACKETS {
        for id in next.by_ref().take(per_advance as usize) {
            let (src, dst, _) = flows[id as usize % flows.len()];
            let at = SimTime::ZERO + GAP * id;
            let outcome = emu.submit(at, tcp_packet(id, src, dst, at)).unwrap();
            assert!(outcome.is_accepted());
        }
        now += GAP * per_advance;
        emu.advance_into(now, &mut deliveries).unwrap();
        log.append(&mut deliveries);
        if log.len() == CADENCE_PACKETS as usize {
            break;
        }
    }
    log.sort_by_key(|d| d.packet.id.0);
    (log, emu.total_stats())
}

#[test]
fn ideal_delivery_times_do_not_depend_on_packets_per_advance() {
    // Each hop and each tunnel is entered at the instant its predecessor's
    // exit deadline names, so how often the caller advances decides only
    // how late a packet is noticed leaving its last pipe — never its ideal
    // time — and that lateness stays under one advance interval. Checked
    // against the uncontended delay the pipes' attributes give.
    for cores in [1usize, 2] {
        for per_advance in [16u64, 64, 256] {
            for threaded in [false, true] {
                let (mut emu, flows) = uncongested_paths(cores);
                let (log, stats) = if threaded {
                    let mut emu = ParallelEmulator::from_sequential(emu);
                    drive_cadence(&mut emu, &flows, per_advance)
                } else {
                    drive_cadence(&mut emu, &flows, per_advance)
                };
                let case = format!("{cores} cores, {per_advance} per advance, threaded {threaded}");
                assert_eq!(log.len(), CADENCE_PACKETS as usize, "{case}");
                assert_eq!(stats.tunnels_out > 0, cores > 1, "{case}");
                for (id, d) in log.iter().enumerate() {
                    let (_, _, delay) = flows[id % flows.len()];
                    assert_eq!(d.packet.id.0, id as u64, "{case}");
                    assert_eq!(
                        d.delivered_at - d.emulation_error,
                        d.entered_at + delay,
                        "{case}: packet {id}'s ideal delivery time"
                    );
                    assert!(
                        d.emulation_error < GAP * per_advance,
                        "{case}: packet {id} noticed {} late",
                        d.emulation_error
                    );
                }
            }
        }
    }
}
