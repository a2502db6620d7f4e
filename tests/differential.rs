//! Differential accuracy suite — the paper's emulator-vs-simulator
//! validation, plus the determinism contract of the parallel backend.
//!
//! ModelNet validates its emulation against ns-2 (Figure 5, Figure 12);
//! here the role of the independent reference is played by `mn_refsim`,
//! which shares no code with the emulation path. Two families of checks:
//!
//! 1. **Emulator vs. reference simulator.** Random distilled topologies and
//!    packet workloads run through `MultiCoreEmulator` at 1, 2 and 4 cores;
//!    per-packet delivery times must land inside the analytic window the
//!    reference model predicts (propagation + transmission, plus one
//!    scheduler tick: every pipe and tunnel is entered at its ideal time, so
//!    only the last exit waits for the advance that notices it), hop counts
//!    must match the reference
//!    route hop-for-hop, and loss-free workloads must be drop-free on both
//!    sides. A congestion workload additionally pins steady-state
//!    throughput to the reference's max-min fair share.
//! 2. **Sequential vs. parallel bit-identity.** The same random workloads
//!    run through the threaded `ParallelEmulator`; delivery streams
//!    (order, ids, times, hops, error) and per-core counter
//!    totals must be *exactly* equal to the sequential backend's.
//! 3. **Dynamics differential.** A failure/recovery schedule (plus a CBR
//!    cross-traffic episode) runs through both backends at 1, 2 and 4
//!    cores while the reference simulator replays the *same* schedule over
//!    the target topology (`mn_refsim::ScheduledTopology`); per-phase
//!    delivery windows, hop-for-hop route agreement and reachability must
//!    match the reference, and the two backends must stay bit-identical
//!    through every reconfiguration.

mod common;

use proptest::prelude::*;

use common::arb_unique_path_topology;
use mn_assign::{greedy_k_clusters, Binding, BindingParams};
use mn_distill::{distill, DistillationMode};
use mn_emucore::{
    CoreExecutor, Emulator, HardwareProfile, MultiCoreEmulator, ParallelEmulator, SubmitOutcome,
};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
use mn_refsim::{max_min_fair_share, FlowSpec};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::{NodeId, Topology};
use mn_util::{DataRate, SimDuration, SimTime};

fn tcp_packet(id: u64, src: VnId, dst: VnId, payload: u32, now: SimTime) -> Packet {
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
            payload_len: payload,
            flags: TcpFlags::ACK,
            window: 65535,
        },
        now,
    )
}

fn udp_packet(id: u64, src: VnId, dst: VnId, payload: u32, now: SimTime) -> Packet {
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
            payload_len: payload,
            seq: id,
        },
        now,
    )
}

fn build_emulator(topo: &Topology, cores: usize, seed: u64) -> (MultiCoreEmulator, Binding) {
    let d = distill(topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
    let pod = greedy_k_clusters(&d, cores, seed);
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

fn drain_to_idle(emu: &mut MultiCoreEmulator, from: SimTime) -> Vec<mn_emucore::Delivery> {
    let mut now = from;
    let mut all = Vec::new();
    for _ in 0..100_000 {
        let Some(t) = emu.next_wakeup() else { break };
        now = now.max(t);
        all.extend(emu.advance(now).unwrap());
    }
    all
}

/// One step of a driver schedule replayed identically on every executor.
enum Step {
    Submit(SimTime, Packet),
    Advance(SimTime),
}

/// The full-fidelity delivery record bit-identity pins, in stream order.
type Record = (u64, SimTime, SimTime, usize, SimDuration);

/// Replays `schedule` on `emu`, then drains it to idle from `end`; returns
/// the delivery stream and the submit outcomes.
fn drive<X: CoreExecutor>(
    emu: &mut Emulator<X>,
    schedule: &[Step],
    end: SimTime,
) -> (Vec<Record>, Vec<SubmitOutcome>) {
    let record = |d: &mn_emucore::Delivery| {
        (
            d.packet.id.0,
            d.delivered_at,
            d.entered_at,
            d.hops,
            d.emulation_error,
        )
    };
    let mut log: Vec<Record> = Vec::new();
    let mut outcomes = Vec::new();
    for step in schedule {
        match step {
            Step::Advance(now) => log.extend(emu.advance(*now).unwrap().iter().map(record)),
            Step::Submit(now, pkt) => outcomes.push(emu.submit(*now, *pkt).unwrap()),
        }
    }
    let mut now = end;
    for _ in 0..200_000 {
        let Some(t) = emu.next_wakeup() else { break };
        now = now.max(t);
        log.extend(emu.advance(now).unwrap().iter().map(record));
    }
    (log, outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Uncongested per-packet differential: every delivery lands inside the
    /// analytic window predicted by the reference simulator's route, with
    /// the reference's hop count, on 1, 2 and 4 cores, with zero drops —
    /// and core count does not move a delivery at all.
    #[test]
    fn emulator_delivery_times_agree_with_the_reference_model(
        topo in arb_unique_path_topology(Just(0.0)),
    ) {
        let payload: u32 = 1000;
        let clients: Vec<NodeId> = topo.client_nodes().collect();
        let flows: Vec<FlowSpec> = (0..clients.len())
            .map(|i| FlowSpec {
                src: clients[i],
                dst: clients[(i + 1) % clients.len()],
            })
            .collect();
        // Reference model: unique latency-shortest routes, max-min rates.
        // Each flow is referenced alone (the emulator workload below is
        // serial, one packet in flight at a time), so the reference rate is
        // the path's bottleneck bandwidth.
        let reference: Vec<_> = flows
            .iter()
            .map(|&flow| max_min_fair_share(&topo, &[flow]).remove(0))
            .collect();
        let tick = SimDuration::from_micros(100);
        // (per flow, per core count) delivery times for the skew check.
        let mut times: Vec<Vec<SimTime>> = vec![Vec::new(); flows.len()];
        for cores in [1usize, 2, 4] {
            let (mut emu, binding) = build_emulator(&topo, cores, 7);
            for (fi, flow) in flows.iter().enumerate() {
                let src = binding.vn_at(flow.src).expect("client is bound");
                let dst = binding.vn_at(flow.dst).expect("client is bound");
                // One packet at a time, emulator drained to idle between
                // packets: zero queueing, so the analytic window applies.
                let pkt = tcp_packet(fi as u64, src, dst, payload, SimTime::ZERO);
                let size = pkt.size;
                let outcome = emu.submit(SimTime::ZERO, pkt).unwrap();
                prop_assert!(outcome.is_accepted(), "loss-free link must accept");
                let deliveries = drain_to_idle(&mut emu, SimTime::ZERO);
                prop_assert_eq!(deliveries.len(), 1, "no drops on loss-free links");
                let d = &deliveries[0];
                let reference_flow = &reference[fi];
                prop_assert_eq!(d.hops, reference_flow.hops,
                    "emulated route length matches the reference route");
                let delay = d.core_delay();
                let bottleneck_tx = reference_flow.rate.transmission_time(size);
                let lower = reference_flow.latency + bottleneck_tx;
                // One tick: only the last exit waits for the advance that
                // notices it (the profile's tunnels add no latency).
                let upper = reference_flow.latency + bottleneck_tx * d.hops as u64 + tick;
                prop_assert!(delay >= lower,
                    "cores={} flow={} delay {} below reference window start {}",
                    cores, fi, delay, lower);
                prop_assert!(delay <= upper,
                    "cores={} flow={} delay {} above reference window end {}",
                    cores, fi, delay, upper);
                times[fi].push(d.delivered_at);
            }
            let stats = emu.total_stats();
            prop_assert_eq!(stats.packets_delivered, flows.len() as u64);
            prop_assert_eq!(stats.physical_drops(), 0);
        }
        // Across core counts: every pipe and tunnel is entered at its ideal
        // time and a lone packet waits for none, so the same instants.
        for (fi, per_core) in times.iter().enumerate() {
            prop_assert!(per_core.windows(2).all(|pair| pair[0] == pair[1]),
                "flow {} is delivered at {:?} on 1, 2 and 4 cores", fi, per_core);
        }
    }

    /// Sequential-vs-parallel bit-identity on random topologies and random
    /// burst workloads: the threaded backend must reproduce the sequential
    /// delivery stream *exactly* — order, ids, times, hops, error — and the merged per-thread counters must equal the
    /// sequential totals.
    #[test]
    fn parallel_backend_is_bit_identical_on_random_workloads(
        topo in arb_unique_path_topology(Just(0.0)),
        bursts in prop::collection::vec(
            (0usize..64, 0usize..64, 0u64..20_000, 40u32..1460),
            1..40,
        ),
        cores_choice in 0usize..3,
    ) {
        let cores = [1usize, 2, 4][cores_choice];
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
        let pod = greedy_k_clusters(&d, cores, 11);
        let build = || MultiCoreEmulator::new(
            &d,
            pod.clone(),
            matrix.clone(),
            &binding,
            HardwareProfile::unconstrained(),
            23,
        );
        let vns: Vec<VnId> = binding.vns().collect();
        // The identical driver schedule for both backends: interleaved
        // submits and advances at increasing times, then drain to idle.
        let mut schedule = Vec::new();
        let mut clock = 0u64;
        for (i, &(a, b, dt, payload)) in bursts.iter().enumerate() {
            clock += dt;
            let now = SimTime::from_micros(clock);
            let src = vns[a % vns.len()];
            let dst = vns[b % vns.len()];
            schedule.push(Step::Advance(now));
            schedule.push(Step::Submit(now, udp_packet(i as u64, src, dst, payload, now)));
        }
        let mut seq = build();
        let (seq_log, seq_outcomes) = drive(&mut seq, &schedule, SimTime::from_micros(clock));
        let seq_stats = seq.total_stats();
        let mut par = ParallelEmulator::from_sequential(build());
        let (par_log, par_outcomes) = drive(&mut par, &schedule, SimTime::from_micros(clock));
        prop_assert_eq!(seq_outcomes, par_outcomes, "submit outcomes diverge");
        prop_assert_eq!(seq_log, par_log, "delivery streams diverge");
        prop_assert_eq!(seq_stats, par.total_stats(), "counters diverge");
    }
}

/// The dynamics differential scenario: clients `a`, `b`, `c` over two stub
/// routers with distinct link latencies (unique shortest paths). `a-r1-b`
/// is the fast a↔b route; `r2` carries the detour and serves `c`.
///
/// Returns the topology plus the link ids of `a-r1` and `a-r2` (the links
/// the schedule fails) and the client nodes.
fn dynamics_scenario() -> (Topology, [mn_topology::LinkId; 2], [NodeId; 3]) {
    use mn_topology::{LinkAttrs, NodeKind};
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Client);
    let b = topo.add_node(NodeKind::Client);
    let c = topo.add_node(NodeKind::Client);
    let r1 = topo.add_node(NodeKind::Stub);
    let r2 = topo.add_node(NodeKind::Stub);
    let link = |ms: u64| LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(ms));
    let ar1 = topo.add_link(a, r1, link(1)).unwrap();
    topo.add_link(r1, b, link(2)).unwrap();
    let ar2 = topo.add_link(a, r2, link(4)).unwrap();
    topo.add_link(r2, b, link(5)).unwrap();
    topo.add_link(c, r2, link(16)).unwrap();
    (topo, [ar1, ar2], [a, b, c])
}

/// Failure/recovery schedule through Sequential, Threaded and refsim at
/// 1/2/4 cores: per-packet delivery windows and hop-for-hop route
/// agreement against the reference replaying the same schedule, plus
/// bit-identity of the probe records across backends.
#[test]
fn failure_recovery_schedule_agrees_with_reference_across_backends() {
    use mn_dynamics::{Schedule, ScheduleEngine};
    use mn_refsim::ScheduledTopology;
    use modelnet::{Emulator, Executor, Reconfigure};

    let (topo, [ar1, ar2], [a, b, c]) = dynamics_scenario();
    let d = distill(&topo, DistillationMode::HopByHop);
    let t = SimTime::from_millis;
    // Pipe/link pairs for the two links the schedule manipulates.
    let duplex = |link: mn_topology::LinkId| {
        let l = topo.link(link).unwrap();
        (
            d.find_pipe(l.a, l.b).unwrap(),
            d.find_pipe(l.b, l.a).unwrap(),
        )
    };
    let (p1f, p1r) = duplex(ar1);
    let (p2f, p2r) = duplex(ar2);
    // Two failures and two recoveries; between 200 and 300 ms both a↔b
    // paths are down and the pair is unreachable.
    let schedule = || {
        Schedule::new()
            .duplex_down(t(100), p1f, p1r)
            .duplex_down(t(200), p2f, p2r)
            .duplex_up(t(300), p1f, p1r)
            .duplex_up(t(400), p2f, p2r)
    };
    // The reference replays the same schedule over the target links.
    let reference = ScheduledTopology::new(topo.clone())
        .link_down(t(100), ar1)
        .link_down(t(200), ar2)
        .link_up(t(300), ar1)
        .link_up(t(400), ar2);
    // One probe per phase, on the pair the schedule affects and on a
    // control pair (`c -> b`) no event can touch.
    let probe_times = [t(50), t(150), t(250), t(350), t(450)];
    let payload: u32 = 1000;
    let tick = SimDuration::from_micros(100);

    type ProbeRecord = (SimTime, &'static str, Option<(SimTime, usize)>);
    let run = |cores: usize, threaded: bool| -> Vec<ProbeRecord> {
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
        let pod = greedy_k_clusters(&d, cores, 7);
        let seq = MultiCoreEmulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            5,
        );
        let mut backend: Emulator<Executor> = if threaded {
            ParallelEmulator::from_sequential(seq).into()
        } else {
            seq.into()
        };
        let mut engine = ScheduleEngine::new(d.clone(), schedule());
        let vn = |node| binding.vn_at(node).unwrap();
        let mut records = Vec::new();
        let mut id = 0u64;
        for &probe_at in &probe_times {
            // Apply every schedule event due before this probe.
            let _ = engine.apply_due(probe_at, &mut Reconfigure(&mut backend));
            for (label, src, dst) in [("a->b", vn(a), vn(b)), ("c->b", vn(c), vn(b))] {
                let pkt = udp_packet(id, src, dst, payload, probe_at);
                id += 1;
                let outcome = backend.submit(probe_at, pkt).unwrap();
                let mut delivered = None;
                if outcome.is_accepted() {
                    let mut deliveries = Vec::new();
                    let mut now = probe_at;
                    for _ in 0..100_000 {
                        let Some(next) = backend.next_wakeup() else {
                            break;
                        };
                        now = now.max(next);
                        backend.advance_into(now, &mut deliveries).unwrap();
                        if !deliveries.is_empty() {
                            break;
                        }
                    }
                    assert_eq!(deliveries.len(), 1, "{label} probe at {probe_at}");
                    delivered = Some((deliveries[0].delivered_at, deliveries[0].hops));
                }
                records.push((probe_at, label, delivered));
            }
        }
        records
    };

    for cores in [1usize, 2, 4] {
        let sequential = run(cores, false);
        let threaded = run(cores, true);
        assert_eq!(
            sequential, threaded,
            "{cores}-core probe records diverge across backends"
        );
        // Differential against the reference, phase by phase.
        for &(probe_at, label, delivered) in &sequential {
            let snapshot = reference.topology_at(probe_at);
            let (src, dst) = if label == "a->b" { (a, b) } else { (c, b) };
            let allocation = max_min_fair_share(&snapshot, &[FlowSpec { src, dst }]);
            let reference_flow = &allocation[0];
            match delivered {
                None => {
                    assert_eq!(
                        reference_flow.hops, 0,
                        "{label}@{probe_at}: emulator refused but reference routes"
                    );
                }
                Some((delivered_at, hops)) => {
                    assert!(
                        reference_flow.hops > 0,
                        "{label}@{probe_at}: emulator delivered but reference is unroutable"
                    );
                    assert_eq!(
                        hops, reference_flow.hops,
                        "{label}@{probe_at}: hop-for-hop route agreement"
                    );
                    // Wire size of the probes (headers included).
                    let size = udp_packet(0, VnId(0), VnId(1), payload, SimTime::ZERO).size;
                    let bottleneck_tx = reference_flow.rate.transmission_time(size);
                    let delay = delivered_at - probe_at;
                    let lower = reference_flow.latency + bottleneck_tx;
                    let upper = reference_flow.latency + bottleneck_tx * hops as u64 + tick;
                    assert!(
                        delay >= lower && delay <= upper,
                        "{label}@{probe_at}: delay {delay} outside reference window \
                         [{lower}, {upper}]"
                    );
                }
            }
        }
        // The control pair was never rerouted; the dynamic pair saw the
        // fast path, the detour, an outage, and the fast path again.
        let ab_hops: Vec<Option<usize>> = sequential
            .iter()
            .filter(|r| r.1 == "a->b")
            .map(|r| r.2.map(|(_, hops)| hops))
            .collect();
        assert_eq!(ab_hops, vec![Some(2), Some(2), None, Some(2), Some(2)]);
    }
}

/// CBR cross-traffic differential: a foreground flow sharing its
/// bottleneck with a scheduled CBR episode must track the reference's
/// fair share over the *reduced* capacity while the episode lasts.
#[test]
fn cbr_episode_tracks_reduced_reference_capacity() {
    use mn_dynamics::Schedule;
    use mn_refsim::ScheduledTopology;
    use mn_topology::{LinkAttrs, NodeKind};
    use modelnet::Reconfigure;

    // One 10 Mb/s bottleneck path a - r - b.
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Client);
    let r = topo.add_node(NodeKind::Stub);
    let b = topo.add_node(NodeKind::Client);
    let fast = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
    topo.add_link(a, r, fast).unwrap();
    let rb = topo.add_link(r, b, fast).unwrap();
    let d = distill(&topo, DistillationMode::HopByHop);
    let bottleneck = d.find_pipe(r, b).unwrap();
    let cbr_rate = DataRate::from_mbps(5);
    let schedule = Schedule::new().cbr_start(SimTime::ZERO, bottleneck, cbr_rate);
    // Reference: the r-b link keeps 5 of its 10 Mb/s.
    let reduced = LinkAttrs::new(DataRate::from_mbps(5), SimDuration::from_millis(1));
    let reference = ScheduledTopology::new(topo.clone()).set_link(SimTime::ZERO, rb, reduced);
    let allocation = max_min_fair_share(
        &reference.topology_at(SimTime::ZERO),
        &[FlowSpec { src: a, dst: b }],
    );
    let reference_mbps = allocation[0].rate.as_mbps_f64();
    assert!((reference_mbps - 5.0).abs() < 1e-9);

    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
    let seq =
        MultiCoreEmulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 3);
    let mut backend = seq;
    let mut engine = mn_dynamics::ScheduleEngine::new(d.clone(), schedule);
    let _ = engine.apply_due(SimTime::ZERO, &mut Reconfigure(&mut backend));
    // Offer 8 Mb/s of foreground UDP for 2 s: a 1000-byte datagram every
    // millisecond.
    let src = binding.vn_at(a).unwrap();
    let dst = binding.vn_at(b).unwrap();
    let horizon = SimTime::from_secs(2);
    let mut now = SimTime::ZERO;
    let mut id = 0u64;
    let mut delivered_payload = 0u64;
    let mut deliveries = Vec::new();
    while now < horizon {
        let _ = backend.submit(now, udp_packet(id, src, dst, 1000, now));
        id += 1;
        now += SimDuration::from_millis(1);
        deliveries.clear();
        backend.advance_into(now, &mut deliveries).unwrap();
        delivered_payload += deliveries
            .iter()
            .map(|d| d.packet.header.payload_len() as u64)
            .sum::<u64>();
    }
    let goodput_mbps = delivered_payload as f64 * 8.0 / 2.0 / 1e6;
    assert!(
        goodput_mbps >= reference_mbps * 0.75 && goodput_mbps <= reference_mbps * 1.15,
        "foreground goodput {goodput_mbps:.2} Mb/s should track the reference \
         fair share {reference_mbps:.2} Mb/s under the CBR episode"
    );
    let stats = backend.total_stats();
    assert_eq!(stats.fluid_modelled_bytes, 1_250_000, "5 Mb/s for 2 s");
    assert!(
        stats.packets_delivered < id,
        "13 Mb/s of aggregate load on a 10 Mb/s pipe must drop"
    );
}

/// Hybrid fluid/packet differential: bulk aggregates run as fluid flows
/// whose max-min share consumes pipe capacity, while foreground probes
/// stay packet-accurate in the residual. Three phases — demand-bounded
/// fluid, a mid-run resize that saturates the bottleneck, and flow removal
/// — each pinned against `mn_refsim::fluid_max_min` (fluid goodput, exact)
/// and `max_min_fair_share` over residual-capacity snapshots (foreground
/// delivery windows), at 1, 2 and 4 cores, with Sequential/Threaded
/// bit-identity throughout.
#[test]
fn hybrid_fluid_and_packet_traffic_agree_with_reference_across_backends() {
    use mn_refsim::{fluid_max_min, FluidSpec, ScheduledTopology};
    use mn_topology::{LinkAttrs, NodeKind};
    use modelnet::{Emulator, Executor};

    // a - r - b at 10 Mb/s carries the bulk aggregates; probe client c
    // shares only the r-b bottleneck with them.
    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Client);
    let r = topo.add_node(NodeKind::Stub);
    let b = topo.add_node(NodeKind::Client);
    let c = topo.add_node(NodeKind::Client);
    let fast = |ms: u64| LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(ms));
    let ar = topo.add_link(a, r, fast(1)).unwrap();
    let rb = topo.add_link(r, b, fast(1)).unwrap();
    topo.add_link(c, r, fast(2)).unwrap();
    let d = distill(&topo, DistillationMode::HopByHop);
    let t = SimTime::from_millis;

    // Reference, fluid half. Phase A: both aggregates demand-bounded
    // (2 + 4 of 10 Mb/s). Phase B: the second resized to 100 Mb/s at 3x
    // weight saturates the pipe: weighted water-fill gives it 8 Mb/s.
    let spec = |demand_mbps: u64, weight: u32| FluidSpec {
        src: a,
        dst: b,
        demand: DataRate::from_mbps(demand_mbps),
        weight,
    };
    let phase_a = fluid_max_min(&topo, &[spec(2, 1), spec(4, 3)]);
    assert_eq!(phase_a[0].rate, DataRate::from_mbps(2));
    assert_eq!(phase_a[1].rate, DataRate::from_mbps(4));
    let phase_b = fluid_max_min(&topo, &[spec(2, 1), spec(100, 3)]);
    assert_eq!(phase_b[0].rate, DataRate::from_mbps(2));
    assert_eq!(phase_b[1].rate, DataRate::from_mbps(8));
    // Reference, packet half: the probes' world is the topology with the
    // fluid share subtracted. Phase A leaves 4 Mb/s on a-r and r-b; phase
    // B leaves nothing (the bottleneck is effectively down); removal at
    // t=2s restores the full links.
    let residual = LinkAttrs::new(DataRate::from_mbps(4), SimDuration::from_millis(1));
    let reference = ScheduledTopology::new(topo.clone())
        .set_link(SimTime::ZERO, ar, residual)
        .set_link(SimTime::ZERO, rb, residual)
        .link_down(t(1000), ar)
        .link_down(t(1000), rb)
        .link_up(t(2000), ar)
        .link_up(t(2000), rb);

    let probe_times = [t(100), t(500), t(1100), t(1500), t(2100)];
    let payload: u32 = 1000;
    let tick = SimDuration::from_micros(100);
    type ProbeRecord = (SimTime, &'static str, Option<(SimTime, usize)>);
    type RunResult = (Vec<ProbeRecord>, [u64; 2], mn_emucore::CoreStats);

    let run = |cores: usize, threaded: bool| -> RunResult {
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
        let pod = greedy_k_clusters(&d, cores, 7);
        let seq = MultiCoreEmulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            5,
        );
        let mut backend: Emulator<Executor> = if threaded {
            ParallelEmulator::from_sequential(seq).into()
        } else {
            seq.into()
        };
        let vn = |node| binding.vn_at(node).unwrap();
        assert!(backend.add_fluid_flow(1, vn(a), vn(b), DataRate::from_mbps(2), 1, SimTime::ZERO));
        assert!(backend.add_fluid_flow(2, vn(a), vn(b), DataRate::from_mbps(4), 3, SimTime::ZERO));
        let mut records = Vec::new();
        let mut deliveries = Vec::new();
        let mut id = 0u64;
        let mut phase_a_goodput = [0u64; 2];
        for &probe_at in &probe_times {
            // Phase boundaries land between probes: resize into saturation
            // at t=1s, remove both aggregates at t=2s.
            if probe_at == t(1100) {
                backend.advance_into(t(1000), &mut deliveries).unwrap();
                phase_a_goodput = [
                    backend.fluid_flow_goodput_bytes(1).unwrap(),
                    backend.fluid_flow_goodput_bytes(2).unwrap(),
                ];
                assert!(backend.resize_fluid_flow(2, DataRate::from_mbps(100), 3, t(1000)));
            }
            if probe_at == t(2100) {
                backend.advance_into(t(2000), &mut deliveries).unwrap();
                assert!(backend.remove_fluid_flow(1, t(2000)));
                assert!(backend.remove_fluid_flow(2, t(2000)));
            }
            // The two probes share the r-b bottleneck, so they are staggered
            // 50 ms apart: simultaneous probes would queue behind each
            // other and the lone-packet analytic window would not apply.
            for (offset, label, src, dst) in [
                (SimDuration::ZERO, "a->b", vn(a), vn(b)),
                (SimDuration::from_millis(50), "c->b", vn(c), vn(b)),
            ] {
                let probe_at = probe_at + offset;
                let pkt = udp_packet(id, src, dst, payload, probe_at);
                id += 1;
                // A probe entering a pipe the fluid saturates is dropped at
                // submission (first-hop enqueue sees zero residual); one
                // entering downstream of it is accepted, then swallowed.
                let outcome = backend.submit(probe_at, pkt).unwrap();
                deliveries.clear();
                let mut delivered = None;
                if outcome.is_accepted() {
                    // Drive the emulation at wakeup granularity, bounded by
                    // a horizon: with live fluid flows the epoch grid makes
                    // the wakeup stream infinite, so "advance until
                    // delivered" would never terminate for a swallowed
                    // probe.
                    let horizon = probe_at + SimDuration::from_millis(300);
                    let mut now = probe_at;
                    while let Some(next) = backend.next_wakeup().filter(|&next| next <= horizon) {
                        now = now.max(next);
                        backend.advance_into(now, &mut deliveries).unwrap();
                        if !deliveries.is_empty() {
                            break;
                        }
                    }
                    delivered = deliveries
                        .iter()
                        .find(|del| del.packet.id.0 == id - 1)
                        .map(|del| (del.delivered_at, del.hops));
                }
                records.push((probe_at, label, delivered));
            }
        }
        (records, phase_a_goodput, backend.total_stats())
    };

    let expected_bytes =
        |alloc: &mn_refsim::FlowAllocation, secs: u64| alloc.rate.as_bps() * secs / 8;

    let mut all_goodputs: Vec<[u64; 2]> = Vec::new();
    for cores in [1usize, 2, 4] {
        let (seq_records, seq_ga, seq_stats) = run(cores, false);
        let (thr_records, thr_ga, thr_stats) = run(cores, true);
        assert_eq!(
            seq_records, thr_records,
            "{cores}-core probe records diverge across backends"
        );
        assert_eq!(seq_ga, thr_ga, "{cores}-core fluid goodput diverges");
        assert_eq!(seq_stats, thr_stats, "{cores}-core stats diverge");
        // Fluid goodput, phase A: exactly the reference share x 1 s.
        assert_eq!(seq_ga[0], expected_bytes(&phase_a[0], 1));
        assert_eq!(seq_ga[1], expected_bytes(&phase_a[1], 1));
        assert!(
            seq_stats.fluid_modelled_bytes > 0,
            "the cores metered fluid-consumed capacity"
        );
        all_goodputs.push(seq_ga);
        // Foreground differential, phase by phase, against the reference
        // over residual capacity.
        for &(probe_at, label, delivered) in &seq_records {
            let snapshot = reference.topology_at(probe_at);
            let (src, dst) = if label == "a->b" { (a, b) } else { (c, b) };
            let allocation = max_min_fair_share(&snapshot, &[FlowSpec { src, dst }]);
            let reference_flow = &allocation[0];
            match delivered {
                None => {
                    assert_eq!(
                        reference_flow.hops, 0,
                        "{label}@{probe_at}: probe swallowed but reference routes"
                    );
                }
                Some((delivered_at, hops)) => {
                    assert!(
                        reference_flow.hops > 0,
                        "{label}@{probe_at}: probe delivered but reference starves it"
                    );
                    assert_eq!(hops, reference_flow.hops, "{label}@{probe_at}: hops");
                    let size = udp_packet(0, VnId(0), VnId(1), payload, SimTime::ZERO).size;
                    let bottleneck_tx = reference_flow.rate.transmission_time(size);
                    let delay = delivered_at - probe_at;
                    let lower = reference_flow.latency + bottleneck_tx;
                    let upper = reference_flow.latency + bottleneck_tx * hops as u64 + tick;
                    assert!(
                        delay >= lower && delay <= upper,
                        "{label}@{probe_at}: delay {delay} outside residual-capacity \
                         window [{lower}, {upper}]"
                    );
                }
            }
        }
        // Phase shape: probes starve only while the fluid saturates the
        // bottleneck, and recover the moment the aggregates are removed.
        let ab: Vec<bool> = seq_records
            .iter()
            .filter(|r| r.1 == "a->b")
            .map(|r| r.2.is_some())
            .collect();
        assert_eq!(ab, vec![true, true, false, false, true]);
        let cb: Vec<bool> = seq_records
            .iter()
            .filter(|r| r.1 == "c->b")
            .map(|r| r.2.is_some())
            .collect();
        assert_eq!(cb, vec![true, true, false, false, true]);
    }
    // The coordinator-owned fluid solve is identical at every core count.
    assert!(all_goodputs.windows(2).all(|w| w[0] == w[1]));
}

/// Mid-run fluid saturation accounting: phase-B goodput (between the
/// resize at t=1s and removal at t=2s) matches the reference water-fill
/// over the saturated bottleneck, exactly, on both backends.
#[test]
fn fluid_resize_goodput_matches_reference_water_fill() {
    use mn_refsim::{fluid_max_min, FluidSpec};
    use mn_topology::{LinkAttrs, NodeKind};
    use modelnet::{Emulator, Executor};

    let mut topo = Topology::new();
    let a = topo.add_node(NodeKind::Client);
    let r = topo.add_node(NodeKind::Stub);
    let b = topo.add_node(NodeKind::Client);
    let fast = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
    topo.add_link(a, r, fast).unwrap();
    topo.add_link(r, b, fast).unwrap();
    let d = distill(&topo, DistillationMode::HopByHop);
    let spec = |demand_mbps: u64, weight: u32| FluidSpec {
        src: a,
        dst: b,
        demand: DataRate::from_mbps(demand_mbps),
        weight,
    };
    let phase_a = fluid_max_min(&topo, &[spec(2, 1), spec(4, 3)]);
    let phase_b = fluid_max_min(&topo, &[spec(2, 1), spec(100, 3)]);

    let run = |threaded: bool| -> ([u64; 2], [u64; 2]) {
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let pod = greedy_k_clusters(&d, 1, 7);
        let seq = MultiCoreEmulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            5,
        );
        let mut backend: Emulator<Executor> = if threaded {
            ParallelEmulator::from_sequential(seq).into()
        } else {
            seq.into()
        };
        let vn = |node| binding.vn_at(node).unwrap();
        assert!(backend.add_fluid_flow(1, vn(a), vn(b), DataRate::from_mbps(2), 1, SimTime::ZERO));
        assert!(backend.add_fluid_flow(2, vn(a), vn(b), DataRate::from_mbps(4), 3, SimTime::ZERO));
        let mut sink = Vec::new();
        backend
            .advance_into(SimTime::from_secs(1), &mut sink)
            .unwrap();
        let at_1s = [
            backend.fluid_flow_goodput_bytes(1).unwrap(),
            backend.fluid_flow_goodput_bytes(2).unwrap(),
        ];
        assert!(backend.resize_fluid_flow(2, DataRate::from_mbps(100), 3, SimTime::from_secs(1)));
        backend
            .advance_into(SimTime::from_secs(2), &mut sink)
            .unwrap();
        let at_2s = [
            backend.fluid_flow_goodput_bytes(1).unwrap(),
            backend.fluid_flow_goodput_bytes(2).unwrap(),
        ];
        (at_1s, at_2s)
    };
    let bytes = |alloc: &mn_refsim::FlowAllocation| alloc.rate.as_bps() / 8;
    let (seq_1s, seq_2s) = run(false);
    let (thr_1s, thr_2s) = run(true);
    assert_eq!((seq_1s, seq_2s), (thr_1s, thr_2s), "backends diverge");
    assert_eq!(seq_1s, [bytes(&phase_a[0]), bytes(&phase_a[1])]);
    assert_eq!(
        seq_2s,
        [
            bytes(&phase_a[0]) + bytes(&phase_b[0]),
            bytes(&phase_a[1]) + bytes(&phase_b[1]),
        ]
    );
}

/// Congested differential: two flows pushed at twice their fair share
/// through the paper's ring must settle at the reference simulator's
/// max-min allocation (the access links, 2 Mb/s each).
#[test]
fn congested_throughput_matches_reference_fair_share() {
    let topo = ring_topology(&RingParams {
        routers: 2,
        clients_per_router: 2,
        ..RingParams::default()
    });
    let clients: Vec<NodeId> = topo.client_nodes().collect();
    // Cross-ring flows: client 0 -> client 2, client 1 -> client 3.
    let flows = [
        FlowSpec {
            src: clients[0],
            dst: clients[2],
        },
        FlowSpec {
            src: clients[1],
            dst: clients[3],
        },
    ];
    let reference = max_min_fair_share(&topo, &flows);
    for allocation in &reference {
        assert_eq!(allocation.rate, DataRate::from_mbps(2), "access-limited");
    }
    let (mut emu, binding) = build_emulator(&topo, 1, 3);
    let vn = |node| binding.vn_at(node).expect("client is bound");
    // Offer 4 Mb/s per flow: a 1000-byte datagram every 2 ms for 2 s.
    let payload: u32 = 1000;
    let mut id = 0u64;
    let mut delivered_payload = [0u64; 2];
    let horizon = SimTime::from_secs(2);
    let mut now = SimTime::ZERO;
    while now < horizon {
        for flow in &flows {
            let _ = emu.submit(
                now,
                udp_packet(id, vn(flow.src), vn(flow.dst), payload, now),
            );
            id += 1;
        }
        now += SimDuration::from_millis(2);
        for delivery in emu.advance(now).unwrap() {
            let fi = if delivery.packet.flow.src == vn(flows[0].src) {
                0
            } else {
                1
            };
            delivered_payload[fi] += delivery.packet.header.payload_len() as u64;
        }
    }
    // Let the queues drain and count the tail.
    for delivery in drain_to_idle(&mut emu, now) {
        let fi = if delivery.packet.flow.src == vn(flows[0].src) {
            0
        } else {
            1
        };
        delivered_payload[fi] += delivery.packet.header.payload_len() as u64;
    }
    for (fi, &bytes) in delivered_payload.iter().enumerate() {
        let goodput_mbps = bytes as f64 * 8.0 / 2.0 / 1e6;
        let reference_mbps = reference[fi].rate.as_mbps_f64();
        assert!(
            goodput_mbps >= reference_mbps * 0.75 && goodput_mbps <= reference_mbps * 1.15,
            "flow {fi}: emulated goodput {goodput_mbps:.2} Mb/s should track \
             the reference fair share {reference_mbps:.2} Mb/s"
        );
    }
    // The 2x overload genuinely exercised queue-overflow drops.
    let stats = emu.total_stats();
    assert!(stats.packets_delivered < id, "overload must drop virtually");
    assert_eq!(stats.physical_drops(), 0, "drops are virtual, not physical");
}
