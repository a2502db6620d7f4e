//! Live endpoint churn differential suite.
//!
//! VN join/leave are first-class `ScheduleEvent`s: a departing VN's new
//! traffic is refused from the apply point on while in-flight descriptors
//! drain on their pre-departure routes, and a joining VN is routed
//! incrementally (its source tree and row shard are added without a full
//! rebuild). Two families of checks pin the subsystem:
//!
//! 1. **Churn differential (proptest).** Random unique-shortest-path
//!    topologies with a leave/rejoin schedule run through Sequential and
//!    Threaded backends at 1, 2 and 4 cores; per-phase probe admissions
//!    and hop counts must match `mn_refsim::ScheduledTopology` replaying
//!    the same membership changes, and the two backends must stay
//!    bit-identical through every churn event.
//! 2. **Sustained churn rate.** A larger overlay with ~10% of its VNs
//!    churning per virtual minute, driven end to end through the schedule
//!    engine: active-membership tracking, per-packet accounting and
//!    Sequential/Threaded bit-identity must all hold across the run.

mod common;

use proptest::prelude::*;

use common::{arb_unique_path_topology, on_threads};
use mn_assign::{greedy_k_clusters, Binding, BindingParams};
use mn_distill::{distill, DistillationMode, DistilledTopology};
use mn_dynamics::{Schedule, ScheduleEngine};
use mn_emucore::HardwareProfile;
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_refsim::{FlowSpec, ScheduledTopology};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::NodeId;
use mn_util::{SimDuration, SimTime};
use modelnet::{Emulator, Reconfigure};

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

fn build_backend(
    d: &DistilledTopology,
    cores: usize,
    threaded: bool,
    seed: u64,
) -> (Emulator, Binding) {
    let matrix = RoutingMatrix::build(d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
    let pod = greedy_k_clusters(d, cores, 7);
    let seq = Emulator::new(
        d,
        pod,
        matrix,
        &binding,
        HardwareProfile::unconstrained(),
        seed,
    );
    let backend = if threaded { on_threads(seq) } else { seq };
    (backend, binding)
}

/// One probe observation: phase time, flow index, admission, and — when
/// admitted — the exact delivery time and hop count.
type ProbeRecord = (SimTime, usize, bool, Option<(SimTime, usize)>);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random leave/rejoin schedules against the reference simulator's
    /// membership model, on 1, 2 and 4 cores, both backends: a probe is
    /// admitted exactly when the reference routes it (both endpoints are
    /// members), admitted probes match the reference route hop for hop,
    /// and the backends agree bit for bit.
    #[test]
    fn churn_schedule_agrees_with_reference_across_backends(
        topo in arb_unique_path_topology(Just(0.0)),
        churn_seed in any::<u64>(),
    ) {
        let d = distill(&topo, DistillationMode::HopByHop);
        let clients: Vec<NodeId> = d.vns().to_vec();
        let n = clients.len();
        prop_assert!(n >= 2, "generator always binds at least two clients");
        let t = SimTime::from_millis;

        // Two distinct victims: A leaves at 100 ms and rejoins at 300 ms,
        // B leaves at 200 ms and rejoins at 400 ms — so the run passes
        // through phases with zero, one and two absentees.
        let va = (churn_seed as usize) % n;
        let vb = (va + 1 + (churn_seed >> 8) as usize % (n - 1)) % n;
        let reference = ScheduledTopology::new(topo.clone())
            .node_leave(t(100), clients[va])
            .node_leave(t(200), clients[vb])
            .node_join(t(300), clients[va])
            .node_join(t(400), clients[vb]);
        let probe_times = [t(50), t(150), t(250), t(350), t(450)];
        let payload: u32 = 800;
        let tick = SimDuration::from_micros(100);

        let run = |cores: usize, threaded: bool| -> Vec<ProbeRecord> {
            let (mut backend, binding) = build_backend(&d, cores, threaded, 5);
            let schedule = Schedule::new()
                .vn_leave(t(100), binding.vn_at(clients[va]).unwrap())
                .vn_leave(t(200), binding.vn_at(clients[vb]).unwrap())
                .vn_join(t(300), binding.vn_at(clients[va]).unwrap(), clients[va])
                .vn_join(t(400), binding.vn_at(clients[vb]).unwrap(), clients[vb]);
            let mut engine = ScheduleEngine::new(d.clone(), schedule);
            let mut records = Vec::new();
            let mut id = 0u64;
            for &probe_at in &probe_times {
                let _ = engine.apply_due(probe_at, &mut Reconfigure(&mut backend));
                for fi in 0..n {
                    let src = binding.vn_at(clients[fi]).unwrap();
                    let dst = binding.vn_at(clients[(fi + 1) % n]).unwrap();
                    let pkt = udp_packet(id, src, dst, payload, probe_at);
                    id += 1;
                    let outcome = backend.submit(probe_at, pkt).unwrap();
                    let mut delivered = None;
                    if outcome.is_accepted() {
                        let mut deliveries = Vec::new();
                        let mut now = probe_at;
                        for _ in 0..100_000 {
                            let Some(next) = backend.next_wakeup() else { break };
                            now = now.max(next);
                            backend.advance_into(now, &mut deliveries).unwrap();
                            if !deliveries.is_empty() {
                                break;
                            }
                        }
                        assert_eq!(deliveries.len(), 1, "probe {fi} at {probe_at}");
                        delivered = Some((deliveries[0].delivered_at, deliveries[0].hops));
                    }
                    records.push((probe_at, fi, outcome.is_accepted(), delivered));
                }
            }
            records
        };

        for cores in [1usize, 2, 4] {
            let sequential = run(cores, false);
            let threaded = run(cores, true);
            prop_assert_eq!(
                &sequential, &threaded,
                "{}-core churn probes diverge across backends", cores
            );
            for &(probe_at, fi, accepted, delivered) in &sequential {
                let flow = FlowSpec {
                    src: clients[fi],
                    dst: clients[(fi + 1) % n],
                };
                let allocation = &reference.allocations_at(probe_at, &[flow])[0];
                // Admission must mirror the reference's membership: the
                // emulation refuses exactly the flows the reference zeroes.
                prop_assert_eq!(
                    accepted,
                    allocation.hops > 0,
                    "probe {}@{}: admission disagrees with reference membership",
                    fi, probe_at
                );
                if let Some((delivered_at, hops)) = delivered {
                    prop_assert_eq!(hops, allocation.hops, "probe {}@{}", fi, probe_at);
                    let size = udp_packet(0, VnId(0), VnId(1), payload, SimTime::ZERO).size;
                    let tx = allocation.rate.transmission_time(size);
                    let delay = delivered_at - probe_at;
                    let lower = allocation.latency + tx;
                    // Only the last exit waits for the advance that notices it.
                    let upper = allocation.latency + tx * hops as u64 + tick;
                    prop_assert!(
                        delay >= lower && delay <= upper,
                        "probe {}@{}: delay {} outside [{}, {}]",
                        fi, probe_at, delay, lower, upper
                    );
                }
            }
        }
    }
}

/// Sustained churn at the satellite's target rate: ~10% of the overlay
/// churns per virtual minute for five minutes, driven end to end through
/// first-class schedule events. Tracks active membership minute by minute,
/// checks the per-packet ledger (every admitted packet is delivered — the
/// loss-free overlay has no other sink), and pins Sequential against
/// Threaded at 2 and 4 cores bit for bit.
#[test]
fn sustained_ten_percent_churn_per_virtual_minute() {
    let topo = ring_topology(&RingParams {
        routers: 6,
        clients_per_router: 10,
        ..RingParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let clients: Vec<NodeId> = d.vns().to_vec();
    let n = clients.len();
    assert_eq!(n, 60);
    let churn_per_minute = n / 10;
    let minute = |m: u64| SimTime::from_secs(m * 60);

    type RunLog = (Vec<(u64, SimTime, usize)>, Vec<usize>, u64, u64);
    let run = |cores: usize, threaded: bool| -> RunLog {
        let (mut backend, binding) = build_backend(&d, cores, threaded, 11);
        // Minute m: client batch [m*6, m*6+6) leaves; the previous
        // minute's leavers rejoin. Five minutes cover half the overlay.
        let mut schedule = Schedule::new();
        for m in 0..5u64 {
            for k in 0..churn_per_minute {
                let leaver = (m as usize * churn_per_minute + k) % n;
                schedule =
                    schedule.vn_leave(minute(m + 1), binding.vn_at(clients[leaver]).unwrap());
                if m > 0 {
                    let rejoiner = ((m as usize - 1) * churn_per_minute + k) % n;
                    schedule = schedule.vn_join(
                        minute(m + 1),
                        binding.vn_at(clients[rejoiner]).unwrap(),
                        clients[rejoiner],
                    );
                }
            }
        }
        let mut engine = ScheduleEngine::new(d.clone(), schedule);
        let mut deliveries_log = Vec::new();
        let mut active_log = Vec::new();
        let mut offered = 0u64;
        let mut accepted = 0u64;
        let mut id = 0u64;
        for m in 0..6u64 {
            let now = minute(m);
            let _ = engine.apply_due(now, &mut Reconfigure(&mut backend));
            active_log.push(backend.active_vn_count());
            // A full round of neighbor traffic every minute, staggered
            // 1 ms apart so the loss-free overlay stays drop-free;
            // departed VNs are refused, the rest flow.
            for fi in 0..n {
                let at = now + SimDuration::from_millis(fi as u64);
                let src = binding.vn_at(clients[fi]).unwrap();
                let dst = binding.vn_at(clients[(fi + 7) % n]).unwrap();
                let outcome = backend
                    .submit(at, udp_packet(id, src, dst, 600, at))
                    .unwrap();
                id += 1;
                offered += 1;
                if outcome.is_accepted() {
                    accepted += 1;
                }
            }
            // Drain the minute's traffic to idle.
            let mut drained = Vec::new();
            let mut t = now;
            for _ in 0..100_000 {
                let Some(next) = backend.next_wakeup() else {
                    break;
                };
                t = t.max(next);
                backend.advance_into(t, &mut drained).unwrap();
            }
            for delivery in &drained {
                deliveries_log.push((delivery.packet.id.0, delivery.delivered_at, delivery.hops));
            }
        }
        let stats = backend.total_stats();
        assert_eq!(stats.packets_admitted, stats.packets_delivered);
        assert_eq!(stats.dropped_unreachable, 0);
        (deliveries_log, active_log, offered, accepted)
    };

    let sequential = run(2, false);
    assert_eq!(sequential, run(2, true), "2-core churn run diverges");
    let four = run(4, false);
    assert_eq!(four, run(4, true), "4-core churn run diverges");

    let (deliveries, active, offered, accepted) = sequential;
    // Minute 0 has everyone; each later minute is 10% short (the rejoin
    // backfills the previous minute's leavers as the next batch departs).
    assert_eq!(active[0], n);
    for &a in &active[1..] {
        assert_eq!(a, n - churn_per_minute);
    }
    // Departed endpoints are refused, everything admitted is delivered.
    assert!(offered > accepted, "churn must refuse some traffic");
    assert_eq!(deliveries.len() as u64, accepted);
}
