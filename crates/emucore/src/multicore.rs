//! Multi-core emulation on the calling thread: several cores cooperating
//! through the pipe ownership directory.
//!
//! When the next pipe on a descriptor's route is owned by a different core,
//! the current core tunnels the descriptor to the owner (found by a POD
//! lookup), which files it in its inbox until it arrives. The tunnel costs
//! CPU on both sides, occupies the physical inter-core link, and adds the
//! switch-crossing latency — which is exactly why Table 1 shows aggregate
//! throughput degrading as the fraction of cross-core traffic grows. With
//! payload caching enabled only the descriptor, not the packet contents,
//! crosses the core network.
//!
//! [`InlineExecutor`] is the reference executor: its `advance` *is* the
//! round structure `Executor`'s contract describes, and the threaded
//! executor is tested for bit-identity against it.

use std::sync::Arc;

use mn_assign::{CoreId, PipeOwnershipDirectory};
use mn_distill::PipeId;
use mn_routing::RouteTable;
use mn_util::{ByteWriter, SimTime};

use crate::core::{CoreStats, EmulatorCore, TickOutput};
use crate::descriptor::{Delivery, Descriptor};
use crate::emulator::{CoreCommand, Dispatch, SubmitOutcome};
use crate::error::EmuError;

/// Runs every core on the calling thread, handing each tunnelled descriptor
/// to its owner's inbox. Infallible: every `Result` it returns is `Ok`.
///
/// The per-packet methods are `#[inline]`: the admission path is
/// monomorphized in the *calling* crate, and without the hint these
/// non-generic bodies would stay out-of-line calls across the crate
/// boundary on the submit path.
#[derive(Debug)]
pub(crate) struct InlineExecutor {
    pub(crate) cores: Vec<EmulatorCore>,
    pod: Arc<PipeOwnershipDirectory>,
    /// Reusable per-core scheduler-pass buffer, and the tunnels a round
    /// produced until every core has ticked; capacities persist across
    /// advances so the steady state allocates nothing.
    tick_buf: TickOutput,
    produced: Vec<(PipeId, Descriptor, SimTime)>,
}

impl InlineExecutor {
    /// Takes ownership of the cores, in core order; `pod` names the core a
    /// tunnel is for.
    pub(crate) fn new(cores: Vec<EmulatorCore>, pod: Arc<PipeOwnershipDirectory>) -> Self {
        InlineExecutor {
            cores,
            pod,
            tick_buf: TickOutput::default(),
            produced: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn health(&self) -> Result<(), EmuError> {
        Ok(())
    }

    #[inline]
    pub(crate) fn stats(&self, core: CoreId) -> Option<CoreStats> {
        self.cores.get(core.index()).map(|c| *c.stats())
    }

    #[inline]
    pub(crate) fn next_wakeup(&self) -> Option<SimTime> {
        self.cores.iter().filter_map(|c| c.next_wakeup()).min()
    }

    #[inline]
    pub(crate) fn ingress_batch<I: Iterator<Item = Dispatch>>(
        &mut self,
        batch: I,
        outcomes: &mut Vec<SubmitOutcome>,
    ) -> Result<(), EmuError> {
        for dispatch in batch {
            outcomes.push(match dispatch {
                Dispatch::Resolved(outcome) => outcome,
                Dispatch::Ingress {
                    core,
                    now,
                    first,
                    descriptor,
                } => self.cores[core.index()]
                    .ingress_into(now, first, descriptor)
                    .into(),
            });
        }
        Ok(())
    }

    pub(crate) fn advance(
        &mut self,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
    ) -> Result<(), EmuError> {
        let mut tick_buf = std::mem::take(&mut self.tick_buf);
        // Rounds: every core ticks, then the tunnels the round produced are
        // filed with their owners, so none is admitted in the round that
        // made it. A tunnel leaves at its exit deadline, so its arrival can
        // already be due and its next hops complete within this advance:
        // another round follows while one is, bounded by the longest route.
        loop {
            for core in &mut self.cores {
                core.tick_into(now, &mut tick_buf);
                deliveries.append(&mut tick_buf.deliveries);
                self.produced.append(&mut tick_buf.tunnels);
            }
            let mut due = false;
            for (pipe, descriptor, arrival) in self.produced.drain(..) {
                let owner = self
                    .pod
                    .get_owner(pipe)
                    .expect("route references a pipe covered by the POD");
                due |= arrival <= now;
                self.cores[owner.index()].receive_tunnel(arrival, descriptor);
            }
            if !due {
                break;
            }
        }
        self.tick_buf = tick_buf;
        // The exact-remainder arithmetic makes the integral independent of
        // how often it is settled, so settling per advance (as a worker
        // thread must) equals settling once per chopped advance.
        for core in &mut self.cores {
            core.integrate_fluid_to(now);
        }
        Ok(())
    }

    pub(crate) fn apply(&mut self, core: CoreId, command: CoreCommand) -> Result<bool, EmuError> {
        Ok(command.apply_to(&mut self.cores[core.index()]))
    }

    pub(crate) fn broadcast_routes(&mut self, routes: &Arc<RouteTable>) -> Result<(), EmuError> {
        for core in &mut self.cores {
            core.set_route_table(routes.clone());
        }
        Ok(())
    }

    pub(crate) fn encode_cores(&mut self, w: &mut ByteWriter) -> Result<(), EmuError> {
        w.put_len(self.cores.len());
        for core in &self.cores {
            core.encode_state(w);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::emulator::Emulator;
    use crate::hardware::HardwareProfile;
    use mn_assign::{greedy_k_clusters, Binding, BindingParams};
    use mn_distill::{distill, DistillationMode, PipeAttrs, PipeId};
    use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
    use mn_routing::RoutingMatrix;
    use mn_topology::generators::{
        path_pairs_topology, star_topology, PathPairsParams, StarParams,
    };
    use mn_topology::NodeId;
    use mn_util::{DataRate, SimDuration};

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

    /// One sender/receiver pair over `hops` 10 Mb/s pipes, 10 ms end to end.
    fn single_path(hops: usize, cores: usize) -> (Emulator, VnId, VnId) {
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops,
            bandwidth: DataRate::from_mbps(10),
            end_to_end_latency: SimDuration::from_millis(10),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, cores));
        let pod = greedy_k_clusters(&d, cores, 7);
        let emu = Emulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        // VNs are bound in vn-list order; find sender and receiver.
        let sender = binding.vn_at(pairs[0].0).unwrap();
        let receiver = binding.vn_at(pairs[0].1).unwrap();
        (emu, sender, receiver)
    }

    fn run_until_idle(emu: &mut Emulator, mut now: SimTime) -> Vec<Delivery> {
        let mut all = Vec::new();
        for _ in 0..100_000 {
            match emu.next_wakeup() {
                Some(t) => {
                    now = now.max(t);
                    all.extend(emu.advance(now).unwrap());
                }
                None => break,
            }
        }
        all
    }

    #[test]
    fn snapshot_mid_run_resumes_bit_identically() {
        // Run A straight through; run B snapshots mid-flight (tunnels in the
        // air, packets queued in pipes, RNG streams advanced), restores, and
        // continues. Both must produce identical deliveries and stats — and
        // snapshot → restore → snapshot must be byte-stable.
        let drive = |emu: &mut Emulator,
                     src: VnId,
                     dst: VnId,
                     from: u64,
                     to: u64,
                     out: &mut Vec<Delivery>| {
            for i in from..to {
                let t = SimTime::from_micros(i * 700);
                emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
                out.extend(emu.advance(t).unwrap());
            }
        };
        let record = |d: &Delivery| (d.packet.id.0, d.delivered_at, d.entered_at, d.hops);

        let (mut uninterrupted, src, dst) = single_path(6, 2);
        let mut a = Vec::new();
        drive(&mut uninterrupted, src, dst, 0, 40, &mut a);
        a.extend(run_until_idle(&mut uninterrupted, SimTime::ZERO));

        let (mut first_half, src, dst) = single_path(6, 2);
        let mut b = Vec::new();
        drive(&mut first_half, src, dst, 0, 20, &mut b);
        let snap = first_half.snapshot().unwrap();
        assert!(first_half.total_stats().packets_admitted > 0);
        drop(first_half);

        let mut resumed = Emulator::restore(&snap).unwrap();
        let resnap = resumed.snapshot().unwrap();
        assert_eq!(
            snap.to_bytes(),
            resnap.to_bytes(),
            "snapshot → restore → snapshot must be byte-stable"
        );
        drive(&mut resumed, src, dst, 20, 40, &mut b);
        b.extend(run_until_idle(&mut resumed, SimTime::ZERO));

        assert_eq!(a.len(), b.len());
        assert_eq!(
            a.iter().map(record).collect::<Vec<_>>(),
            b.iter().map(record).collect::<Vec<_>>()
        );
        assert_eq!(uninterrupted.total_stats(), resumed.total_stats());
        assert_eq!(
            uninterrupted.cores()[0].accuracy().mean_error_us(),
            resumed.cores()[0].accuracy().mean_error_us()
        );
    }

    #[test]
    fn snapshot_preserves_fluid_cbr_and_churn_state() {
        // Exercise the non-packet state: CBR episodes, fluid flows, a VN
        // leave, and a reroute all precede the snapshot; afterwards both
        // copies must evolve identically (epoch boundaries included).
        let (topo, [a, b, c], [_r1, _r2]) = detour_topology();
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut emu =
            Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 11);
        let vn = |node| binding.vn_at(node).unwrap();
        let t0 = SimTime::ZERO;
        assert!(emu.set_pipe_compensation(mn_distill::PipeId(0), Some(DataRate::from_mbps(2)), t0));
        assert!(emu.add_fluid_flow(7, vn(a), vn(b), DataRate::from_mbps(4), 3, t0));
        assert!(emu.vn_leave(vn(c), t0));
        let _ = emu.advance(SimTime::from_millis(30));

        let snap = emu.snapshot().unwrap();
        let mut restored = Emulator::restore(&snap).unwrap();
        assert_eq!(snap.to_bytes(), restored.snapshot().unwrap().to_bytes());
        assert_eq!(restored.active_vn_count(), emu.active_vn_count());
        assert!(!restored.vn_is_active(vn(c)));
        assert_eq!(restored.fluid_flow_rate(7), emu.fluid_flow_rate(7));

        // Both copies cross several fluid epochs and keep agreeing.
        for step in 1..=5u64 {
            let t = SimTime::from_millis(30 + step * 20);
            let da = emu.advance(t).unwrap();
            let db = restored.advance(t).unwrap();
            assert_eq!(da.len(), db.len());
        }
        assert_eq!(emu.total_stats(), restored.total_stats());
        assert_eq!(
            emu.fluid_flow_goodput_bytes(7),
            restored.fluid_flow_goodput_bytes(7)
        );
        assert_eq!(emu.next_wakeup(), restored.next_wakeup());
    }

    #[test]
    fn single_hop_delivery_timing() {
        let (mut emu, src, dst) = single_path(1, 1);
        let pkt = tcp_packet(1, src, dst, 1460, SimTime::ZERO);
        assert_eq!(
            emu.submit(SimTime::ZERO, pkt).unwrap(),
            SubmitOutcome::Accepted
        );
        let deliveries = run_until_idle(&mut emu, SimTime::ZERO);
        assert_eq!(deliveries.len(), 1);
        let d = &deliveries[0];
        // 1500 B at 10 Mb/s = 1.2 ms transmission + 10 ms latency, delivered
        // at the next 100 µs tick.
        let ideal = SimDuration::from_micros(1200) + SimDuration::from_millis(10);
        let delay = d.core_delay();
        assert!(delay >= ideal, "delay {delay} below ideal {ideal}");
        assert!(
            delay <= ideal + SimDuration::from_micros(100),
            "delay {delay} more than one tick late"
        );
        assert_eq!(d.hops, 1);
    }

    #[test]
    fn multi_hop_delay_accumulates_per_hop() {
        let (mut emu, src, dst) = single_path(4, 1);
        let pkt = tcp_packet(1, src, dst, 1460, SimTime::ZERO);
        emu.submit(SimTime::ZERO, pkt).unwrap();
        let deliveries = run_until_idle(&mut emu, SimTime::ZERO);
        assert_eq!(deliveries.len(), 1);
        // 4 hops: 4 × 1.2 ms store-and-forward + 10 ms total latency.
        let ideal = SimDuration::from_micros(4 * 1200) + SimDuration::from_millis(10);
        let d = &deliveries[0];
        assert_eq!(d.delivered_at - d.emulation_error, d.entered_at + ideal);
        // Only the last exit waits for the pass that notices it: one tick.
        assert!(d.emulation_error < SimDuration::from_micros(100));
        assert_eq!(d.hops, 4);
    }

    #[test]
    fn unknown_vn_is_no_route() {
        let (mut emu, src, _) = single_path(1, 1);
        let pkt = tcp_packet(1, src, VnId(999), 100, SimTime::ZERO);
        assert_eq!(
            emu.submit(SimTime::ZERO, pkt).unwrap(),
            SubmitOutcome::NoRoute
        );
    }

    #[test]
    fn out_of_range_vn_ids_never_panic_the_dense_tables() {
        // The dense per-VN tables are indexed by VnId: any id at or beyond
        // the bound VN count — unknown source, unknown destination, or both,
        // up to the extreme u32::MAX — must come back as NoRoute, not an
        // out-of-bounds panic, and must not disturb the emulation.
        let (mut emu, src, dst) = single_path(1, 1);
        let now = SimTime::ZERO;
        for bad in [VnId(2), VnId(999), VnId(u32::MAX)] {
            assert_eq!(
                emu.submit(now, tcp_packet(1, bad, dst, 100, now)).unwrap(),
                SubmitOutcome::NoRoute,
                "unknown source {bad}"
            );
            assert_eq!(
                emu.submit(now, tcp_packet(2, src, bad, 100, now)).unwrap(),
                SubmitOutcome::NoRoute,
                "unknown destination {bad}"
            );
            assert_eq!(
                emu.submit(now, tcp_packet(3, bad, bad, 100, now)).unwrap(),
                SubmitOutcome::NoRoute,
                "both endpoints unknown {bad}"
            );
            assert_eq!(emu.vn_location(bad), None);
        }
        // The emulator still works for bound VNs afterwards.
        assert_eq!(
            emu.submit(now, tcp_packet(4, src, dst, 100, now)).unwrap(),
            SubmitOutcome::Accepted
        );
        let delivered = run_until_idle(&mut emu, now);
        assert_eq!(delivered.len(), 1);
        assert_eq!(emu.total_stats().packets_offered, 1, "NoRoute is pre-NIC");
    }

    #[test]
    fn two_core_path_tunnels_descriptors() {
        let (mut emu, src, dst) = single_path(8, 2);
        assert_eq!(emu.core_count(), 2);
        for i in 0..10 {
            let t = SimTime::from_micros(i * 500);
            emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
        }
        let deliveries = run_until_idle(&mut emu, SimTime::ZERO);
        assert_eq!(deliveries.len(), 10);
        let stats = emu.total_stats();
        assert!(
            stats.tunnels_out > 0,
            "an 8-hop route split over two cores must tunnel"
        );
        assert_eq!(stats.tunnels_out, stats.tunnels_in);
        assert_eq!(stats.packets_delivered, 10);
    }

    #[test]
    fn star_traffic_all_pairs_delivered() {
        let topo = star_topology(&StarParams {
            clients: 10,
            spoke_bandwidth: DataRate::from_mbps(10),
            spoke_latency: SimDuration::from_millis(5),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let mut emu =
            Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 3);
        let vns: Vec<VnId> = binding.vns().collect();
        let mut sent = 0;
        for (i, &a) in vns.iter().enumerate() {
            let b = vns[(i + 1) % vns.len()];
            emu.submit(
                SimTime::ZERO,
                tcp_packet(i as u64, a, b, 1000, SimTime::ZERO),
            )
            .unwrap();
            sent += 1;
        }
        let deliveries = run_until_idle(&mut emu, SimTime::ZERO);
        assert_eq!(deliveries.len(), sent);
        for d in &deliveries {
            assert_eq!(d.hops, 2, "star routes are two pipes");
            // 1040 B at 10 Mb/s = 0.832 ms per hop + 2 × 5 ms latency.
            assert!(d.core_delay() >= SimDuration::from_millis(10));
        }
    }

    #[test]
    fn congestion_produces_virtual_drops_not_physical() {
        // One 1 Mb/s hop with a 5-packet queue; blast 100 packets at once.
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 1,
            bandwidth: DataRate::from_mbps(1),
            end_to_end_latency: SimDuration::from_millis(5),
        });
        let mut d = distill(&topo, DistillationMode::HopByHop);
        for id in d.pipe_ids().collect::<Vec<_>>() {
            d.pipe_attrs_mut(id).unwrap().queue_len = 5;
        }
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut emu =
            Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 5);
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        let mut virtual_drops = 0;
        for i in 0..100 {
            match emu
                .submit(SimTime::ZERO, tcp_packet(i, src, dst, 1460, SimTime::ZERO))
                .unwrap()
            {
                SubmitOutcome::VirtualDrop => virtual_drops += 1,
                SubmitOutcome::Accepted => {}
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert!(
            virtual_drops > 50,
            "most of the burst should overflow the queue"
        );
        let delivered = run_until_idle(&mut emu, SimTime::ZERO).len();
        assert_eq!(delivered as u64 + virtual_drops, 100);
        assert_eq!(emu.total_stats().physical_drops_nic, 0);
    }

    #[test]
    fn overload_produces_physical_drops() {
        // Constrained profile with a tiny NIC: flooding must hit the NIC
        // ceiling and drop physically.
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 1,
            bandwidth: DataRate::from_mbps(1000),
            end_to_end_latency: SimDuration::from_millis(1),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut profile = HardwareProfile::paper_core();
        profile.nic_rate = DataRate::from_mbps(10);
        profile.nic_buffer = mn_util::ByteSize::from_kb(16);
        let mut emu = Emulator::single_core(&d, matrix, &binding, profile, 5);
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        let mut physical = 0;
        for i in 0..200u64 {
            let t = SimTime::from_micros(i * 10);
            if emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap()
                == SubmitOutcome::PhysicalDrop
            {
                physical += 1;
            }
            let _ = emu.advance(t);
        }
        assert!(
            physical > 0,
            "a 10 Mb/s NIC cannot absorb 1.2 Gb/s of offered load"
        );
        assert_eq!(emu.total_stats().physical_drops(), physical);
    }

    #[test]
    fn same_location_vns_bypass_the_core() {
        // Two VNs bound to the same client node: traffic is delivered locally.
        let (topo, pairs) = path_pairs_topology(&PathPairsParams::default());
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        // Bind both VNs to the same location by hand.
        let loc = pairs[0].0;
        let binding = Binding::bind(&[loc, loc], &BindingParams::new(1, 1));
        let mut emu =
            Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 1);
        let outcome = emu
            .submit(
                SimTime::from_millis(1),
                tcp_packet(1, VnId(0), VnId(1), 100, SimTime::from_millis(1)),
            )
            .unwrap();
        assert_eq!(outcome, SubmitOutcome::Accepted);
        let deliveries = emu.advance(SimTime::from_millis(1)).unwrap();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].hops, 0);
        assert_eq!(emu.total_stats().packets_admitted, 0);
    }

    #[test]
    fn split_core_stats_merge_to_single_core_totals() {
        // The same loss-free workload on one core and split over two cores:
        // per-core counters drained independently and merged must agree with
        // the single-core totals on every emulated-behaviour field (the
        // tunnelling book-keeping and the wire bytes it adds are the only
        // legitimate differences, exactly what Table 1 charges for the
        // split).
        let run = |cores: usize| {
            let (mut emu, src, dst) = single_path(6, cores);
            for i in 0..25 {
                let t = SimTime::from_micros(i * 1400);
                emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
            }
            let _ = run_until_idle(&mut emu, SimTime::ZERO);
            let merged = (0..emu.core_count())
                .map(|c| emu.core_stats(CoreId(c)).expect("core exists"))
                .fold(CoreStats::default(), |acc, s| acc.merged(&s));
            assert_eq!(merged, emu.total_stats(), "drain order must not matter");
            merged
        };
        let single = run(1);
        let split = run(2);
        assert_eq!(single.packets_offered, split.packets_offered);
        assert_eq!(single.packets_admitted, split.packets_admitted);
        assert_eq!(single.packets_delivered, split.packets_delivered);
        assert_eq!(single.physical_drops(), split.physical_drops());
        assert_eq!(single.tunnels_out, 0);
        assert!(split.tunnels_out > 0, "a 6-hop split path tunnels");
        assert_eq!(split.tunnels_out, split.tunnels_in);
    }

    /// Three clients over two stub routers with power-of-two link latencies
    /// (unique shortest paths): `a-r1-b` is the fast a↔b route, `r2` the
    /// detour that also serves `c`.
    fn detour_topology() -> (
        mn_topology::Topology,
        [NodeId; 3], // a, b, c
        [NodeId; 2], // r1, r2
    ) {
        use mn_topology::{LinkAttrs, NodeKind, Topology};
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        let c = topo.add_node(NodeKind::Client);
        let r1 = topo.add_node(NodeKind::Stub);
        let r2 = topo.add_node(NodeKind::Stub);
        let link = |ms: u64| LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(ms));
        // Latencies chosen so every shortest path is unique and `c`'s
        // routes to both `a` and `b` go straight over `r2`, never touching
        // the `a-r1` link the test fails.
        topo.add_link(a, r1, link(1)).unwrap();
        topo.add_link(r1, b, link(2)).unwrap();
        topo.add_link(a, r2, link(4)).unwrap();
        topo.add_link(r2, b, link(5)).unwrap();
        topo.add_link(c, r2, link(16)).unwrap();
        (topo, [a, b, c], [r1, r2])
    }

    #[test]
    fn reroute_preserves_untouched_and_inflight_route_ids() {
        // The incremental path behind runtime reconfiguration: failing one
        // link must (1) leave every unaffected pair's RouteId untouched,
        // (2) let descriptors already in flight finish on their pre-failure
        // route, and (3) steer packets submitted afterwards around the
        // failure.
        let (topo, [a, b, c], [r1, _r2]) = detour_topology();
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(1, 1));
        let mut emu =
            Emulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 1);
        let vn = |node| binding.vn_at(node).unwrap();
        let pair_id = |emu: &Emulator, x: VnId, y: VnId| {
            emu.route_table().route_id(x.index(), y.index()).unwrap()
        };
        let ab_before = pair_id(&emu, vn(a), vn(b));
        let cb_before = pair_id(&emu, vn(c), vn(b));
        let ca_before = pair_id(&emu, vn(c), vn(a));
        // One packet in flight on the fast a->b route.
        let t0 = SimTime::ZERO;
        assert!(emu
            .submit(t0, tcp_packet(1, vn(a), vn(b), 1000, t0))
            .unwrap()
            .is_accepted());
        // Fail a-r1 in both directions and reroute incrementally.
        let down = [d.find_pipe(a, r1).unwrap(), d.find_pipe(r1, a).unwrap()];
        for p in down {
            d.pipe_attrs_mut(p).unwrap().bandwidth = DataRate::ZERO;
        }
        let update = emu.reroute(&d, &down);
        assert!(update.recomputed_sources >= 1);
        // (1) pairs not using the failed link keep their exact RouteId.
        assert_eq!(pair_id(&emu, vn(c), vn(b)), cb_before);
        assert_eq!(pair_id(&emu, vn(c), vn(a)), ca_before);
        // (3) the a->b pair is rewired to the detour.
        let ab_after = pair_id(&emu, vn(a), vn(b));
        assert_ne!(ab_after, ab_before);
        let detour = emu.route_table().pipes(ab_after).to_vec();
        assert!(!detour.contains(&down[0]) && !detour.contains(&down[1]));
        // (2) the in-flight packet drains over its pre-failure route: the
        // retained RouteId still resolves, and the delivery shows the fast
        // path's 3 ms propagation, not the 12 ms detour.
        let deliveries = run_until_idle(&mut emu, t0);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].hops, 2);
        let delay = deliveries[0].core_delay();
        assert!(
            delay < SimDuration::from_millis(6),
            "drained old route: {delay}"
        );
        // New traffic takes the detour end to end.
        let t1 = SimTime::from_millis(50);
        assert!(emu
            .submit(t1, tcp_packet(2, vn(a), vn(b), 1000, t1))
            .unwrap()
            .is_accepted());
        let deliveries = run_until_idle(&mut emu, t1);
        assert_eq!(deliveries.len(), 1);
        let delay = deliveries[0].core_delay();
        assert!(
            delay >= SimDuration::from_millis(9),
            "detour latency: {delay}"
        );
    }

    #[test]
    fn cbr_cross_traffic_contends_for_bandwidth_and_queue() {
        // A 10 Mb/s hop carrying an 8 Mb/s foreground stream fits; with a
        // 5 Mb/s CBR episode on the pipe the aggregate exceeds capacity, so
        // the foreground stream must lose packets to queue overflow.
        let run = |cbr: bool| {
            let (mut emu, src, dst) = single_path(1, 1);
            if cbr {
                assert!(emu.set_pipe_compensation(
                    mn_distill::PipeId(0),
                    Some(DataRate::from_mbps(5)),
                    SimTime::ZERO,
                ));
            }
            let mut accepted = 0u64;
            let horizon = SimTime::from_secs(2);
            let mut now = SimTime::ZERO;
            let mut id = 0u64;
            while now < horizon {
                // 1000-byte packets every millisecond = 8 Mb/s offered.
                let pkt = tcp_packet(id, src, dst, 960, now);
                if emu.submit(now, pkt).unwrap().is_accepted() {
                    accepted += 1;
                }
                id += 1;
                now += SimDuration::from_millis(1);
                let _ = emu.advance(now);
            }
            // Drain the queues (bounded: the episode's fluid epochs keep the
            // emulator non-idle).
            let _ = emu.advance(horizon + SimDuration::from_secs(1));
            (accepted, id, emu.total_stats())
        };
        let (clean_accepted, offered, clean_stats) = run(false);
        assert_eq!(clean_accepted, offered, "8 Mb/s fits a 10 Mb/s pipe");
        assert_eq!(clean_stats.fluid_modelled_bytes, 0);
        let (loaded_accepted, offered, loaded_stats) = run(true);
        assert_eq!(
            loaded_stats.fluid_modelled_bytes, 1_875_000,
            "5 Mb/s of CBR for 3 s"
        );
        assert!(
            loaded_accepted < offered,
            "13 Mb/s aggregate must overflow the 10 Mb/s queue"
        );
        // Background packets never surface as deliveries.
        assert_eq!(loaded_stats.packets_delivered, loaded_accepted);
    }

    #[test]
    fn cbr_injector_can_be_replaced_and_removed() {
        // An episode is its pipe's fluid demand: its bytes are modelled, at
        // the rate in force, and nothing else of it is kept.
        let (mut emu, _, _) = single_path(1, 1);
        let pipe = mn_distill::PipeId(0);
        let cbr = Some(DataRate::from_mbps(2));
        assert!(emu.set_pipe_compensation(pipe, cbr, SimTime::ZERO));
        let modelled = |emu: &Emulator| emu.total_stats().fluid_modelled_bytes;
        let _ = emu.advance(SimTime::from_millis(100));
        assert_eq!(modelled(&emu), 25_000, "2 Mb/s for 100 ms");
        // Replacing halves the rate without stacking a second demand on the
        // pipe.
        let slower = Some(DataRate::from_mbps(1));
        assert!(emu.set_pipe_compensation(pipe, slower, SimTime::from_millis(100)));
        let _ = emu.advance(SimTime::from_millis(200));
        assert_eq!(modelled(&emu), 37_500, "then 1 Mb/s for 100 ms");
        assert_eq!(emu.fluid().flow_count(), 1);
        assert!(emu.set_pipe_compensation(pipe, None, SimTime::from_millis(200)));
        let _ = emu.advance(SimTime::from_millis(300));
        assert_eq!(modelled(&emu), 37_500, "removed: nothing more");
        assert_eq!((emu.fluid().flow_count(), emu.next_wakeup()), (0, None));
        // Unknown pipes are rejected.
        assert!(!emu.set_pipe_compensation(mn_distill::PipeId(999), cbr, SimTime::ZERO));
    }

    /// An episode wakes the emulator only to re-solve the fair share: with
    /// nothing else to do, every wakeup is on the fluid epoch grid.
    #[test]
    fn a_cbr_episode_alone_wakes_the_emulator_on_the_fluid_epoch_grid() {
        let (mut emu, _, _) = single_path(1, 1);
        let cbr = Some(DataRate::from_mbps(2));
        let from = SimTime::from_millis(1);
        assert!(emu.set_pipe_compensation(mn_distill::PipeId(0), cbr, from));
        for epoch in 1..=3 {
            let due = from + crate::fluid::DEFAULT_FLUID_EPOCH * epoch;
            assert_eq!(emu.next_wakeup(), Some(due));
            assert!(emu.advance(due).unwrap().is_empty());
        }
    }

    #[test]
    fn payload_caching_reduces_tunnel_bytes() {
        let run = |caching: bool| {
            let (topo, pairs) = path_pairs_topology(&PathPairsParams {
                pairs: 1,
                hops: 4,
                ..PathPairsParams::default()
            });
            let d = distill(&topo, DistillationMode::HopByHop);
            let matrix = RoutingMatrix::build(&d);
            let binding = Binding::bind(d.vns(), &BindingParams::new(2, 2));
            let pod = greedy_k_clusters(&d, 2, 3);
            let mut profile = HardwareProfile::unconstrained();
            profile.payload_caching = caching;
            let mut emu = Emulator::new(&d, pod, matrix, &binding, profile, 1);
            let src = binding.vn_at(pairs[0].0).unwrap();
            let dst = binding.vn_at(pairs[0].1).unwrap();
            for i in 0..20 {
                let t = SimTime::from_micros(i * 1300);
                emu.submit(t, tcp_packet(i, src, dst, 1460, t)).unwrap();
            }
            let _ = run_until_idle(&mut emu, SimTime::ZERO);
            emu.total_stats()
        };
        let without = run(false);
        let with = run(true);
        assert_eq!(without.packets_delivered, 20);
        assert_eq!(with.packets_delivered, 20);
        if without.tunnels_out > 0 {
            assert!(with.bytes_out < without.bytes_out);
        }
    }

    /// One 4-hop path on one core, for the failed-link tests: the emulator,
    /// the hop-`failed_hop` pipe of the only route with its bandwidth already
    /// zeroed in the returned attributes, and the route's end VNs.
    fn path4_with_failed_hop(failed_hop: usize) -> (Emulator, PipeId, PipeAttrs, VnId, VnId) {
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 4,
            bandwidth: DataRate::from_mbps(10),
            end_to_end_latency: SimDuration::from_millis(10),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let pod = greedy_k_clusters(&d, 1, 7);
        let pipe = matrix.lookup(pairs[0].0, pairs[0].1).unwrap().pipes[failed_hop];
        let emu = Emulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        // Zero bandwidth is exactly how the dynamics engine's NodeDown
        // handler configures the pipes incident to a failed node.
        let mut failed = d.pipe(pipe).attrs;
        failed.bandwidth = DataRate::ZERO;
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        (emu, pipe, failed, src, dst)
    }

    #[test]
    fn descriptors_toward_a_downed_node_are_counted_not_stranded() {
        let (mut emu, third_hop, failed, src, dst) = path4_with_failed_hop(2);
        let now = SimTime::ZERO;
        for i in 0..5 {
            assert!(emu
                .submit(now, tcp_packet(i, src, dst, 1460, now))
                .unwrap()
                .is_accepted());
        }
        // A node on the route fails while all five descriptors are still on
        // earlier hops: its incident pipe drops to zero bandwidth.
        assert!(emu.update_pipe_attrs(third_hop, failed));
        let deliveries = run_until_idle(&mut emu, now);
        // Nothing strands and nothing vanishes: every admitted packet is
        // accounted as an unreachable drop at the failed hop.
        assert!(deliveries.is_empty());
        let stats = emu.total_stats();
        assert_eq!(stats.packets_admitted, 5);
        assert_eq!(stats.dropped_unreachable, 5);
        assert_eq!(
            stats.packets_admitted,
            stats.packets_delivered + stats.dropped_unreachable + stats.physical_drops()
        );
        assert_eq!(emu.cores()[0].in_flight(), 0, "no descriptor strands");
    }

    #[test]
    fn a_failed_first_hop_is_unreachable_like_every_later_hop() {
        let (mut emu, first_hop, failed, src, dst) = path4_with_failed_hop(0);
        // The sender's access link is down before anything is submitted.
        assert!(emu.update_pipe_attrs(first_hop, failed));
        let now = SimTime::ZERO;
        for i in 0..5 {
            assert_eq!(
                emu.submit(now, tcp_packet(i, src, dst, 1460, now)).unwrap(),
                SubmitOutcome::VirtualDrop
            );
        }
        assert!(run_until_idle(&mut emu, now).is_empty());
        // Unreachability, not congestion: the core counts the packets and
        // the failed pipe never sees them.
        let stats = emu.total_stats();
        assert_eq!(stats.packets_admitted, 5);
        assert_eq!(stats.dropped_unreachable, 5);
        let core = &emu.cores()[0];
        assert_eq!(core.pipe_stats(first_hop).unwrap().dropped_overflow, 0);
        assert_eq!(
            stats.packets_admitted,
            stats.packets_delivered
                + stats.dropped_unreachable
                + core.pipe_stats_total().dropped_total()
                + stats.physical_drops()
        );
        assert_eq!(core.in_flight(), 0);
    }

    #[test]
    fn vn_leave_drains_in_flight_and_refuses_new_traffic() {
        let (mut emu, src, dst) = single_path(8, 2);
        let now = SimTime::ZERO;
        for i in 0..10 {
            assert!(emu
                .submit(now, tcp_packet(i, src, dst, 1460, now))
                .unwrap()
                .is_accepted());
        }
        // The receiver departs with ten descriptors still in flight.
        assert!(emu.vn_leave(dst, now));
        assert!(!emu.vn_is_active(dst));
        assert!(emu.vn_is_active(src));
        assert_eq!(emu.active_vn_count(), 1);
        // New traffic touching the departed VN is refused pre-NIC...
        assert_eq!(
            emu.submit(now, tcp_packet(99, src, dst, 100, now)).unwrap(),
            SubmitOutcome::NoRoute
        );
        assert_eq!(
            emu.submit(now, tcp_packet(99, dst, src, 100, now)).unwrap(),
            SubmitOutcome::NoRoute
        );
        // ...but the pre-departure descriptors drain to delivery on their
        // retained route ids, tunnels included.
        let deliveries = run_until_idle(&mut emu, now);
        assert_eq!(deliveries.len(), 10);
        let stats = emu.total_stats();
        assert_eq!(stats.packets_delivered, 10);
        assert!(stats.tunnels_out > 0, "8 hops over 2 cores must tunnel");
        // Leaving twice is refused and changes nothing.
        assert!(!emu.vn_leave(dst, now));
    }

    #[test]
    fn vn_rejoin_restores_connectivity_and_recycles_the_source_tree() {
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 4,
            bandwidth: DataRate::from_mbps(10),
            end_to_end_latency: SimDuration::from_millis(10),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let pod = greedy_k_clusters(&d, 1, 7);
        let mut emu = Emulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        let src = binding.vn_at(pairs[0].0).unwrap();
        let dst = binding.vn_at(pairs[0].1).unwrap();
        let now = SimTime::ZERO;
        let live = emu.routing().live_source_count();
        assert!(emu.vn_leave(dst, now));
        // dst was the only endpoint at its location, so its source tree is
        // retired with it — O(component), no rebuild of anyone else's state.
        assert_eq!(emu.routing().live_source_count(), live - 1);
        assert_eq!(
            emu.submit(now, tcp_packet(1, src, dst, 100, now)).unwrap(),
            SubmitOutcome::NoRoute
        );
        // Rejoining re-grows the tree and re-derives the location's row.
        assert!(emu.vn_join(&d, dst, pairs[0].1, now));
        assert!(emu.vn_is_active(dst));
        assert_eq!(emu.routing().live_source_count(), live);
        assert!(emu
            .submit(now, tcp_packet(2, src, dst, 1460, now))
            .unwrap()
            .is_accepted());
        let deliveries = run_until_idle(&mut emu, now);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].hops, 4);
        // Refused churn: already-active id, gap id, unknown location.
        assert!(!emu.vn_join(&d, dst, pairs[0].1, now));
        assert!(!emu.vn_join(&d, VnId(999), pairs[0].1, now));
        assert!(!emu.vn_join(&d, VnId(2), NodeId(usize::MAX), now));
    }

    #[test]
    fn fresh_vn_joins_alongside_a_sibling_on_the_least_loaded_core() {
        let topo = star_topology(&StarParams {
            clients: 4,
            spoke_bandwidth: DataRate::from_mbps(10),
            spoke_latency: SimDuration::from_millis(5),
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 2));
        let pod = greedy_k_clusters(&d, 2, 7);
        let mut emu = Emulator::new(
            &d,
            pod,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            3,
        );
        let now = SimTime::ZERO;
        assert_eq!(emu.active_vn_count(), 4);
        // Seed entry loads are 2/2; a departure tilts them to 2/1.
        assert!(emu.vn_leave(VnId(3), now));
        // The newcomer multiplexes onto VN 0's client node (reading its
        // location's row) and must enter through the now least-loaded core 1.
        let newcomer = VnId(4);
        let sibling_loc = emu.vn_location(VnId(0)).unwrap();
        assert!(emu.vn_join(&d, newcomer, sibling_loc, now));
        assert_eq!(emu.vn_entry_core(newcomer), Some(CoreId(1)));
        assert_eq!(emu.vn_location(newcomer), Some(sibling_loc));
        assert_eq!(emu.active_vn_count(), 4);
        // Traffic to and from the newcomer flows like any seed VN's.
        assert!(emu
            .submit(now, tcp_packet(1, newcomer, VnId(1), 1000, now))
            .unwrap()
            .is_accepted());
        assert!(emu
            .submit(now, tcp_packet(2, VnId(2), newcomer, 1000, now))
            .unwrap()
            .is_accepted());
        let deliveries = run_until_idle(&mut emu, now);
        assert_eq!(deliveries.len(), 2);
        assert!(deliveries.iter().all(|d| d.hops == 2));
    }
}
