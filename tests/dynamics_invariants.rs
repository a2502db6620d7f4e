//! Property suite for the runtime reconfiguration machinery.
//!
//! Two invariants anchor the incremental re-routing design:
//!
//! 1. **Incremental ≡ from-scratch.** However a random schedule of link
//!    flaps (failures, restores, latency renegotiations) is applied, the
//!    incrementally maintained routing matrix must equal a from-scratch
//!    rebuild of the mutated pipe graph — route for route, pair for pair.
//!    The generator's power-of-two link latencies make every shortest path
//!    unique, so equality is exact rather than up-to-tie-breaking.
//! 2. **Down links carry no new traffic.** While a pipe is failed, nothing
//!    new may *enter* it: packets submitted during the outage are routed
//!    around it (or refused), and only descriptors that were already
//!    inside the pipe when it failed drain out — the paper's semantics,
//!    where packets inside a core finish on pre-failure state. Pinned via
//!    the pipe's own enqueue counters.

mod common;

use proptest::prelude::*;

use common::arb_unique_path_topology;
use mn_assign::{Binding, BindingParams};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeId};
use mn_dynamics::{Schedule, ScheduleEngine};
use mn_emucore::{Emulator, HardwareProfile};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::{RouteTable, RoutingMatrix};
use mn_util::{DataRate, SimDuration, SimTime};
use modelnet::Reconfigure;

fn udp_packet(id: u64, src: VnId, dst: VnId, now: SimTime) -> Packet {
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
            payload_len: 400,
            seq: id,
        },
        now,
    )
}

/// One random perturbation of a duplex link.
#[derive(Debug, Clone, Copy)]
enum Flap {
    Down,
    Restore,
    SlowerLatency,
}

fn arb_flap() -> impl Strategy<Value = Flap> {
    prop_oneof![
        Just(Flap::Down),
        Just(Flap::Restore),
        Just(Flap::SlowerLatency),
    ]
}

/// Applies `flap` to both directions of the `link_choice`-th duplex link,
/// returning the mutated pipes.
fn apply_flap(
    d: &mut DistilledTopology,
    original: &[mn_distill::PipeAttrs],
    link_choice: usize,
    flap: Flap,
) -> Vec<PipeId> {
    // Hop-by-hop distillation adds duplex pairs back to back: pipes 2k and
    // 2k+1 are the two directions of target link k.
    let links = d.pipe_count() / 2;
    let k = link_choice % links;
    let pipes = vec![PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
    for &p in &pipes {
        let attrs = d.pipe_attrs_mut(p).expect("pipe exists");
        match flap {
            Flap::Down => attrs.bandwidth = DataRate::ZERO,
            Flap::Restore => *attrs = original[p.index()],
            Flap::SlowerLatency => attrs.latency = attrs.latency * 2,
        }
    }
    pipes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random flap schedules ⇒ the incrementally updated matrix equals a
    /// from-scratch recomputation after every step, and the emulator's
    /// incrementally re-wired route table resolves every pair to the same
    /// pipe sequence a freshly built table would.
    #[test]
    fn incremental_rerouting_equals_scratch_recomputation(
        topo in arb_unique_path_topology(Just(0.0)),
        flaps in prop::collection::vec((any::<usize>(), arb_flap()), 1..12),
    ) {
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let original: Vec<_> = d.pipes().map(|(_, p)| p.attrs).collect();
        let mut matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let mut emu = Emulator::single_core(
            &d,
            matrix.clone(),
            &binding,
            HardwareProfile::unconstrained(),
            1,
        );
        let locations: Vec<_> = binding
            .vns()
            .map(|vn| binding.location(vn).unwrap())
            .collect();
        for (choice, flap) in flaps {
            let changed = apply_flap(&mut d, &original, choice, flap);
            let update = matrix.update_pipes(&d, &changed);
            let emu_update = emu.reroute(&d, &changed);
            prop_assert_eq!(&update.changed_pairs, &emu_update.changed_pairs);
            // 1. Matrix: incremental == scratch, pair for pair.
            let scratch = RoutingMatrix::build(&d);
            for &a in matrix.vns() {
                for &b in matrix.vns() {
                    prop_assert_eq!(
                        matrix.lookup(a, b), scratch.lookup(a, b),
                        "{} -> {} diverged after {:?}", a, b, flap
                    );
                }
            }
            // 2. Route table: every pair resolves to the same pipe
            //    sequence as a table built from scratch (ids may differ —
            //    the incremental table retains history).
            let fresh = RouteTable::build(&scratch, &locations);
            let table = emu.route_table();
            for s in 0..locations.len() {
                for t in 0..locations.len() {
                    let incremental = table.route_id(s, t).map(|id| table.pipes(id));
                    let rebuilt = fresh.route_id(s, t).map(|id| fresh.pipes(id));
                    prop_assert_eq!(incremental, rebuilt, "pair ({}, {})", s, t);
                }
            }
        }
    }

    /// While a link is down, no new descriptor enters its pipes: the
    /// pipes' enqueue counters freeze for the whole outage (in-flight
    /// packets may still drain out), and traffic submitted during the
    /// outage is steered around or refused.
    #[test]
    fn down_links_accept_no_new_descriptors(
        topo in arb_unique_path_topology(Just(0.0)),
        link_choice in any::<usize>(),
        submits in prop::collection::vec((0usize..64, 0usize..64), 8..40),
    ) {
        let d = distill(&topo, DistillationMode::HopByHop);
        let matrix = RoutingMatrix::build(&d);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 1));
        let seq = Emulator::single_core(
            &d,
            matrix,
            &binding,
            HardwareProfile::unconstrained(),
            9,
        );
        let mut backend = seq;
        let vns: Vec<VnId> = binding.vns().collect();
        let links = d.pipe_count() / 2;
        let k = link_choice % links;
        let victims = [PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
        let down_at = SimTime::from_millis(40);
        let up_at = SimTime::from_millis(80);
        let schedule = Schedule::new()
            .duplex_down(down_at, victims[0], victims[1])
            .duplex_up(up_at, victims[0], victims[1]);
        let mut engine = ScheduleEngine::new(d.clone(), schedule);

        let enqueued_on = |backend: &Emulator, pipe: PipeId| -> u64 {
            backend
                .cores()
                .iter()
                .find_map(|core| core.pipe_stats(pipe))
                .map_or(0, |s| s.enqueued)
        };

        // Phase A: pre-failure traffic (may use the victim link).
        let mut id = 0u64;
        let mut deliveries = Vec::new();
        let mut drive = |backend: &mut Emulator,
                         window: (u64, u64),
                         id: &mut u64| {
            for (i, &(s, t)) in submits.iter().enumerate() {
                let at = SimTime::from_millis(window.0)
                    + SimDuration::from_micros((window.1 - window.0) * 1000 * i as u64
                        / submits.len() as u64);
                let src = vns[s % vns.len()];
                let dst = vns[t % vns.len()];
                let _ = backend.submit(at, udp_packet(*id, src, dst, at));
                *id += 1;
                deliveries.clear();
                backend.advance_into(at, &mut deliveries).unwrap();
            }
        };
        drive(&mut backend, (0, 40), &mut id);
        // The failure.
        let applied = engine.apply_due(down_at, &mut Reconfigure(&mut backend));
        prop_assert!(applied.reroute.is_some());
        let frozen: Vec<u64> = victims
            .iter()
            .map(|&p| enqueued_on(&backend, p))
            .collect();
        // Phase B: traffic during the outage.
        drive(&mut backend, (40, 80), &mut id);
        for (&p, &before) in victims.iter().zip(&frozen) {
            prop_assert_eq!(
                enqueued_on(&backend, p),
                before,
                "pipe {} accepted a descriptor while down", p
            );
        }
        // Recovery: traffic flows over the link again eventually.
        let _ = engine.apply_due(up_at, &mut Reconfigure(&mut backend));
        prop_assert!(engine.finished());
        drive(&mut backend, (80, 120), &mut id);
        // Drain everything still in flight (loss-free links, no CBR: the
        // emulator goes idle).
        let mut now = SimTime::from_millis(120);
        for _ in 0..100_000 {
            let Some(t) = backend.next_wakeup() else { break };
            now = now.max(t);
            deliveries.clear();
            backend.advance_into(now, &mut deliveries).unwrap();
        }
        prop_assert_eq!(backend.next_wakeup(), None);
    }
}
