//! Hybrid fluid/packet fast path: flash-crowd throughput vs. pure packet.
//!
//! The hybrid model's reason to exist is scale: a flash crowd of a million
//! bulk clients is far beyond what per-packet emulation can schedule, but
//! as fluid flows it costs one fair-share solve per rate epoch regardless
//! of how many packets the modelled traffic stands for. This bench pins
//! that claim with two measured runs on the same 10 Gb/s star:
//!
//! * `packet_events_per_sec` — a pure-packet run: UDP foreground pumped
//!   through the warmed single-core emulator, drained to idle. Events are
//!   pipe transits (each delivered packet crosses two spokes); the rate is
//!   events per second of *host* time — the hardware-limited ceiling the
//!   paper's Figure 4 measures.
//! * `hybrid_events_per_sec` — the same emulator with 64 fluid flows
//!   standing in for 1 048 576 bulk clients (16 384 each) saturating
//!   disjoint spoke pairs, plus the same style of packet foreground on
//!   VNs the crowd does not touch. Events are the foreground's pipe
//!   transits plus the *equivalent* transits of the modelled traffic:
//!   `fluid_modelled_bytes` (already integrated per pipe crossed) divided
//!   by an MTU-sized packet — the packets a pure-packet run would have had
//!   to schedule to carry the same bytes.
//!
//! `shape_holds` in `BENCH_fluid.json` asserts the ISSUE's acceptance
//! criteria: the hybrid run models **≥ 1M clients** and sustains an
//! equivalent event rate **≥ 50×** the pure-packet rate. The bit-identity
//! and zero-allocation halves of the acceptance bar live in
//! `tests/differential.rs` and `tests/steady_state_alloc.rs`.

use std::time::Instant;

use mn_assign::{Binding, BindingParams};
use mn_distill::{distill, DistillationMode};
use mn_emucore::{HardwareProfile, MultiCoreEmulator};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{star_topology, StarParams};
use mn_util::{DataRate, SimDuration, SimTime};

/// Star clients: 64 disjoint crowd pairs plus a packet-only foreground set.
const CLIENTS: usize = 160;
/// VNs `[0, 64)` send to `[64, 128)` as the crowd; `[128, 160)` carry the
/// packet foreground in both runs.
const CROWD_PAIRS: usize = 64;
/// Modelled clients behind each fluid flow (64 × 16 384 = 1 048 576 total).
const CLIENTS_PER_FLOW: u32 = 16_384;
/// Aggregate demand per crowd flow: 9 of the spoke's 10 Gb/s, leaving the
/// packet path a measurable residual even where a crowd flow is present.
const FLOW_DEMAND_GBPS: u64 = 9;
/// Foreground submissions per measured run.
const FOREGROUND_PACKETS: u64 = 100_000;
/// Foreground submit cadence (one packet per 20 µs of virtual time).
const CADENCE_NS: u64 = 20_000;
/// Pipe transits per delivered packet on the star (two spokes).
const HOPS: u64 = 2;
/// The pure-packet equivalent of one modelled MTU of fluid bytes.
const MTU_BYTES: u64 = 1_500;
/// Acceptance: hybrid equivalent event rate vs. pure packet.
const SPEEDUP_BOUND: f64 = 50.0;
/// Acceptance: modelled flash-crowd size.
const CLIENT_BOUND: u64 = 1_000_000;

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
            payload_len: 1000,
            seq: id,
        },
        now,
    )
}

fn build_emulator() -> (MultiCoreEmulator, Vec<VnId>) {
    let topo = star_topology(&StarParams {
        clients: CLIENTS,
        spoke_bandwidth: DataRate::from_gbps(10),
        ..StarParams::default()
    });
    let d = distill(&topo, DistillationMode::HopByHop);
    let matrix = RoutingMatrix::build(&d);
    let binding = Binding::bind(d.vns(), &BindingParams::new(4, 1));
    let vns: Vec<VnId> = d
        .vns()
        .iter()
        .map(|&n| binding.vn_at(n).expect("client bound"))
        .collect();
    let emu =
        MultiCoreEmulator::single_core(&d, matrix, &binding, HardwareProfile::unconstrained(), 7);
    (emu, vns)
}

/// Pumps the packet foreground over VNs `[128, 160)` — `FOREGROUND_PACKETS`
/// submissions on the virtual cadence from `from`, advancing every 8 — then
/// drains to quiescence in fixed 10 ms virtual steps (a wakeup chase would
/// never terminate while fluid epochs recur). Virtual time is monotonic
/// across runs on a warm emulator, so the drained end time is returned for
/// the next run along with delivered packets and wall seconds.
fn run_foreground(emu: &mut MultiCoreEmulator, vns: &[VnId], from: SimTime) -> (u64, f64, SimTime) {
    let fg = &vns[CROWD_PAIRS * 2..];
    let mut deliveries = Vec::new();
    let mut delivered = 0u64;
    let start = Instant::now();
    let mut now = from;
    for i in 0..FOREGROUND_PACKETS {
        now = from + SimDuration::from_nanos(i * CADENCE_NS);
        let src = fg[i as usize % fg.len()];
        let dst = fg[(i as usize + 7) % fg.len()];
        let _ = emu.submit(now, udp_packet(i, src, dst, now));
        if i % 8 == 7 {
            deliveries.clear();
            emu.advance_into(now, &mut deliveries).unwrap();
            delivered += deliveries.len() as u64;
        }
    }
    for _ in 0..1_000 {
        if delivered == FOREGROUND_PACKETS {
            break;
        }
        now += SimDuration::from_millis(10);
        deliveries.clear();
        emu.advance_into(now, &mut deliveries).unwrap();
        delivered += deliveries.len() as u64;
    }
    (delivered, start.elapsed().as_secs_f64(), now)
}

fn main() {
    if criterion::invoked_as_test() {
        return;
    }

    // ---- Pure packet: the hardware-limited event-rate ceiling. ----
    let (mut emu, vns) = build_emulator();
    // Warm buffers outside the measured window, as the alloc guard does.
    let (warm, _, clock) = run_foreground(&mut emu, &vns, SimTime::ZERO);
    assert_eq!(warm, FOREGROUND_PACKETS, "warm-up must drain");
    let (delivered, packet_secs, _) = run_foreground(&mut emu, &vns, clock);
    assert_eq!(delivered, FOREGROUND_PACKETS, "no packet may vanish");
    let packet_events = delivered * HOPS;
    let packet_rate = packet_events as f64 / packet_secs;

    // ---- Hybrid: the same foreground over a million-client crowd. ----
    let (mut emu, vns) = build_emulator();
    for i in 0..CROWD_PAIRS {
        assert!(emu.add_fluid_flow(
            i as u64,
            vns[i],
            vns[CROWD_PAIRS + i],
            DataRate::from_gbps(FLOW_DEMAND_GBPS),
            CLIENTS_PER_FLOW,
            SimTime::ZERO,
        ));
    }
    let modelled_clients = emu.fluid().modelled_clients();
    let (warm, _, clock) = run_foreground(&mut emu, &vns, SimTime::ZERO);
    assert_eq!(warm, FOREGROUND_PACKETS, "warm-up must drain");
    let fluid_bytes_before = emu.total_stats().fluid_modelled_bytes;
    let (delivered, hybrid_secs, _) = run_foreground(&mut emu, &vns, clock);
    assert_eq!(
        delivered, FOREGROUND_PACKETS,
        "residual must carry the foreground"
    );
    let fluid_bytes = emu.total_stats().fluid_modelled_bytes - fluid_bytes_before;
    let hybrid_events = delivered * HOPS + fluid_bytes / MTU_BYTES;
    let hybrid_rate = hybrid_events as f64 / hybrid_secs;

    let speedup = hybrid_rate / packet_rate;
    let clients_ok = modelled_clients >= CLIENT_BOUND;
    let speedup_ok = speedup >= SPEEDUP_BOUND;
    println!(
        "pure packet: {packet_events} pipe transits in {packet_secs:.3} s \
         ({packet_rate:.3e} events/s)"
    );
    println!(
        "hybrid: {} foreground transits + {:.1} GiB fluid-modelled \
         ({} equivalent transits) in {hybrid_secs:.3} s ({hybrid_rate:.3e} events/s)",
        delivered * HOPS,
        fluid_bytes as f64 / (1u64 << 30) as f64,
        fluid_bytes / MTU_BYTES,
    );
    println!(
        "hybrid models {modelled_clients} bulk clients (wants >= {CLIENT_BOUND}) at \
         {speedup:.0}x the pure-packet event rate (wants >= {SPEEDUP_BOUND:.0}) — {}",
        if clients_ok && speedup_ok {
            "ok"
        } else {
            "UNDER TARGET"
        }
    );

    let shape_holds = clients_ok && speedup_ok;
    let report = mn_bench::report::Report::new("fluid", shape_holds)
        .with_series("packet_events_per_sec", vec![(1.0, packet_rate)])
        .with_series("hybrid_events_per_sec", vec![(1.0, hybrid_rate)])
        .with_series("speedup_x", vec![(1.0, speedup)])
        .with_series("modelled_clients", vec![(1.0, modelled_clients as f64)]);
    match report.write_json("BENCH_fluid") {
        Ok(path) => println!("bench report written to {path} (shape_holds: {shape_holds})"),
        Err(err) => eprintln!("could not write bench report: {err}"),
    }
}
