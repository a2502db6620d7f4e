//! Flash crowd: a million bulk clients modelled at flow level, one
//! packet-accurate foreground transfer riding the residual.
//!
//! The hybrid model's division of labour in one scene: a server behind a
//! 10 Mb/s access spoke serves a long-running TCP download (packet-level,
//! full transport fidelity) while a flash crowd of 1 048 576 bulk clients —
//! 32 fluid flows of 32 768 modelled clients each — arrives, swells past
//! the spoke's capacity, and departs. The crowd is a rate process solved
//! by weighted max-min fair share at each epoch; its share of every pipe
//! shows up to the foreground's packets as consumed capacity, so the
//! download's goodput tracks the residual bandwidth phase by phase without
//! a single crowd packet being scheduled.
//!
//! Run with: `cargo run --release --example flash_crowd`

use mn_topology::generators::{star_topology, StarParams};
use modelnet::{DataRate, DistillationMode, Experiment, SimDuration, SimTime};

/// Fluid flows standing in for the crowd.
const CROWD_FLOWS: u64 = 32;
/// Modelled clients behind each flow (32 × 32 768 = 1 048 576).
const CLIENTS_PER_FLOW: u32 = 32_768;
/// Virtual seconds per phase.
const PHASE_SECS: u64 = 4;

fn main() {
    // 40 clients on the default 10 Mb/s, 5 ms spokes: one server, one
    // foreground client, 32 crowd sources.
    let topology = star_topology(&StarParams {
        clients: 40,
        ..StarParams::default()
    });
    let mut runner = Experiment::new(topology)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(4)
        .unconstrained_hardware()
        .seed(7)
        .build()
        .expect("experiment builds");
    let vns = runner.vn_ids();
    let (server, fg_client) = (vns[0], vns[1]);
    let crowd_src = |i: u64| vns[2 + i as usize];

    // The packet-accurate foreground: an unbounded netperf-style TCP
    // download running for the whole experiment.
    let flow = runner.add_bulk_flow(fg_client, server, None, SimTime::ZERO);

    let mut acked_at_phase_start = 0u64;
    let mut phase = |runner: &mut modelnet::Runner, label: &str| {
        runner.run_for(SimDuration::from_secs(PHASE_SECS)).unwrap();
        let acked = runner.flow_bytes_acked(flow);
        let fg_mbps = (acked - acked_at_phase_start) as f64 * 8.0 / (PHASE_SECS as f64 * 1e6);
        acked_at_phase_start = acked;
        let crowd_bps: u64 = (0..CROWD_FLOWS)
            .filter_map(|tag| runner.emulator().fluid_flow_rate(tag))
            .map(|r| r.as_bps())
            .sum();
        println!(
            "{label:<28} foreground {fg_mbps:>5.2} Mb/s   crowd share {:>5.2} Mb/s   \
             modelled clients {:>7}",
            crowd_bps as f64 / 1e6,
            runner.emulator().fluid().modelled_clients(),
        );
    };

    phase(&mut runner, "baseline (no crowd)");

    // The crowd arrives: 6.4 Mb/s aggregate offered against the server's
    // 10 Mb/s spoke — the foreground keeps the 3.6 Mb/s residual. Flows
    // change at the runner's clock; the next run picks the change up.
    let now = runner.now();
    let crowd = runner.backend_mut();
    for tag in 0..CROWD_FLOWS {
        let rate = DataRate::from_kbps(200);
        assert!(crowd.add_fluid_flow(tag, crowd_src(tag), server, rate, CLIENTS_PER_FLOW, now));
    }
    phase(&mut runner, "crowd arrives (6.4 Mb/s)");

    // The crowd swells to 9 Mb/s offered; the download is squeezed to the
    // ~1 Mb/s residual but stays packet-accurate throughout.
    let now = runner.now();
    let crowd = runner.backend_mut();
    for tag in 0..CROWD_FLOWS {
        assert!(crowd.resize_fluid_flow(tag, DataRate::from_kbps(280), CLIENTS_PER_FLOW, now));
    }
    phase(&mut runner, "crowd swells (9 Mb/s)");

    // The crowd drains; the residual — and the download — recover.
    let now = runner.now();
    let crowd = runner.backend_mut();
    for tag in 0..CROWD_FLOWS {
        assert!(crowd.remove_fluid_flow(tag, now));
    }
    phase(&mut runner, "crowd departs");

    // The event economy: the crowd moved gigabytes without one scheduled
    // packet — only the foreground paid per-packet cost.
    let stats = runner.emulator().total_stats();
    println!(
        "\ncrowd traffic modelled at flow level: {:.1} MB across the pipes it crossed \
         (~{} MTU packets a pure-packet run would have scheduled)",
        stats.fluid_modelled_bytes as f64 / 1e6,
        stats.fluid_modelled_bytes / 1_500,
    );
    println!(
        "packets actually scheduled: {} admitted, {} delivered — all foreground",
        stats.packets_admitted, stats.packets_delivered
    );
}
