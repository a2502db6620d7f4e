//! Quickstart: emulate a small star network and run one TCP transfer.
//!
//! This walks the five ModelNet phases explicitly: a synthetic topology
//! (Create), hop-by-hop distillation (Distill), a single core (Assign), VNs
//! bound to two edge machines (Bind), and a 256 KB netperf-style transfer
//! between two VNs (Run).
//!
//! Run with: `cargo run --release --example quickstart`

use mn_topology::generators::{star_topology, StarParams};
use modelnet::{ByteSize, DistillationMode, Experiment, SimDuration, SimTime};

fn main() {
    // Create: 8 clients on 10 Mb/s, 5 ms spokes.
    let topology = star_topology(&StarParams {
        clients: 8,
        ..StarParams::default()
    });
    println!(
        "target topology: {} nodes, {} links",
        topology.node_count(),
        topology.link_count()
    );

    // Distill + Assign + Bind.
    let mut runner = Experiment::new(topology)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(2)
        .seed(42)
        .build()
        .expect("experiment builds");
    let vns = runner.vn_ids();
    println!(
        "bound {} VNs across {} edge nodes",
        vns.len(),
        runner.binding().edge_count()
    );

    // Run: one 256 KB transfer.
    let flow = runner.add_bulk_flow(vns[0], vns[1], Some(ByteSize::from_kb(256)), SimTime::ZERO);
    runner.run_for(SimDuration::from_secs(10)).unwrap();

    match runner.flow_completed_at(flow) {
        Some(done) => println!(
            "transfer completed at {done} ({:.1} kbit/s goodput over two 10 Mb/s hops)",
            runner.flow_goodput_kbps(flow)
        ),
        None => println!("transfer did not complete within 10 virtual seconds"),
    }
    let stats = runner.emulator().total_stats();
    println!(
        "core stats: {} packets admitted, {} delivered, {} physical drops",
        stats.packets_admitted,
        stats.packets_delivered,
        stats.physical_drops()
    );
    let accuracy = runner.emulator().cores()[0].accuracy();
    println!(
        "emulation accuracy: mean error {:.1} us over {} deliveries (max per-hop {:.1} us)",
        accuracy.mean_error_us(),
        accuracy.delivered(),
        accuracy.max_per_hop_error().as_micros_f64()
    );
}
