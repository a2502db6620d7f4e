//! Fault injection: watch TCP goodput react to a scheduled mid-run
//! degradation of a dumbbell's bottleneck and its restore.
//!
//! Run with: `cargo run --release --example fault_injection`

use mn_distill::{PipeAttrs, PipeId};
use mn_topology::generators::{dumbbell_topology, DumbbellParams};
use modelnet::{distill, DataRate, DistillationMode, Experiment, Schedule, SimTime};

fn main() {
    let (topo, left, right) = dumbbell_topology(&DumbbellParams::default());
    // The bottleneck is the first link of the dumbbell (pipes 0 and 1): a
    // schedule degrades it to 1 Mb/s at t=8s and restores it at t=16s.
    let bottleneck = PipeId(0);
    let original = distill(&topo, DistillationMode::HopByHop)
        .pipe(bottleneck)
        .attrs;
    let degraded = PipeAttrs {
        bandwidth: DataRate::from_mbps(1),
        ..original
    };
    let schedule = Schedule::new()
        .set_pipe(SimTime::from_secs(8), bottleneck, degraded)
        .link_up(SimTime::from_secs(16), bottleneck);
    let mut runner = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(2)
        .unconstrained_hardware()
        .seed(5)
        .with_schedule(schedule)
        .build()
        .expect("experiment builds");
    let binding = runner.binding().clone();
    let src = binding.vn_at(left[0]).unwrap();
    let dst = binding.vn_at(right[0]).unwrap();
    let flow = runner.add_bulk_flow(src, dst, None, SimTime::ZERO);

    let mut last_acked = 0;
    for step in 1..=12u64 {
        let t = step * 2;
        runner.run_until(SimTime::from_secs(t)).unwrap();
        if t == 8 {
            println!("-- degraded the bottleneck to 1 Mb/s --");
        }
        if t == 16 {
            println!("-- restored the bottleneck to 10 Mb/s --");
        }
        let acked = runner.flow_bytes_acked(flow);
        let rate_mbps = (acked - last_acked) as f64 * 8.0 / 2.0 / 1e6;
        last_acked = acked;
        println!("t={t:>3}s goodput over last 2s: {rate_mbps:>5.2} Mb/s");
    }
}
