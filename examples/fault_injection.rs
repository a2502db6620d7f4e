//! Fault injection: watch TCP goodput react to a mid-run link failure and
//! recovery on a dumbbell topology.
//!
//! Run with: `cargo run --release --example fault_injection`

use mn_distill::PipeAttrs;
use mn_topology::generators::{dumbbell_topology, DumbbellParams};
use modelnet::{DataRate, DistillationMode, Experiment, SimDuration, SimTime};

fn main() {
    let (topo, left, right) = dumbbell_topology(&DumbbellParams::default());
    let (mut runner, distilled) = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(2)
        .unconstrained_hardware()
        .seed(5)
        .build_with_distilled()
        .expect("experiment builds");
    let binding = runner.binding().clone();
    let src = binding.vn_at(left[0]).unwrap();
    let dst = binding.vn_at(right[0]).unwrap();
    let flow = runner.add_bulk_flow(src, dst, None, SimTime::ZERO);

    // The bottleneck is the first link of the dumbbell (pipes 0 and 1).
    let bottleneck = mn_distill::PipeId(0);
    let original = distilled.pipe(bottleneck).attrs;

    let mut last_acked = 0;
    for step in 1..=12u64 {
        let t = step * 2;
        runner.run_until(SimTime::from_secs(t)).unwrap();
        if t == 8 {
            println!("-- degrading the bottleneck to 1 Mb/s --");
            runner.backend_mut().update_pipe_attrs(
                bottleneck,
                PipeAttrs {
                    bandwidth: DataRate::from_mbps(1),
                    ..original
                },
            );
        }
        if t == 16 {
            println!("-- restoring the bottleneck to 10 Mb/s --");
            runner.backend_mut().update_pipe_attrs(bottleneck, original);
        }
        let acked = runner.flow_bytes_acked(flow);
        let rate_mbps = (acked - last_acked) as f64 * 8.0 / 2.0 / 1e6;
        last_acked = acked;
        println!("t={t:>3}s goodput over last 2s: {rate_mbps:>5.2} Mb/s");
        let _ = SimDuration::from_secs(1);
    }
}
