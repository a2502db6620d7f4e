//! Figure 4: capacity of a single ModelNet core.
//!
//! Netperf TCP senders transmit through a single core over paths of 1–12
//! emulated 10 Mb/s hops; the figure plots delivered packets/second against
//! the number of simultaneous flows, one curve per hop count. The expected
//! shape: throughput rises linearly with offered load, saturating near
//! 120 kpkt/s (the gigabit NIC) for short routes and near 90 kpkt/s (the CPU)
//! for 8-hop routes, lower still for 12 hops.

use mn_distill::DistillationMode;
use mn_topology::generators::{path_pairs_topology, PathPairsParams};
use modelnet::{DataRate, Experiment, HardwareProfile, SimDuration, SimTime};

use crate::Scale;

/// One measured point.
#[derive(Debug, Clone, Copy)]
pub struct CapacityPoint {
    /// Emulated hops per path.
    pub hops: usize,
    /// Simultaneous TCP flows.
    pub flows: usize,
    /// Packets per second delivered by the core in steady state.
    pub packets_per_sec: f64,
    /// Core CPU utilisation at the end of the run.
    pub cpu_utilisation: f64,
    /// Physical drops observed (NIC + CPU).
    pub physical_drops: u64,
}

/// Runs the capacity sweep.
pub fn run(scale: Scale) -> Vec<CapacityPoint> {
    let (hop_counts, flow_counts, measure_secs): (Vec<usize>, Vec<usize>, u64) = match scale {
        Scale::Quick => (vec![1, 4, 8], vec![24, 48, 96], 2),
        Scale::Paper => (vec![1, 2, 4, 8, 12], vec![24, 48, 72, 96, 120], 4),
    };
    let mut out = Vec::new();
    for &hops in &hop_counts {
        for &flows in &flow_counts {
            out.push(run_point(hops, flows, measure_secs));
        }
    }
    out
}

fn run_point(hops: usize, flows: usize, measure_secs: u64) -> CapacityPoint {
    let (topo, pairs) = path_pairs_topology(&PathPairsParams {
        pairs: flows,
        hops,
        bandwidth: DataRate::from_mbps(10),
        end_to_end_latency: SimDuration::from_millis(10),
    });
    let mut runner = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes((flows / 24).max(1))
        .hardware(HardwareProfile::paper_core())
        .seed(42)
        .allow_disconnected()
        .build()
        .expect("capacity experiment builds");
    let binding = runner.binding().clone();
    for (s, r) in &pairs {
        let src = binding.vn_at(*s).expect("sender bound");
        let dst = binding.vn_at(*r).expect("receiver bound");
        runner.add_bulk_flow(src, dst, None, SimTime::ZERO);
    }
    // Warm up slow start, then measure a steady-state window.
    let warmup = SimDuration::from_secs(1);
    runner.run_for(warmup).unwrap();
    let before = runner.emulator().total_stats();
    runner
        .run_for(SimDuration::from_secs(measure_secs))
        .unwrap();
    let after = runner.emulator().total_stats();
    let delivered = after.packets_delivered - before.packets_delivered;
    let pps = delivered as f64 / measure_secs as f64;
    CapacityPoint {
        hops,
        flows,
        packets_per_sec: pps,
        cpu_utilisation: runner.emulator().cores()[0].cpu_utilization(),
        physical_drops: after.physical_drops(),
    }
}

/// Renders the points as the figure's table.
pub fn render(points: &[CapacityPoint]) -> String {
    let mut out =
        String::from("# Figure 4: single-core capacity\nhops\tflows\tpkts/sec\tcpu\tphys_drops\n");
    for p in points {
        out.push_str(&format!(
            "{}\t{}\t{:.0}\t{:.2}\t{}\n",
            p.hops, p.flows, p.packets_per_sec, p.cpu_utilisation, p.physical_drops
        ));
    }
    out
}

/// The headline checks of the figure: more hops can only lower the
/// saturated rate, and at high flow counts short routes deliver substantially
/// more than 8-hop routes.
pub fn shape_holds(points: &[CapacityPoint]) -> bool {
    let max_for = |h: usize| {
        points
            .iter()
            .filter(|p| p.hops == h)
            .map(|p| p.packets_per_sec)
            .fold(0.0f64, f64::max)
    };
    let one = max_for(1);
    let eight = max_for(8);
    one > 0.0 && eight > 0.0 && one >= eight
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_point_delivers_packets() {
        let p = run_point(2, 8, 1);
        assert_eq!(p.hops, 2);
        assert_eq!(p.flows, 8);
        // 8 flows at up to 10 Mb/s each ≈ 80 Mb/s ≈ 7–10 kpkt/s of data+ACKs.
        assert!(
            p.packets_per_sec > 2_000.0,
            "saturated 8-flow point should exceed 2 kpkt/s, got {}",
            p.packets_per_sec
        );
    }
}
