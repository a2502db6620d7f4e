//! §3.1 baseline accuracy: per-hop emulation error stays within the scheduler
//! tick (100 µs) up to and including full load, with overload appearing as
//! physical drops rather than as late packets.

use mn_distill::DistillationMode;
use mn_topology::generators::{path_pairs_topology, PathPairsParams};
use mn_transport::UdpStreamConfig;
use modelnet::{DataRate, Experiment, HardwareProfile, SimDuration, SimTime};

use crate::Scale;

/// One row: accuracy statistics at a given offered load.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyPoint {
    /// Offered load, packets/second.
    pub offered_pps: f64,
    /// Mean end-to-end emulation error, microseconds.
    pub mean_error_us: f64,
    /// Worst per-hop error, microseconds.
    pub max_per_hop_error_us: f64,
    /// Worst end-to-end error, microseconds.
    pub max_error_us: f64,
    /// Physical drops (the overload escape valve).
    pub physical_drops: u64,
    /// Whether the paper's bound (per-hop error ≤ tick) held.
    pub within_bound: bool,
}

/// Runs the accuracy experiment: a 10-hop path offered increasing UDP load.
pub fn run(scale: Scale) -> Vec<AccuracyPoint> {
    let rates_mbps: Vec<u64> = match scale {
        Scale::Quick => vec![10, 50, 200],
        Scale::Paper => vec![10, 50, 100, 200, 400, 800],
    };
    rates_mbps.iter().map(|&r| run_point(r)).collect()
}

fn run_point(rate_mbps: u64) -> AccuracyPoint {
    let hops = 10;
    let (topo, pairs) = path_pairs_topology(&PathPairsParams {
        pairs: 4,
        hops,
        bandwidth: DataRate::from_gbps(1),
        end_to_end_latency: SimDuration::from_millis(20),
    });
    let mut runner = Experiment::new(topo)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(2)
        .hardware(HardwareProfile::paper_core())
        .seed(3)
        .allow_disconnected()
        .build()
        .expect("accuracy experiment builds");
    let binding = runner.binding().clone();
    for (s, r) in &pairs {
        let src = binding.vn_at(*s).unwrap();
        let dst = binding.vn_at(*r).unwrap();
        runner.add_udp_flow(
            src,
            dst,
            UdpStreamConfig {
                payload: 1472,
                rate: DataRate::from_mbps(rate_mbps / 4),
                max_datagrams: None,
            },
            SimTime::ZERO,
        );
    }
    runner.run_for(SimDuration::from_secs(2)).unwrap();
    let core = &runner.emulator().cores()[0];
    let log = core.accuracy();
    let offered = rate_mbps as f64 * 1e6 / (1500.0 * 8.0);
    AccuracyPoint {
        offered_pps: offered,
        mean_error_us: log.mean_error_us(),
        max_per_hop_error_us: log.max_per_hop_error().as_micros_f64(),
        max_error_us: log.max_error().as_micros_f64(),
        physical_drops: core.stats().physical_drops(),
        within_bound: log.within_bound(SimDuration::from_micros(100)),
    }
}

/// Renders the table.
pub fn render(points: &[AccuracyPoint]) -> String {
    let mut out = String::from(
        "# Baseline accuracy (10-hop path)\noffered_pps\tmean_err_us\tmax_hop_err_us\tmax_err_us\tphys_drops\twithin_bound\n",
    );
    for p in points {
        out.push_str(&format!(
            "{:.0}\t{:.1}\t{:.1}\t{:.1}\t{}\t{}\n",
            p.offered_pps,
            p.mean_error_us,
            p.max_per_hop_error_us,
            p.max_error_us,
            p.physical_drops,
            p.within_bound
        ));
    }
    out
}

/// The paper's claim: every load level keeps per-hop error within the tick.
pub fn shape_holds(points: &[AccuracyPoint]) -> bool {
    !points.is_empty() && points.iter().all(|p| p.within_bound)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_bound_holds_at_moderate_load() {
        let p = run_point(20);
        assert!(p.within_bound, "per-hop error {}us", p.max_per_hop_error_us);
        assert!(p.max_error_us <= 10.0 * 100.0 + 1.0);
    }
}
