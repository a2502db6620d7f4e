//! Table 1: scalability as a function of communication pattern for the
//! four-core configuration.
//!
//! A star topology of 10 Mb/s, 5 ms spokes is partitioned across four cores;
//! every path is two hops. Senders transmit TCP streams to unique receivers,
//! and the experiment controls what fraction of the sender/receiver pairs
//! have their two pipes owned by *different* cores — those descriptors must
//! be tunnelled. The paper's row: 0 % → 462.5 kpkt/s falling monotonically to
//! 155.8 kpkt/s at 100 % cross-core traffic.

use mn_assign::{greedy_k_clusters, Binding, BindingParams};
use mn_distill::{distill, DistillationMode};
use mn_emucore::{Emulator, HardwareProfile};
use mn_routing::RoutingMatrix;
use mn_topology::generators::{star_topology, StarParams};
use mn_transport::TcpConfig;
use modelnet::{Runner, SimDuration, SimTime};

use crate::Scale;

/// One row of the table.
#[derive(Debug, Clone, Copy)]
pub struct MulticoreRow {
    /// Fraction of flows that cross cores (0.0–1.0).
    pub cross_core_fraction: f64,
    /// Aggregate delivered packets/second.
    pub packets_per_sec: f64,
    /// Descriptors tunnelled between cores.
    pub tunnels: u64,
}

/// Runs the cross-core sweep on 4 cores.
pub fn run(scale: Scale) -> Vec<MulticoreRow> {
    let (vns, measure_secs) = match scale {
        Scale::Quick => (160, 2u64),
        Scale::Paper => (1120, 4u64),
    };
    [0.0, 0.25, 0.5, 0.75, 1.0]
        .iter()
        .map(|&f| run_point(vns, f, measure_secs))
        .collect()
}

fn run_point(vn_count: usize, cross_fraction: f64, measure_secs: u64) -> MulticoreRow {
    let cores = 4;
    let topo = star_topology(&StarParams {
        clients: vn_count,
        ..StarParams::default()
    });
    let distilled = distill(&topo, DistillationMode::HopByHop);
    let pod = greedy_k_clusters(&distilled, cores, 7);
    let matrix = RoutingMatrix::build(&distilled);
    let binding = Binding::bind(distilled.vns(), &BindingParams::new(20, cores));

    // Classify candidate sender/receiver pairs by whether their route crosses
    // cores, then pick pairs so the requested fraction crosses.
    let locations: Vec<_> = distilled.vns().to_vec();
    let half = locations.len() / 2;
    let senders = &locations[..half];
    let receivers = &locations[half..];
    let mut same_core = Vec::new();
    let mut cross_core = Vec::new();
    let mut used_receivers = vec![false; receivers.len()];
    for &s in senders {
        // Find an unused receiver in each class for this sender.
        let mut found_same = None;
        let mut found_cross = None;
        for (ri, &r) in receivers.iter().enumerate() {
            if used_receivers[ri] {
                continue;
            }
            let route = matrix.lookup(s, r).expect("star is connected");
            let crossings = pod.crossings(&route);
            if crossings == 0 && found_same.is_none() {
                found_same = Some(ri);
            } else if crossings > 0 && found_cross.is_none() {
                found_cross = Some(ri);
            }
            if found_same.is_some() && found_cross.is_some() {
                break;
            }
        }
        // Decide which class this sender should contribute to, preferring to
        // keep the two pools balanced with the requested fraction.
        let want_cross = (cross_core.len() as f64)
            < cross_fraction * (cross_core.len() + same_core.len() + 1) as f64;
        let pick = if want_cross {
            found_cross
                .map(|ri| (ri, true))
                .or(found_same.map(|ri| (ri, false)))
        } else {
            found_same
                .map(|ri| (ri, false))
                .or(found_cross.map(|ri| (ri, true)))
        };
        if let Some((ri, is_cross)) = pick {
            used_receivers[ri] = true;
            if is_cross {
                cross_core.push((s, receivers[ri]));
            } else {
                same_core.push((s, receivers[ri]));
            }
        }
    }
    let total_flows = same_core.len() + cross_core.len();
    let target_cross = (cross_fraction * total_flows as f64).round() as usize;
    let mut pairs: Vec<(mn_topology::NodeId, mn_topology::NodeId)> = Vec::new();
    pairs.extend(cross_core.iter().take(target_cross));
    pairs.extend(
        same_core
            .iter()
            .take(total_flows - pairs.len().min(total_flows)),
    );
    if pairs.len() < total_flows {
        pairs.extend(
            cross_core
                .iter()
                .skip(target_cross)
                .take(total_flows - pairs.len()),
        );
    }

    // The Table 1 run gives each edge node a gigabit link; cores keep the
    // paper profile.
    let emulator = Emulator::new(
        &distilled,
        pod,
        matrix,
        &binding,
        HardwareProfile::paper_core(),
        11,
    );
    let mut runner = Runner::with_backend(emulator, binding.clone(), TcpConfig::default());
    for (s, r) in &pairs {
        let src = binding.vn_at(*s).expect("sender bound");
        let dst = binding.vn_at(*r).expect("receiver bound");
        runner.add_bulk_flow(src, dst, None, SimTime::ZERO);
    }
    runner.run_for(SimDuration::from_secs(1)).unwrap();
    let before = runner.emulator().total_stats();
    runner
        .run_for(SimDuration::from_secs(measure_secs))
        .unwrap();
    let after = runner.emulator().total_stats();
    MulticoreRow {
        cross_core_fraction: cross_fraction,
        packets_per_sec: (after.packets_delivered - before.packets_delivered) as f64
            / measure_secs as f64,
        tunnels: after.tunnels_out,
    }
}

/// Renders the table.
pub fn render(rows: &[MulticoreRow]) -> String {
    let mut out = String::from(
        "# Table 1: 4-core throughput vs cross-core traffic\ncross%\tkpkt/sec\ttunnels\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:.0}%\t{:.1}\t{}\n",
            r.cross_core_fraction * 100.0,
            r.packets_per_sec / 1e3,
            r.tunnels
        ));
    }
    out
}

/// The shape the paper reports: throughput degrades monotonically (within a
/// tolerance) as cross-core traffic grows, and 100 % cross traffic delivers
/// well under the 0 % rate.
pub fn shape_holds(rows: &[MulticoreRow]) -> bool {
    if rows.len() < 2 {
        return false;
    }
    let first = rows.first().unwrap().packets_per_sec;
    let last = rows.last().unwrap().packets_per_sec;
    first > 0.0 && last < first * 0.85
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cross_core_traffic_reduces_throughput() {
        let rows = [run_point(80, 0.0, 1), run_point(80, 1.0, 1)];
        assert!(rows[0].packets_per_sec > 0.0);
        assert!(rows[1].tunnels > rows[0].tunnels);
        assert!(
            rows[1].packets_per_sec <= rows[0].packets_per_sec * 1.05,
            "100% cross-core ({:.0}) should not beat 0% ({:.0})",
            rows[1].packets_per_sec,
            rows[0].packets_per_sec
        );
    }
}
