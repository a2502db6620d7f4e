//! Figure 11: CDF of client-perceived latency as a function of the number of
//! web replicas.
//!
//! Clients in four stub domains of a transit–stub topology play back a trace
//! at 60–100 requests/second against one, two or three server replicas. With
//! a single replica the transit links congest and the latency tail stretches
//! past several seconds; a second replica removes most of that contention; a
//! third helps only marginally.

use mn_apps::{WebClient, WebServer, WorkloadTrace};
use mn_distill::DistillationMode;
use mn_packet::VnId;
use mn_topology::generators::{transit_stub_topology, TransitStubParams};
use mn_util::Cdf;
use modelnet::{Experiment, SimDuration};

use crate::Scale;

/// The latency CDF measured for one replica count.
#[derive(Debug, Clone)]
pub struct ReplicaCurve {
    /// Number of server replicas receiving traffic.
    pub replicas: usize,
    /// Client-perceived latency samples, seconds.
    pub cdf: Cdf,
    /// Requests completed.
    pub completed: u64,
}

/// Runs the experiment for 1, 2 and 3 replicas.
pub fn run(scale: Scale) -> Vec<ReplicaCurve> {
    let (target_nodes, clients_per_site, duration_s, rate) = match scale {
        Scale::Quick => (160, 6, 40u64, 40.0),
        Scale::Paper => (320, 30, 150u64, 80.0),
    };
    (1..=3)
        .map(|replicas| run_point(replicas, target_nodes, clients_per_site, duration_s, rate))
        .collect()
}

fn run_point(
    replicas: usize,
    target_nodes: usize,
    clients_per_site: usize,
    duration_s: u64,
    rate: f64,
) -> ReplicaCurve {
    let ts = transit_stub_topology(&TransitStubParams::sized_for(target_nodes, 17));
    let mut runner = Experiment::new(ts.topology.clone())
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(8)
        .unconstrained_hardware()
        .seed(17)
        .build()
        .expect("transit-stub experiment builds");
    let binding = runner.binding().clone();

    // Pick 4 client stub domains and up to 3 widely separated server domains.
    let domains = &ts.clients_by_domain;
    let n_domains = domains.len();
    let client_domains = [0, n_domains / 4, n_domains / 2, 3 * n_domains / 4];
    let server_domains = [n_domains / 8, 3 * n_domains / 8, 7 * n_domains / 8];

    let server_vns: Vec<VnId> = server_domains
        .iter()
        .take(replicas)
        .filter_map(|&d| domains[d].first())
        .filter_map(|&node| binding.vn_at(node))
        .collect();
    for &server in &server_vns {
        runner.add_application(server, Box::new(WebServer::new()));
    }

    // Clients: split the aggregate trace across every client VN; each client
    // site is statically assigned to one replica (round-robin), as in the
    // paper's manual request-routing configuration.
    let trace = WorkloadTrace::synthetic(SimDuration::from_secs(duration_s), rate, 12_000.0, 17);
    let mut client_vns: Vec<(VnId, usize)> = Vec::new();
    for (site_idx, &d) in client_domains.iter().enumerate() {
        for &node in domains[d].iter().take(clients_per_site) {
            if let Some(vn) = binding.vn_at(node) {
                if !server_vns.contains(&vn) {
                    client_vns.push((vn, site_idx));
                }
            }
        }
    }
    let parts = trace.split(client_vns.len().max(1));
    for (i, &(vn, site_idx)) in client_vns.iter().enumerate() {
        let server = server_vns[site_idx % server_vns.len()];
        runner.add_application(vn, Box::new(WebClient::new(server, parts[i].clone())));
    }

    runner
        .run_for(SimDuration::from_secs(duration_s + 20))
        .unwrap();

    let mut cdf = Cdf::new();
    let mut completed = 0;
    for &(vn, _) in &client_vns {
        if let Some(client) = runner.app_as::<WebClient>(vn) {
            completed += client.completed();
            for &l in client.latencies() {
                cdf.add(l);
            }
        }
    }
    ReplicaCurve {
        replicas,
        cdf,
        completed,
    }
}

/// Renders the three CDFs.
pub fn render(curves: &mut [ReplicaCurve]) -> String {
    let mut out = String::from("# Figure 11: client latency CDF vs number of replicas (seconds)\n");
    for c in curves {
        out.push_str(&format!(
            "# replicas={} completed={}\n",
            c.replicas, c.completed
        ));
        out.push_str(&crate::format_cdf(
            &format!("{}-replica", c.replicas),
            &c.cdf.points_downsampled(20),
        ));
    }
    out
}

/// Shape check: adding the second replica improves tail latency, and the
/// third replica's gain is smaller than the second's.
pub fn shape_holds(curves: &mut [ReplicaCurve]) -> bool {
    if curves.len() < 3 {
        return false;
    }
    let q90: Vec<f64> = curves
        .iter_mut()
        .map(|c| c.cdf.quantile(0.9).unwrap_or(f64::INFINITY))
        .collect();
    let gain_second = q90[0] - q90[1];
    let gain_third = q90[1] - q90[2];
    q90[1] <= q90[0] && gain_third <= gain_second + 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_replica_point_completes_requests() {
        let curve = run_point(1, 120, 3, 20, 20.0);
        assert!(
            curve.completed > 50,
            "completed only {} requests",
            curve.completed
        );
        assert!(curve.cdf.len() as u64 == curve.completed);
    }
}
