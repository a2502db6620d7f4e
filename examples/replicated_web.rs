//! Replicated web service over a transit–stub topology.
//!
//! Clients in several stub domains play back a synthetic request trace
//! against one or more server replicas; the example prints the latency
//! distribution for each replica count, the shape Figure 11 of the paper
//! reports.
//!
//! Run with: `cargo run --release --example replicated_web`

use mn_apps::{WebClient, WebServer, WorkloadTrace};
use mn_topology::generators::{transit_stub_topology, TransitStubParams};
use modelnet::{DistillationMode, Experiment, SimDuration, VnId};

fn run_with_replicas(replicas: usize) {
    let ts = transit_stub_topology(&TransitStubParams::sized_for(160, 17));
    let mut runner = Experiment::new(ts.topology.clone())
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(6)
        .unconstrained_hardware()
        .seed(17)
        .build()
        .expect("experiment builds");
    let binding = runner.binding().clone();

    let n = ts.clients_by_domain.len();
    let server_vns: Vec<VnId> = [n / 8, 3 * n / 8, 7 * n / 8]
        .iter()
        .take(replicas)
        .filter_map(|&d| ts.clients_by_domain[d].first())
        .filter_map(|&node| binding.vn_at(node))
        .collect();
    for &s in &server_vns {
        runner.add_application(s, Box::new(WebServer::new()));
    }

    let trace = WorkloadTrace::synthetic(SimDuration::from_secs(30), 40.0, 12_000.0, 17);
    let mut clients = Vec::new();
    for (site, &d) in [0, n / 4, n / 2, 3 * n / 4].iter().enumerate() {
        for &node in ts.clients_by_domain[d].iter().take(5) {
            if let Some(vn) = binding.vn_at(node) {
                if !server_vns.contains(&vn) {
                    clients.push((vn, site));
                }
            }
        }
    }
    let parts = trace.split(clients.len());
    for (i, &(vn, site)) in clients.iter().enumerate() {
        let server = server_vns[site % server_vns.len()];
        runner.add_application(vn, Box::new(WebClient::new(server, parts[i].clone())));
    }

    runner.run_for(SimDuration::from_secs(45)).unwrap();

    let mut latencies: Vec<f64> = clients
        .iter()
        .filter_map(|&(vn, _)| runner.app_as::<WebClient>(vn))
        .flat_map(|c| c.latencies().iter().copied())
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    println!(
        "{replicas} replica(s): {} requests, median {:.0} ms, p90 {:.0} ms, p99 {:.0} ms",
        latencies.len(),
        pct(0.5) * 1e3,
        pct(0.9) * 1e3,
        pct(0.99) * 1e3
    );
}

fn main() {
    for replicas in 1..=3 {
        run_with_replicas(replicas);
    }
}
