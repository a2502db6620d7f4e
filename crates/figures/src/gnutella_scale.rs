//! The §5 scale demonstration: connectivity of a large gnutella network.
//!
//! The paper's largest run mapped 10,000 unmodified gnutella clients onto 100
//! edge machines and evaluated the evolution and connectivity of the overlay.
//! This regenerator runs the same workload on the flooding overlay of
//! `mn_apps::gnutella` over a transit–stub topology and reports how much of
//! the network each node discovers. At `Scale::Quick` the run uses 120 VNs;
//! `Scale::Paper` raises the count to 2 000 and does not finish today: a
//! responder answers each ping's origin on a TCP channel of its own, and
//! the runner, whose ports are never recycled, panics once more than 55 535
//! flows have been opened (`Runner::bind_port`).

use mn_apps::{GnutellaConfig, GnutellaNode};
use mn_distill::DistillationMode;
use mn_packet::VnId;
use mn_topology::generators::{transit_stub_topology, TransitStubParams};
use mn_util::rngs::derived_rng;
use modelnet::{Experiment, SimDuration};
use rand::seq::SliceRandom;

use crate::Scale;

/// Summary of the connectivity run.
#[derive(Debug, Clone)]
pub struct GnutellaSummary {
    /// Participating VNs.
    pub nodes: usize,
    /// Mean fraction of the network each node discovered.
    pub mean_discovery_fraction: f64,
    /// Minimum discovery fraction across nodes.
    pub min_discovery_fraction: f64,
    /// Total PONGs received across all nodes.
    pub total_pongs: u64,
}

/// Runs the connectivity experiment.
pub fn run(scale: Scale) -> GnutellaSummary {
    let (vn_count, secs) = match scale {
        Scale::Quick => (120, 60u64),
        Scale::Paper => (2_000, 120u64),
    };
    let ts = transit_stub_topology(&TransitStubParams::sized_for(vn_count * 3 / 2, 31));
    let mut runner = Experiment::new(ts.topology.clone())
        .distillation(DistillationMode::LAST_MILE)
        .cores(2)
        .edge_nodes(10)
        .unconstrained_hardware()
        .seed(31)
        .build()
        .expect("gnutella experiment builds");
    let binding = runner.binding().clone();
    let mut vns: Vec<VnId> = runner.vn_ids();
    vns.truncate(vn_count);

    // Random bootstrap graph: each node knows ~4 random earlier peers, which
    // keeps the overlay connected with high probability.
    let mut rng = derived_rng(31, 77);
    for (i, &vn) in vns.iter().enumerate() {
        let mut neighbours: Vec<VnId> = if i == 0 {
            Vec::new()
        } else {
            let mut earlier: Vec<VnId> = vns[..i].to_vec();
            earlier.shuffle(&mut rng);
            earlier.truncate(4.min(i));
            earlier
        };
        if i > 0 && neighbours.is_empty() {
            neighbours.push(vns[0]);
        }
        runner.add_application(
            vn,
            Box::new(GnutellaNode::new(
                vn,
                GnutellaConfig {
                    neighbours,
                    ttl: 7,
                    ping_period: SimDuration::from_secs(10),
                    max_neighbours: 8,
                },
            )),
        );
    }
    let _ = binding;
    runner.run_for(SimDuration::from_secs(secs)).unwrap();

    let mut total_fraction = 0.0;
    let mut min_fraction = 1.0f64;
    let mut total_pongs = 0;
    for &vn in &vns {
        let node = runner.app_as::<GnutellaNode>(vn).expect("app installed");
        let fraction = node.known_peers() as f64 / (vns.len() - 1).max(1) as f64;
        total_fraction += fraction;
        min_fraction = min_fraction.min(fraction);
        total_pongs += node.pongs_received();
    }
    GnutellaSummary {
        nodes: vns.len(),
        mean_discovery_fraction: total_fraction / vns.len() as f64,
        min_discovery_fraction: min_fraction,
        total_pongs,
    }
}

/// Renders the summary.
pub fn render(s: &GnutellaSummary) -> String {
    format!(
        "# Gnutella connectivity\nnodes\t{}\nmean_discovery\t{:.3}\nmin_discovery\t{:.3}\ntotal_pongs\t{}\n",
        s.nodes, s.mean_discovery_fraction, s.min_discovery_fraction, s.total_pongs
    )
}

/// Shape check: the overlay is well connected — nodes discover a substantial
/// fraction of the network within the run.
pub fn shape_holds(s: &GnutellaSummary) -> bool {
    s.mean_discovery_fraction > 0.3 && s.total_pongs > 0
}
