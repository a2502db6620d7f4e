//! Figure 5: effect of distillation on the distribution of flow bandwidth in
//! a ring topology.
//!
//! 20 routers interconnected at 20 Mb/s carry 20 VNs each on 2 Mb/s access
//! links; 200 random VN pairs run TCP streams. Hop-by-hop emulation shows a
//! broad spread of flow bandwidths (ring contention); last-mile distillation
//! models only receiver-side contention; end-to-end distillation lets every
//! flow reach its full 2 Mb/s. The independent reference simulator
//! (max-min fair share, standing in for the paper's ns-2 runs) provides the
//! 20 Mb/s and 80 Mb/s ring comparison curves.

use mn_distill::DistillationMode;
use mn_refsim::{max_min_fair_share, FlowSpec};
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::{NodeId, Topology};
use mn_util::rngs::derived_rng;
use mn_util::{Cdf, DataRate};
use modelnet::{Experiment, SimDuration, SimTime};
use rand::seq::SliceRandom;

use crate::Scale;

/// One curve of the figure: a labelled CDF of per-flow bandwidth in kbit/s.
#[derive(Debug, Clone)]
pub struct DistillationCurve {
    /// Curve label.
    pub label: String,
    /// Per-flow bandwidth samples (kbit/s).
    pub cdf: Cdf,
}

fn ring(scale: Scale) -> (RingParams, usize, u64) {
    match scale {
        Scale::Quick => (
            RingParams {
                routers: 10,
                clients_per_router: 10,
                ..RingParams::default()
            },
            50,
            8,
        ),
        Scale::Paper => (RingParams::default(), 200, 15),
    }
}

/// Random generator→receiver pairs over the topology's clients (shared with
/// the accuracy sweep so both harnesses stress the same workload shape).
pub(crate) fn random_pairs(topo: &Topology, count: usize, seed: u64) -> Vec<(NodeId, NodeId)> {
    let mut rng = derived_rng(seed, 5);
    let mut clients: Vec<NodeId> = topo.client_nodes().collect();
    clients.shuffle(&mut rng);
    let mut pairs = Vec::new();
    // Generators and receivers are disjoint halves, receivers chosen randomly
    // (several flows may share a receiver, as in the paper).
    let (generators, receivers) = clients.split_at(clients.len() / 2);
    for (i, &g) in generators.iter().take(count).enumerate() {
        let r = receivers[(i * 7 + 3) % receivers.len()];
        pairs.push((g, r));
    }
    pairs
}

/// Runs one emulated curve.
fn run_emulated(
    params: &RingParams,
    pairs: &[(NodeId, NodeId)],
    mode: DistillationMode,
    secs: u64,
    label: &str,
) -> DistillationCurve {
    let topo = ring_topology(params);
    let mut runner = Experiment::new(topo)
        .distillation(mode)
        .cores(1)
        .edge_nodes(4)
        .unconstrained_hardware()
        .seed(23)
        .build()
        .expect("ring experiment builds");
    let binding = runner.binding().clone();
    let mut flows = Vec::new();
    for (s, r) in pairs {
        let src = binding.vn_at(*s).expect("generator bound");
        let dst = binding.vn_at(*r).expect("receiver bound");
        flows.push(runner.add_bulk_flow(src, dst, None, SimTime::ZERO));
    }
    runner.run_for(SimDuration::from_secs(secs)).unwrap();
    let mut cdf = Cdf::new();
    for f in flows {
        cdf.add(runner.flow_goodput_kbps(f));
    }
    DistillationCurve {
        label: label.to_string(),
        cdf,
    }
}

/// Runs the reference (flow-level) curve for a ring of the given transit
/// bandwidth.
fn run_reference(
    params: &RingParams,
    pairs: &[(NodeId, NodeId)],
    transit: DataRate,
    label: &str,
) -> DistillationCurve {
    let topo = ring_topology(&RingParams {
        ring_bandwidth: transit,
        ..params.clone()
    });
    let specs: Vec<FlowSpec> = pairs
        .iter()
        .map(|&(src, dst)| FlowSpec { src, dst })
        .collect();
    let alloc = max_min_fair_share(&topo, &specs);
    let mut cdf = Cdf::new();
    for a in alloc {
        cdf.add(a.rate.as_kbps_f64());
    }
    DistillationCurve {
        label: label.to_string(),
        cdf,
    }
}

/// Runs all five curves of the figure.
pub fn run(scale: Scale) -> Vec<DistillationCurve> {
    let (params, flow_count, secs) = ring(scale);
    let topo = ring_topology(&params);
    let pairs = random_pairs(&topo, flow_count, 99);
    vec![
        run_emulated(
            &params,
            &pairs,
            DistillationMode::HopByHop,
            secs,
            "hop-by-hop",
        ),
        run_emulated(
            &params,
            &pairs,
            DistillationMode::LAST_MILE,
            secs,
            "last-mile",
        ),
        run_emulated(
            &params,
            &pairs,
            DistillationMode::EndToEnd,
            secs,
            "end-to-end",
        ),
        run_reference(&params, &pairs, params.ring_bandwidth, "refsim 20Mb ring"),
        run_reference(&params, &pairs, DataRate::from_mbps(80), "refsim 80Mb ring"),
    ]
}

/// Renders every curve as CDF rows.
pub fn render(curves: &mut [DistillationCurve]) -> String {
    let mut out = String::from("# Figure 5: flow bandwidth CDFs under distillation (kbit/s)\n");
    for c in curves {
        out.push_str(&crate::format_cdf(&c.label, &c.cdf.points_downsampled(20)));
    }
    out
}

/// Shape check: end-to-end flows reach (close to) their full access rate,
/// hop-by-hop flows are constrained below it on average, and the hop-by-hop
/// median sits at or below the last-mile median.
pub fn shape_holds(curves: &mut [DistillationCurve]) -> bool {
    let median = |curves: &mut [DistillationCurve], label: &str| -> f64 {
        curves
            .iter_mut()
            .find(|c| c.label == label)
            .and_then(|c| c.cdf.median())
            .unwrap_or(0.0)
    };
    let hop = median(curves, "hop-by-hop");
    let e2e = median(curves, "end-to-end");
    let last_mile = median(curves, "last-mile");
    hop > 0.0 && e2e > hop && e2e > 1_500.0 && hop <= last_mile + 200.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_curves_match_fair_share_expectations() {
        let (params, flows, _) = ring(Scale::Quick);
        let topo = ring_topology(&params);
        let pairs = random_pairs(&topo, flows, 99);
        let narrow = run_reference(&params, &pairs, DataRate::from_mbps(20), "20");
        let wide = run_reference(&params, &pairs, DataRate::from_mbps(80), "80");
        let mut narrow_cdf = narrow.cdf;
        let mut wide_cdf = wide.cdf;
        // With an 80 Mb/s ring, access links dominate: everyone gets 2 Mb/s.
        assert!(wide_cdf.median().unwrap() >= 1_900.0);
        // With a 20 Mb/s ring some flows are constrained below 2 Mb/s.
        assert!(narrow_cdf.min().unwrap() < 1_900.0);
    }

    #[test]
    fn random_pairs_are_client_to_client_and_unique_senders() {
        let (params, flows, _) = ring(Scale::Quick);
        let topo = ring_topology(&params);
        let pairs = random_pairs(&topo, flows, 1);
        assert_eq!(pairs.len(), flows);
        let senders: std::collections::HashSet<_> = pairs.iter().map(|p| p.0).collect();
        assert_eq!(senders.len(), flows, "each generator sends one stream");
    }
}
