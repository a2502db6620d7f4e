//! Figure 12: ACDC overlay cost and delay over time under injected network
//! changes.
//!
//! 120 of the clients of a transit–stub topology participate in the ACDC
//! overlay with a 1500 ms delay target. After the overlay stabilises, the
//! experiment increases the delay of 25 % of randomly chosen links by 0–25 %
//! every 25 seconds for a period, then lets conditions subside; each step is
//! a scheduled perturbation, after which routes are recomputed. The figure
//! plots, against time, the overlay's cost relative to an off-line minimum
//! spanning tree and the worst-case delay from the root, together with the
//! off-line shortest-path-tree delay.

use mn_apps::acdc::summary;
use mn_apps::{AcdcConfig, AcdcNode};
use mn_distill::DistillationMode;
use mn_dynamics::{FaultKind, LinkPerturbation};
use mn_packet::VnId;
use mn_refsim::path_latency;
use mn_topology::generators::{transit_stub_topology, TransitStubParams, TransitStubTopology};
use mn_topology::{NodeId, Topology};
use modelnet::{Experiment, Schedule, SimDuration, SimTime};

use crate::Scale;

/// One time sample of the overlay's state.
#[derive(Debug, Clone, Copy)]
pub struct AcdcSample {
    /// Virtual time of the sample, seconds.
    pub time_s: f64,
    /// Overlay tree cost divided by the off-line MST cost.
    pub cost_vs_mst: f64,
    /// Worst delay from the root among attached nodes, seconds.
    pub max_delay_s: f64,
    /// Number of attached overlay members.
    pub attached: usize,
    /// Off-line shortest-path-tree worst delay (the "SPT delay" curve),
    /// seconds.
    pub spt_delay_s: f64,
}

/// Experiment dimensions per scale.
struct Dims {
    target_nodes: usize,
    members: usize,
    total_s: u64,
    perturb_start_s: u64,
    perturb_end_s: u64,
    sample_every_s: u64,
}

fn dims(scale: Scale) -> Dims {
    match scale {
        Scale::Quick => Dims {
            target_nodes: 150,
            members: 24,
            total_s: 300,
            perturb_start_s: 100,
            perturb_end_s: 200,
            sample_every_s: 25,
        },
        Scale::Paper => Dims {
            target_nodes: 600,
            members: 120,
            total_s: 3000,
            perturb_start_s: 500,
            perturb_end_s: 1500,
            sample_every_s: 25,
        },
    }
}

/// Assigns the paper's per-class link costs to a transit–stub topology:
/// transit–transit 20–40, transit–stub 10–20, stub–stub 1–5 (client links 1).
fn link_cost(topo: &Topology, link: mn_topology::LinkId) -> f64 {
    use mn_topology::NodeKind::*;
    let l = topo.link(link).expect("link exists");
    let ka = topo.node(l.a).expect("node").kind;
    let kb = topo.node(l.b).expect("node").kind;
    match (ka, kb) {
        (Transit, Transit) => 30.0,
        (Transit, _) | (_, Transit) => 15.0,
        (Stub, Stub) => 3.0,
        _ => 1.0,
    }
}

/// IP-path cost between two client nodes: the sum of per-link costs along the
/// latency-shortest path.
fn path_cost(topo: &Topology, a: NodeId, b: NodeId) -> f64 {
    match mn_topology::paths::shortest_path(topo, a, b, mn_topology::paths::PathMetric::Latency) {
        Some(p) => p.links.iter().map(|&l| link_cost(topo, l)).sum(),
        None => f64::INFINITY,
    }
}

/// Cost of the minimum spanning tree over the member set (complete graph of
/// IP-path costs), by Prim's algorithm.
fn mst_cost(costs: &[Vec<f64>]) -> f64 {
    let n = costs.len();
    if n <= 1 {
        return 0.0;
    }
    let mut in_tree = vec![false; n];
    let mut best = vec![f64::INFINITY; n];
    best[0] = 0.0;
    let mut total = 0.0;
    for _ in 0..n {
        let u = (0..n)
            .filter(|&i| !in_tree[i])
            .min_by(|&a, &b| best[a].partial_cmp(&best[b]).unwrap())
            .unwrap();
        in_tree[u] = true;
        total += best[u];
        for v in 0..n {
            if !in_tree[v] && costs[u][v] < best[v] {
                best[v] = costs[u][v];
            }
        }
    }
    total
}

fn pick_members(ts: &TransitStubTopology, count: usize) -> Vec<NodeId> {
    // Spread the members across stub domains round-robin.
    let mut members = Vec::new();
    let mut idx = 0;
    while members.len() < count {
        let domain = &ts.clients_by_domain[idx % ts.clients_by_domain.len()];
        if let Some(&c) = domain.get(idx / ts.clients_by_domain.len()) {
            members.push(c);
        }
        idx += 1;
        if idx > count * 10 {
            break;
        }
    }
    members
}

/// Runs the experiment and returns the time series.
pub fn run(scale: Scale) -> Vec<AcdcSample> {
    let d = dims(scale);
    let ts = transit_stub_topology(&TransitStubParams::sized_for(d.target_nodes, 29));
    let member_nodes = pick_members(&ts, d.members);

    // Perturb the emulated pipes every sample period of the window, then
    // restore them all.
    let perturbation = LinkPerturbation {
        fraction: 0.25,
        kind: FaultKind::DelayIncrease {
            min: 0.0,
            max: 0.25,
        },
    };
    let restore = LinkPerturbation {
        fraction: 1.0,
        kind: FaultKind::Restore,
    };
    let schedule = (d.perturb_start_s..d.perturb_end_s)
        .step_by(d.sample_every_s as usize)
        .fold(Schedule::new(), |schedule, t| {
            let seed = mn_util::rngs::derive_seed(29, t);
            schedule.perturb(SimTime::from_secs(t), perturbation, seed)
        })
        .perturb(SimTime::from_secs(d.perturb_end_s), restore, 29);

    let mut runner = Experiment::new(ts.topology.clone())
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(10)
        .unconstrained_hardware()
        .seed(29)
        .with_schedule(schedule)
        .build()
        .expect("ACDC experiment builds");
    let binding = runner.binding().clone();
    let member_vns: Vec<VnId> = member_nodes
        .iter()
        .filter_map(|&n| binding.vn_at(n))
        .collect();

    // Off-line cost matrix and MST over the member set.
    let costs: Vec<Vec<f64>> = member_nodes
        .iter()
        .map(|&a| {
            member_nodes
                .iter()
                .map(|&b| path_cost(&ts.topology, a, b))
                .collect()
        })
        .collect();
    let mst = mst_cost(&costs);
    // Off-line SPT delay from the root over the (unperturbed) IP topology.
    let root_node = member_nodes[0];
    let spt_delay_s = member_nodes
        .iter()
        .filter_map(|&m| path_latency(&ts.topology, root_node, m))
        .map(|d| d.as_secs_f64())
        .fold(0.0, f64::max);

    let config = AcdcConfig {
        members: member_vns.clone(),
        root: member_vns[0],
        delay_target_s: 1.5,
        probe_period: SimDuration::from_secs(5),
        probe_fanout: (member_vns.len() as f64).log2().ceil() as usize,
        cost: costs,
        seed: 29,
    };
    for &vn in &member_vns {
        runner.add_application(vn, Box::new(AcdcNode::new(vn, config.clone())));
    }

    let mut samples = Vec::new();
    let mut t = 0u64;
    while t < d.total_s {
        let next = (t + d.sample_every_s).min(d.total_s);
        runner.run_until(SimTime::from_secs(next)).unwrap();
        t = next;
        // Sample the overlay state.
        let nodes: Vec<&AcdcNode> = member_vns
            .iter()
            .filter_map(|&vn| runner.app_as::<AcdcNode>(vn))
            .collect();
        let cost = summary::tree_cost(nodes.iter().copied());
        let (max_delay, attached) = summary::max_delay(nodes.iter().copied());
        samples.push(AcdcSample {
            time_s: t as f64,
            cost_vs_mst: if mst > 0.0 { cost / mst } else { 0.0 },
            max_delay_s: max_delay,
            attached,
            spt_delay_s,
        });
    }
    samples
}

/// Renders the time series.
pub fn render(samples: &[AcdcSample]) -> String {
    let mut out = String::from(
        "# Figure 12: ACDC cost (vs MST) and worst-case delay over time\ntime_s\tcost/mst\tmax_delay_s\tattached\tspt_delay_s\n",
    );
    for s in samples {
        out.push_str(&format!(
            "{:.0}\t{:.3}\t{:.3}\t{}\t{:.3}\n",
            s.time_s, s.cost_vs_mst, s.max_delay_s, s.attached, s.spt_delay_s
        ));
    }
    out
}

/// Shape check: the overlay eventually attaches every member, its delay stays
/// within the same order as the target, and its cost sits above the MST
/// bound (ratio ≥ 1).
pub fn shape_holds(samples: &[AcdcSample]) -> bool {
    let Some(last) = samples.last() else {
        return false;
    };
    let members = samples.iter().map(|s| s.attached).max().unwrap_or(0);
    last.attached + 2 >= members && last.cost_vs_mst >= 0.9 && last.max_delay_s < 10.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mst_cost_of_a_triangle() {
        let costs = vec![
            vec![0.0, 1.0, 4.0],
            vec![1.0, 0.0, 2.0],
            vec![4.0, 2.0, 0.0],
        ];
        assert_eq!(mst_cost(&costs), 3.0);
        assert_eq!(mst_cost(&[]), 0.0);
    }

    #[test]
    fn quick_scale_holds_its_shape() {
        let samples = run(Scale::Quick);
        assert!(shape_holds(&samples));
        // The perturbations raise the overlay's worst delay, and once they
        // are restored it settles back where it started.
        let d = dims(Scale::Quick);
        let delay_at = |t: u64| {
            let sample = samples.iter().find(|s| s.time_s == t as f64);
            sample.expect("sampled").max_delay_s
        };
        let before = delay_at(d.perturb_start_s);
        assert!(delay_at(d.perturb_end_s) > before * 1.1);
        assert!((delay_at(d.total_s) - before).abs() < 1e-3);
    }

    #[test]
    fn member_selection_spreads_over_domains() {
        let ts = transit_stub_topology(&TransitStubParams::sized_for(150, 29));
        let members = pick_members(&ts, 24);
        assert_eq!(members.len(), 24);
        let unique: std::collections::HashSet<_> = members.iter().collect();
        assert_eq!(unique.len(), 24);
    }
}
