//! ACDC adaptive overlay reacting to injected delay changes.
//!
//! A small overlay self-organises over a transit–stub topology; midway
//! through the run a scheduled perturbation raises the delay of a quarter of
//! the links (routes are recomputed after it), a second one restores them,
//! and the example prints how the overlay's worst-case delay and cost
//! evolve — the dynamic the paper's Figure 12 shows.
//!
//! Run with: `cargo run --release --example adaptive_overlay`

use mn_apps::acdc::summary;
use mn_apps::{AcdcConfig, AcdcNode};
use mn_dynamics::{FaultKind, LinkPerturbation};
use mn_topology::generators::{transit_stub_topology, TransitStubParams};
use mn_topology::paths::{shortest_path, PathMetric};
use modelnet::{DistillationMode, Experiment, Schedule, SimDuration, SimTime, VnId};

fn main() {
    let ts = transit_stub_topology(&TransitStubParams::sized_for(150, 29));
    // +0..25% delay on 25% of the links at t=120s, restored at t=180s.
    let delay = LinkPerturbation {
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
    let schedule = Schedule::new()
        .perturb(SimTime::from_secs(120), delay, 29)
        .perturb(SimTime::from_secs(180), restore, 29);
    let mut runner = Experiment::new(ts.topology.clone())
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(6)
        .unconstrained_hardware()
        .seed(29)
        .with_schedule(schedule)
        .build()
        .expect("experiment builds");
    let binding = runner.binding().clone();

    // 20 overlay members spread over the stub domains.
    let member_nodes: Vec<_> = ts
        .clients_by_domain
        .iter()
        .filter_map(|d| d.first().copied())
        .take(20)
        .collect();
    let members: Vec<VnId> = member_nodes
        .iter()
        .filter_map(|&n| binding.vn_at(n))
        .collect();
    let cost: Vec<Vec<f64>> = member_nodes
        .iter()
        .map(|&a| {
            member_nodes
                .iter()
                .map(|&b| {
                    shortest_path(&ts.topology, a, b, PathMetric::Latency)
                        .map(|p| p.hop_count() as f64)
                        .unwrap_or(f64::INFINITY)
                })
                .collect()
        })
        .collect();
    let config = AcdcConfig {
        members: members.clone(),
        root: members[0],
        delay_target_s: 1.5,
        probe_period: SimDuration::from_secs(5),
        probe_fanout: 4,
        cost,
        seed: 29,
    };
    for &vn in &members {
        runner.add_application(vn, Box::new(AcdcNode::new(vn, config.clone())));
    }

    for step in 1..=8 {
        let t = step * 30;
        runner.run_until(SimTime::from_secs(t)).unwrap();
        if step == 4 {
            println!("-- injected +0..25% delay on 25% of links --");
        }
        if step == 6 {
            println!("-- restored original link delays --");
        }
        let nodes: Vec<&AcdcNode> = members
            .iter()
            .filter_map(|&vn| runner.app_as::<AcdcNode>(vn))
            .collect();
        let (max_delay, attached) = summary::max_delay(nodes.iter().copied());
        println!(
            "t={:>4}s attached {:>2}/{} worst delay {:>7.1} ms tree cost {:>5.1}",
            t,
            attached,
            members.len(),
            max_delay * 1e3,
            summary::tree_cost(nodes.iter().copied())
        );
    }
}
