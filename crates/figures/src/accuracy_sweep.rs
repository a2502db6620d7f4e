//! The accuracy–scalability continuum, measured.
//!
//! The paper presents distillation as a dial between fidelity and scale but
//! never quantifies the dial. This harness does: the same foreground
//! workload — bounded TCP transfers between random VN pairs on the paper's
//! ring — runs under hop-by-hop emulation (the ground truth) and under each
//! distilled configuration, and the **per-flow delivery-time error** against
//! the hop-by-hop run is reported per `(mode, compensation load)` point
//! together with each configuration's pipe count.
//!
//! On top of the measured table, [`mn_distill::autodistill()`] picks the
//! cheapest configuration fitting a ≤5% error budget. The workload-pruned
//! end-to-end mesh (one pipe per communicating pair) is the configuration
//! that undercuts hop-by-hop's pipe count. Every run is in virtual time, so
//! the table is the same on every host and its shape is a unit test.

use mn_distill::{
    autodistill, CandidateConfig, DistillBudget, DistillChoice, DistillationMode, WorkloadSketch,
};
use mn_topology::generators::{ring_topology, RingParams};
use mn_topology::NodeId;
use mn_util::ByteSize;
use modelnet::{Experiment, SimDuration, SimTime};

use crate::fig5_distillation::random_pairs;
use crate::Scale;

/// The error budget handed to the auto-distiller (5% delivery-time error).
pub const ERROR_BUDGET: f64 = 0.05;
/// Compensation loads swept for configurations that collapse hops.
pub const LOADS: [f64; 4] = [0.0, 0.25, 0.5, 0.75];

/// One measured point of the continuum.
#[derive(Debug, Clone)]
pub struct AccuracyPoint {
    /// Configuration label ("last-mile", "end-to-end" …).
    pub label: String,
    /// Compensation load installed for this run.
    pub load: f64,
    /// Undirected pipes in this configuration's graph (its memory cost).
    pub undirected_pipes: usize,
    /// Mean per-flow delivery-time error vs hop-by-hop, as a fraction.
    pub mean_error: f64,
    /// Worst single flow's delivery-time error, as a fraction.
    pub max_error: f64,
}

/// The full sweep plus the auto-distiller's verdict on it.
#[derive(Debug, Clone)]
pub struct AccuracySweep {
    /// All measured `(mode, load)` points.
    pub points: Vec<AccuracyPoint>,
    /// Undirected pipes under hop-by-hop (the cost baseline).
    pub hop_pipes: usize,
    /// Number of foreground flows (= pairs in the workload sketch).
    pub flows: usize,
    /// The auto-distiller's choice over the measured table.
    pub choice: DistillChoice,
    /// Extra measurement runs `autodistill` needed beyond the table (0 when
    /// every candidate it probed was already swept).
    pub extra_runs: usize,
}

/// Quick keeps CI honest in seconds; Paper is the full 20×20 ring. The
/// paper-default 20 Mb/s ring leaves the interior lightly loaded — the
/// regime end-to-end distillation is built for (and where the correct
/// compensation load is 0; the sweep's higher loads chart the cost of
/// over-compensating). The heavily congested regime, where compensation
/// strictly improves accuracy, is pinned in `tests/accuracy_continuum.rs`.
fn workload(scale: Scale) -> (RingParams, usize, ByteSize, u64) {
    match scale {
        Scale::Quick => (
            RingParams {
                routers: 10,
                clients_per_router: 10,
                ..RingParams::default()
            },
            16,
            ByteSize::from_kb(192),
            60,
        ),
        Scale::Paper => (RingParams::default(), 64, ByteSize::from_kb(384), 120),
    }
}

/// Runs the workload under one configuration and returns per-flow delivery
/// times in virtual seconds (flows still unfinished at the horizon are
/// censored to it).
fn delivery_times(
    params: &RingParams,
    pairs: &[(NodeId, NodeId)],
    config: &CandidateConfig,
    size: ByteSize,
    horizon_secs: u64,
) -> Vec<f64> {
    let topo = ring_topology(params);
    let mut exp = Experiment::new(topo)
        .distillation(config.mode)
        .cores(1)
        .edge_nodes(4)
        .unconstrained_hardware()
        .seed(23);
    if config.pruned_to_workload {
        exp = exp.workload_pairs(pairs.to_vec());
    }
    if config.compensation_load > 0.0 {
        exp = exp.compensation(config.compensation_load);
    }
    let mut runner = exp.build().expect("ring experiment builds");
    let binding = runner.binding().clone();
    let mut flows = Vec::new();
    for (s, r) in pairs {
        let src = binding.vn_at(*s).expect("generator bound");
        let dst = binding.vn_at(*r).expect("receiver bound");
        flows.push(runner.add_bulk_flow(src, dst, Some(size), SimTime::ZERO));
    }
    // Advance in one-second slices and stop as soon as every transfer has
    // completed; the horizon only censors pathological configurations.
    for _ in 0..horizon_secs {
        runner.run_for(SimDuration::from_secs(1)).unwrap();
        if flows.iter().all(|&f| runner.flow_completed_at(f).is_some()) {
            break;
        }
    }
    let horizon = SimTime::from_secs(horizon_secs).as_secs_f64();
    flows
        .into_iter()
        .map(|f| {
            runner
                .flow_completed_at(f)
                .map_or(horizon, |t| t.as_secs_f64())
        })
        .collect()
}

fn errors_against(reference: &[f64], times: &[f64]) -> (f64, f64) {
    let mut sum = 0.0;
    let mut max = 0.0f64;
    for (&r, &t) in reference.iter().zip(times) {
        let e = if r > 0.0 { (t - r).abs() / r } else { 0.0 };
        sum += e;
        max = max.max(e);
    }
    (sum / reference.len().max(1) as f64, max)
}

fn mode_label(config: &CandidateConfig) -> &'static str {
    match config.mode {
        DistillationMode::HopByHop => "hop-by-hop",
        DistillationMode::EndToEnd => {
            if config.pruned_to_workload {
                "end-to-end"
            } else {
                "end-to-end-full"
            }
        }
        DistillationMode::WalkIn { walk_in: 1 } => "last-mile",
        DistillationMode::WalkIn { .. } => "walk-in-2",
        DistillationMode::WalkInOut { .. } => "walk-in-out",
    }
}

/// Runs the full sweep: ground truth, the error table over
/// `{last-mile, walk-in 2, pruned end-to-end} × LOADS`, and the
/// auto-distiller over the measured table.
pub fn run(scale: Scale) -> AccuracySweep {
    let (params, flow_count, size, horizon) = workload(scale);
    let topo = ring_topology(&params);
    let pairs = random_pairs(&topo, flow_count, 99);

    let candidate = |mode: DistillationMode, pruned: bool, load: f64| {
        let d = if pruned {
            mn_distill::distill_end_to_end_pairs(&topo, &pairs)
        } else {
            mn_distill::distill(&topo, mode)
        };
        CandidateConfig {
            mode,
            pruned_to_workload: pruned,
            compensation_load: load,
            undirected_pipes: d.undirected_pipe_count(),
            route_pipe_bound: d.max_route_pipes(),
        }
    };

    let hop = candidate(DistillationMode::HopByHop, false, 0.0);
    let reference = delivery_times(&params, &pairs, &hop, size, horizon);

    let mut points = Vec::new();
    let mut table: Vec<(CandidateConfig, f64)> = Vec::new();
    for (mode, pruned, loads) in [
        (DistillationMode::LAST_MILE, false, &LOADS[..]),
        (DistillationMode::WalkIn { walk_in: 2 }, false, &LOADS[..1]),
        (DistillationMode::EndToEnd, true, &LOADS[..]),
    ] {
        for &load in loads {
            let config = candidate(mode, pruned, load);
            let times = delivery_times(&params, &pairs, &config, size, horizon);
            let (mean_error, max_error) = errors_against(&reference, &times);
            points.push(AccuracyPoint {
                label: mode_label(&config).to_string(),
                load,
                undirected_pipes: config.undirected_pipes,
                mean_error,
                max_error,
            });
            table.push((config, mean_error));
        }
    }

    // The auto-distiller re-walks the continuum cheapest-first over the
    // measured table; anything it probes beyond the table is measured live.
    let mut extra_runs = 0;
    let sketch = WorkloadSketch { pairs: &pairs };
    let budget = DistillBudget {
        max_error: ERROR_BUDGET,
        candidate_loads: LOADS.to_vec(),
        max_walk_in: 2,
    };
    let choice = autodistill(&topo, &sketch, &budget, |config| {
        if let Some((_, err)) = table.iter().find(|(c, _)| {
            c.mode == config.mode
                && c.pruned_to_workload == config.pruned_to_workload
                && (c.compensation_load - config.compensation_load).abs() < 1e-9
        }) {
            *err
        } else {
            extra_runs += 1;
            let times = delivery_times(&params, &pairs, config, size, horizon);
            errors_against(&reference, &times).0
        }
    });

    AccuracySweep {
        points,
        hop_pipes: hop.undirected_pipes,
        flows: pairs.len(),
        choice,
        extra_runs,
    }
}

/// Human-readable error-curve table.
pub fn render(sweep: &AccuracySweep) -> String {
    let mut out = String::from(
        "# Accuracy continuum: per-flow delivery-time error vs hop-by-hop\n\
         # config            load   pipes   mean_err%   max_err%\n",
    );
    for p in &sweep.points {
        out.push_str(&format!(
            "{:<18} {:>5.2} {:>7} {:>10.2} {:>10.2}\n",
            p.label,
            p.load,
            p.undirected_pipes,
            p.mean_error * 100.0,
            p.max_error * 100.0,
        ));
    }
    let c = &sweep.choice;
    out.push_str(&format!(
        "autodistill (≤{:.0}% budget): {} at load {:.2} — {} pipes vs {} hop-by-hop \
         ({:.1}× fewer), measured error {:.2}%, {} table probes + {} extra runs\n",
        ERROR_BUDGET * 100.0,
        mode_label(&c.config),
        c.config.compensation_load,
        c.config.undirected_pipes,
        sweep.hop_pipes,
        sweep.hop_pipes as f64 / c.config.undirected_pipes.max(1) as f64,
        c.measured_error * 100.0,
        c.measurements,
        sweep.extra_runs,
    ));
    out
}

/// The shape of the continuum. Holds when:
/// 1. walk-in 2 covers the whole (depth-2) ring, so its run *is* the
///    hop-by-hop run and its error is exactly zero — the ground-truth
///    self-check;
/// 2. the error table is complete and finite;
/// 3. the auto-distiller's choice fits the ≤5% budget with ≥5× fewer pipes
///    than hop-by-hop (the acceptance criterion).
pub fn shape_holds(sweep: &AccuracySweep) -> bool {
    let expected_points = LOADS.len() + 1 + LOADS.len();
    let complete = sweep.points.len() == expected_points
        && sweep.points.iter().all(|p| p.mean_error.is_finite());
    let self_check = sweep
        .points
        .iter()
        .find(|p| p.label == "walk-in-2")
        .is_some_and(|p| p.mean_error < 0.005);
    let c = &sweep.choice;
    let within_budget = c.measured_error <= ERROR_BUDGET;
    let cheap_enough = c.config.undirected_pipes * 5 <= sweep.hop_pipes;
    complete && self_check && within_budget && cheap_enough
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_pairs_leave_headroom_for_the_five_x_pipe_bar() {
        for scale in [Scale::Quick, Scale::Paper] {
            let (params, flows, _, _) = workload(scale);
            let topo = ring_topology(&params);
            let pairs = random_pairs(&topo, flows, 99);
            let hop = mn_distill::distill(&topo, DistillationMode::HopByHop);
            let pruned = mn_distill::distill_end_to_end_pairs(&topo, &pairs);
            assert_eq!(pairs.len(), flows);
            assert!(
                pruned.undirected_pipe_count() * 5 <= hop.undirected_pipe_count(),
                "{scale:?}: {} pruned pipes vs {} hop-by-hop",
                pruned.undirected_pipe_count(),
                hop.undirected_pipe_count()
            );
        }
    }

    #[test]
    fn quick_sweep_has_the_shape_of_the_continuum() {
        let sweep = run(Scale::Quick);
        assert!(shape_holds(&sweep), "{}", render(&sweep));
    }

    #[test]
    fn error_helper_is_exact_on_identical_times() {
        let r = [1.0, 2.0, 4.0];
        assert_eq!(errors_against(&r, &r), (0.0, 0.0));
        let (mean, max) = errors_against(&r, &[1.1, 2.0, 4.0]);
        assert!((mean - 0.1 / 3.0).abs() < 1e-12);
        assert!((max - 0.1).abs() < 1e-9);
    }
}
