//! Auto-distillation: walk the accuracy–scalability continuum and pick the
//! cheapest configuration whose *measured* accuracy fits a budget.
//!
//! The paper presents distillation as a manual dial; `autodistill` turns it
//! into a self-tuning knob. Given the target topology, a sketch of the
//! foreground workload and an error budget, it enumerates candidate
//! configurations — workload-pruned end-to-end, hop-by-hop, the walk-in
//! family — cheapest first, measures each via a caller-supplied harness
//! (typically: emulate the workload and compare per-flow delivery times
//! against the hop-by-hop run), and returns the first configuration whose
//! measured error fits the budget together with its predicted cost.
//!
//! Hop-by-hop is always a candidate and is *defined* as the ground truth, so
//! the search is total: if no distilled configuration fits the budget, the
//! choice degrades to full accuracy at full cost.

use mn_topology::{NodeId, Topology};

use crate::distiller::{distill, distill_end_to_end_pairs, DistillationMode};
use crate::pipe_graph::DistilledTopology;

/// What the foreground workload looks like, as far as distillation cares:
/// which VN pairs exchange traffic.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkloadSketch<'a> {
    /// Communicating VN pairs. Order and duplicates are ignored. When
    /// non-empty, end-to-end distillation is pruned to exactly these pairs,
    /// which is what lets it undercut hop-by-hop's pipe count.
    pub pairs: &'a [(NodeId, NodeId)],
}

/// The search space and acceptance threshold for [`autodistill`].
#[derive(Debug, Clone)]
pub struct DistillBudget {
    /// Maximum acceptable measured error, as a fraction (0.05 = 5% per-flow
    /// delivery-time error against the hop-by-hop ground truth).
    pub max_error: f64,
    /// Compensation loads to try, in order, for configurations that collapse
    /// hops. Configurations with no collapsed pipes are only tried at 0.
    pub candidate_loads: Vec<f64>,
    /// Largest `walk_in` to include in the candidate set.
    pub max_walk_in: usize,
}

impl Default for DistillBudget {
    fn default() -> Self {
        DistillBudget {
            max_error: 0.05,
            candidate_loads: vec![0.0, 0.25, 0.5, 0.75],
            max_walk_in: 2,
        }
    }
}

/// One point on the continuum, with its predicted cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateConfig {
    /// The distillation mode to run.
    pub mode: DistillationMode,
    /// For [`DistillationMode::EndToEnd`] only: prune the mesh to the
    /// workload sketch's pairs instead of all VN pairs.
    pub pruned_to_workload: bool,
    /// The compensation load to install via
    /// [`compensation_rates`](crate::compensation_rates).
    pub compensation_load: f64,
    /// Predicted memory cost: undirected pipes in the distilled graph.
    pub undirected_pipes: usize,
    /// Predicted per-packet cost: the distilled graph's route-length bound
    /// (pipes a packet crosses end to end). For hop-by-hop, which records
    /// no bound, the target's hop diameter: a ranking proxy, not a bound.
    pub route_pipe_bound: usize,
}

impl CandidateConfig {
    /// Materialises this configuration's pipe graph.
    pub fn distil(&self, topo: &Topology, sketch: &WorkloadSketch) -> DistilledTopology {
        if self.pruned_to_workload {
            distill_end_to_end_pairs(topo, sketch.pairs)
        } else {
            distill(topo, self.mode)
        }
    }
}

/// The configuration [`autodistill`] settled on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistillChoice {
    /// The chosen configuration, including its predicted cost.
    pub config: CandidateConfig,
    /// The error the measurement harness reported for it (0 for hop-by-hop,
    /// which is the ground truth by definition).
    pub measured_error: f64,
    /// How many measurement runs the search spent before settling.
    pub measurements: usize,
}

/// Picks the cheapest distillation configuration whose measured error fits
/// `budget.max_error`.
///
/// `measure` is called with each candidate (cheapest first, compensation
/// loads in `budget.candidate_loads` order) and must return the workload's
/// error under that configuration as a fraction — e.g. mean per-flow
/// delivery-time error against the hop-by-hop run of the same workload.
/// Hop-by-hop itself is never measured: it is the ground truth, its error is
/// 0 by definition, and it terminates the search if nothing cheaper fits.
pub fn autodistill(
    topo: &Topology,
    sketch: &WorkloadSketch,
    budget: &DistillBudget,
    mut measure: impl FnMut(&CandidateConfig) -> f64,
) -> DistillChoice {
    let mut candidates: Vec<CandidateConfig> = Vec::new();
    let mut push = |mode: DistillationMode, pruned: bool, d: &DistilledTopology| {
        let hop_by_hop = (mode == DistillationMode::HopByHop).then(|| topo.hop_diameter());
        candidates.push(CandidateConfig {
            mode,
            pruned_to_workload: pruned,
            compensation_load: 0.0,
            undirected_pipes: d.undirected_pipe_count(),
            route_pipe_bound: hop_by_hop.unwrap_or_else(|| d.max_route_pipes()),
        });
    };

    if sketch.pairs.is_empty() {
        let d = distill(topo, DistillationMode::EndToEnd);
        push(DistillationMode::EndToEnd, false, &d);
    } else {
        let d = distill_end_to_end_pairs(topo, sketch.pairs);
        push(DistillationMode::EndToEnd, true, &d);
    }
    for walk_in in 1..=budget.max_walk_in.max(1) {
        let mode = DistillationMode::WalkIn { walk_in };
        let d = distill(topo, mode);
        push(mode, false, &d);
    }
    let hop = distill(topo, DistillationMode::HopByHop);
    push(DistillationMode::HopByHop, false, &hop);

    // Cheapest first: fewest pipes, then fewest pipes per packet. The sort is
    // stable, so equal-cost candidates keep their construction order (which
    // lists more aggressive distillations first).
    candidates.sort_by_key(|c| (c.undirected_pipes, c.route_pipe_bound));

    let mut measurements = 0;
    for candidate in candidates {
        if candidate.mode == DistillationMode::HopByHop {
            return DistillChoice {
                config: candidate,
                measured_error: 0.0,
                measurements,
            };
        }
        let d = candidate.distil(topo, sketch);
        let collapses = d.pipe_ids().any(|id| d.collapsed_hops(id) > 1);
        let loads: &[f64] = if collapses {
            &budget.candidate_loads
        } else {
            &[0.0]
        };
        for &load in loads {
            let config = CandidateConfig {
                compensation_load: load,
                ..candidate
            };
            measurements += 1;
            let error = measure(&config);
            if error <= budget.max_error {
                return DistillChoice {
                    config,
                    measured_error: error,
                    measurements,
                };
            }
        }
    }
    unreachable!("hop-by-hop is always a candidate and always fits the budget")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topology::generators::{ring_topology, RingParams};

    fn ring() -> Topology {
        ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        })
    }

    fn sketch_pairs(topo: &Topology, n: usize) -> Vec<(NodeId, NodeId)> {
        let vns: Vec<NodeId> = topo.client_nodes().collect();
        (0..n).map(|i| (vns[i], vns[vns.len() - 1 - i])).collect()
    }

    #[test]
    fn picks_the_pruned_end_to_end_mesh_when_it_fits() {
        let topo = ring();
        let pairs = sketch_pairs(&topo, 3);
        let sketch = WorkloadSketch { pairs: &pairs };
        let choice = autodistill(&topo, &sketch, &DistillBudget::default(), |c| {
            // Compensation at 0.25 load brings end-to-end within budget.
            if c.mode == DistillationMode::EndToEnd && c.compensation_load > 0.0 {
                0.02
            } else {
                0.20
            }
        });
        assert_eq!(choice.config.mode, DistillationMode::EndToEnd);
        assert!(choice.config.pruned_to_workload);
        assert_eq!(choice.config.compensation_load, 0.25);
        assert_eq!(choice.config.undirected_pipes, 3);
        assert_eq!(choice.config.route_pipe_bound, 1);
        assert!(choice.measured_error <= 0.05);
        // Loads 0.0 and 0.25 were tried before settling.
        assert_eq!(choice.measurements, 2);
    }

    #[test]
    fn falls_back_to_hop_by_hop_when_nothing_fits() {
        let topo = ring();
        let pairs = sketch_pairs(&topo, 2);
        let sketch = WorkloadSketch { pairs: &pairs };
        let mut tried = Vec::new();
        let choice = autodistill(&topo, &sketch, &DistillBudget::default(), |c| {
            tried.push((c.mode, c.compensation_load));
            1.0
        });
        assert_eq!(choice.config.mode, DistillationMode::HopByHop);
        assert_eq!(choice.measured_error, 0.0);
        // Every cheaper candidate was measured at every load before the
        // fallback; hop-by-hop itself never is.
        assert_eq!(choice.measurements, tried.len());
        assert!(tried.iter().all(|(m, _)| *m != DistillationMode::HopByHop));
        // Candidates came cheapest-first: the 2-pipe pruned mesh before
        // anything else.
        assert_eq!(tried[0].0, DistillationMode::EndToEnd);
    }

    #[test]
    fn candidates_costlier_than_hop_by_hop_are_never_tried() {
        // On the ring, walk-in meshes have *more* pipes than hop-by-hop, so a
        // budget no distilled config meets must stop at hop-by-hop without
        // measuring them.
        let topo = ring();
        let pairs = sketch_pairs(&topo, 2);
        let sketch = WorkloadSketch { pairs: &pairs };
        let choice = autodistill(&topo, &sketch, &DistillBudget::default(), |_| 1.0);
        let hop = distill(&topo, DistillationMode::HopByHop);
        let last_mile = distill(&topo, DistillationMode::LAST_MILE);
        assert!(last_mile.undirected_pipe_count() > hop.undirected_pipe_count());
        // Measured: the pruned mesh at four loads, plus walk-in 2 — which on
        // this shallow ring preserves everything (same pipe count as
        // hop-by-hop, nothing collapsed) and so is tried once at load 0.
        // Last-mile, with more pipes than hop-by-hop, is never measured.
        assert_eq!(choice.measurements, 5);
    }
}
