//! Fault injection and scheduled link perturbation.
//!
//! Users direct ModelNet to change the bandwidth, delay and loss rate of a
//! set of links according to a probability distribution every so often, or to
//! fail nodes and links outright; the configuration scripts then update the
//! routing tables by recomputing all-pairs shortest paths. The ACDC
//! experiment (Figure 12) uses exactly this: every 25 seconds between
//! t = 500 s and t = 1500 s, 25 % of randomly chosen IP links have their
//! delay increased by 0–25 %.

use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

use mn_distill::{DistilledTopology, PipeAttrs, PipeId};
use mn_util::rngs::derived_rng;
use mn_util::SimTime;

/// What a perturbation does to the pipes it selects.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Scale the latency by a factor drawn uniformly from `[1 + min, 1 + max]`.
    DelayIncrease {
        /// Minimum fractional increase.
        min: f64,
        /// Maximum fractional increase.
        max: f64,
    },
    /// Scale the bandwidth by a factor drawn uniformly from `[min, max]`
    /// (values below 1.0 model congestion, above 1.0 model capacity upgrades).
    BandwidthScale {
        /// Minimum scale factor.
        min: f64,
        /// Maximum scale factor.
        max: f64,
    },
    /// Set the random loss rate to a value drawn uniformly from `[min, max]`.
    LossRate {
        /// Minimum loss probability.
        min: f64,
        /// Maximum loss probability.
        max: f64,
    },
    /// Fail the selected pipes completely (zero bandwidth — everything
    /// offered to them is dropped).
    LinkFailure,
    /// Restore the selected pipes to their original attributes.
    Restore,
}

/// One perturbation applied to a random fraction of pipes.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkPerturbation {
    /// Fraction of pipes to select, in `[0, 1]`.
    pub fraction: f64,
    /// What to do to them.
    pub kind: FaultKind,
}

/// A concrete change to one pipe produced by the injector.
#[derive(Debug, Clone)]
pub struct FaultEvent {
    /// Virtual time at which the change takes effect.
    pub at: SimTime,
    /// The pipe affected.
    pub pipe: PipeId,
    /// Its new attributes.
    pub attrs: PipeAttrs,
    /// Whether this change can alter reachability (failures and restores), in
    /// which case routes should be recomputed.
    pub reroute: bool,
}

/// Generates scheduled pipe perturbations against a distilled topology.
#[derive(Debug)]
pub struct FaultInjector {
    /// Original attributes, for restores.
    original: Vec<PipeAttrs>,
    /// Current attributes as far as the injector knows.
    current: Vec<PipeAttrs>,
    rng: rand::rngs::StdRng,
}

impl FaultInjector {
    /// Creates an injector for the given pipe graph.
    pub fn new(topo: &DistilledTopology, seed: u64) -> Self {
        let original: Vec<PipeAttrs> = topo.pipes().map(|(_, p)| p.attrs).collect();
        FaultInjector {
            current: original.clone(),
            original,
            rng: derived_rng(seed, 0xFA17),
        }
    }

    /// The attributes the injector believes a pipe currently has.
    pub fn current_attrs(&self, pipe: PipeId) -> Option<PipeAttrs> {
        self.current.get(pipe.index()).copied()
    }

    /// Applies a perturbation at time `at`, returning the concrete per-pipe
    /// changes (already recorded internally).
    pub fn perturb(&mut self, at: SimTime, perturbation: &LinkPerturbation) -> Vec<FaultEvent> {
        let n = self.current.len();
        let count = ((n as f64) * perturbation.fraction.clamp(0.0, 1.0)).round() as usize;
        let mut indices: Vec<usize> = (0..n).collect();
        indices.shuffle(&mut self.rng);
        indices.truncate(count);

        let mut events = Vec::with_capacity(count);
        for idx in indices {
            let base = self.current[idx];
            let (attrs, reroute) = match perturbation.kind {
                FaultKind::DelayIncrease { min, max } => {
                    let factor = 1.0 + self.rng.gen_range(min..=max.max(min + f64::EPSILON));
                    (
                        PipeAttrs {
                            latency: base.latency.mul_f64(factor),
                            ..base
                        },
                        false,
                    )
                }
                FaultKind::BandwidthScale { min, max } => {
                    let factor = self.rng.gen_range(min..=max.max(min + f64::EPSILON));
                    (
                        PipeAttrs {
                            bandwidth: base.bandwidth.mul_f64(factor),
                            ..base
                        },
                        false,
                    )
                }
                FaultKind::LossRate { min, max } => {
                    let loss = self.rng.gen_range(min..=max.max(min + f64::EPSILON));
                    (
                        PipeAttrs {
                            loss_rate: loss.clamp(0.0, 1.0),
                            ..base
                        },
                        false,
                    )
                }
                FaultKind::LinkFailure => (
                    PipeAttrs {
                        bandwidth: mn_util::DataRate::ZERO,
                        ..base
                    },
                    true,
                ),
                FaultKind::Restore => (self.original[idx], true),
            };
            self.current[idx] = attrs;
            events.push(FaultEvent {
                at,
                pipe: PipeId::from_index(idx),
                attrs,
                reroute,
            });
        }
        events
    }

    /// Restores every pipe to its original attributes.
    pub fn restore_all(&mut self, at: SimTime) -> Vec<FaultEvent> {
        let events = self
            .original
            .iter()
            .enumerate()
            .map(|(idx, &attrs)| FaultEvent {
                at,
                pipe: PipeId::from_index(idx),
                attrs,
                reroute: true,
            })
            .collect();
        self.current = self.original.clone();
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_distill::{distill, DistillationMode};
    use mn_topology::generators::{ring_topology, RingParams};
    use mn_util::DataRate;

    fn graph() -> DistilledTopology {
        let topo = ring_topology(&RingParams {
            routers: 5,
            clients_per_router: 2,
            ..RingParams::default()
        });
        distill(&topo, DistillationMode::HopByHop)
    }

    #[test]
    fn delay_increase_touches_the_requested_fraction() {
        let d = graph();
        let mut inj = FaultInjector::new(&d, 1);
        let events = inj.perturb(
            SimTime::from_secs(500),
            &LinkPerturbation {
                fraction: 0.25,
                kind: FaultKind::DelayIncrease {
                    min: 0.0,
                    max: 0.25,
                },
            },
        );
        let expected = (d.pipe_count() as f64 * 0.25).round() as usize;
        assert_eq!(events.len(), expected);
        for e in &events {
            let base = d.pipe(e.pipe).attrs;
            assert!(e.attrs.latency >= base.latency);
            assert!(e.attrs.latency <= base.latency.mul_f64(1.26));
            assert!(!e.reroute);
        }
    }

    #[test]
    fn repeated_perturbations_compound() {
        let d = graph();
        let mut inj = FaultInjector::new(&d, 2);
        for i in 0..10 {
            inj.perturb(
                SimTime::from_secs(i),
                &LinkPerturbation {
                    fraction: 1.0,
                    kind: FaultKind::DelayIncrease { min: 0.1, max: 0.1 },
                },
            );
        }
        // Ten compounding 10% increases ≈ 2.59x.
        let pipe = PipeId(0);
        let base = d.pipe(pipe).attrs.latency;
        let now = inj.current_attrs(pipe).unwrap().latency;
        let ratio = now.as_secs_f64() / base.as_secs_f64();
        assert!((2.4..2.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn link_failure_zeroes_bandwidth_and_requests_reroute() {
        let d = graph();
        let mut inj = FaultInjector::new(&d, 3);
        let events = inj.perturb(
            SimTime::ZERO,
            &LinkPerturbation {
                fraction: 0.1,
                kind: FaultKind::LinkFailure,
            },
        );
        assert!(!events.is_empty());
        for e in &events {
            assert_eq!(e.attrs.bandwidth, DataRate::ZERO);
            assert!(e.reroute);
        }
    }

    #[test]
    fn restore_all_returns_to_original() {
        let d = graph();
        let mut inj = FaultInjector::new(&d, 4);
        inj.perturb(
            SimTime::ZERO,
            &LinkPerturbation {
                fraction: 1.0,
                kind: FaultKind::LinkFailure,
            },
        );
        let events = inj.restore_all(SimTime::from_secs(1));
        assert_eq!(events.len(), d.pipe_count());
        for e in &events {
            assert_eq!(e.attrs, d.pipe(e.pipe).attrs);
        }
        assert_eq!(
            inj.current_attrs(PipeId(0)).unwrap(),
            d.pipe(PipeId(0)).attrs
        );
    }

    #[test]
    fn loss_and_bandwidth_perturbations_stay_in_range() {
        let d = graph();
        let mut inj = FaultInjector::new(&d, 5);
        let loss_events = inj.perturb(
            SimTime::ZERO,
            &LinkPerturbation {
                fraction: 0.5,
                kind: FaultKind::LossRate {
                    min: 0.01,
                    max: 0.05,
                },
            },
        );
        for e in &loss_events {
            assert!(e.attrs.loss_rate >= 0.01 && e.attrs.loss_rate <= 0.05);
        }
        let bw_events = inj.perturb(
            SimTime::ZERO,
            &LinkPerturbation {
                fraction: 0.5,
                kind: FaultKind::BandwidthScale { min: 0.5, max: 0.5 },
            },
        );
        for e in &bw_events {
            assert!(e.attrs.bandwidth <= d.pipe(e.pipe).attrs.bandwidth);
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let d = graph();
        let perturb = LinkPerturbation {
            fraction: 0.3,
            kind: FaultKind::DelayIncrease { min: 0.0, max: 0.2 },
        };
        let mut a = FaultInjector::new(&d, 9);
        let mut b = FaultInjector::new(&d, 9);
        let ea = a.perturb(SimTime::ZERO, &perturb);
        let eb = b.perturb(SimTime::ZERO, &perturb);
        assert_eq!(ea.len(), eb.len());
        for (x, y) in ea.iter().zip(eb.iter()) {
            assert_eq!(x.pipe, y.pipe);
            assert_eq!(x.attrs, y.attrs);
        }
    }
}
