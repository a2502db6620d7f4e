//! Seeded link perturbation: what a [`ScheduleEvent::Perturb`] does.
//!
//! Users direct ModelNet to change the bandwidth, delay and loss rate of a
//! set of links according to a probability distribution every so often, or to
//! fail nodes and links outright; the configuration scripts then update the
//! routing tables by recomputing all-pairs shortest paths. The ACDC
//! experiment (Figure 12) uses exactly this: every 25 seconds between
//! t = 500 s and t = 1500 s, 25 % of randomly chosen IP links have their
//! delay increased by 0–25 %. Each such change is one scheduled
//! [`ScheduleEvent::Perturb`], which the
//! [`ScheduleEngine`](crate::ScheduleEngine) applies to its pipe graph and
//! reroutes after like any other pipe change.
//!
//! [`ScheduleEvent::Perturb`]: crate::ScheduleEvent::Perturb

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use mn_distill::{PipeAttrs, PipeId};
use mn_util::rngs::derived_rng;
use mn_util::DataRate;

/// What a perturbation does to the pipes it selects.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPerturbation {
    /// Fraction of pipes to select, in `[0, 1]`.
    pub fraction: f64,
    /// What to do to them.
    pub kind: FaultKind,
}

impl LinkPerturbation {
    /// Fills `pipes` with the pipes this perturbation changes out of
    /// `pipe_count`, in the order their attributes are drawn, and returns
    /// the RNG that draws them. Both come from `seed` alone, so replaying
    /// the event redraws the same changes.
    pub(crate) fn select(&self, seed: u64, pipe_count: usize, pipes: &mut Vec<PipeId>) -> StdRng {
        let mut rng = derived_rng(seed, 0xFA17);
        let count = ((pipe_count as f64) * self.fraction.clamp(0.0, 1.0)).round() as usize;
        pipes.clear();
        pipes.extend((0..pipe_count).map(PipeId::from_index));
        pipes.shuffle(&mut rng);
        pipes.truncate(count);
        rng
    }
}

impl FaultKind {
    /// A selected pipe's new attributes, given its `current` and build-time
    /// `original` ones.
    pub(crate) fn apply(
        self,
        current: PipeAttrs,
        original: PipeAttrs,
        rng: &mut StdRng,
    ) -> PipeAttrs {
        let mut draw = |min: f64, max: f64| rng.gen_range(min..=max.max(min + f64::EPSILON));
        match self {
            FaultKind::DelayIncrease { min, max } => PipeAttrs {
                latency: current.latency.mul_f64(1.0 + draw(min, max)),
                ..current
            },
            FaultKind::BandwidthScale { min, max } => PipeAttrs {
                bandwidth: current.bandwidth.mul_f64(draw(min, max)),
                ..current
            },
            FaultKind::LossRate { min, max } => PipeAttrs {
                loss_rate: draw(min, max).clamp(0.0, 1.0),
                ..current
            },
            FaultKind::LinkFailure => failed(current),
            FaultKind::Restore => original,
        }
    }
}

/// `attrs` with zero bandwidth: a failed link.
pub(crate) fn failed(attrs: PipeAttrs) -> PipeAttrs {
    PipeAttrs {
        bandwidth: DataRate::ZERO,
        ..attrs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{graph, perturb, MockTarget};
    use crate::{Schedule, ScheduleEngine};
    use mn_util::SimTime;

    #[test]
    fn delay_increase_touches_the_requested_fraction() {
        let d = graph();
        let kind = FaultKind::DelayIncrease {
            min: 0.0,
            max: 0.25,
        };
        let schedule = Schedule::new().perturb(SimTime::from_secs(500), perturb(0.25, kind), 1);
        let mut engine = ScheduleEngine::new(d.clone(), schedule);
        let mut target = MockTarget::default();
        let applied = engine.apply_due(SimTime::from_secs(500), &mut target);
        let expected = (d.pipe_count() as f64 * 0.25).round() as usize;
        assert_eq!(applied.pipes_updated, expected);
        assert_eq!(target.reroutes.len(), 1, "a delay change reroutes");
        assert_eq!(target.reroutes[0].len(), expected);
        for &(pipe, attrs) in &target.updates {
            let base = d.pipe(pipe).attrs.latency;
            assert!(attrs.latency > base && attrs.latency <= base.mul_f64(1.26));
            assert_eq!(engine.topology().pipe(pipe).attrs, attrs);
        }
    }

    /// Ten compounding 10 % delay increases of every pipe, one a second
    /// from t = 0.
    fn compounding() -> Schedule {
        let kind = FaultKind::DelayIncrease { min: 0.1, max: 0.1 };
        (0..10).fold(Schedule::new(), |schedule, i| {
            schedule.perturb(SimTime::from_secs(i), perturb(1.0, kind), i)
        })
    }

    #[test]
    fn repeated_perturbations_compound() {
        let mut engine = ScheduleEngine::new(graph(), compounding());
        engine.apply_due(SimTime::from_secs(9), &mut MockTarget::default());
        // Ten compounding 10% increases ≈ 2.59x.
        let pipe = PipeId(0);
        let base = graph().pipe(pipe).attrs.latency;
        let now = engine.topology().pipe(pipe).attrs.latency;
        let ratio = now.as_secs_f64() / base.as_secs_f64();
        assert!((2.4..2.8).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn link_failure_zeroes_bandwidth_and_requests_reroute() {
        let d = graph();
        let schedule =
            Schedule::new().perturb(SimTime::ZERO, perturb(0.1, FaultKind::LinkFailure), 3);
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        let applied = engine.apply_due(SimTime::ZERO, &mut target);
        assert!(applied.pipes_updated > 0);
        for &(pipe, attrs) in &target.updates {
            assert_eq!(attrs.bandwidth, DataRate::ZERO);
            assert_eq!(target.reroutes[0].iter().filter(|&&p| p == pipe).count(), 1);
        }
        assert_eq!(target.reroutes.len(), 1);
    }

    #[test]
    fn restore_all_returns_to_original() {
        let d = graph();
        let schedule = compounding()
            .perturb(
                SimTime::from_secs(10),
                perturb(1.0, FaultKind::LinkFailure),
                0,
            )
            .perturb(SimTime::from_secs(11), perturb(1.0, FaultKind::Restore), 0);
        let mut engine = ScheduleEngine::new(d.clone(), schedule);
        let mut target = MockTarget::default();
        engine.apply_due(SimTime::from_secs(10), &mut target);
        let restore = engine.apply_due(SimTime::from_secs(11), &mut target);
        assert_eq!(restore.pipes_updated, d.pipe_count());
        assert!(restore.reroute.is_some());
        for (id, pipe) in engine.topology().pipes() {
            assert_eq!(pipe.attrs, d.pipe(id).attrs);
        }
    }

    #[test]
    fn loss_and_bandwidth_perturbations_stay_in_range() {
        let d = graph();
        let t = SimTime::from_secs;
        let loss = FaultKind::LossRate {
            min: 0.01,
            max: 0.05,
        };
        let bandwidth = FaultKind::BandwidthScale { min: 0.5, max: 0.5 };
        let schedule = Schedule::new()
            .perturb(t(1), perturb(0.5, loss), 5)
            .perturb(t(2), perturb(0.5, bandwidth), 6);
        let mut engine = ScheduleEngine::new(d.clone(), schedule);
        let mut target = MockTarget::default();
        let applied = engine.apply_due(t(1), &mut target);
        assert!(applied.pipes_updated > 0);
        assert!(applied.reroute.is_none(), "loss is not a routing metric");
        for (_, attrs) in target.updates.drain(..) {
            assert!((0.01..=0.05).contains(&attrs.loss_rate));
        }
        engine.apply_due(t(2), &mut target);
        assert!(!target.updates.is_empty());
        for &(pipe, attrs) in &target.updates {
            assert_eq!(attrs.bandwidth, d.pipe(pipe).attrs.bandwidth.mul_f64(0.5));
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let kind = FaultKind::DelayIncrease { min: 0.0, max: 0.2 };
        let updates = |seed| {
            let schedule = Schedule::new().perturb(SimTime::ZERO, perturb(0.3, kind), seed);
            let mut target = MockTarget::default();
            ScheduleEngine::new(graph(), schedule).apply_due(SimTime::ZERO, &mut target);
            target.updates
        };
        assert!(!updates(9).is_empty());
        assert_eq!(updates(9), updates(9));
        assert_ne!(updates(9), updates(10));
    }
}
