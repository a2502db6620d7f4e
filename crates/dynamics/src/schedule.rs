//! Deterministic, virtual-time-stamped reconfiguration schedules.
//!
//! A [`Schedule`] is the declarative half of runtime network dynamics: an
//! ordered stream of [`ScheduleEvent`]s — link failures and recoveries,
//! bandwidth/latency/loss renegotiation, seeded perturbations, node and VN
//! churn, and CBR / fluid background-demand changes — each pinned to a
//! virtual time. The [`ScheduleEngine`](crate::ScheduleEngine) applies the
//! stream to a running emulation; because the stream is a plain sorted
//! list with no hidden state (a perturbation carries its own seed), the
//! same schedule replayed against the same experiment produces
//! bit-identical runs on both execution backends.

use mn_distill::{PipeAttrs, PipeId};
use mn_packet::VnId;
use mn_topology::NodeId;
use mn_util::{DataRate, SimTime};

use crate::faults::LinkPerturbation;

/// One scheduled reconfiguration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ScheduleEvent {
    /// Replace a pipe's emulation parameters in place (bandwidth/latency/
    /// loss/queue renegotiation). Routes are recomputed only if the change
    /// can affect them (latency or usability).
    SetPipe {
        /// The pipe to re-parameterise.
        pipe: PipeId,
        /// Its new attributes.
        attrs: PipeAttrs,
    },
    /// Fail a pipe outright (zero bandwidth: everything offered to it is
    /// dropped, and routing steers around it).
    LinkDown {
        /// The pipe to fail.
        pipe: PipeId,
    },
    /// Restore a failed or renegotiated pipe to its original attributes.
    LinkUp {
        /// The pipe to restore.
        pipe: PipeId,
    },
    /// Fail every pipe incident to a node (node churn: crash / departure).
    NodeDown {
        /// The node whose pipes fail.
        node: NodeId,
    },
    /// Restore every pipe incident to a node to its original attributes.
    NodeUp {
        /// The node whose pipes recover.
        node: NodeId,
    },
    /// Change a random fraction of the pipes (a fault-injection step): the
    /// pipes and their new attributes are drawn from an RNG derived from
    /// `seed` alone, against the attributes in force when the event
    /// applies. Routes are recomputed as for [`ScheduleEvent::SetPipe`].
    Perturb {
        /// Which pipes change, and how.
        perturbation: LinkPerturbation,
        /// The draws' seed; replaying the event redraws the same changes.
        seed: u64,
    },
    /// Install (or replace) a constant-bit-rate background demand on a pipe
    /// (a zero rate removes it).
    CbrStart {
        /// The pipe carrying the background load.
        pipe: PipeId,
        /// Offered background load.
        rate: DataRate,
    },
    /// Remove the CBR background demand from a pipe.
    CbrStop {
        /// The pipe to quiesce.
        pipe: PipeId,
    },
    /// Start a fluid (flow-level) bulk flow between two VNs: `demand`
    /// offered in aggregate for `clients` modelled clients. The flow's
    /// max-min share of every pipe it crosses shows up to the packet path
    /// as consumed capacity.
    FluidStart {
        /// Caller-chosen flow tag (unique among live fluid flows).
        tag: u64,
        /// Source VN.
        src: VnId,
        /// Destination VN.
        dst: VnId,
        /// Aggregate offered rate.
        demand: DataRate,
        /// Modelled client count (the flow's max-min weight).
        clients: u32,
    },
    /// Change a live fluid flow's offered demand and client count.
    FluidResize {
        /// The flow to resize.
        tag: u64,
        /// New aggregate offered rate.
        demand: DataRate,
        /// New modelled client count.
        clients: u32,
    },
    /// Stop a fluid flow, returning its share to the packet path.
    FluidStop {
        /// The flow to stop.
        tag: u64,
    },
    /// Bind a new (or previously departed) VN at a client location and
    /// start routing for it: the location's source tree is added to the
    /// routing matrix if absent, the VN is bound to the location's row in
    /// the route table, and an entry core is assigned — all incrementally,
    /// without a full rebuild.
    VnJoin {
        /// The VN joining the emulation.
        vn: VnId,
        /// The topology client node it binds to.
        location: NodeId,
    },
    /// Remove a VN from the emulation. New traffic to or from it is
    /// refused immediately; descriptors already in flight drain
    /// deterministically on their pre-departure routes (route ids stay
    /// valid across the departure).
    VnLeave {
        /// The VN departing.
        vn: VnId,
    },
}

/// A virtual-time-ordered stream of reconfigurations.
#[derive(Debug, Clone, Default)]
pub struct Schedule {
    /// `(time, event)` pairs; kept sorted by time, stable for equal times
    /// (insertion order breaks ties, so a `LinkUp` scheduled after a
    /// `LinkDown` at the same instant is applied after it).
    events: Vec<(SimTime, ScheduleEvent)>,
}

impl Schedule {
    /// Creates an empty schedule.
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Adds an event at `at`, keeping the stream time-ordered (stable for
    /// equal times).
    pub fn at(mut self, at: SimTime, event: ScheduleEvent) -> Self {
        self.push(at, event);
        self
    }

    /// In-place [`Schedule::at`].
    pub fn push(&mut self, at: SimTime, event: ScheduleEvent) {
        let idx = self.events.partition_point(|&(t, _)| t <= at);
        self.events.insert(idx, (at, event));
    }

    /// Schedules a pipe failure.
    pub fn link_down(self, at: SimTime, pipe: PipeId) -> Self {
        self.at(at, ScheduleEvent::LinkDown { pipe })
    }

    /// Schedules a pipe restore.
    pub fn link_up(self, at: SimTime, pipe: PipeId) -> Self {
        self.at(at, ScheduleEvent::LinkUp { pipe })
    }

    /// Schedules a failure of both directions of a duplex link.
    pub fn duplex_down(self, at: SimTime, forward: PipeId, reverse: PipeId) -> Self {
        self.link_down(at, forward).link_down(at, reverse)
    }

    /// Schedules a restore of both directions of a duplex link.
    pub fn duplex_up(self, at: SimTime, forward: PipeId, reverse: PipeId) -> Self {
        self.link_up(at, forward).link_up(at, reverse)
    }

    /// Schedules an in-place re-parameterisation.
    pub fn set_pipe(self, at: SimTime, pipe: PipeId, attrs: PipeAttrs) -> Self {
        self.at(at, ScheduleEvent::SetPipe { pipe, attrs })
    }

    /// Schedules a node failure (all incident pipes fail).
    pub fn node_down(self, at: SimTime, node: NodeId) -> Self {
        self.at(at, ScheduleEvent::NodeDown { node })
    }

    /// Schedules a node recovery.
    pub fn node_up(self, at: SimTime, node: NodeId) -> Self {
        self.at(at, ScheduleEvent::NodeUp { node })
    }

    /// Schedules a seeded perturbation of a random fraction of the pipes.
    pub fn perturb(self, at: SimTime, perturbation: LinkPerturbation, seed: u64) -> Self {
        self.at(at, ScheduleEvent::Perturb { perturbation, seed })
    }

    /// Schedules a CBR background demand.
    pub fn cbr_start(self, at: SimTime, pipe: PipeId, rate: DataRate) -> Self {
        self.at(at, ScheduleEvent::CbrStart { pipe, rate })
    }

    /// Schedules a CBR background demand's removal.
    pub fn cbr_stop(self, at: SimTime, pipe: PipeId) -> Self {
        self.at(at, ScheduleEvent::CbrStop { pipe })
    }

    /// Schedules a fluid bulk-flow start.
    pub fn fluid_start(
        self,
        at: SimTime,
        tag: u64,
        src: VnId,
        dst: VnId,
        demand: DataRate,
        clients: u32,
    ) -> Self {
        self.at(
            at,
            ScheduleEvent::FluidStart {
                tag,
                src,
                dst,
                demand,
                clients,
            },
        )
    }

    /// Schedules a fluid flow resize.
    pub fn fluid_resize(self, at: SimTime, tag: u64, demand: DataRate, clients: u32) -> Self {
        self.at(
            at,
            ScheduleEvent::FluidResize {
                tag,
                demand,
                clients,
            },
        )
    }

    /// Schedules a fluid flow stop.
    pub fn fluid_stop(self, at: SimTime, tag: u64) -> Self {
        self.at(at, ScheduleEvent::FluidStop { tag })
    }

    /// Schedules a VN join at a client location.
    pub fn vn_join(self, at: SimTime, vn: VnId, location: NodeId) -> Self {
        self.at(at, ScheduleEvent::VnJoin { vn, location })
    }

    /// Schedules a VN departure.
    pub fn vn_leave(self, at: SimTime, vn: VnId) -> Self {
        self.at(at, ScheduleEvent::VnLeave { vn })
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The scheduled `(time, event)` stream, time-ordered.
    pub fn events(&self) -> &[(SimTime, ScheduleEvent)] {
        &self.events
    }

    /// The distinct event times, in order — the apply points a driver must
    /// visit.
    pub fn times(&self) -> Vec<SimTime> {
        let mut times: Vec<SimTime> = self.events.iter().map(|&(t, _)| t).collect();
        times.dedup();
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultKind;
    use mn_util::SimDuration;

    #[test]
    fn events_are_kept_time_ordered_and_stable() {
        let t = |secs| SimTime::from_secs(secs);
        let schedule = Schedule::new()
            .link_down(t(5), PipeId(1))
            .link_up(t(2), PipeId(1))
            .link_down(t(2), PipeId(3))
            .cbr_stop(t(5), PipeId(1));
        let times: Vec<SimTime> = schedule.events().iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![t(2), t(2), t(5), t(5)]);
        // Stable at equal times: the t=2 LinkUp was inserted first.
        assert!(matches!(
            schedule.events()[0].1,
            ScheduleEvent::LinkUp { pipe: PipeId(1) }
        ));
        assert!(matches!(
            schedule.events()[1].1,
            ScheduleEvent::LinkDown { pipe: PipeId(3) }
        ));
        assert_eq!(schedule.times(), vec![t(2), t(5)]);
        assert_eq!(schedule.len(), 4);
    }

    #[test]
    fn builder_shorthands_cover_every_event_kind() {
        let t = SimTime::from_secs(1);
        let perturbation = LinkPerturbation {
            fraction: 0.5,
            kind: FaultKind::LinkFailure,
        };
        let attrs = PipeAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(3));
        let schedule = Schedule::new()
            .duplex_down(t, PipeId(0), PipeId(1))
            .duplex_up(t, PipeId(0), PipeId(1))
            .set_pipe(t, PipeId(2), attrs)
            .node_down(t, NodeId(4))
            .node_up(t, NodeId(4))
            .perturb(t, perturbation, 3)
            .cbr_start(t, PipeId(2), DataRate::from_mbps(1))
            .cbr_stop(t, PipeId(2))
            .fluid_start(t, 7, VnId(0), VnId(1), DataRate::from_mbps(4), 100)
            .fluid_resize(t, 7, DataRate::from_mbps(2), 50)
            .fluid_stop(t, 7)
            .vn_join(t, VnId(9), NodeId(5))
            .vn_leave(t, VnId(9));
        assert_eq!(schedule.len(), 15);
        assert!(!schedule.is_empty());
        assert_eq!(schedule.times(), vec![t]);
    }
}
