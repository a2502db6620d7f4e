//! The runtime reconfiguration engine.
//!
//! [`ScheduleEngine`] owns the authoritative copy of the distilled pipe
//! graph — the one record of every run-time change — and walks a
//! [`Schedule`] against a running emulation: every pipe
//! event (a renegotiation, a link or node flap, a seeded perturbation) is
//! folded into the graph first and the pipes it changed are then mutated in
//! place on the allocation-free tick path; CBR episodes are installed and
//! removed as fixed-rate fluid demands; and — only when a change can
//! actually affect shortest paths (latency, or a link failing/recovering) —
//! the affected routes are recomputed **incrementally** through
//! [`DynamicsTarget::reroute`]. Changes applied at one apply point are
//! batched into a single reroute, so a node failure taking down a dozen
//! pipes costs one routing update — and each reroute publishes one
//! copy-on-write route-table generation whose cost is proportional to the
//! rows that changed, not to the VN pair count.
//!
//! The engine performs no time-keeping of its own: the driver (the Runner,
//! or a test loop) calls [`ScheduleEngine::apply_due`] at its apply points.
//! Because every mutation flows through the same target interface in
//! schedule order, sequential and threaded backends observe identical
//! command streams and stay bit-identical through every reconfiguration.

use mn_distill::{DistilledTopology, PipeAttrs, PipeId};
use mn_packet::VnId;
use mn_routing::RouteUpdate;
use mn_topology::NodeId;
use mn_util::{DataRate, SimTime};

use crate::faults::failed;
use crate::schedule::{Schedule, ScheduleEvent};

/// The emulation-side interface the engine reconfigures through. The
/// façade's `modelnet::Reconfigure` implements it over an emulator on
/// either executor.
pub trait DynamicsTarget {
    /// Replaces a pipe's emulation parameters in place. Packets already
    /// inside the pipe keep their computed deadlines.
    fn update_pipe_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) -> bool;

    /// Installs, replaces or (with `None`) removes the fixed-rate
    /// background demand on a pipe, from `from`.
    fn set_pipe_compensation(
        &mut self,
        pipe: PipeId,
        rate: Option<DataRate>,
        from: SimTime,
    ) -> bool;

    /// Recomputes routing incrementally after the listed pipes of `topo`
    /// changed. In-flight descriptors keep their (still valid) route ids.
    fn reroute(&mut self, topo: &DistilledTopology, changed: &[PipeId]) -> RouteUpdate;

    /// Starts a fluid bulk flow effective at `at`.
    fn add_fluid_flow(
        &mut self,
        tag: u64,
        src: VnId,
        dst: VnId,
        demand: DataRate,
        clients: u32,
        at: SimTime,
    ) -> bool;

    /// Changes a fluid flow's offered demand and client count at `at`.
    fn resize_fluid_flow(&mut self, tag: u64, demand: DataRate, clients: u32, at: SimTime) -> bool;

    /// Stops a fluid flow at `at`.
    fn remove_fluid_flow(&mut self, tag: u64, at: SimTime) -> bool;

    /// Binds a VN at a client location of `topo` and starts routing for
    /// it, incrementally (no full route rebuild).
    fn vn_join(
        &mut self,
        topo: &DistilledTopology,
        vn: VnId,
        location: NodeId,
        at: SimTime,
    ) -> bool;

    /// Removes a VN at `at`. New traffic to or from it is refused from
    /// this apply point on; in-flight descriptors drain on their
    /// pre-departure routes.
    fn vn_leave(&mut self, vn: VnId, at: SimTime) -> bool;
}

/// Why [`ScheduleEngine::restore_cursor`] refused to fast-forward.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleRestoreError {
    /// The engine has already applied events; restore requires a fresh
    /// engine built from the same experiment configuration.
    NotFresh {
        /// How many events the engine had already applied.
        applied: usize,
    },
    /// The checkpointed cursor points past the end of the schedule — the
    /// snapshot was taken against a different (longer) schedule.
    CursorOutOfRange {
        /// The checkpointed cursor.
        cursor: usize,
        /// This schedule's event count.
        len: usize,
    },
    /// A still-pending event is stamped before the restored virtual time:
    /// it would have to fire in the past, so the cursor and the snapshot
    /// disagree about how far the run had progressed.
    EventBeforeRestore {
        /// Index of the offending event in the schedule.
        index: usize,
        /// Its scheduled time.
        at: SimTime,
        /// The virtual time the emulation resumes at.
        resumed_at: SimTime,
    },
}

impl std::fmt::Display for ScheduleRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleRestoreError::NotFresh { applied } => write!(
                f,
                "schedule restore requires a fresh engine ({applied} events already applied)"
            ),
            ScheduleRestoreError::CursorOutOfRange { cursor, len } => write!(
                f,
                "checkpointed schedule cursor {cursor} exceeds schedule length {len}"
            ),
            ScheduleRestoreError::EventBeforeRestore {
                index,
                at,
                resumed_at,
            } => write!(
                f,
                "pending schedule event {index} at {at:?} predates restored time {resumed_at:?}"
            ),
        }
    }
}

impl std::error::Error for ScheduleRestoreError {}

/// What one [`ScheduleEngine::apply_due`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AppliedChanges {
    /// Schedule events consumed.
    pub events: usize,
    /// Pipes whose parameters were updated in place.
    pub pipes_updated: usize,
    /// CBR episodes installed, replaced or removed.
    pub cbr_changes: usize,
    /// Fluid flows started, resized or stopped.
    pub fluid_changes: usize,
    /// VNs joined or departed.
    pub vn_changes: usize,
    /// The routing update, if any applied change required one.
    pub reroute: Option<RouteUpdate>,
}

impl AppliedChanges {
    /// Returns `true` if nothing was applied.
    pub fn is_empty(&self) -> bool {
        self.events == 0
    }
}

/// Applies a [`Schedule`] to a running emulation.
#[derive(Debug)]
pub struct ScheduleEngine {
    /// The authoritative pipe graph, mutated as events apply; routing
    /// updates are computed against it.
    topo: DistilledTopology,
    /// Build-time attributes, for `LinkUp`/`NodeUp` restores.
    original: Vec<PipeAttrs>,
    /// Every pipe incident to a node (outgoing and incoming), for node
    /// churn.
    incident: Vec<Vec<PipeId>>,
    schedule: Schedule,
    /// Index of the first unapplied event.
    cursor: usize,
    /// Scratch: pipes whose routing-relevant attributes changed at the
    /// current apply point (batched into one reroute).
    changed: Vec<PipeId>,
    /// Scratch: the pipes the event being applied changed, in order.
    touched: Vec<PipeId>,
    /// Scratch: the pipes a node or perturbation event walks, reused
    /// across apply points so repeated churn allocates nothing new.
    walk: Vec<PipeId>,
}

impl ScheduleEngine {
    /// Creates an engine over a copy of the distilled topology the
    /// emulation was built from.
    pub fn new(topo: DistilledTopology, schedule: Schedule) -> Self {
        let original: Vec<PipeAttrs> = topo.pipes().map(|(_, p)| p.attrs).collect();
        let mut incident: Vec<Vec<PipeId>> = vec![Vec::new(); topo.node_count()];
        for (id, pipe) in topo.pipes() {
            incident[pipe.src.index()].push(id);
            incident[pipe.dst.index()].push(id);
        }
        ScheduleEngine {
            topo,
            original,
            incident,
            schedule,
            cursor: 0,
            changed: Vec::new(),
            touched: Vec::new(),
            walk: Vec::new(),
        }
    }

    /// The virtual time of the next unapplied event, or `None` when the
    /// schedule is exhausted.
    pub fn next_time(&self) -> Option<SimTime> {
        self.schedule.events().get(self.cursor).map(|&(t, _)| t)
    }

    /// Number of unapplied events.
    pub fn pending(&self) -> usize {
        self.schedule.len() - self.cursor
    }

    /// Returns `true` once every event has been applied.
    pub fn finished(&self) -> bool {
        self.pending() == 0
    }

    /// The engine's current view of the pipe graph (original attributes
    /// with every applied change folded in).
    pub fn topology(&self) -> &DistilledTopology {
        &self.topo
    }

    /// The full schedule the engine walks.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Index of the first unapplied schedule event. Together with the
    /// schedule itself (which the snapshot layer does not serialize — it is
    /// part of the experiment configuration) this is the engine's complete
    /// restorable state: see [`ScheduleEngine::restore_cursor`].
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Fast-forwards a **fresh** engine to a checkpointed position.
    ///
    /// The first `cursor` events are folded into the engine's authoritative
    /// pipe graph without a target (the emulator side was restored from
    /// the snapshot and already carries them; a perturbation redraws from
    /// its own seed, so it folds in the changes it made), then every
    /// still-pending event is validated against the restored virtual time:
    /// an event stamped before `resumed_at` would have to fire in the past,
    /// which means the cursor and the snapshot disagree — a structured
    /// error, not a silent skip.
    pub fn restore_cursor(
        &mut self,
        cursor: usize,
        resumed_at: SimTime,
    ) -> Result<(), ScheduleRestoreError> {
        if self.cursor != 0 {
            return Err(ScheduleRestoreError::NotFresh {
                applied: self.cursor,
            });
        }
        let len = self.schedule.len();
        if cursor > len {
            return Err(ScheduleRestoreError::CursorOutOfRange { cursor, len });
        }
        for index in cursor..len {
            let (at, _) = self.schedule.events()[index];
            if at < resumed_at {
                return Err(ScheduleRestoreError::EventBeforeRestore {
                    index,
                    at,
                    resumed_at,
                });
            }
        }
        while self.cursor < cursor {
            let (_, event) = self.schedule.events()[self.cursor];
            self.cursor += 1;
            self.fold(event);
            self.touched.clear();
        }
        // The emulator restored its own routing state; the batched-reroute
        // scratch from the replay must not leak into the next apply point.
        self.changed.clear();
        Ok(())
    }

    /// Applies every event due at or before `now` to `target`, in schedule
    /// order, batching all routing-relevant changes into a single
    /// incremental reroute at the end of the apply point.
    pub fn apply_due<T: DynamicsTarget>(&mut self, now: SimTime, target: &mut T) -> AppliedChanges {
        let mut applied = AppliedChanges::default();
        while let Some(&(at, event)) = self.schedule.events().get(self.cursor) {
            if at > now {
                break;
            }
            self.cursor += 1;
            applied.events += 1;
            self.fold(event);
            for &pipe in &self.touched {
                target.update_pipe_attrs(pipe, self.topo.pipe(pipe).attrs);
            }
            applied.pipes_updated += self.touched.len();
            self.touched.clear();
            Self::forward(&self.topo, target, at, event, &mut applied);
        }
        if !self.changed.is_empty() {
            let update = target.reroute(&self.topo, &self.changed);
            self.changed.clear();
            applied.reroute = Some(update);
        }
        applied
    }

    /// Folds a pipe event into the authoritative graph, listing the pipes
    /// it changed in `touched`. Other events leave the graph alone.
    fn fold(&mut self, event: ScheduleEvent) {
        let mut walk = std::mem::take(&mut self.walk);
        match event {
            ScheduleEvent::SetPipe { pipe, attrs } => self.set_attrs(pipe, attrs),
            ScheduleEvent::LinkDown { pipe } => {
                if let Some(current) = self.topo.get_pipe(pipe).map(|p| p.attrs) {
                    self.set_attrs(pipe, failed(current));
                }
            }
            ScheduleEvent::LinkUp { pipe } => {
                if let Some(&original) = self.original.get(pipe.index()) {
                    self.set_attrs(pipe, original);
                }
            }
            ScheduleEvent::NodeDown { node } | ScheduleEvent::NodeUp { node } => {
                walk.clear();
                walk.extend_from_slice(self.incident.get(node.index()).map_or(&[], Vec::as_slice));
                for &pipe in &walk {
                    let attrs = match event {
                        ScheduleEvent::NodeDown { .. } => failed(self.topo.pipe(pipe).attrs),
                        _ => self.original[pipe.index()],
                    };
                    self.set_attrs(pipe, attrs);
                }
            }
            ScheduleEvent::Perturb { perturbation, seed } => {
                let mut rng = perturbation.select(seed, self.original.len(), &mut walk);
                for &pipe in &walk {
                    let (current, original) =
                        (self.topo.pipe(pipe).attrs, self.original[pipe.index()]);
                    let attrs = perturbation.kind.apply(current, original, &mut rng);
                    self.set_attrs(pipe, attrs);
                }
            }
            _ => {}
        }
        self.walk = walk;
    }

    /// Writes one pipe's new attributes into the authoritative graph,
    /// listing it in `touched` if they changed and flagging it for the
    /// batched reroute when the change can affect shortest paths (latency,
    /// or usability flipping).
    fn set_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) {
        let Some(slot) = self.topo.pipe_attrs_mut(pipe) else {
            return;
        };
        let old = std::mem::replace(slot, attrs);
        if old == attrs {
            return;
        }
        self.touched.push(pipe);
        let routing_relevant =
            old.latency != attrs.latency || old.bandwidth.is_zero() != attrs.bandwidth.is_zero();
        if routing_relevant && !self.changed.contains(&pipe) {
            self.changed.push(pipe);
        }
    }

    /// Hands a background-demand or VN event to `target`, effective from
    /// the event's scheduled time `at` rather than the (possibly later)
    /// apply time, so replays are deterministic regardless of driver
    /// granularity. Pipe events were folded already.
    fn forward<T: DynamicsTarget>(
        topo: &DistilledTopology,
        target: &mut T,
        at: SimTime,
        event: ScheduleEvent,
        applied: &mut AppliedChanges,
    ) {
        let (accepted, count) = match event {
            ScheduleEvent::CbrStart { pipe, rate } => (
                target.set_pipe_compensation(pipe, (!rate.is_zero()).then_some(rate), at),
                &mut applied.cbr_changes,
            ),
            ScheduleEvent::CbrStop { pipe } => (
                target.set_pipe_compensation(pipe, None, at),
                &mut applied.cbr_changes,
            ),
            ScheduleEvent::FluidStart {
                tag,
                src,
                dst,
                demand,
                clients,
            } => (
                target.add_fluid_flow(tag, src, dst, demand, clients, at),
                &mut applied.fluid_changes,
            ),
            ScheduleEvent::FluidResize {
                tag,
                demand,
                clients,
            } => (
                target.resize_fluid_flow(tag, demand, clients, at),
                &mut applied.fluid_changes,
            ),
            ScheduleEvent::FluidStop { tag } => (
                target.remove_fluid_flow(tag, at),
                &mut applied.fluid_changes,
            ),
            // The graph carries every applied pipe change, so the
            // newcomer's source tree is computed against current attributes.
            ScheduleEvent::VnJoin { vn, location } => (
                target.vn_join(topo, vn, location, at),
                &mut applied.vn_changes,
            ),
            ScheduleEvent::VnLeave { vn } => (target.vn_leave(vn, at), &mut applied.vn_changes),
            _ => return,
        };
        if accepted {
            *count += 1;
        }
    }
}

#[cfg(test)]
pub mod tests {
    use super::*;
    use crate::{FaultKind, LinkPerturbation};
    use mn_distill::{distill, DistillationMode};
    use mn_topology::generators::{ring_topology, RingParams};

    /// Records every call the engine makes.
    #[derive(Default)]
    pub struct MockTarget {
        pub updates: Vec<(PipeId, PipeAttrs)>,
        pub cbr: Vec<(PipeId, Option<DataRate>, SimTime)>,
        pub reroutes: Vec<Vec<PipeId>>,
        pub fluid: Vec<(u64, SimTime)>,
        pub churn: Vec<(VnId, Option<NodeId>, SimTime)>,
    }

    impl DynamicsTarget for MockTarget {
        fn update_pipe_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) -> bool {
            self.updates.push((pipe, attrs));
            true
        }
        fn set_pipe_compensation(
            &mut self,
            pipe: PipeId,
            rate: Option<DataRate>,
            from: SimTime,
        ) -> bool {
            self.cbr.push((pipe, rate, from));
            true
        }
        fn reroute(&mut self, _topo: &DistilledTopology, changed: &[PipeId]) -> RouteUpdate {
            self.reroutes.push(changed.to_vec());
            RouteUpdate::default()
        }
        fn add_fluid_flow(
            &mut self,
            tag: u64,
            _src: VnId,
            _dst: VnId,
            _demand: DataRate,
            _clients: u32,
            at: SimTime,
        ) -> bool {
            self.fluid.push((tag, at));
            true
        }
        fn resize_fluid_flow(
            &mut self,
            tag: u64,
            _demand: DataRate,
            _clients: u32,
            at: SimTime,
        ) -> bool {
            self.fluid.push((tag, at));
            true
        }
        fn remove_fluid_flow(&mut self, tag: u64, at: SimTime) -> bool {
            self.fluid.push((tag, at));
            true
        }
        fn vn_join(
            &mut self,
            _topo: &DistilledTopology,
            vn: VnId,
            location: NodeId,
            at: SimTime,
        ) -> bool {
            self.churn.push((vn, Some(location), at));
            true
        }
        fn vn_leave(&mut self, vn: VnId, at: SimTime) -> bool {
            self.churn.push((vn, None, at));
            true
        }
    }

    pub fn graph() -> DistilledTopology {
        let topo = ring_topology(&RingParams {
            routers: 4,
            clients_per_router: 1,
            ..RingParams::default()
        });
        distill(&topo, DistillationMode::HopByHop)
    }

    #[test]
    fn link_flap_round_trips_and_batches_one_reroute_per_apply_point() {
        let d = graph();
        let original = d.pipe(PipeId(0)).attrs;
        let schedule = Schedule::new()
            .duplex_down(SimTime::from_secs(1), PipeId(0), PipeId(1))
            .duplex_up(SimTime::from_secs(2), PipeId(0), PipeId(1));
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        assert_eq!(engine.next_time(), Some(SimTime::from_secs(1)));
        // Nothing due yet.
        let early = engine.apply_due(SimTime::from_millis(500), &mut target);
        assert!(early.is_empty());
        // The failure: both directions updated, one batched reroute.
        let down = engine.apply_due(SimTime::from_secs(1), &mut target);
        assert_eq!(down.events, 2);
        assert_eq!(down.pipes_updated, 2);
        assert!(down.reroute.is_some());
        assert_eq!(target.reroutes, vec![vec![PipeId(0), PipeId(1)]]);
        assert!(engine.topology().pipe(PipeId(0)).attrs.bandwidth.is_zero());
        // The recovery restores the originals.
        let up = engine.apply_due(SimTime::from_secs(2), &mut target);
        assert_eq!(up.pipes_updated, 2);
        assert_eq!(engine.topology().pipe(PipeId(0)).attrs, original);
        assert_eq!(target.reroutes.len(), 2);
        assert!(engine.finished());
        assert_eq!(engine.next_time(), None);
    }

    #[test]
    fn node_churn_fails_every_incident_pipe() {
        let d = graph();
        // Node 0 is a router of the ring: two ring links plus one access
        // link -> six directed pipes.
        let node = mn_topology::NodeId(0);
        let expected: usize = d
            .pipes()
            .filter(|(_, p)| p.src == node || p.dst == node)
            .count();
        assert!(expected >= 4);
        let schedule = Schedule::new()
            .node_down(SimTime::from_secs(1), node)
            .node_up(SimTime::from_secs(2), node);
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        let down = engine.apply_due(SimTime::from_secs(1), &mut target);
        assert_eq!(down.pipes_updated, expected);
        assert_eq!(target.reroutes[0].len(), expected);
        for (id, pipe) in engine.topology().pipes() {
            assert_eq!(
                pipe.attrs.bandwidth.is_zero(),
                pipe.src == node || pipe.dst == node,
                "{id}"
            );
        }
        let up = engine.apply_due(SimTime::from_secs(2), &mut target);
        assert_eq!(up.pipes_updated, expected);
        assert!(engine
            .topology()
            .pipes()
            .all(|(_, p)| !p.attrs.bandwidth.is_zero()));
    }

    #[test]
    fn pure_bandwidth_renegotiation_does_not_reroute() {
        let d = graph();
        let base = d.pipe(PipeId(0)).attrs;
        let renegotiated = PipeAttrs {
            bandwidth: base.bandwidth.mul_f64(0.25),
            ..base
        };
        let schedule = Schedule::new().set_pipe(SimTime::from_secs(1), PipeId(0), renegotiated);
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        let applied = engine.apply_due(SimTime::from_secs(1), &mut target);
        assert_eq!(applied.pipes_updated, 1);
        assert!(applied.reroute.is_none(), "cost metric is latency only");
        assert!(target.reroutes.is_empty());
        // A latency change on the other hand must reroute.
        let d2 = engine.topology().clone();
        let slower = PipeAttrs {
            latency: base.latency * 2,
            ..renegotiated
        };
        let mut engine = ScheduleEngine::new(
            d2,
            Schedule::new().set_pipe(SimTime::from_secs(1), PipeId(0), slower),
        );
        let applied = engine.apply_due(SimTime::from_secs(1), &mut target);
        assert!(applied.reroute.is_some());
    }

    #[test]
    fn cbr_events_carry_their_scheduled_start_time() {
        let d = graph();
        let rate = DataRate::from_mbps(2);
        let schedule = Schedule::new()
            .cbr_start(SimTime::from_secs(1), PipeId(3), rate)
            .cbr_stop(SimTime::from_secs(4), PipeId(3))
            .cbr_start(SimTime::from_secs(5), PipeId(3), DataRate::ZERO);
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        // Applied late: the injector still starts at its scheduled time.
        let applied = engine.apply_due(SimTime::from_secs(2), &mut target);
        assert_eq!(applied.cbr_changes, 1);
        assert_eq!(
            target.cbr,
            vec![(PipeId(3), Some(rate), SimTime::from_secs(1))]
        );
        let applied = engine.apply_due(SimTime::from_secs(10), &mut target);
        assert_eq!(applied.cbr_changes, 2);
        // A zero rate installs no demand: it removes the pipe's demand.
        assert_eq!(
            target.cbr[1..],
            [
                (PipeId(3), None, SimTime::from_secs(4)),
                (PipeId(3), None, SimTime::from_secs(5))
            ]
        );
        assert!(applied.reroute.is_none(), "CBR does not change routes");
    }

    #[test]
    fn fluid_events_carry_their_scheduled_times_and_never_reroute() {
        let d = graph();
        let t = SimTime::from_secs;
        let schedule = Schedule::new()
            .fluid_start(t(1), 9, VnId(0), VnId(1), DataRate::from_mbps(8), 1000)
            .fluid_resize(t(2), 9, DataRate::from_mbps(4), 500)
            .fluid_stop(t(3), 9);
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        // Applied late, the events still carry their scheduled times.
        let applied = engine.apply_due(t(5), &mut target);
        assert_eq!(applied.fluid_changes, 3);
        assert_eq!(target.fluid, vec![(9, t(1)), (9, t(2)), (9, t(3))]);
        assert!(
            applied.reroute.is_none(),
            "fluid flows do not change routes"
        );
    }

    #[test]
    fn vn_churn_events_reach_the_target_in_schedule_order() {
        let d = graph();
        let t = SimTime::from_secs;
        let loc = *d.vns().first().expect("graph has client nodes");
        let schedule = Schedule::new()
            .vn_join(t(1), VnId(40), loc)
            .vn_leave(t(2), VnId(40))
            .vn_join(t(2), VnId(41), loc);
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        let applied = engine.apply_due(t(1), &mut target);
        assert_eq!(applied.vn_changes, 1);
        // Applied late, the leave and the second join still land in
        // schedule order with their scheduled times.
        let applied = engine.apply_due(t(5), &mut target);
        assert_eq!(applied.vn_changes, 2);
        assert!(applied.reroute.is_none(), "churn does not batch a reroute");
        assert_eq!(
            target.churn,
            vec![
                (VnId(40), Some(loc), t(1)),
                (VnId(40), None, t(2)),
                (VnId(41), Some(loc), t(2)),
            ]
        );
    }

    pub fn perturb(fraction: f64, kind: FaultKind) -> LinkPerturbation {
        LinkPerturbation { fraction, kind }
    }

    #[test]
    fn restore_cursor_folds_applied_changes_without_touching_the_target() {
        let d = graph();
        let t = SimTime::from_secs;
        let slower = PipeAttrs {
            latency: d.pipe(PipeId(2)).attrs.latency * 3,
            ..d.pipe(PipeId(2)).attrs
        };
        let delay = FaultKind::DelayIncrease { min: 0.0, max: 0.5 };
        let bandwidth = FaultKind::BandwidthScale { min: 0.5, max: 0.9 };
        let loc = d.vns()[0];
        // A prefix holding every kind of event, then a tail whose
        // perturbation compounds on whatever the prefix left.
        let schedule = Schedule::new()
            .set_pipe(t(1), PipeId(2), slower)
            .link_down(t(1), PipeId(0))
            .node_down(t(2), NodeId(1))
            .perturb(t(2), perturb(0.5, delay), 11)
            .link_up(t(3), PipeId(0))
            .node_up(t(3), NodeId(1))
            .perturb(t(3), perturb(0.5, bandwidth), 12)
            .cbr_start(t(3), PipeId(4), DataRate::from_mbps(1))
            .fluid_start(t(3), 9, VnId(0), VnId(1), DataRate::from_mbps(8), 10)
            .vn_join(t(3), VnId(40), loc)
            .perturb(
                t(4),
                perturb(1.0, FaultKind::DelayIncrease { min: 0.1, max: 0.2 }),
                13,
            )
            .link_down(t(4), PipeId(5));
        // A reference engine applies the prefix the normal way.
        let mut reference = ScheduleEngine::new(d.clone(), schedule.clone());
        reference.apply_due(t(3), &mut MockTarget::default());
        assert_eq!(reference.cursor(), 10);
        // A fresh engine fast-forwarded to the same cursor must agree on
        // the pipe graph, pipe for pipe, and on the pending tail.
        let mut restored = ScheduleEngine::new(d.clone(), schedule);
        restored.restore_cursor(10, t(3)).expect("valid cursor");
        assert_eq!(restored.cursor(), 10);
        assert_eq!(restored.pending(), reference.pending());
        assert_eq!(restored.next_time(), Some(t(4)));
        let attrs = |engine: &ScheduleEngine| -> Vec<PipeAttrs> {
            engine.topology().pipes().map(|(_, p)| p.attrs).collect()
        };
        assert_eq!(attrs(&restored), attrs(&reference));
        assert_ne!(
            attrs(&restored),
            attrs(&ScheduleEngine::new(d, Schedule::new()))
        );
        // Resuming walks the tail exactly like the reference, and only the
        // post-restore apply point reaches a target.
        let (mut want, mut got) = (MockTarget::default(), MockTarget::default());
        reference.apply_due(t(4), &mut want);
        restored.apply_due(t(4), &mut got);
        assert!(!got.updates.is_empty());
        assert_eq!(got.updates, want.updates);
        assert_eq!(got.reroutes, want.reroutes);
        assert!(got.cbr.is_empty() && got.fluid.is_empty() && got.churn.is_empty());
        assert_eq!(attrs(&restored), attrs(&reference));
        assert!(restored.finished());
    }

    #[test]
    fn restore_cursor_rejects_structured_inconsistencies() {
        let t = SimTime::from_secs;
        let schedule = Schedule::new()
            .link_down(t(1), PipeId(0))
            .link_up(t(2), PipeId(0));
        // Not fresh: an engine that already applied events refuses.
        let mut engine = ScheduleEngine::new(graph(), schedule.clone());
        engine.apply_due(t(1), &mut MockTarget::default());
        assert_eq!(
            engine.restore_cursor(1, t(1)),
            Err(ScheduleRestoreError::NotFresh { applied: 1 })
        );
        // Cursor past the end of the schedule.
        let mut engine = ScheduleEngine::new(graph(), schedule.clone());
        assert_eq!(
            engine.restore_cursor(3, t(5)),
            Err(ScheduleRestoreError::CursorOutOfRange { cursor: 3, len: 2 })
        );
        // A pending event stamped before the restored time: the cursor
        // claims the t(1) failure never applied, yet time is already t(5).
        let mut engine = ScheduleEngine::new(graph(), schedule);
        assert_eq!(
            engine.restore_cursor(0, t(5)),
            Err(ScheduleRestoreError::EventBeforeRestore {
                index: 0,
                at: t(1),
                resumed_at: t(5),
            })
        );
        // The failed restore mutated nothing: a correct one still works.
        assert!(engine.restore_cursor(1, t(1)).is_ok());
    }

    #[test]
    fn no_op_changes_are_skipped_entirely() {
        let d = graph();
        let base = d.pipe(PipeId(0)).attrs;
        let schedule = Schedule::new()
            .set_pipe(SimTime::from_secs(1), PipeId(0), base)
            .link_up(SimTime::from_secs(1), PipeId(0));
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        let applied = engine.apply_due(SimTime::from_secs(1), &mut target);
        assert_eq!(applied.events, 2);
        assert_eq!(applied.pipes_updated, 0, "attributes were already current");
        assert!(target.updates.is_empty());
        assert!(target.reroutes.is_empty());
    }
}
