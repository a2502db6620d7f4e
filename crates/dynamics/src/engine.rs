//! The runtime reconfiguration engine.
//!
//! [`ScheduleEngine`] owns the authoritative copy of the distilled pipe
//! graph and walks a [`Schedule`](crate::Schedule) against a running
//! emulation: pipe parameters are mutated in place on the allocation-free
//! tick path, CBR episodes are installed/removed as fixed-rate fluid
//! demands, and — only when a change can actually affect shortest paths
//! (latency, or a link failing/recovering) — the affected routes are
//! recomputed **incrementally** through [`DynamicsTarget::reroute`].
//! Changes applied at one apply point are batched into a single reroute, so
//! a node failure taking down a dozen pipes costs one routing update — and
//! each reroute publishes one copy-on-write route-table generation whose
//! cost is proportional to the rows that changed, not to the VN pair count.
//!
//! The engine performs no time-keeping of its own: the driver (the Runner,
//! or a test loop) calls [`ScheduleEngine::apply_due`] at its apply points.
//! Because every mutation flows through the same target interface in
//! schedule order, sequential and threaded backends observe identical
//! command streams and stay bit-identical through every reconfiguration.

use mn_distill::{DistilledTopology, PipeAttrs, PipeId};
use mn_packet::VnId;
use mn_pipe::CbrConfig;
use mn_routing::RouteUpdate;
use mn_topology::NodeId;
use mn_util::{DataRate, SimTime};

use crate::schedule::{Schedule, ScheduleEvent};

/// The emulation-side interface the engine reconfigures through. The
/// façade's execution backends implement it for both the sequential and the
/// threaded emulator.
pub trait DynamicsTarget {
    /// Replaces a pipe's emulation parameters in place. Packets already
    /// inside the pipe keep their computed deadlines.
    fn update_pipe_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) -> bool;

    /// Installs, replaces or (with `None`) removes the CBR cross-traffic
    /// episode on a pipe, from `from`.
    fn set_pipe_cbr(&mut self, pipe: PipeId, config: Option<CbrConfig>, from: SimTime) -> bool;

    /// Recomputes routing incrementally after the listed pipes of `topo`
    /// changed. In-flight descriptors keep their (still valid) route ids.
    fn reroute(&mut self, topo: &DistilledTopology, changed: &[PipeId]) -> RouteUpdate;

    /// Starts a fluid bulk flow effective at `at`. Targets without a fluid
    /// model reject the event (the default).
    fn add_fluid_flow(
        &mut self,
        _tag: u64,
        _src: VnId,
        _dst: VnId,
        _demand: DataRate,
        _clients: u32,
        _at: SimTime,
    ) -> bool {
        false
    }

    /// Changes a fluid flow's offered demand and client count at `at`.
    fn resize_fluid_flow(
        &mut self,
        _tag: u64,
        _demand: DataRate,
        _clients: u32,
        _at: SimTime,
    ) -> bool {
        false
    }

    /// Stops a fluid flow at `at`.
    fn remove_fluid_flow(&mut self, _tag: u64, _at: SimTime) -> bool {
        false
    }

    /// Binds a VN at a client location of `topo` and starts routing for
    /// it, incrementally (no full route rebuild). Targets without live
    /// endpoint churn reject the event (the default).
    fn vn_join(
        &mut self,
        _topo: &DistilledTopology,
        _vn: VnId,
        _location: NodeId,
        _at: SimTime,
    ) -> bool {
        false
    }

    /// Removes a VN at `at`. New traffic to or from it is refused from
    /// this apply point on; in-flight descriptors drain on their
    /// pre-departure routes.
    fn vn_leave(&mut self, _vn: VnId, _at: SimTime) -> bool {
        false
    }
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

/// No-op target for [`ScheduleEngine::restore_cursor`] replays: the engine
/// folds topology mutations into its authoritative graph while the restored
/// emulator (which already carries the effects) hears nothing.
struct Quiet;

impl DynamicsTarget for Quiet {
    fn update_pipe_attrs(&mut self, _pipe: PipeId, _attrs: PipeAttrs) -> bool {
        true
    }
    fn set_pipe_cbr(&mut self, _pipe: PipeId, _config: Option<CbrConfig>, _from: SimTime) -> bool {
        true
    }
    fn reroute(&mut self, _topo: &DistilledTopology, _changed: &[PipeId]) -> RouteUpdate {
        RouteUpdate::default()
    }
    fn add_fluid_flow(
        &mut self,
        _tag: u64,
        _src: VnId,
        _dst: VnId,
        _demand: DataRate,
        _clients: u32,
        _at: SimTime,
    ) -> bool {
        true
    }
    fn resize_fluid_flow(
        &mut self,
        _tag: u64,
        _demand: DataRate,
        _clients: u32,
        _at: SimTime,
    ) -> bool {
        true
    }
    fn remove_fluid_flow(&mut self, _tag: u64, _at: SimTime) -> bool {
        true
    }
    fn vn_join(
        &mut self,
        _topo: &DistilledTopology,
        _vn: VnId,
        _location: NodeId,
        _at: SimTime,
    ) -> bool {
        true
    }
    fn vn_leave(&mut self, _vn: VnId, _at: SimTime) -> bool {
        true
    }
}

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

/// Applies a [`Schedule`](crate::Schedule) to a running emulation.
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
    /// Scratch: incident-pipe working copy for node churn, reused across
    /// apply points so repeated churn allocates nothing new.
    node_scratch: Vec<PipeId>,
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
            node_scratch: Vec::new(),
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
    /// The first `cursor` events are replayed against a silent no-op target
    /// so the engine's authoritative pipe graph folds in every applied
    /// change (the emulator side was restored from the snapshot and already
    /// carries them), then every still-pending event is validated against
    /// the restored virtual time: an event stamped before `resumed_at`
    /// would have to fire in the past, which means the cursor and the
    /// snapshot disagree — a structured error, not a silent skip.
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
        let mut quiet = Quiet;
        let mut discard = AppliedChanges::default();
        while self.cursor < cursor {
            let (at, event) = self.schedule.events()[self.cursor];
            self.cursor += 1;
            self.apply_one(&mut quiet, at, event, &mut discard);
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
            self.apply_one(target, at, event, &mut applied);
        }
        if !self.changed.is_empty() {
            let update = target.reroute(&self.topo, &self.changed);
            self.changed.clear();
            applied.reroute = Some(update);
        }
        applied
    }

    /// Applies a single schedule event to `target`, updating `applied` and
    /// the batched-reroute scratch.
    fn apply_one<T: DynamicsTarget>(
        &mut self,
        target: &mut T,
        at: SimTime,
        event: ScheduleEvent,
        applied: &mut AppliedChanges,
    ) {
        match event {
            ScheduleEvent::SetPipe { pipe, attrs } => {
                self.apply_pipe(target, pipe, attrs, applied);
            }
            ScheduleEvent::LinkDown { pipe } => {
                let Some(current) = self.topo.get_pipe(pipe).map(|p| p.attrs) else {
                    return;
                };
                let failed = PipeAttrs {
                    bandwidth: DataRate::ZERO,
                    ..current
                };
                self.apply_pipe(target, pipe, failed, applied);
            }
            ScheduleEvent::LinkUp { pipe } => {
                let Some(&original) = self.original.get(pipe.index()) else {
                    return;
                };
                self.apply_pipe(target, pipe, original, applied);
            }
            ScheduleEvent::NodeDown { node } => {
                let mut pipes = std::mem::take(&mut self.node_scratch);
                pipes.clear();
                pipes.extend_from_slice(
                    self.incident
                        .get(node.index())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                );
                for &pipe in &pipes {
                    let current = self.topo.pipe(pipe).attrs;
                    let failed = PipeAttrs {
                        bandwidth: DataRate::ZERO,
                        ..current
                    };
                    self.apply_pipe(target, pipe, failed, applied);
                }
                self.node_scratch = pipes;
            }
            ScheduleEvent::NodeUp { node } => {
                let mut pipes = std::mem::take(&mut self.node_scratch);
                pipes.clear();
                pipes.extend_from_slice(
                    self.incident
                        .get(node.index())
                        .map(Vec::as_slice)
                        .unwrap_or(&[]),
                );
                for &pipe in &pipes {
                    let original = self.original[pipe.index()];
                    self.apply_pipe(target, pipe, original, applied);
                }
                self.node_scratch = pipes;
            }
            ScheduleEvent::CbrStart { pipe, config } => {
                // Injection starts at the event's scheduled time, not
                // the (possibly later) apply time: replays are
                // deterministic regardless of driver granularity.
                if target.set_pipe_cbr(pipe, Some(config), at) {
                    applied.cbr_changes += 1;
                }
            }
            ScheduleEvent::CbrStop { pipe } => {
                if target.set_pipe_cbr(pipe, None, at) {
                    applied.cbr_changes += 1;
                }
            }
            ScheduleEvent::FluidStart {
                tag,
                src,
                dst,
                demand,
                clients,
            } => {
                // Like CBR events, the flow is effective from its
                // scheduled time, not the (possibly later) apply time.
                if target.add_fluid_flow(tag, src, dst, demand, clients, at) {
                    applied.fluid_changes += 1;
                }
            }
            ScheduleEvent::FluidResize {
                tag,
                demand,
                clients,
            } => {
                if target.resize_fluid_flow(tag, demand, clients, at) {
                    applied.fluid_changes += 1;
                }
            }
            ScheduleEvent::FluidStop { tag } => {
                if target.remove_fluid_flow(tag, at) {
                    applied.fluid_changes += 1;
                }
            }
            ScheduleEvent::VnJoin { vn, location } => {
                // The engine's authoritative graph carries every
                // applied pipe change, so the newcomer's source tree
                // is computed against current attributes.
                if target.vn_join(&self.topo, vn, location, at) {
                    applied.vn_changes += 1;
                }
            }
            ScheduleEvent::VnLeave { vn } => {
                if target.vn_leave(vn, at) {
                    applied.vn_changes += 1;
                }
            }
        }
    }

    /// Writes one pipe's new attributes into the authoritative graph and
    /// the target, flagging it for the batched reroute when the change can
    /// affect shortest paths (latency, or usability flipping).
    fn apply_pipe<T: DynamicsTarget>(
        &mut self,
        target: &mut T,
        pipe: PipeId,
        attrs: PipeAttrs,
        applied: &mut AppliedChanges,
    ) {
        let Some(slot) = self.topo.pipe_attrs_mut(pipe) else {
            return;
        };
        let old = *slot;
        if old == attrs {
            return;
        }
        *slot = attrs;
        target.update_pipe_attrs(pipe, attrs);
        applied.pipes_updated += 1;
        let routing_relevant =
            old.latency != attrs.latency || old.bandwidth.is_zero() != attrs.bandwidth.is_zero();
        if routing_relevant && !self.changed.contains(&pipe) {
            self.changed.push(pipe);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_distill::{distill, DistillationMode};
    use mn_topology::generators::{ring_topology, RingParams};
    use mn_util::ByteSize;

    /// Records every call the engine makes.
    #[derive(Default)]
    struct MockTarget {
        updates: Vec<(PipeId, PipeAttrs)>,
        cbr: Vec<(PipeId, Option<CbrConfig>, SimTime)>,
        reroutes: Vec<Vec<PipeId>>,
        fluid: Vec<(u64, SimTime)>,
        churn: Vec<(VnId, Option<NodeId>, SimTime)>,
    }

    impl DynamicsTarget for MockTarget {
        fn update_pipe_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) -> bool {
            self.updates.push((pipe, attrs));
            true
        }
        fn set_pipe_cbr(&mut self, pipe: PipeId, config: Option<CbrConfig>, from: SimTime) -> bool {
            self.cbr.push((pipe, config, from));
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

    fn graph() -> DistilledTopology {
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
        let cbr = CbrConfig::new(DataRate::from_mbps(2), ByteSize::from_bytes(800));
        let schedule = Schedule::new()
            .cbr_start(SimTime::from_secs(1), PipeId(3), cbr)
            .cbr_stop(SimTime::from_secs(4), PipeId(3));
        let mut engine = ScheduleEngine::new(d, schedule);
        let mut target = MockTarget::default();
        // Applied late: the injector still starts at its scheduled time.
        let applied = engine.apply_due(SimTime::from_secs(2), &mut target);
        assert_eq!(applied.cbr_changes, 1);
        assert_eq!(
            target.cbr,
            vec![(PipeId(3), Some(cbr), SimTime::from_secs(1))]
        );
        let applied = engine.apply_due(SimTime::from_secs(10), &mut target);
        assert_eq!(applied.cbr_changes, 1);
        assert_eq!(
            target.cbr.last(),
            Some(&(PipeId(3), None, SimTime::from_secs(4)))
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
        // A target without a fluid model rejects the events: nothing counted.
        struct NoFluid;
        impl DynamicsTarget for NoFluid {
            fn update_pipe_attrs(&mut self, _: PipeId, _: PipeAttrs) -> bool {
                true
            }
            fn set_pipe_cbr(&mut self, _: PipeId, _: Option<CbrConfig>, _: SimTime) -> bool {
                true
            }
            fn reroute(&mut self, _: &DistilledTopology, _: &[PipeId]) -> RouteUpdate {
                RouteUpdate::default()
            }
        }
        let mut engine = ScheduleEngine::new(
            graph(),
            Schedule::new().fluid_start(t(1), 9, VnId(0), VnId(1), DataRate::from_mbps(8), 10),
        );
        let applied = engine.apply_due(t(5), &mut NoFluid);
        assert_eq!(applied.events, 1);
        assert_eq!(applied.fluid_changes, 0);
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
        // Targets without churn support reject the events: nothing counted.
        let mut engine = ScheduleEngine::new(graph(), Schedule::new().vn_join(t(1), VnId(7), loc));
        struct NoChurn;
        impl DynamicsTarget for NoChurn {
            fn update_pipe_attrs(&mut self, _: PipeId, _: PipeAttrs) -> bool {
                true
            }
            fn set_pipe_cbr(&mut self, _: PipeId, _: Option<CbrConfig>, _: SimTime) -> bool {
                true
            }
            fn reroute(&mut self, _: &DistilledTopology, _: &[PipeId]) -> RouteUpdate {
                RouteUpdate::default()
            }
        }
        let applied = engine.apply_due(t(5), &mut NoChurn);
        assert_eq!(applied.events, 1);
        assert_eq!(applied.vn_changes, 0);
    }

    #[test]
    fn restore_cursor_folds_applied_changes_without_touching_the_target() {
        let d = graph();
        let t = SimTime::from_secs;
        let schedule = Schedule::new()
            .duplex_down(t(1), PipeId(0), PipeId(1))
            .duplex_up(t(3), PipeId(0), PipeId(1));
        // A reference engine applies the failure the normal way.
        let mut reference = ScheduleEngine::new(d.clone(), schedule.clone());
        let mut target = MockTarget::default();
        reference.apply_due(t(2), &mut target);
        assert_eq!(reference.cursor(), 2);
        // A fresh engine fast-forwarded to the same cursor must agree on
        // the pipe graph and the pending tail — with zero target calls.
        let mut restored = ScheduleEngine::new(d, schedule);
        restored.restore_cursor(2, t(2)).expect("valid cursor");
        assert_eq!(restored.cursor(), 2);
        assert_eq!(restored.pending(), reference.pending());
        assert_eq!(restored.next_time(), Some(t(3)));
        assert!(restored
            .topology()
            .pipe(PipeId(0))
            .attrs
            .bandwidth
            .is_zero());
        // Resuming walks the remaining schedule exactly like the reference.
        let mut quiet_after = MockTarget::default();
        let up = restored.apply_due(t(3), &mut quiet_after);
        assert_eq!(up.pipes_updated, 2);
        assert_eq!(
            quiet_after.reroutes,
            vec![vec![PipeId(0), PipeId(1)]],
            "only the post-restore apply point reroutes"
        );
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
