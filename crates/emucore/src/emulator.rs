//! The emulation coordinator: one [`Emulator`], whichever way its cores run.
//!
//! The paper's core nodes each own their pipes outright and cooperate only
//! by handing descriptors to the owner. Everything else — the routing
//! matrix, the published route table, VN membership and entry cores, the
//! fluid solver, checkpoint assembly — is global state with exactly one
//! writer. [`Emulator`] is that writer. It decides *what* happens to which
//! core and in which order; its executor, a private field, only decides
//! *where* the cores run (inline on the calling thread, or one OS thread
//! each, after [`Emulator::threaded`]) and carries the coordinator's
//! commands to them. Why the results are bit-identical across executors is
//! in the crate docs.

use std::sync::Arc;
use std::time::Duration;

use mn_assign::{Binding, CoreId, PipeOwnershipDirectory};
use mn_distill::{DistilledTopology, PipeAttrs, PipeId};
use mn_packet::{Packet, VnId};
use mn_routing::{RouteId, RouteNumbering, RouteTable, RouteUpdate, RoutingMatrix};
use mn_topology::NodeId;
use mn_util::{ByteReader, ByteWriter, Codec, CodecError, DataRate, SimDuration, SimTime};

use crate::chaos::ChaosPlan;
use crate::core::{CoreStats, EmulatorCore, IngressOutcome};
use crate::descriptor::{Delivery, Descriptor};
use crate::error::EmuError;
use crate::executor::Executor;
use crate::fluid::FluidState;
use crate::hardware::HardwareProfile;
use crate::multicore::InlineExecutor;
use crate::parallel::ThreadedExecutor;
use crate::snapshot::{EmulatorSnapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};

/// Result of submitting a packet to the emulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The packet entered the emulated network.
    Accepted,
    /// The packet was dropped physically at the entry core's NIC (overload).
    PhysicalDrop,
    /// The packet was dropped by the first pipe (virtual drop).
    VirtualDrop,
    /// The packet's source or destination VN has no location or no route.
    NoRoute,
}

impl SubmitOutcome {
    /// Returns `true` if the packet entered the emulation.
    pub fn is_accepted(&self) -> bool {
        matches!(self, SubmitOutcome::Accepted)
    }
}

impl From<IngressOutcome> for SubmitOutcome {
    fn from(outcome: IngressOutcome) -> Self {
        match outcome {
            IngressOutcome::Accepted => SubmitOutcome::Accepted,
            IngressOutcome::VirtualDrop => SubmitOutcome::VirtualDrop,
            IngressOutcome::PhysicalDropNic | IngressOutcome::PhysicalDropCpu => {
                SubmitOutcome::PhysicalDrop
            }
        }
    }
}

/// A control-plane change to one core, issued by the coordinator and
/// carried out wherever the executor keeps that core.
#[derive(Debug)]
pub(crate) enum CoreCommand {
    /// Install the next route-table generation. The table is copy-on-write:
    /// every core receives the same `Arc`, and the location rows a change
    /// did not touch are the allocations the core was already reading.
    SetRoutes(Arc<RouteTable>),
    /// Update one locally installed pipe's parameters.
    UpdatePipe { pipe: PipeId, attrs: PipeAttrs },
    /// Apply a new per-pipe fluid demand from the coordinator's fair-share
    /// solve, effective at `at`.
    SetFluidDemand {
        pipe: PipeId,
        rate: DataRate,
        at: SimTime,
    },
}

impl CoreCommand {
    /// Carries the command out on `core`; `false` if it names a pipe the
    /// core does not own. Both executors run commands through here, so a
    /// command means the same thing wherever the core lives.
    pub(crate) fn apply_to(self, core: &mut EmulatorCore) -> bool {
        match self {
            CoreCommand::SetRoutes(routes) => {
                core.set_route_table(routes);
                true
            }
            CoreCommand::UpdatePipe { pipe, attrs } => core.update_pipe_attrs(pipe, attrs),
            CoreCommand::SetFluidDemand { pipe, rate, at } => {
                core.set_pipe_fluid_demand(pipe, rate, at)
            }
        }
    }
}

/// Where the coordinator's admission decision sent a submitted packet.
#[derive(Debug)]
pub(crate) enum Dispatch {
    /// Decided at the coordinator: no route, or a same-location delivery.
    Resolved(SubmitOutcome),
    /// Owed by the entry core's NIC/CPU admission into `first`, the first
    /// pipe of the descriptor's route, resolved with it before the decision.
    Ingress {
        core: CoreId,
        now: SimTime,
        first: PipeId,
        descriptor: Descriptor,
    },
}

/// A packet's route and first pipe ([`RouteTable::first_hop`]).
type FirstHop = Option<(RouteId, PipeId)>;

/// The tables the per-packet admission path reads, kept together so the
/// lookup can run while the executor is borrowed (batched submits pull
/// dispatches lazily), and its scratch: empty between calls, never
/// checkpointed.
#[derive(Debug)]
struct Admission {
    /// Interned routes, one location -> route row per location and each
    /// VN's 4-byte column entry, shared with every core. Republished
    /// copy-on-write on every routing or membership change; untouched rows
    /// keep the same allocation across generations.
    routes: Arc<RouteTable>,
    /// Topology location of each VN, indexed densely by `VnId`. An id at or
    /// beyond the table is an unknown VN and yields `SubmitOutcome::NoRoute`.
    vn_location: Vec<NodeId>,
    /// Entry core of each VN, indexed densely by `VnId`.
    vn_entry_core: Vec<CoreId>,
    /// Live-membership flag of each VN, indexed densely by `VnId`. A VN
    /// that left keeps its (stale) location and entry-core entries for
    /// geometry consistency; only this flag gates traffic.
    vn_active: Vec<bool>,
    /// Same-location packets that bypass the core network entirely.
    local_deliveries: Vec<Delivery>,
    /// Scratch: the batch being admitted, each of its packets' first hop,
    /// and the outcome of a one-packet `submit`.
    batch: Vec<(SimTime, Packet)>,
    resolved: Vec<FirstHop>,
    outcome: Vec<SubmitOutcome>,
}

impl Admission {
    /// Takes in a batch and resolves every packet's first hop in a pass that
    /// does nothing else, so the dependent loads of consecutive lookups
    /// overlap instead of each stalling the decision waiting on it.
    fn resolve(&mut self, batch: impl IntoIterator<Item = (SimTime, Packet)>) {
        self.batch.extend(batch);
        let routes = &*self.routes;
        let lookup =
            |(_, p): &(SimTime, Packet)| routes.first_hop(p.flow.src.index(), p.flow.dst.index());
        self.resolved.extend(self.batch.iter().map(lookup));
    }

    /// Active VNs per entry core, over `cores` cores: the load vector the
    /// join path reads.
    fn core_load(&self, cores: usize) -> Vec<u32> {
        let mut load = vec![0u32; cores];
        for (core, &active) in self.vn_entry_core.iter().zip(&self.vn_active) {
            load[core.index()] += u32::from(active);
        }
        load
    }

    /// The per-packet decision over a resolved first hop: every lookup is an
    /// indexed array read (VN location, membership, entry core) — no
    /// hashing, no route clone, no allocation. (`#[inline]` so the `Dispatch`
    /// is built in place in the caller's crate, not copied out of a call.)
    #[inline]
    fn dispatch(&mut self, now: SimTime, packet: Packet, hop: FirstHop) -> Dispatch {
        let src_idx = packet.flow.src.index();
        let dst_idx = packet.flow.dst.index();
        let no_route = Dispatch::Resolved(SubmitOutcome::NoRoute);
        let Some(&src_loc) = self.vn_location.get(src_idx) else {
            return no_route;
        };
        let Some(&dst_loc) = self.vn_location.get(dst_idx) else {
            return no_route;
        };
        // Departed endpoints refuse new traffic immediately (descriptors
        // already inside the network still drain on their retained routes).
        if !self.vn_active[src_idx] || !self.vn_active[dst_idx] {
            return no_route;
        }
        if src_loc == dst_loc {
            // Both VNs bound to the same topology location: traffic never
            // crosses the emulated network (local loopback at the edge).
            self.local_deliveries.push(Delivery {
                packet,
                delivered_at: now,
                entered_at: now,
                hops: 0,
                emulation_error: SimDuration::ZERO,
            });
            return Dispatch::Resolved(SubmitOutcome::Accepted);
        }
        let Some((route, first)) = hop else {
            return no_route;
        };
        Dispatch::Ingress {
            core: self.vn_entry_core[src_idx],
            now,
            first,
            descriptor: Descriptor::new(packet, route, now),
        }
    }
}

/// The set of cooperating core nodes emulating one distilled topology:
/// the coordinator state plus the executor the cores run on.
///
/// Every constructor runs the cores inline, on the calling thread;
/// [`Emulator::threaded`] moves them onto one OS thread each. Results are
/// bit-identical either way. Operations that reach a core return
/// `Result<_, EmuError>`; inline they never fail. Control operations
/// return `false` (or an empty [`RouteUpdate`]) when refused — and a
/// poisoned executor refuses all of them, before any coordinator state
/// changes.
#[derive(Debug)]
pub struct Emulator {
    pub(crate) exec: Executor,
    pod: Arc<PipeOwnershipDirectory>,
    profile: HardwareProfile,
    matrix: RoutingMatrix,
    admission: Admission,
    /// Number of active VNs entering through each core — the load vector
    /// the join path's least-loaded entry-core assignment reads.
    core_load: Vec<u32>,
    /// Fluid flow state. Rate recomputes happen here (at epoch boundaries
    /// and on flow/topology mutations) and the changed per-pipe demands are
    /// pushed to the owning cores, which see only piecewise-constant
    /// per-pipe totals.
    fluid: FluidState,
    /// The route numbering of the state as it is and how many routes the
    /// rows read ([`RouteTable::numbering`]), once a checkpoint made it;
    /// `control`, `submit_batch` and `advance_into` drop it.
    route_numbering: Option<(usize, Option<Arc<RouteNumbering>>)>,
}

impl Emulator {
    /// Builds the emulator, its cores inline: installs each pipe on the core
    /// the POD assigns it to, and records each VN's topology location and
    /// entry core from the binding.
    ///
    /// # Panics
    ///
    /// Panics if the POD covers a different number of pipes than the
    /// distilled topology contains.
    pub fn new(
        topo: &DistilledTopology,
        pod: PipeOwnershipDirectory,
        matrix: RoutingMatrix,
        binding: &Binding,
        profile: HardwareProfile,
        seed: u64,
    ) -> Self {
        assert_eq!(
            pod.pipe_count(),
            topo.pipe_count(),
            "POD must cover every pipe of the distilled topology"
        );
        // Dense per-VN tables: `Binding` numbers VNs 0..vn_count and holds a
        // location for each (so `filter_map` skips none), so plain vectors
        // indexed by `VnId::index` cover every bound VN.
        let vn_location: Vec<NodeId> = binding
            .vns()
            .filter_map(|vn| binding.location(vn))
            .collect();
        let vn_entry_core: Vec<CoreId> = binding
            .vns()
            .map(|vn| {
                // Clamp to the actual core count: a binding may reference more
                // cores than the POD uses (e.g. single-core emulation of a
                // multi-edge cluster).
                let core = binding.entry_core(vn).unwrap_or(CoreId(0));
                CoreId(core.index() % pod.core_count())
            })
            .collect();
        let routes = Arc::new(RouteTable::build(&matrix, &vn_location));
        let mut cores: Vec<EmulatorCore> = (0..pod.core_count())
            .map(|c| {
                EmulatorCore::new(
                    CoreId(c),
                    profile,
                    seed.wrapping_add(c as u64),
                    routes.clone(),
                    topo.pipe_count(),
                )
            })
            .collect();
        let mut capacity_bps = vec![0u64; topo.pipe_count()];
        for (pipe_id, pipe) in topo.pipes() {
            cores[pod.owner(pipe_id).index()].install_pipe(pipe_id, pipe.attrs);
            capacity_bps[pipe_id.index()] = pipe.attrs.bandwidth.as_bps();
        }
        let admission = Admission {
            routes,
            vn_active: vec![true; vn_location.len()],
            vn_location,
            vn_entry_core,
            local_deliveries: Vec::new(),
            batch: Vec::new(),
            resolved: Vec::new(),
            outcome: Vec::new(),
        };
        let pod = Arc::new(pod);
        Emulator {
            exec: Executor::Inline(InlineExecutor::new(cores, pod.clone())),
            core_load: admission.core_load(pod.core_count()),
            pod,
            profile,
            matrix,
            admission,
            fluid: FluidState::new(capacity_bps),
            route_numbering: None,
        }
    }

    /// Convenience constructor for single-core emulation.
    pub fn single_core(
        topo: &DistilledTopology,
        matrix: RoutingMatrix,
        binding: &Binding,
        profile: HardwareProfile,
        seed: u64,
    ) -> Self {
        let pod = PipeOwnershipDirectory::single_core(topo.pipe_count());
        Self::new(topo, pod, matrix, binding, profile, seed)
    }

    /// Moves the cores, in-flight state included, onto one OS thread each;
    /// already there, the emulator is returned as it is.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread cannot be spawned.
    pub fn threaded(mut self) -> Self {
        if let Executor::Inline(inline) = &mut self.exec {
            let cores = std::mem::take(&mut inline.cores);
            self.exec = Executor::Threaded(ThreadedExecutor::new(cores, self.pod.clone()));
        }
        self
    }

    /// The cores themselves (accuracy logs, utilisation, pipes).
    ///
    /// # Panics
    ///
    /// Panics on the threaded executor, whose cores live on their own
    /// threads; read counters through [`Emulator::total_stats`] there, or
    /// take the cores back with [`Emulator::finish`].
    pub fn cores(&self) -> &[EmulatorCore] {
        match &self.exec {
            Executor::Inline(inline) => &inline.cores,
            Executor::Threaded(_) => panic!(
                "the cores of a threaded emulator live on their worker threads; \
                 use the coordinator's counters instead"
            ),
        }
    }

    /// Stops every worker thread, if the cores run on their own, and
    /// returns the cores (accuracy logs, pipe counters) in core order. A
    /// core whose worker died is missing.
    pub fn finish(mut self) -> Vec<EmulatorCore> {
        match &mut self.exec {
            Executor::Inline(inline) => std::mem::take(&mut inline.cores),
            Executor::Threaded(threaded) => threaded.shutdown(),
        }
    }

    /// Arms the threaded executor's stall watchdog: a wait on a worker whose
    /// heartbeat stands still for `timeout` of wall-clock time fails with
    /// [`crate::FailureCause::Stalled`] instead of hanging. `None` (the
    /// default) disarms it — virtual time runs arbitrarily faster or slower
    /// than wall clock, so only a supervisor that knows the deployment
    /// should set this. A no-op on inline cores, which cannot stall.
    pub fn set_stall_timeout(&mut self, timeout: Option<Duration>) {
        if let Executor::Threaded(threaded) = &mut self.exec {
            threaded.stall_timeout = timeout;
        }
    }

    /// Installs a chaos fault plan on one worker core (test-only fault
    /// injection; see [`crate::chaos`]) and waits for the worker to
    /// confirm. Returns `false` if the cores run inline (there is no worker
    /// to fault), if the core does not exist, or if the emulator failed,
    /// before or during the call (it is then poisoned). A default plan is
    /// inert, so `set_chaos(CoreId(0), ChaosPlan::new())` is `true` exactly
    /// when a healthy emulator runs on worker threads.
    pub fn set_chaos(&mut self, core: CoreId, plan: ChaosPlan) -> bool {
        match &mut self.exec {
            Executor::Inline(_) => false,
            Executor::Threaded(threaded) => threaded.set_chaos(core, plan),
        }
    }

    /// Number of cooperating cores.
    pub fn core_count(&self) -> usize {
        self.pod.core_count()
    }

    /// One core's counters.
    pub fn core_stats(&self, core: CoreId) -> Option<CoreStats> {
        self.exec.stats(core)
    }

    /// Aggregated counters across cores (an associative
    /// [`CoreStats::merge`] fold, so it does not matter where the per-core
    /// counters were gathered).
    pub fn total_stats(&self) -> CoreStats {
        (0..self.core_count())
            .filter_map(|c| self.exec.stats(CoreId(c)))
            .fold(CoreStats::default(), |acc, stats| acc.merged(&stats))
    }

    /// The routing matrix in force.
    pub fn routing(&self) -> &RoutingMatrix {
        &self.matrix
    }

    /// The interned route table in force.
    pub fn route_table(&self) -> &RouteTable {
        &self.admission.routes
    }

    /// Read access to the fluid flow state (flow counts, epoch clock).
    pub fn fluid(&self) -> &FluidState {
        &self.fluid
    }

    /// The rate the last fair-share solve allocated to a fluid flow.
    pub fn fluid_flow_rate(&self, tag: u64) -> Option<DataRate> {
        self.fluid.flow_rate(tag)
    }

    /// Bytes of goodput a fluid flow has accumulated so far.
    pub fn fluid_flow_goodput_bytes(&self, tag: u64) -> Option<u64> {
        self.fluid.flow_goodput_bytes(tag)
    }

    /// The topology location a VN is bound to.
    pub fn vn_location(&self, vn: VnId) -> Option<NodeId> {
        self.admission.vn_location.get(vn.index()).copied()
    }

    /// `true` while a VN is an active member of the emulation.
    pub fn vn_is_active(&self, vn: VnId) -> bool {
        self.admission
            .vn_active
            .get(vn.index())
            .copied()
            .unwrap_or(false)
    }

    /// Number of currently active VNs.
    pub fn active_vn_count(&self) -> usize {
        self.admission.vn_active.iter().filter(|&&a| a).count()
    }

    /// The core a VN's traffic enters through.
    pub fn vn_entry_core(&self, vn: VnId) -> Option<CoreId> {
        self.admission.vn_entry_core.get(vn.index()).copied()
    }

    /// Runs one control operation under the poison rule: a failed executor
    /// refuses it outright (the default result: `false`, an empty
    /// `RouteUpdate`) with no coordinator state touched, and an executor
    /// that fails mid-operation poisons the emulator and yields the same
    /// refusal.
    fn control<T: Default>(&mut self, op: impl FnOnce(&mut Self) -> Result<T, EmuError>) -> T {
        self.route_numbering = None;
        if self.exec.health().is_err() {
            return T::default();
        }
        op(self).unwrap_or_default()
    }

    /// Publishes `table` as the next route-table generation: the coordinator
    /// and every core switch to the same `Arc`, and routed fluid flows
    /// re-resolve their pipe lists at the next solve. Cores still reading
    /// the previous `Arc` keep a consistent table until they pick up the
    /// new one.
    fn publish_routes(&mut self, table: RouteTable) -> Result<(), EmuError> {
        self.admission.routes = Arc::new(table);
        self.exec.broadcast_routes(&self.admission.routes)?;
        self.fluid.mark_routes_dirty();
        Ok(())
    }

    /// Re-solves the fluid fair share at `at` and pushes every changed
    /// per-pipe demand to the owning core. Called on every fluid mutation
    /// and at each epoch boundary, always ahead of the next advance past
    /// `at`.
    fn recompute_fluid(&mut self, at: SimTime) -> Result<(), EmuError> {
        let changed = self.fluid.recompute(at, &self.admission.routes);
        for &(pipe, bps) in changed {
            // A routed flow's pipes are its route's, and every route names
            // pipes the POD covers (`Emulator::new` builds the table over
            // the POD's topology, `decode` checks the matrix's pipes against
            // the POD's and each held route's against the matrix's); a pinned
            // flow's pipe has an owner (`set_pipe_compensation` asks, and
            // `FluidState::decode` refuses one beyond the POD's pipes).
            let owner = self
                .pod
                .get_owner(pipe)
                .expect("fluid routes reference pipes covered by the POD");
            let rate = DataRate::from_bps(bps);
            self.exec
                .apply(owner, CoreCommand::SetFluidDemand { pipe, rate, at })?;
        }
        Ok(())
    }

    /// One change to the fluid state at `at`: if `change` took, the fair
    /// share is re-solved there.
    fn fluid_change(&mut self, at: SimTime, change: impl FnOnce(&mut FluidState) -> bool) -> bool {
        self.control(|emu| {
            if !change(&mut emu.fluid) {
                return Ok(false);
            }
            emu.recompute_fluid(at)?;
            Ok(true)
        })
    }

    /// [`Emulator::recompute_fluid`] at the solver's own clock, if any flow
    /// is live — the follow-up of a change that carries no time of its own.
    fn reshare_live_flows(&mut self) -> Result<(), EmuError> {
        if self.fluid.has_flows() {
            self.recompute_fluid(self.fluid.clock())?;
        }
        Ok(())
    }

    /// Updates a pipe's emulation parameters on whichever core owns it. The
    /// fluid model tracks the new capacity; live flows re-share immediately.
    pub fn update_pipe_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) -> bool {
        self.control(|emu| {
            let Some(owner) = emu.pod.get_owner(pipe) else {
                return Ok(false);
            };
            if !emu
                .exec
                .apply(owner, CoreCommand::UpdatePipe { pipe, attrs })?
            {
                return Ok(false);
            }
            emu.fluid.set_capacity(pipe, attrs.bandwidth);
            emu.reshare_live_flows()?;
            Ok(true)
        })
    }

    /// Installs (or clears, with `None`) a fixed-rate background demand on
    /// `pipe` from `from`, standing in for the contention of the hops the
    /// pipe collapsed (§4.1, "background CBR cross traffic"). It is a fluid
    /// demand: no packets are synthesised, foreground traffic just sees the
    /// pipe's residual capacity, and the steady state allocates nothing. A
    /// pipe has one such slot, which a schedule's CBR episodes
    /// (`ScheduleEvent::CbrStart`) share: installing one replaces the other.
    ///
    /// Returns `false` if the pipe is unknown.
    pub fn set_pipe_compensation(
        &mut self,
        pipe: PipeId,
        rate: Option<DataRate>,
        from: SimTime,
    ) -> bool {
        if self.pod.get_owner(pipe).is_none() {
            return false;
        }
        self.fluid_change(from, |fluid| {
            fluid.set_cbr(pipe, rate, from);
            true
        })
    }

    /// Applies an **incremental** routing change after the listed pipes of
    /// `topo` were mutated in place (failure, restore, latency
    /// renegotiation): the matrix's rows name exactly the shortest-route
    /// trees a worsened pipe sat on (those whose row gives it as its head's
    /// predecessor), only those (plus
    /// the label-bounded candidates of an improvement) are recomputed
    /// ([`RoutingMatrix::update_pipes`]), and only the
    /// endpoint pairs whose route actually changed are re-wired in the
    /// interned route table ([`RouteTable::rewire_in_place`]). Untouched
    /// `RouteId`s are preserved, so descriptors in flight keep resolving to
    /// the routes they started on — like packets already inside the paper's
    /// cores — while new packets see only the post-change routes.
    ///
    /// The publish is copy-on-write: the table "clone" is structural (row
    /// and column blocks, route chunks and the content index are shared by
    /// reference, so it costs O(locations / 1024 + endpoints / 1024) block
    /// handles, not O(endpoints²) entries) and only the rows of locations
    /// whose routes changed are replaced — one row per location, however
    /// many VNs are bound there.
    pub fn reroute(&mut self, topo: &DistilledTopology, changed: &[PipeId]) -> RouteUpdate {
        self.control(|emu| {
            let update = emu.matrix.update_pipes(topo, changed);
            if !update.is_empty() {
                let admission = &emu.admission;
                let mut table = (*admission.routes).clone();
                table.rewire_in_place(&emu.matrix, &admission.vn_location, &update.changed_pairs);
                emu.publish_routes(table)?;
                emu.reshare_live_flows()?;
            }
            Ok(update)
        })
    }

    /// Starts a fluid bulk flow: `demand` offered from `src` to `dst`,
    /// standing in for `clients` modelled clients (its max-min weight).
    /// The flow crosses the same interned route packets between the pair
    /// would take; its share of every pipe shows up to the packet path as
    /// consumed capacity. Returns `false` if the tag is already in use.
    pub fn add_fluid_flow(
        &mut self,
        tag: u64,
        src: VnId,
        dst: VnId,
        demand: DataRate,
        clients: u32,
        at: SimTime,
    ) -> bool {
        self.fluid_change(at, |fluid| {
            fluid.add_flow(tag, src, dst, demand, clients, at)
        })
    }

    /// Changes a fluid flow's offered demand and client count mid-run.
    pub fn resize_fluid_flow(
        &mut self,
        tag: u64,
        demand: DataRate,
        clients: u32,
        at: SimTime,
    ) -> bool {
        self.fluid_change(at, |fluid| fluid.resize_flow(tag, demand, clients, at))
    }

    /// Stops a fluid flow, returning its share to the packet path.
    pub fn remove_fluid_flow(&mut self, tag: u64, at: SimTime) -> bool {
        self.fluid_change(at, |fluid| fluid.remove_flow(tag, at))
    }

    /// Joins a VN at a client location of `topo` mid-run — a first-class
    /// churn event, not a rebuild: the location's source tree is added to
    /// the matrix if absent (one component-scoped Dijkstra), the VN's column
    /// entry is written into a copy-on-write route-table generation (a join
    /// beside a live VN touches no row; the first VN at a location derives
    /// that location's one row and its column in the other rows — flat in
    /// the total VN count either way), and the newcomer enters through the
    /// least-loaded core (lowest index on ties — a pure function of the
    /// load vector, so identical churn histories yield identical
    /// assignments). `vn` must be either a fresh contiguous id (`VnId(n)`
    /// when `n` VNs exist) or a departed id rejoining, and `location` a
    /// node of `topo`. Returns `false` (changing nothing) otherwise.
    pub fn vn_join(
        &mut self,
        topo: &DistilledTopology,
        vn: VnId,
        location: NodeId,
        at: SimTime,
    ) -> bool {
        self.control(|emu| {
            let idx = vn.index();
            let known = emu.admission.vn_location.len();
            if idx > known || location.index() >= topo.node_count() {
                return Ok(false);
            }
            if idx < known && emu.admission.vn_active[idx] {
                return Ok(false);
            }
            let added_tree = emu.matrix.vn_index(location).is_none();
            if added_tree && !emu.matrix.add_source(topo, location) {
                return Ok(false);
            }
            let mut table = (*emu.admission.routes).clone();
            if !table.bind_endpoint(&emu.matrix, idx, location) {
                if added_tree {
                    emu.matrix.remove_source(location);
                }
                return Ok(false);
            }
            let entry = CoreId(mn_assign::least_loaded(&emu.core_load));
            emu.core_load[entry.index()] += 1;
            let admission = &mut emu.admission;
            if idx == known {
                admission.vn_location.push(location);
                admission.vn_entry_core.push(entry);
                admission.vn_active.push(true);
            } else {
                admission.vn_location[idx] = location;
                admission.vn_entry_core[idx] = entry;
                admission.vn_active[idx] = true;
            }
            emu.publish_routes(table)?;
            if emu.fluid.has_flows() {
                emu.recompute_fluid(at)?;
            }
            Ok(true)
        })
    }

    /// Removes a VN from the emulation mid-run. Its column entry is marked
    /// departed in the next route-table generation (no row is touched while
    /// a sibling stays at its location), so new traffic to or from it is
    /// refused from this instant; its entry-core load slot is released, and
    /// if it was the last endpoint at its location the location's row and
    /// every other row's column toward it are cleared
    /// ([`RouteTable::unbind_endpoint`]) and the matrix source tree removed
    /// too. Every interned `RouteId` is retained, so descriptors already in
    /// flight drain deterministically on their pre-departure routes. Its
    /// fluid flows are torn down and their share returned to the network.
    /// Returns `false` when the VN is not an active member.
    pub fn vn_leave(&mut self, vn: VnId, at: SimTime) -> bool {
        self.control(|emu| {
            let idx = vn.index();
            let admission = &mut emu.admission;
            if !admission.vn_active.get(idx).copied().unwrap_or(false) {
                return Ok(false);
            }
            let mut table = (*admission.routes).clone();
            if !table.unbind_endpoint(idx) {
                return Ok(false);
            }
            admission.vn_active[idx] = false;
            emu.core_load[admission.vn_entry_core[idx].index()] -= 1;
            if !table.has_endpoints_at(admission.vn_location[idx]) {
                emu.matrix.remove_source(admission.vn_location[idx]);
            }
            emu.publish_routes(table)?;
            let removed = emu.fluid.remove_vn_flows(vn, at);
            if removed > 0 || emu.fluid.has_flows() {
                emu.recompute_fluid(at)?;
            }
            Ok(true)
        })
    }

    /// Submits a packet emitted by its source VN's edge node at time `now`:
    /// [`Emulator::submit_batch`] with a batch of one.
    ///
    /// # Errors
    ///
    /// [`EmuError::WorkerFailure`] if the entry core's thread died or
    /// stalled — and, once failed, on every subsequent call (the emulator
    /// is poisoned; rebuild it, e.g. from a checkpoint).
    pub fn submit(&mut self, now: SimTime, packet: Packet) -> Result<SubmitOutcome, EmuError> {
        let mut outcome = std::mem::take(&mut self.admission.outcome);
        let submitted = self.submit_batch([(now, packet)], &mut outcome);
        let last = outcome.pop();
        self.admission.outcome = outcome;
        // A batch that is admitted appends one outcome a packet, so a batch
        // of one leaves exactly one.
        submitted.map(|()| last.expect("a batch of one has one outcome"))
    }

    /// Submits a batch of timestamped packets, appending one outcome per
    /// packet (in input order) to `outcomes`. One pass resolves every
    /// packet's route and first pipe, then each is decided in input order:
    /// unknown or departed VN `NoRoute`, same location delivered locally,
    /// else offered to its entry core — each core's share in one message
    /// on an executor whose cores run on other threads. The fast path for
    /// bulk traffic drivers.
    ///
    /// # Errors
    ///
    /// [`EmuError::WorkerFailure`] if a core thread died or stalled
    /// mid-batch; `outcomes` is left untouched in that case (the emulator
    /// is poisoned, so partial results would never be consistent anyway).
    pub fn submit_batch<I>(
        &mut self,
        batch: I,
        outcomes: &mut Vec<SubmitOutcome>,
    ) -> Result<(), EmuError>
    where
        I: IntoIterator<Item = (SimTime, Packet)>,
    {
        self.route_numbering = None;
        self.exec.health()?;
        let admission = &mut self.admission;
        admission.resolve(batch);
        let mut batch = std::mem::take(&mut admission.batch);
        let mut resolved = std::mem::take(&mut admission.resolved);
        let dispatches = (batch.drain(..).zip(resolved.drain(..)))
            .map(|((now, packet), hop)| admission.dispatch(now, packet, hop));
        let admitted = self.exec.ingress_batch(dispatches, outcomes);
        (admission.batch, admission.resolved) = (batch, resolved);
        admitted
    }

    /// The earliest time at which any core (or any in-flight tunnel) has work
    /// due.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let local = if self.admission.local_deliveries.is_empty() {
            None
        } else {
            Some(SimTime::ZERO)
        };
        [self.exec.next_wakeup(), local, self.fluid.next_epoch()]
            .into_iter()
            .flatten()
            .min()
    }

    /// Advances the emulation to time `now`, allocating a fresh delivery
    /// buffer. Steady-state callers use [`Emulator::advance_into`] with a
    /// long-lived buffer instead.
    pub fn advance(&mut self, now: SimTime) -> Result<Vec<Delivery>, EmuError> {
        let mut deliveries = Vec::new();
        self.advance_into(now, &mut deliveries)?;
        Ok(deliveries)
    }

    /// Advances the emulation to time `now`: delivers due tunnels, runs every
    /// core's scheduler, and forwards freshly produced tunnels. Every packet
    /// that exited the emulated network since the previous call is appended
    /// to `deliveries` (same-location deliveries first, then round-major,
    /// core-major); with warmed buffers the pass allocates nothing.
    ///
    /// While fluid flows are live the advance is chopped at each rate
    /// epoch: cores run up to the epoch, the fair share is re-solved there,
    /// and the changed per-pipe demands take effect before emulation
    /// continues — so packet contention always sees the residual of the
    /// current piecewise-constant fluid rates.
    ///
    /// # Errors
    ///
    /// [`EmuError::WorkerFailure`] if any core thread died or stalled
    /// during the advance — and, once failed, on every subsequent call.
    pub fn advance_into(
        &mut self,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
    ) -> Result<(), EmuError> {
        self.route_numbering = None;
        self.exec.health()?;
        while let Some(epoch) = self.fluid.next_epoch().filter(|&e| e <= now) {
            self.advance_cores(epoch, deliveries)?;
            self.recompute_fluid(epoch)?;
        }
        self.advance_cores(now, deliveries)?;
        self.fluid.integrate_to(now);
        Ok(())
    }

    /// One un-chopped advance of every core to `now`.
    fn advance_cores(
        &mut self,
        now: SimTime,
        deliveries: &mut Vec<Delivery>,
    ) -> Result<(), EmuError> {
        deliveries.append(&mut self.admission.local_deliveries);
        self.exec.advance(now, deliveries)
    }

    /// Serializes the complete emulator state into a checkpoint restorable
    /// by [`Emulator::restore`] onto any executor. Resuming from the
    /// snapshot is bit-identical to never having stopped, and taking one
    /// does not perturb the run (nothing ticks). Scratch buffers (tick pass,
    /// solver scratch) hold no state and are not captured.
    ///
    /// The encoding is canonical: snapshots of the same emulation point are
    /// byte-identical whichever executor the cores were on. It is one
    /// allocation of exactly its length: [`Emulator::snapshot_into`] runs
    /// once on a measuring writer, then once into that buffer
    /// ([`ByteWriter::write_exact`]).
    ///
    /// # Errors
    ///
    /// [`EmuError::WorkerFailure`] if a core thread died or stalled.
    pub fn snapshot(&mut self) -> Result<EmulatorSnapshot, EmuError> {
        let mut framed = Vec::new();
        ByteWriter::write_exact(&mut framed, |w| self.snapshot_into(w))?;
        Ok(EmulatorSnapshot { framed })
    }

    /// The one encoder: appends the checkpoint to `w` as a complete `MNSP`
    /// frame, the payload streamed in place, so a caller nesting it in a
    /// frame of its own (the runner) stages nothing. On error `w` holds a
    /// partial frame and is only good for dropping. The route numbering
    /// ([`RouteTable::numbering`]) is made once for the state as it is; on
    /// a measuring writer the threaded executor's workers encode their
    /// cores, and the next call appends those encodings unless a request
    /// came between.
    pub fn snapshot_into(&mut self, w: &mut ByteWriter) -> Result<(), EmuError> {
        self.exec.health()?;
        let Emulator {
            exec,
            pod,
            profile,
            matrix,
            admission,
            core_load: _,
            fluid,
            route_numbering,
        } = self;
        if route_numbering.is_none() {
            let (rows, made) = admission.routes.numbering(|ids| exec.route_reads(ids))?;
            *route_numbering = Some((rows, made.map(Arc::new)));
        }
        let (rows, numbering) = route_numbering.clone().unwrap_or_default();
        let frame = w.begin_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        profile.put(w);
        matrix.put(w);
        admission
            .routes
            .encode_section(w, rows, numbering.as_deref());
        w.put_usize(pod.core_count());
        w.put_u64s((0..pod.pipe_count()).map(|p| pod.owner(PipeId::from_index(p)).index() as u64));
        // Each VN's location and liveness are the route table's, and the
        // load vector follows from them: of the per-VN state, only the
        // entry cores are written.
        admission.vn_entry_core.put(w);
        admission.local_deliveries.put(w);
        fluid.encode(w);
        exec.encode_cores(w, numbering.as_ref())?;
        w.end_frame(frame);
        Ok(())
    }

    /// Rebuilds an emulator, its cores inline, from a checkpoint taken by
    /// [`Emulator::snapshot`] on either executor.
    ///
    /// # Errors
    ///
    /// [`CodecError`] if the payload is inconsistent or is not consumed to
    /// the last byte.
    pub fn restore(snapshot: &EmulatorSnapshot) -> Result<Self, CodecError> {
        Self::decode(snapshot.reader(), None)
    }

    /// [`Emulator::restore`] straight from a framed snapshot of any version
    /// this build reads: `framed` is verified and decoded in place.
    pub fn restore_bytes(framed: &[u8]) -> Result<Self, CodecError> {
        Self::decode(EmulatorSnapshot::verify(framed)?, None)
    }

    /// [`Emulator::restore_bytes`] onto the executor `self` runs on: a
    /// fresh worker pool on the threaded one (the way out of a poisoned
    /// run), the calling thread on the inline one; where `self`'s route
    /// table is the one the frame would derive, it is shared instead.
    pub fn restore_like(&self, framed: &[u8]) -> Result<Self, CodecError> {
        let restored = Self::decode(EmulatorSnapshot::verify(framed)?, Some(self))?;
        Ok(match self.exec {
            Executor::Inline(_) => restored,
            Executor::Threaded(_) => restored.threaded(),
        })
    }

    /// The one decoder, over a verified payload. The
    /// checksum only says the bytes are the ones written; every index the
    /// run phase later uses unchecked — entry cores, each route's pipes
    /// against the ownership directory, each descriptor's route and hop,
    /// each tunnel's target, each pipe on the core the directory gives it
    /// to — is checked here, so a hand-built or damaged snapshot is a typed
    /// error here, not an out-of-bounds panic on the forwarding path. Each
    /// VN's location and liveness are rebuilt from the route table, which
    /// records both, and the load vector from them and the entry cores; the
    /// fluid solver's per-pipe capacities and demands from the restored
    /// pipes, which hold both. The route table is derived over the
    /// restored matrix, or is `own`'s ([`RouteTable::decode_section`]), and
    /// numbered as [`RouteTable::numbering`] numbers it. A held route names
    /// only the matrix's pipes, and the matrix only the POD's.
    /// The frame is written out rather than declared because those checks
    /// need what was read before them.
    fn decode(mut payload: ByteReader<'_>, own: Option<&Emulator>) -> Result<Self, CodecError> {
        use CodecError::Invalid;
        let r = &mut payload;
        let profile = HardwareProfile::get(r)?;
        let matrix = RoutingMatrix::get(r)?;
        let own = own.filter(|own| own.matrix.same_state(&matrix));
        let own = own.map(|own| &*own.admission.routes);
        let routes = Arc::new(RouteTable::decode_section(r, &matrix, own)?);
        let core_count = usize::get(r)?;
        if core_count == 0 {
            return Err(Invalid("no cores"));
        }
        let owners = r.get_u64s()?;
        if owners.iter().any(|&owner| owner >= core_count as u64) {
            return Err(Invalid("pipe owner out of range"));
        }
        let owners = owners.into_iter().map(|o| CoreId(o as usize)).collect();
        let pod = Arc::new(PipeOwnershipDirectory::from_owners(owners, core_count));
        // A hop is forwarded by asking the directory who owns its pipe.
        if matrix.pipe_count() != pod.pipe_count() {
            return Err(Invalid("routing matrix and POD differ in pipes"));
        }
        let vn_count = r.get_count(CoreId::MIN_BYTES)?;
        if vn_count != routes.endpoint_count() {
            return Err(Invalid("entry cores do not cover the route table's VNs"));
        }
        let mut vn_entry_core = Vec::with_capacity(vn_count);
        for _ in 0..vn_count {
            vn_entry_core.push(CoreId::get(r)?);
        }
        if vn_entry_core.iter().any(|core| core.index() >= core_count) {
            return Err(Invalid("VN entry core out of range"));
        }
        let local_deliveries = Vec::<Delivery>::get(r)?;
        let mut fluid = FluidState::decode(r, pod.pipe_count())?;
        if r.get_len()? != core_count {
            return Err(CodecError::Invalid("core count mismatch"));
        }
        let mut cores = Vec::with_capacity(core_count);
        for idx in 0..core_count {
            let core = EmulatorCore::decode_state(r, profile, routes.clone(), &pod)?;
            if core.id().index() != idx {
                return Err(CodecError::Invalid("core ids out of order"));
            }
            cores.push(core);
        }
        r.finish()?;
        let mut inline = InlineExecutor::new(cores, pod.clone());
        if !matches!(
            routes.numbering(|ids| inline.route_reads(ids)),
            Ok((_, None))
        ) {
            return Err(Invalid("routes not numbered as a checkpoint numbers them"));
        }
        // Each pipe's capacity and fluid demand are its owner's copy's.
        for p in 0..pod.pipe_count() {
            let pipe = PipeId::from_index(p);
            let Some(installed) = inline.cores[pod.owner(pipe).index()].pipe(pipe) else {
                return Err(Invalid("pipe not installed on its POD owner"));
            };
            fluid.restore_pipe(pipe, installed.attrs().bandwidth, installed.fluid_demand());
        }
        // A decoded table gives every endpoint a location slot.
        let located = |vn| {
            routes
                .endpoint_location(vn)
                .ok_or(Invalid("endpoint without a location"))
        };
        let admission = Admission {
            vn_location: (0..vn_count).map(located).collect::<Result<_, _>>()?,
            vn_active: (0..vn_count)
                .map(|vn| routes.is_endpoint_bound(vn))
                .collect(),
            vn_entry_core,
            routes,
            local_deliveries,
            batch: Vec::new(),
            resolved: Vec::new(),
            outcome: Vec::new(),
        };
        Ok(Emulator {
            exec: Executor::Inline(inline),
            // Sized only now the cores section has matched the core count.
            core_load: admission.core_load(core_count),
            pod,
            profile,
            matrix,
            admission,
            fluid,
            route_numbering: None,
        })
    }
}

/// [`Emulator`] under its former name, kept for callers that still build
/// it by that name; [`Emulator::new`] runs the cores inline.
#[doc(hidden)]
pub type MultiCoreEmulator = Emulator;

/// The threaded emulator's former name, kept for `ParallelEmulator::new`.
#[doc(hidden)]
#[derive(Debug)]
pub struct ParallelEmulator;

impl ParallelEmulator {
    /// [`Emulator::new`], then [`Emulator::threaded`]: there is no other
    /// type to return.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        topo: &DistilledTopology,
        pod: PipeOwnershipDirectory,
        matrix: RoutingMatrix,
        binding: &Binding,
        profile: HardwareProfile,
        seed: u64,
    ) -> Emulator {
        Emulator::new(topo, pod, matrix, binding, profile, seed).threaded()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_assign::{greedy_k_clusters, BindingParams};
    use mn_distill::{distill, DistillationMode};
    use mn_packet::{FlowKey, PacketId, Protocol, TransportHeader};
    use mn_routing::RouteId;
    use mn_topology::generators::{ring_topology, RingParams};

    /// A 2-core emulator over a 4-router, 8-client ring.
    fn ring_emulator() -> Emulator {
        let topo = ring_topology(&RingParams {
            routers: 4,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let binding = Binding::bind(d.vns(), &BindingParams::new(2, 2));
        let pod = greedy_k_clusters(&d, 2, 7);
        let profile = HardwareProfile::unconstrained();
        Emulator::new(&d, pod, RoutingMatrix::build(&d), &binding, profile, 11)
    }

    /// The core owning pipe `hop` of route 0.
    fn owner_of_hop(emu: &Emulator, hop: usize) -> usize {
        emu.pod
            .owner(emu.route_table().pipes(RouteId(0))[hop])
            .index()
    }

    /// A tunnel in flight to `target`, `hop` pipes into `route`.
    fn stage_tunnel(emu: &mut Emulator, target: usize, route: RouteId, hop: usize) {
        let flow = FlowKey {
            src: VnId(0),
            dst: VnId(5),
            src_port: 1,
            dst_port: 2,
            protocol: Protocol::Udp,
        };
        let header = TransportHeader::Udp {
            payload_len: 100,
            seq: 0,
        };
        let packet = Packet::new(PacketId(1), flow, header, SimTime::ZERO);
        let mut descriptor = Descriptor::new(packet, route, SimTime::ZERO);
        descriptor.hop = hop;
        let arrival = SimTime::from_millis(1);
        let Executor::Inline(inline) = &mut emu.exec else {
            unreachable!("the test's emulator runs inline")
        };
        inline.cores[target].receive_tunnel(arrival, descriptor);
    }

    /// A routing matrix's fields: the slot list and the node count, the
    /// pipe tables (costs, tails), the component node lists, each live
    /// slot's root, the row of each distinct root back to back (each as
    /// wide as its root's component), and the pipe heads, which a frame
    /// lays out after the tails.
    type MatrixFields = (
        (Vec<NodeId>, usize),
        (Vec<u64>, Vec<u32>),
        Vec<Vec<u32>>,
        Vec<u32>,
        Vec<u32>,
        Vec<u32>,
    );

    /// A hand-built frame: `emu`'s checkpoint with the routing matrix's
    /// fields rewritten by `corrupt`, sealed again.
    fn with_matrix(emu: &mut Emulator, corrupt: fn(&mut MatrixFields)) -> Vec<u8> {
        let bytes = emu.snapshot().unwrap().to_bytes();
        let payload = &bytes[16..bytes.len() - 8];
        let mut r = ByteReader::new(payload);
        HardwareProfile::get(&mut r).unwrap();
        let at = payload.len() - r.remaining();
        let mut fields: MatrixFields = Default::default();
        (fields.0, fields.1) = Codec::get(&mut r).unwrap();
        fields.5 = r.get_bare_u32s(fields.1 .1.len()).unwrap();
        fields.2 = Codec::get(&mut r).unwrap();
        let live = fields.0 .0.iter().filter(|v| v.index() != usize::MAX);
        fields.3 = r.get_bare_u32s(live.count()).unwrap();
        let lists = &fields.2;
        let width = |root: &u32| {
            let list = lists.iter().find(|list| list.contains(root));
            list.map_or(0, Vec::len)
        };
        let mut roots = fields.3.clone();
        roots.sort_unstable();
        roots.dedup();
        fields.4 = r.get_bare_u32s(roots.iter().map(width).sum()).unwrap();
        corrupt(&mut fields);
        let mut w = ByteWriter::new();
        let frame = w.begin_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.put_bytes(&payload[..at]);
        let (head, pipes, lists, roots, rows, heads) = fields;
        (head, pipes).put(&mut w);
        w.put_bare_u32s(heads.iter().copied());
        lists.put(&mut w);
        w.put_bare_u32s(roots.iter().copied());
        w.put_bare_u32s(rows.iter().copied());
        w.put_bytes(&payload[payload.len() - r.remaining()..]);
        w.end_frame(frame);
        w.into_bytes()
    }

    #[test]
    fn restore_rejects_out_of_range_indices() {
        type Corrupt = fn(&mut Emulator);
        let hostile: [(&str, Corrupt); 9] = [
            ("VN entry core out of range", |e| {
                e.admission.vn_entry_core[3] = CoreId(99);
            }),
            ("entry cores do not cover the route table's VNs", |e| {
                e.admission.vn_entry_core.pop();
            }),
            // The load vector is sized by the core count, so that count is
            // refused before anything is: here by the cores section.
            ("core count mismatch", |e| {
                let owners = (0..e.pod.pipe_count()).map(|p| e.pod.owner(PipeId::from_index(p)));
                let pod = PipeOwnershipDirectory::from_owners(owners.collect(), 1 << 40);
                e.pod = Arc::new(pod);
            }),
            ("descriptor route or hop out of range", |e| {
                let routes = e.route_table().route_count() as u32;
                stage_tunnel(e, 1, RouteId(routes), 0);
            }),
            ("descriptor route or hop out of range", |e| {
                let hops = e.route_table().pipes(RouteId(0)).len();
                stage_tunnel(e, 1, RouteId(0), hops + 1);
            }),
            // A complete route: counted in, never out.
            ("tunnel's next pipe is not installed on its target", |e| {
                let hops = e.route_table().pipes(RouteId(0)).len();
                stage_tunnel(e, 1, RouteId(0), hops);
            }),
            // A peer's pipe: sent on again, at a second NIC/CPU cost.
            ("tunnel's next pipe is not installed on its target", |e| {
                let elsewhere = 1 - owner_of_hop(e, 0);
                stage_tunnel(e, elsewhere, RouteId(0), 0);
            }),
            // A descriptor's next hop would ask the directory for pipe
            // 9 999's owner.
            ("held route names a pipe the matrix does not hold", |e| {
                let routes = Arc::make_mut(&mut e.admission.routes);
                let id = routes.intern_pipes(&[PipeId(9_999)]);
                stage_tunnel(e, 1, id, 0);
            }),
            // Accepted, a reroute would ask the directory for its owner.
            ("routing matrix and POD differ in pipes", |e| {
                let owners = (0..e.pod.pipe_count()).map(|p| e.pod.owner(PipeId::from_index(p)));
                let owners = owners.chain([CoreId(0)]).collect();
                e.pod = Arc::new(PipeOwnershipDirectory::from_owners(owners, 2));
            }),
        ];
        for (what, corrupt) in hostile {
            // Corrupting the state before it is serialized yields a snapshot
            // with a valid frame and checksum around the bad index.
            let mut source = ring_emulator();
            corrupt(&mut source);
            let snapshot = source.snapshot().unwrap();
            assert_eq!(
                Emulator::restore(&snapshot).unwrap_err(),
                CodecError::Invalid(what)
            );
        }
        // A matrix any later lookup, reroute or update would index out of
        // range: refused when decoded, on both executors.
        type CorruptMatrix = fn(&mut MatrixFields);
        let matrix: [(&str, CorruptMatrix); 11] = [
            ("component lists do not partition the nodes", |f| {
                f.2[0].pop();
            }),
            ("pipe tables of unequal lengths", |f| {
                f.1 .0.pop();
            }),
            ("pipe tail out of range", |f| f.1 .1[0] = f.0 .1 as u32),
            ("predecessor pipe out of range", |f| {
                f.4[1] = f.1 .1.len() as u32
            }),
            ("source slot outside the graph", |f| {
                f.0 .0[1] = NodeId(f.0 .1);
            }),
            // The node → slot map is derived from the slot list.
            ("node claimed by two live slots", |f| f.0 .0[1] = f.0 .0[0]),
            // The ring is one component, so the first row, the lowest
            // root's, is the first `node_count` entries and a position is a
            // node index. Some entry of it names a pipe from a node t other
            // than the root; pointing t at that pipe's reverse (hop-by-hop
            // distillation adds a duplex link's two pipes back to back)
            // closes a loop.
            ("predecessor row with a cycle", |f| {
                let (root, tails) = (*f.3.iter().min().unwrap(), &f.1 .1);
                let row = &f.4[..f.0 .1];
                let named = |&p: &u32| p != u32::MAX && tails[p as usize] != root;
                let p = row
                    .iter()
                    .copied()
                    .find(named)
                    .expect("a node past the first hop");
                f.4[tails[p as usize] as usize] = p ^ 1;
            }),
            ("slot root outside the graph", |f| f.3[0] = f.0 .1 as u32),
            // Slot 0 is a client, which reads its router's row: the router
            // listed as a component of its own, the lists still partition
            // the nodes.
            ("root of another component than its slot's", |f| {
                let router = f.3[0];
                assert_ne!(f.0 .0[0].index() as u32, router);
                let rest = f.2[0].iter().copied().filter(|&u| u != router);
                f.2 = vec![rest.collect(), vec![router]];
            }),
            // A client given a second out-pipe (the access pipe of a
            // client of another router, which no row names).
            ("stub slot without a unique access pipe", |f| {
                let tails = &mut f.1 .1;
                let [a, b] = [0, 7].map(|si| f.0 .0[si].index() as u32);
                let p = tails.iter().position(|&t| t == b).unwrap();
                tails[p] = a;
            }),
            // Slot 0's access pipe said to enter another client's router.
            ("stub slot's access pipe does not enter its root", |f| {
                let [a, b] = [0, 7].map(|si| f.0 .0[si].index() as u32);
                let access = f.1 .1.iter().position(|&t| t == a).unwrap();
                let elsewhere = f.1 .1.iter().position(|&t| t == b).unwrap();
                f.5[access] = f.5[elsewhere];
            }),
        ];
        for (what, corrupt) in matrix {
            let bytes = with_matrix(&mut ring_emulator(), corrupt);
            let refused = Err(CodecError::Invalid(what));
            assert_eq!(Emulator::restore_bytes(&bytes).map(|_| ()), refused);
        }
        assert!(Emulator::restore_bytes(&with_matrix(&mut ring_emulator(), |_| {})).is_ok());
        // What the encoder writes passes every check, tunnels at either end
        // of their route, each with the owner of its next pipe, included.
        let mut source = ring_emulator();
        let last = source.route_table().pipes(RouteId(0)).len() - 1;
        for hop in [0, last] {
            let owner = owner_of_hop(&source, hop);
            stage_tunnel(&mut source, owner, RouteId(0), hop);
        }
        let snapshot = source.snapshot().unwrap();
        let mut restored = Emulator::restore(&snapshot).unwrap();
        assert!(restored.snapshot().unwrap() == snapshot);
    }

    #[test]
    fn restore_refuses_a_frame_with_no_cores() {
        // The core-count word follows the route section.
        let mut bytes = ring_emulator().snapshot().unwrap().to_bytes();
        let end = bytes.len() - 8;
        let at = {
            let mut r = ByteReader::new(&bytes[16..end]);
            HardwareProfile::get(&mut r).unwrap();
            let matrix = RoutingMatrix::get(&mut r).unwrap();
            RouteTable::decode_section(&mut r, &matrix, None).unwrap();
            end - r.remaining()
        };
        bytes[at..at + 8].fill(0);
        let sum = mn_util::codec::checksum64(&bytes[16..end]);
        let sum = mn_util::codec::versioned_sum(sum, SNAPSHOT_VERSION);
        bytes[end..].copy_from_slice(&sum.to_le_bytes());
        assert_eq!(
            Emulator::restore_bytes(&bytes).map(|_| ()),
            Err(CodecError::Invalid("no cores"))
        );
    }

    /// Restore reads each pipe's fluid capacity from the pipe on the core
    /// the POD gives it to: a POD naming a core that does not hold the pipe
    /// leaves that capacity, and the pipe's forwarding, with no owner.
    #[test]
    fn restore_refuses_fluid_capacities_that_do_not_cover_the_pod() {
        let mut source = ring_emulator();
        let pipes = source.pod.pipe_count();
        let moved = |p: usize| match p {
            0 => CoreId(1 - source.pod.owner(PipeId(0)).index()),
            p => source.pod.owner(PipeId::from_index(p)),
        };
        let owners = (0..pipes).map(moved).collect();
        source.pod = Arc::new(PipeOwnershipDirectory::from_owners(owners, 2));
        let bytes = source.snapshot().unwrap().to_bytes();
        let refused = Err(CodecError::Invalid("pipe not installed on its POD owner"));
        assert_eq!(Emulator::restore_bytes(&bytes).map(|_| ()), refused);
    }
}
