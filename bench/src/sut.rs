//! The adapter: every call into the system under test goes through this file.
//!
//! The rest of the benchmark knows workloads, reps, spans and statistics; it
//! does not know `MultiCoreEmulator`, `ParallelEmulator` or `EmulatorBackend`.
//! When the emulator's public surface changes (the ROADMAP's coordinator
//! collapse, for one), this is the only file that has to follow.
//!
//! Two build paths exist on purpose. [`Emu::build`] goes through the
//! `modelnet::Experiment` facade, which is what a user calls and therefore
//! what `setup_s` times. [`Emu::build_stepwise`] performs the same phases one
//! by one through each layer's own function so that a traced rep can give
//! every phase its own span; it is also the only way to multiplex many VNs
//! over few locations, which `Experiment` does not offer. Both paths must
//! produce the same emulation: the rep digests are compared.

use mn_assign::{greedy_k_clusters, Binding, BindingParams, CoreId};
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeAttrs, PipeId};
use mn_emucore::{
    CoreStats, Delivery, Descriptor, EmulatorCore, EmulatorSnapshot, HardwareProfile,
    MultiCoreEmulator, ParallelEmulator, SubmitOutcome, TickOutput,
};
use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader};
use mn_pipe::{EmuPipe, EnqueueOutcome};
use mn_routing::{RouteTable, RoutingMatrix};
use mn_topology::generators::{
    path_pairs_topology, ring_topology, star_topology, PathPairsParams, RingParams, StarParams,
};
use mn_topology::{LinkId, NodeId, Topology};
use mn_transport::{TcpConfig, TcpConnection};
use mn_util::{ByteReader, ByteWriter, DataRate, SimDuration, SimTime, TimerWheel};
use modelnet::{EmulatorBackend, ExecutionBackend, Experiment, Runner};

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use crate::trace::Tracer;

pub use mn_emucore::{CoreStats as Counters, Delivery as Delivered};
pub use mn_packet::VnId;
pub use mn_util::SimTime as VirtualTime;
pub use modelnet::FlowId;

/// The seed handed to the emulator's own random decisions (partitioning,
/// per-core loss draws). It is part of the system's configuration, not of the
/// workload: the benchmark's `--seed` only shapes the inputs.
const SYSTEM_SEED: u64 = 7;

/// Which generator produces the target topology, and at what size.
#[derive(Debug, Clone, Copy)]
pub enum TopoSpec {
    /// `pairs` disjoint sender/receiver paths of `hops` pipes each.
    Chain { pairs: usize, hops: usize },
    /// One hub, `clients` spokes: every route is two pipes.
    Star { clients: usize },
    /// A ring of routers with clients hanging off each.
    Ring {
        routers: usize,
        clients_per_router: usize,
        ring_mbps: u64,
        access_mbps: u64,
    },
}

/// A generated target topology plus, for the chain, the only VN pairs that
/// have a route (every other generator routes all pairs).
pub struct Target {
    pub topology: Topology,
    pub routed_pairs: Option<Vec<(NodeId, NodeId)>>,
}

/// Generates the target topology. `queue_len` overrides every link's
/// bandwidth-queue depth (the generators use dummynet's 50 slots).
pub fn generate_topology(spec: TopoSpec, queue_len: Option<usize>) -> Target {
    let mut target = generate(spec);
    if let Some(len) = queue_len {
        let links: Vec<LinkId> = target.topology.links().map(|(id, _)| id).collect();
        for id in links {
            target
                .topology
                .link_attrs_mut(id)
                .expect("link exists")
                .queue_len = len;
        }
    }
    target
}

fn generate(spec: TopoSpec) -> Target {
    match spec {
        TopoSpec::Chain { pairs, hops } => {
            let (topology, routed) = path_pairs_topology(&PathPairsParams {
                pairs,
                hops,
                bandwidth: DataRate::from_mbps(100),
                end_to_end_latency: SimDuration::from_millis(8),
            });
            Target {
                topology,
                routed_pairs: Some(routed),
            }
        }
        TopoSpec::Star { clients } => Target {
            topology: star_topology(&StarParams {
                clients,
                ..StarParams::default()
            }),
            routed_pairs: None,
        },
        TopoSpec::Ring {
            routers,
            clients_per_router,
            ring_mbps,
            access_mbps,
        } => Target {
            topology: ring_topology(&RingParams {
                routers,
                clients_per_router,
                ring_bandwidth: DataRate::from_mbps(ring_mbps),
                client_bandwidth: DataRate::from_mbps(access_mbps),
                ..RingParams::default()
            }),
            routed_pairs: None,
        },
    }
}

/// How the emulator is to be assembled over a target topology.
#[derive(Debug, Clone, Copy)]
pub struct BuildPlan {
    /// Emulation cores the pipes are partitioned over.
    pub cores: usize,
    /// One OS thread per core instead of cooperative execution.
    pub threaded: bool,
    /// `Some(n)`: bind `n` VNs round-robin over the client locations
    /// (multiplexing); `None`: one VN per client.
    pub multiplexed_vns: Option<usize>,
}

/// A built emulation: the `Runner`, the mutable pipe graph that control
/// operations edit, and the VN ids in binding order.
pub struct Emu {
    runner: Runner,
    distilled: DistilledTopology,
    locations: Vec<NodeId>,
    threaded: bool,
}

/// Packets that left a pipe, were dropped by one, and are inside one now.
#[derive(Debug, Clone, Copy, Default)]
pub struct PipeTotals {
    pub transits: u64,
    pub drops: u64,
    pub in_flight: u64,
}

/// One link flap victim: both directions of a duplex link with their healthy
/// attributes.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    pipes: [PipeId; 2],
    healthy: [PipeAttrs; 2],
}

impl Emu {
    /// Builds through the `Experiment` facade (Distill → Assign → Bind → Run
    /// driver), as a user would. Does not support multiplexing.
    pub fn build(target: &Target, plan: BuildPlan) -> Result<Emu, String> {
        if plan.multiplexed_vns.is_some() {
            return Err("the Experiment facade binds one VN per client".into());
        }
        let backend = if plan.threaded {
            ExecutionBackend::Threaded
        } else {
            ExecutionBackend::Sequential
        };
        let (runner, distilled) = Experiment::new(target.topology.clone())
            .distillation(DistillationMode::HopByHop)
            .cores(plan.cores)
            .edge_nodes(plan.cores)
            .unconstrained_hardware()
            .allow_disconnected()
            .backend(backend)
            .seed(SYSTEM_SEED)
            .build_with_distilled()
            .map_err(|e| format!("experiment build failed: {e}"))?;
        let locations = distilled.vns().to_vec();
        Ok(Emu {
            runner,
            distilled,
            locations,
            threaded: plan.threaded,
        })
    }

    /// The same pipeline, phase by phase through each layer's own function,
    /// each phase under its own span.
    pub fn build_stepwise(target: &Target, plan: BuildPlan, trace: &mut Tracer) -> Emu {
        let distilled = trace.span("distill.distill", || {
            distill(&target.topology, DistillationMode::HopByHop)
        });
        let pod = trace.span("assign.cluster", || {
            greedy_k_clusters(&distilled, plan.cores, SYSTEM_SEED)
        });
        let matrix = trace.span("routing.matrix_build", || RoutingMatrix::build(&distilled));
        let locations: Vec<NodeId> = match plan.multiplexed_vns {
            Some(n) => {
                let base = distilled.vns();
                (0..n).map(|i| base[i % base.len()]).collect()
            }
            None => distilled.vns().to_vec(),
        };
        let binding = trace.span("assign.bind", || {
            Binding::bind(&locations, &BindingParams::new(plan.cores, plan.cores))
        });
        let profile = HardwareProfile::unconstrained();
        // The constructors build the route table themselves, so the table
        // build is inside this span; `kernels` times it alone.
        let backend = trace.span("emucore.construct", || {
            if plan.threaded {
                EmulatorBackend::Threaded(ParallelEmulator::new(
                    &distilled,
                    pod,
                    matrix,
                    &binding,
                    profile,
                    SYSTEM_SEED,
                ))
            } else {
                EmulatorBackend::Sequential(MultiCoreEmulator::new(
                    &distilled,
                    pod,
                    matrix,
                    &binding,
                    profile,
                    SYSTEM_SEED,
                ))
            }
        });
        let runner = trace.span("modelnet.runner_new", || {
            Runner::with_backend(backend, binding, TcpConfig::default())
        });
        Emu {
            runner,
            distilled,
            locations,
            threaded: plan.threaded,
        }
    }

    /// VN ids in binding order (`VnId(i)` sits at `locations[i]`).
    pub fn vns(&self) -> Vec<VnId> {
        self.runner.vn_ids()
    }

    /// The VN bound at a client node of the target topology.
    pub fn vn_at(&self, node: NodeId) -> Option<VnId> {
        self.runner.binding().vn_at(node)
    }

    // ---- forwarding -----------------------------------------------------

    /// Submits the whole batch (draining it, so its buffer is reused) and
    /// appends one outcome per packet.
    pub fn submit_batch(
        &mut self,
        batch: &mut Vec<(SimTime, Packet)>,
        outcomes: &mut Vec<SubmitOutcome>,
    ) -> Result<(), String> {
        self.runner
            .backend_mut()
            .submit_batch(batch.drain(..), outcomes)
            .map_err(|e| format!("submit_batch: {e}"))
    }

    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<Delivery>) -> Result<(), String> {
        self.runner
            .backend_mut()
            .advance_into(now, out)
            .map_err(|e| format!("advance_into: {e}"))
    }

    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.runner.backend().next_wakeup()
    }

    pub fn total_stats(&self) -> CoreStats {
        self.runner.backend().total_stats()
    }

    /// Totals over every pipe. Only the sequential backend exposes its pipes.
    pub fn pipe_totals(&self) -> Option<PipeTotals> {
        if self.threaded {
            return None;
        }
        let mut totals = PipeTotals::default();
        for core in self.runner.emulator().cores() {
            let stats = core.pipe_stats_total();
            totals.transits += stats.dequeued;
            totals.drops += stats.dropped_total();
            totals.in_flight += core.in_flight() as u64;
        }
        Some(totals)
    }

    // ---- the Runner's own event loop (TCP) --------------------------------

    pub fn add_tcp_flow(&mut self, src: VnId, dst: VnId) -> FlowId {
        self.runner.add_bulk_flow(src, dst, None, SimTime::ZERO)
    }

    pub fn run_for_millis(&mut self, millis: u64) -> Result<(), String> {
        self.runner
            .run_for(SimDuration::from_millis(millis))
            .map_err(|e| format!("run_for: {e}"))
    }

    pub fn now(&self) -> SimTime {
        self.runner.now()
    }

    pub fn packets_submitted(&self) -> u64 {
        self.runner.packets_submitted()
    }

    pub fn packets_delivered(&self) -> u64 {
        self.runner.packets_delivered()
    }

    pub fn flow_bytes_acked(&self, flow: FlowId) -> u64 {
        self.runner.flow_bytes_acked(flow)
    }

    pub fn flow_retransmissions(&self, flow: FlowId) -> u64 {
        self.runner.flow_retransmissions(flow)
    }

    // ---- control plane ---------------------------------------------------

    /// Starts a fluid (flow-level) bulk flow at virtual time zero.
    pub fn add_fluid_flow(&mut self, tag: u64, src: VnId, dst: VnId, mbps: u64) -> bool {
        self.runner.backend_mut().add_fluid_flow(
            tag,
            src,
            dst,
            DataRate::from_mbps(mbps),
            1,
            SimTime::ZERO,
        )
    }

    /// The duplex links a flap may pick, all of one kind so that every flap
    /// of a workload does the same amount of work whatever the seed: links
    /// between two routers where the topology has any (a ring's ring links, a
    /// chain's interior links), otherwise every link (a star's spokes).
    pub fn flap_candidates(&self) -> Vec<Link> {
        let mut is_client = vec![false; self.distilled.node_count()];
        for vn in self.distilled.vns() {
            is_client[vn.0] = true;
        }
        let duplex = |core_only: bool| -> Vec<Link> {
            self.distilled
                .pipes()
                .filter(|(_, p)| p.src.0 < p.dst.0)
                .filter(|(_, p)| !core_only || !(is_client[p.src.0] || is_client[p.dst.0]))
                .filter_map(|(forward, p)| {
                    let reverse = self.distilled.find_pipe(p.dst, p.src)?;
                    Some(Link {
                        pipes: [forward, reverse],
                        healthy: [p.attrs, self.distilled.pipe(reverse).attrs],
                    })
                })
                .collect()
        };
        let core = duplex(true);
        if core.is_empty() {
            duplex(false)
        } else {
            core
        }
    }

    /// Half a flap: takes both directions of `link` down (`up == false`) or
    /// restores them, on the pipes themselves and in the routes. Returns
    /// whether the emulator accepted every call and how many shortest-route
    /// trees the reroute recomputed.
    pub fn set_link(&mut self, link: &Link, up: bool, trace: &mut Tracer) -> (bool, usize) {
        let mut accepted = true;
        for (&pipe, &healthy) in link.pipes.iter().zip(&link.healthy) {
            let attrs = if up {
                healthy
            } else {
                PipeAttrs {
                    bandwidth: DataRate::ZERO,
                    ..healthy
                }
            };
            *self
                .distilled
                .pipe_attrs_mut(pipe)
                .expect("victim pipe exists") = attrs;
            let backend = self.runner.backend_mut();
            accepted &= trace.span("emucore.update_pipe_attrs", || {
                backend.update_pipe_attrs(pipe, attrs)
            });
        }
        let backend = self.runner.backend_mut();
        let distilled = &self.distilled;
        let update = trace.span("emucore.reroute", || {
            backend.reroute(distilled, &link.pipes)
        });
        (accepted, update.recomputed_sources)
    }

    /// One churn cycle: `vn` leaves and rejoins at its own location.
    pub fn leave_and_rejoin(&mut self, vn: VnId, at: SimTime, trace: &mut Tracer) -> bool {
        let location = self.locations[vn.index()];
        let backend = self.runner.backend_mut();
        let left = trace.span("emucore.vn_leave", || backend.vn_leave(vn, at));
        let distilled = &self.distilled;
        let joined = trace.span("emucore.vn_join", || {
            backend.vn_join(distilled, vn, location, at)
        });
        left && joined
    }

    /// `Runner::snapshot`: the complete framed run state.
    pub fn checkpoint(&mut self) -> Result<Vec<u8>, String> {
        self.runner.snapshot().map_err(|e| format!("snapshot: {e}"))
    }

    /// `Runner::recover_from` into this (freshly built) emulation.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.runner
            .recover_from(bytes)
            .map_err(|e| format!("recover_from: {e}"))
    }

    /// The emulator's share of a checkpoint, taken apart, each part under its
    /// own span: capture the state, frame it, parse it back.
    pub fn emulator_snapshot_parts(&mut self, trace: &mut Tracer) -> Result<(), String> {
        let backend = self.runner.backend_mut();
        let snap = trace
            .span("emucore.snapshot", || backend.snapshot())
            .map_err(|e| format!("emulator snapshot: {e}"))?;
        let bytes = trace.span("emucore.snapshot_to_bytes", || snap.to_bytes());
        trace
            .span("emucore.snapshot_from_bytes", || {
                EmulatorSnapshot::from_bytes(&bytes).map(|_| ())
            })
            .map_err(|e| format!("emulator snapshot does not parse: {e}"))
    }
}

/// A UDP datagram of `payload` bytes from `src` to `dst`, emitted at `now`.
pub fn udp_packet(id: u64, src: VnId, dst: VnId, payload: u32, now: SimTime) -> Packet {
    Packet::new(
        PacketId(id),
        FlowKey {
            src,
            dst,
            src_port: 1000,
            dst_port: 2000,
            protocol: Protocol::Udp,
        },
        TransportHeader::Udp {
            payload_len: payload,
            seq: id,
        },
        now,
    )
}

pub type Batch = Vec<(SimTime, Packet)>;
pub type Outcomes = Vec<SubmitOutcome>;

/// `true` for the only outcome that is not a failed operation.
pub fn accepted(outcome: &SubmitOutcome) -> bool {
    outcome.is_accepted()
}

pub fn virtual_nanos(nanos: u64) -> SimTime {
    SimTime::from_nanos(nanos)
}

/// The fair-share rate (bits/s) the independent reference simulator predicts
/// for each `(src, dst)` flow, given as VN indices of `emu`.
pub fn reference_rates_bps(target: &Target, emu: &Emu, flows: &[(usize, usize)]) -> Vec<f64> {
    let specs: Vec<mn_refsim::FlowSpec> = flows
        .iter()
        .map(|&(s, d)| mn_refsim::FlowSpec {
            src: emu.locations[s],
            dst: emu.locations[d],
        })
        .collect();
    mn_refsim::max_min_fair_share(&target.topology, &specs)
        .iter()
        .map(|a| a.rate.as_bps() as f64)
        .collect()
}

// ---- layer kernels: one stage of a layer, alone, over given inputs ----------

/// Seconds spent on `ops` operations of one kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timed {
    pub seconds: f64,
    pub ops: u64,
}

impl Timed {
    pub fn ns_per_op(&self) -> f64 {
        self.seconds * 1e9 / self.ops.max(1) as f64
    }

    /// The faster per operation of the two.
    pub fn faster(self, other: Timed) -> Timed {
        if other.ns_per_op() < self.ns_per_op() {
            other
        } else {
            self
        }
    }

    fn add(&mut self, start: Instant, ops: u64) {
        self.seconds += start.elapsed().as_secs_f64();
        self.ops += ops;
    }
}

/// Route state rebuilt from the emulation's own inputs: `RoutingMatrix::build`,
/// then `RouteTable::build` (timed).
pub struct RouteKernel {
    pub table_build_s: f64,
    pub resident_bytes: usize,
    matrix: RoutingMatrix,
    table: RouteTable,
    pipe_count: usize,
}

impl RouteKernel {
    pub fn build(emu: &Emu) -> RouteKernel {
        let matrix = RoutingMatrix::build(&emu.distilled);
        let t = Instant::now();
        let table = RouteTable::build(&matrix, &emu.locations);
        let table_build_s = t.elapsed().as_secs_f64();
        RouteKernel {
            table_build_s,
            resident_bytes: table.memory().resident_bytes + matrix.memory_bytes(),
            matrix,
            table,
            pipe_count: emu.distilled.pipe_count(),
        }
    }

    /// `route_id` + `pipes` for each `(src, dst)` VN-index pair.
    pub fn lookups(&self, pairs: &[(usize, usize)]) -> Timed {
        let mut lookup = Timed::default();
        let mut pipes_seen = 0u64;
        let t = Instant::now();
        for &(s, d) in pairs {
            if let Some(id) = self.table.route_id(s, d) {
                pipes_seen += self.table.pipes(id).len() as u64;
            }
        }
        lookup.add(t, pairs.len() as u64);
        black_box(pipes_seen);
        lookup
    }

    /// One flap of `link` on the route state alone: per half, one incremental
    /// `RoutingMatrix::update_pipes` and one `RouteTable::rewire_in_place`.
    /// Leaves the state as it found it. Returns the two timings.
    pub fn flap(&mut self, emu: &Emu, link: &Link) -> (Timed, Timed) {
        let mut graph = emu.distilled.clone();
        let (mut update_pipes, mut rewire) = (Timed::default(), Timed::default());
        for up in [false, true] {
            for (&pipe, &healthy) in link.pipes.iter().zip(&link.healthy) {
                graph
                    .pipe_attrs_mut(pipe)
                    .expect("victim pipe exists")
                    .bandwidth = if up {
                    healthy.bandwidth
                } else {
                    DataRate::ZERO
                };
            }
            let t = Instant::now();
            let update = self.matrix.update_pipes(&graph, &link.pipes);
            update_pipes.add(t, 1);
            let t = Instant::now();
            self.table
                .rewire_in_place(&self.matrix, &emu.locations, &update.changed_pairs);
            rewire.add(t, 1);
        }
        (update_pipes, rewire)
    }
}

/// The stages of one pipe transit, each timed alone over the same visits.
#[derive(Debug, Clone, Copy, Default)]
pub struct HopStages {
    /// `Descriptor::is_complete` + `next_pipe` against the route table.
    pub route_step: Timed,
    pub enqueue: Timed,
    pub wheel_push: Timed,
    pub wheel_pop: Timed,
    pub dequeue: Timed,
}

impl HopStages {
    /// Stage by stage, the faster of the two.
    pub fn faster(self, other: HopStages) -> HopStages {
        HopStages {
            route_step: self.route_step.faster(other.route_step),
            enqueue: self.enqueue.faster(other.enqueue),
            wheel_push: self.wheel_push.faster(other.wheel_push),
            wheel_pop: self.wheel_pop.faster(other.wheel_pop),
            dequeue: self.dequeue.faster(other.dequeue),
        }
    }
}

/// Replays pipe transits stage by stage: real `Descriptor`s on the routes of
/// `pairs`, a table of `EmuPipe<Descriptor>` as large as the emulator's, one
/// wave of `wave` descriptors per round (about what one `advance_into` of
/// the workload services), each descriptor one hop further along its route
/// every round. Within a round every stage runs over the whole wave before
/// the next stage starts, so each can be timed alone; the pipes a wave
/// touches are scattered over the table as they are inside the emulator.
pub fn kernel_hop_stages(
    routes: &RouteKernel,
    pairs: &[(usize, usize)],
    payload: u32,
    wave: usize,
    rounds: usize,
) -> HopStages {
    let table = &routes.table;
    let attrs = PipeAttrs {
        queue_len: 4096,
        ..PipeAttrs::new(DataRate::from_mbps(100), SimDuration::from_millis(1))
    };
    let mut pipes: Vec<EmuPipe<Descriptor>> = (0..routes.pipe_count)
        .map(|_| EmuPipe::new(attrs))
        .collect();
    let mut wheel: TimerWheel<PipeId> = TimerWheel::new();
    let mut rng = mn_util::rngs::seeded_rng(SYSTEM_SEED);
    let mut descriptors: Vec<Descriptor> = pairs
        .iter()
        .filter_map(|&(s, d)| table.route_id(s, d))
        .take(wave)
        .enumerate()
        .map(|(i, route)| {
            let packet = udp_packet(i as u64, VnId(0), VnId(1), payload, SimTime::ZERO);
            Descriptor::new(packet, route, SimTime::ZERO)
        })
        .collect();
    let mut next: Vec<PipeId> = Vec::with_capacity(wave);
    let mut exits: Vec<(SimTime, PipeId)> = Vec::with_capacity(wave);
    let mut ready = Vec::with_capacity(8);
    let mut stages = HopStages::default();
    let mut now = SimTime::ZERO;
    // The first pass over every hop of every route sizes the queues and the
    // wheel; it is not timed.
    let warm_rounds = descriptors
        .iter()
        .map(|d| d.total_hops(table))
        .max()
        .unwrap_or(1);
    for round in 0..warm_rounds + rounds {
        let timed = round >= warm_rounds;
        let ops = descriptors.len() as u64;

        next.clear();
        let t = Instant::now();
        for d in descriptors.iter_mut() {
            if d.is_complete(table) {
                d.hop = 0;
            }
            next.push(
                d.next_pipe(table)
                    .expect("an incomplete route has a next pipe"),
            );
            d.advance_hop();
        }
        if timed {
            stages.route_step.add(t, ops);
        }

        exits.clear();
        let t = Instant::now();
        for (d, &pipe) in descriptors.iter().zip(&next) {
            if let EnqueueOutcome::Accepted { exit_time } =
                pipes[pipe.index()].enqueue(now, d.packet.size, d.clone(), &mut rng)
            {
                exits.push((exit_time, pipe));
            }
        }
        if timed {
            stages.enqueue.add(t, ops);
        }

        let t = Instant::now();
        for &(exit_time, pipe) in &exits {
            black_box(wheel.push(exit_time, pipe));
        }
        if timed {
            stages.wheel_push.add(t, exits.len() as u64);
        }

        now += SimDuration::from_millis(20);
        next.clear();
        let t = Instant::now();
        while let Some((_, pipe)) = wheel.pop_due(now) {
            next.push(pipe);
        }
        if timed {
            stages.wheel_pop.add(t, next.len() as u64);
        }

        let t = Instant::now();
        for &pipe in &next {
            pipes[pipe.index()].dequeue_ready_into(now, &mut ready);
            black_box(ready.len());
            ready.clear();
        }
        if timed {
            stages.dequeue.add(t, next.len() as u64);
        }
    }
    stages
}

/// One `EmulatorCore` driven directly — `ingress` per packet, `tick_into`
/// per batch — over the emulation's own pipes and routes, with no `Runner`,
/// backend dispatch or multi-core coordinator above it. It keeps its state
/// from one [`BareCore::round`] to the next, as the emulator does from one
/// batch of a window to the next.
pub struct BareCore {
    core: EmulatorCore,
    table: Arc<RouteTable>,
    out: TickOutput,
    clock_ns: u64,
    payload: u32,
    pace_ns: u64,
    batch: usize,
}

impl BareCore {
    pub fn new(emu: &Emu, routes: &RouteKernel, payload: u32, pace_ns: u64, batch: usize) -> Self {
        let table = Arc::new(routes.table.clone());
        let mut core = EmulatorCore::new(
            CoreId(0),
            HardwareProfile::unconstrained(),
            SYSTEM_SEED,
            table.clone(),
            routes.pipe_count,
        );
        for (id, pipe) in emu.distilled.pipes() {
            core.install_pipe(id, pipe.attrs);
        }
        BareCore {
            core,
            table,
            out: TickOutput::default(),
            clock_ns: 0,
            payload,
            pace_ns,
            batch,
        }
    }

    /// Feeds one packet per pair, a batch at a time. Returns the ingress
    /// time (per packet, its route lookup included) and the tick time (per
    /// pipe transit: at steady state the transits a tick services equal the
    /// hops of the packets it delivers).
    pub fn round(&mut self, pairs: &[(usize, usize)]) -> (Timed, Timed) {
        let (mut ingress, mut tick) = (Timed::default(), Timed::default());
        for chunk in pairs.chunks(self.batch) {
            let t = Instant::now();
            for &(s, d) in chunk {
                let now = SimTime::from_nanos(self.clock_ns);
                self.clock_ns += self.pace_ns;
                if let Some(route) = self.table.route_id(s, d) {
                    let packet = udp_packet(
                        self.clock_ns,
                        VnId(s as u32),
                        VnId(d as u32),
                        self.payload,
                        now,
                    );
                    black_box(self.core.ingress(now, Descriptor::new(packet, route, now)));
                }
            }
            ingress.add(t, chunk.len() as u64);
            let t = Instant::now();
            self.core.tick_into(
                SimTime::from_nanos(self.clock_ns - self.pace_ns),
                &mut self.out,
            );
            tick.add(t, self.out.deliveries.iter().map(|d| d.hops as u64).sum());
        }
        (ingress, tick)
    }
}

/// One `try_push` + `try_pop` through a bounded SPSC ring, in bursts of half
/// its capacity (the tunnel rings of the threaded backend, minus the second
/// thread).
pub fn kernel_spsc(items: u64) -> Timed {
    let (mut tx, mut rx) = mn_util::spsc::channel::<u64>(1024);
    let mut timed = Timed::default();
    let t = Instant::now();
    let mut sent = 0u64;
    while sent < items {
        for i in 0..512 {
            black_box(tx.try_push(sent + i).is_ok());
        }
        for _ in 0..512 {
            black_box(rx.try_pop());
        }
        sent += 512;
    }
    timed.add(t, sent);
    timed
}

/// `mn_util::codec`, the snapshot format's substrate: write `words` u64s,
/// checksum the buffer, read them back. One operation is one byte.
pub fn kernel_codec(words: usize) -> Timed {
    let mut timed = Timed::default();
    let t = Instant::now();
    let mut w = ByteWriter::with_capacity(words * 8);
    for i in 0..words as u64 {
        w.put_u64(i);
    }
    let bytes = w.into_bytes();
    black_box(mn_util::codec::fnv1a64(&bytes));
    let mut r = ByteReader::new(&bytes);
    let mut sum = 0u64;
    while let Ok(v) = r.get_u64() {
        sum = sum.wrapping_add(v);
    }
    black_box(sum);
    timed.add(t, bytes.len() as u64);
    timed
}

/// Two `TcpConnection`s back to back, no emulator between them: every
/// segment one side polls is handed straight to the other, a millisecond of
/// virtual time per exchange. Returns the time per segment processed
/// (`poll_send` + `on_segment`).
pub fn kernel_tcp(exchanges: usize) -> Timed {
    let config = TcpConfig::default();
    let mut client = TcpConnection::client(config);
    let mut server = TcpConnection::server(config);
    client.write(u64::MAX / 4);
    let mut timed = Timed::default();
    let t = Instant::now();
    let mut segments = 0u64;
    let mut exchange = |from: &mut TcpConnection, to: &mut TcpConnection, now: SimTime| {
        if from.next_timer().is_some_and(|due| due <= now) {
            from.on_timer(now);
        }
        for seg in from.poll_send(now) {
            black_box(to.on_segment(
                now,
                seg.seq,
                seg.payload_len,
                seg.ack,
                seg.flags,
                seg.window,
            ));
            segments += 1;
        }
    };
    for ms in 1..=exchanges as u64 {
        let now = SimTime::from_millis(ms);
        exchange(&mut client, &mut server, now);
        exchange(&mut server, &mut client, now);
    }
    timed.add(t, segments);
    black_box((client.bytes_acked(), server.bytes_received()));
    timed
}
