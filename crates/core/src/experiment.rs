//! The experiment builder: Create → Distill → Assign → Bind in one call.
//!
//! [`Experiment`] takes the target topology produced by the Create phase and
//! walks the remaining pipeline with sensible defaults, yielding a
//! [`Runner`] ready for the Run phase. Every knob an experiment here sets
//! is a builder method: the distillation mode, the number of core and edge
//! nodes, the hardware profile of the cores, the execution backend, a
//! reconfiguration schedule and distillation compensation.

use std::fmt;

use mn_assign::{greedy_k_clusters, Binding, BindingParams};
use mn_distill::{distill, DistillationMode, DistilledTopology};
use mn_emucore::{Emulator, HardwareProfile};
use mn_routing::RoutingMatrix;
use mn_topology::Topology;
use mn_transport::TcpConfig;

use crate::runner::{ExecutionBackend, Runner};

/// Errors raised while building an experiment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExperimentError {
    /// The target topology has no client nodes to bind VNs to.
    NoClients,
    /// The target topology is not connected, so some VN pairs have no route.
    Disconnected,
}

impl fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExperimentError::NoClients => {
                write!(f, "target topology has no client nodes to host VNs")
            }
            ExperimentError::Disconnected => {
                write!(f, "target topology is not connected")
            }
        }
    }
}

impl std::error::Error for ExperimentError {}

/// Builder for a complete emulation.
#[derive(Debug, Clone)]
pub struct Experiment {
    topology: Topology,
    distillation: DistillationMode,
    cores: usize,
    edge_nodes: usize,
    profile: HardwareProfile,
    seed: u64,
    require_connected: bool,
    backend: ExecutionBackend,
    schedule: Option<mn_dynamics::Schedule>,
    compensation: Option<f64>,
    workload_pairs: Option<Vec<(mn_topology::NodeId, mn_topology::NodeId)>>,
}

impl Experiment {
    /// Starts an experiment from a Create-phase topology.
    pub fn new(topology: Topology) -> Self {
        Experiment {
            topology,
            distillation: DistillationMode::HopByHop,
            cores: 1,
            edge_nodes: 1,
            profile: HardwareProfile::paper_core(),
            seed: 1,
            require_connected: true,
            backend: ExecutionBackend::Sequential,
            schedule: None,
            compensation: None,
            workload_pairs: None,
        }
    }

    /// Declares the VN pairs the foreground workload will use. Only
    /// [`DistillationMode::EndToEnd`] consumes this today: the all-pairs
    /// mesh is pruned to exactly these pairs
    /// ([`mn_distill::distill_end_to_end_pairs`]), which is what lets
    /// end-to-end distillation undercut even hop-by-hop's pipe count. Flows
    /// between undeclared pairs have no route in the pruned graph.
    pub fn workload_pairs(
        mut self,
        pairs: Vec<(mn_topology::NodeId, mn_topology::NodeId)>,
    ) -> Self {
        self.workload_pairs = Some(pairs);
        self
    }

    /// Installs distillation compensation (§4.1 of the paper: "background
    /// CBR cross traffic on distilled pipes"): every pipe standing in for
    /// `k > 1` target links gets a fixed background demand of
    /// `bandwidth × load × (k − 1) / k`, restoring the interior contention
    /// the collapsed hops would have imposed at the assumed utilisation
    /// `load ∈ [0, 1]`.
    ///
    /// The rates are derived with [`mn_distill::compensation_rates`] at build
    /// time and installed in pipe-id order through the fluid (flow-level)
    /// background-demand slot of each pipe — no packets are synthesised, so
    /// the compensation path allocates nothing at steady state and both
    /// execution backends stay bit-identical. A hop-by-hop distillation has
    /// no collapsed pipes, making this a no-op there.
    pub fn compensation(mut self, load: f64) -> Self {
        self.compensation = Some(load);
        self
    }

    /// Installs a runtime reconfiguration schedule: link failures and
    /// recoveries, bandwidth/latency renegotiation, seeded perturbations,
    /// node and VN churn, and CBR and fluid background-demand changes are
    /// applied mid-run at their scheduled virtual
    /// times, without restarting the experiment. Both execution backends
    /// apply the same schedule identically (bit-for-bit deliveries).
    pub fn with_schedule(mut self, schedule: mn_dynamics::Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Chooses the execution backend (default: sequential). Both backends
    /// produce bit-identical emulation results; [`ExecutionBackend::Threaded`]
    /// runs every core on its own OS thread.
    pub fn backend(mut self, backend: ExecutionBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Shorthand for `backend(ExecutionBackend::Threaded)`.
    pub fn threaded(self) -> Self {
        self.backend(ExecutionBackend::Threaded)
    }

    /// Chooses the distillation mode (default: hop-by-hop).
    pub fn distillation(mut self, mode: DistillationMode) -> Self {
        self.distillation = mode;
        self
    }

    /// Number of emulation core nodes (default: 1).
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = cores.max(1);
        self
    }

    /// Number of physical edge nodes hosting VNs (default: 1).
    pub fn edge_nodes(mut self, edges: usize) -> Self {
        self.edge_nodes = edges.max(1);
        self
    }

    /// Hardware profile of the core nodes (default: the paper's testbed).
    pub fn hardware(mut self, profile: HardwareProfile) -> Self {
        self.profile = profile;
        self
    }

    /// Removes every hardware ceiling — useful when an experiment studies the
    /// emulated network rather than core capacity.
    pub fn unconstrained_hardware(mut self) -> Self {
        self.profile = HardwareProfile::unconstrained();
        self
    }

    /// Seed for every random decision in the experiment.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Allows disconnected target topologies (by default they are rejected,
    /// since most experiments expect all-pairs reachability).
    pub fn allow_disconnected(mut self) -> Self {
        self.require_connected = false;
        self
    }

    /// The target topology (Create-phase output) this experiment will use.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Runs Distill + Assign + Bind, returning the Runner for the Run phase.
    pub fn build(self) -> Result<Runner, ExperimentError> {
        let (runner, _) = self.build_with_distilled()?;
        Ok(runner)
    }

    /// Like [`Experiment::build`], but also hands back the distilled pipe
    /// graph for callers that want to inspect or perturb it (the dynamic
    /// network-change machinery needs it).
    pub fn build_with_distilled(mut self) -> Result<(Runner, DistilledTopology), ExperimentError> {
        if self.topology.client_count() == 0 {
            return Err(ExperimentError::NoClients);
        }
        let schedule = self.schedule.take();
        if self.require_connected && !self.topology.is_connected() {
            return Err(ExperimentError::Disconnected);
        }
        // Distill.
        let distilled = match (&self.workload_pairs, self.distillation) {
            (Some(pairs), DistillationMode::EndToEnd) => {
                mn_distill::distill_end_to_end_pairs(&self.topology, pairs)
            }
            _ => distill(&self.topology, self.distillation),
        };
        // Assign.
        let pod = greedy_k_clusters(&distilled, self.cores, self.seed);
        // Bind.
        let matrix = RoutingMatrix::build(&distilled);
        let params = BindingParams::new(self.edge_nodes, self.cores);
        let binding = Binding::bind(distilled.vns(), &params);
        // Run-phase driver on the selected execution backend.
        let mut emulator =
            Emulator::new(&distilled, pod, matrix, &binding, self.profile, self.seed);
        if self.backend == ExecutionBackend::Threaded {
            emulator = emulator.threaded();
        }
        if let Some(load) = self.compensation {
            // Pipe-id order on both backends: the fluid solver allocates
            // fixed-rate background demands in installation order, so the
            // order is part of the deterministic contract.
            for (pipe, rate) in mn_distill::compensation_rates(&distilled, load) {
                emulator.set_pipe_compensation(pipe, Some(rate), mn_util::SimTime::ZERO);
            }
        }
        let mut runner = Runner::with_backend(emulator, binding, TcpConfig::default());
        if let Some(schedule) = schedule {
            runner.install_schedule(mn_dynamics::ScheduleEngine::new(
                distilled.clone(),
                schedule,
            ));
        }
        Ok((runner, distilled))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topology::generators::{ring_topology, RingParams};
    use mn_topology::NodeKind;

    fn small_ring() -> Topology {
        ring_topology(&RingParams {
            routers: 4,
            clients_per_router: 2,
            ..RingParams::default()
        })
    }

    #[test]
    fn build_walks_all_phases() {
        let runner = Experiment::new(small_ring())
            .distillation(DistillationMode::LAST_MILE)
            .cores(2)
            .edge_nodes(4)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(runner.vn_ids().len(), 8);
        assert_eq!(runner.emulator().core_count(), 2);
        assert_eq!(runner.binding().edge_count(), 4);
    }

    #[test]
    fn build_with_distilled_exposes_the_pipe_graph() {
        let (_, distilled) = Experiment::new(small_ring())
            .distillation(DistillationMode::EndToEnd)
            .build_with_distilled()
            .unwrap();
        assert_eq!(distilled.undirected_pipe_count(), 8 * 7 / 2);
    }

    #[test]
    fn workload_pairs_prune_the_end_to_end_mesh_and_still_run() {
        use mn_util::{ByteSize, SimDuration, SimTime};
        let topo = small_ring();
        let clients: Vec<mn_topology::NodeId> = topo.client_nodes().collect();
        let pairs = vec![(clients[0], clients[4]), (clients[2], clients[6])];
        let (mut runner, distilled) = Experiment::new(topo)
            .distillation(DistillationMode::EndToEnd)
            .workload_pairs(pairs.clone())
            .edge_nodes(2)
            .seed(5)
            .build_with_distilled()
            .unwrap();
        assert_eq!(distilled.undirected_pipe_count(), pairs.len());
        let src = runner.binding().vn_at(pairs[0].0).unwrap();
        let dst = runner.binding().vn_at(pairs[0].1).unwrap();
        let f = runner.add_bulk_flow(src, dst, Some(ByteSize::from_kb(64)), SimTime::ZERO);
        runner.run_for(SimDuration::from_secs(4)).unwrap();
        assert!(
            runner.flow_completed_at(f).is_some(),
            "a declared pair's flow runs over its pruned pipe"
        );
    }

    #[test]
    fn compensation_load_shapes_goodput_on_collapsed_pipes() {
        use mn_util::{ByteSize, SimDuration, SimTime};
        // The same bounded transfer over an end-to-end collapsed pipe takes
        // strictly longer once compensation claims part of the pipe, and
        // compensation on a hop-by-hop graph (nothing collapsed) is a no-op.
        let complete = |mode: DistillationMode, load: Option<f64>| {
            let mut exp = Experiment::new(small_ring())
                .distillation(mode)
                .edge_nodes(2)
                .unconstrained_hardware()
                .seed(11);
            if let Some(load) = load {
                exp = exp.compensation(load);
            }
            let mut runner = exp.build().unwrap();
            let vns = runner.vn_ids();
            let f =
                runner.add_bulk_flow(vns[0], vns[4], Some(ByteSize::from_kb(256)), SimTime::ZERO);
            runner.run_for(SimDuration::from_secs(30)).unwrap();
            runner.flow_completed_at(f).expect("transfer completes")
        };
        let free = complete(DistillationMode::EndToEnd, None);
        let zero = complete(DistillationMode::EndToEnd, Some(0.0));
        let loaded = complete(DistillationMode::EndToEnd, Some(0.6));
        assert_eq!(free, zero, "zero load installs nothing");
        assert!(loaded > free, "compensation slows the collapsed pipe");
        let hop_free = complete(DistillationMode::HopByHop, None);
        let hop_loaded = complete(DistillationMode::HopByHop, Some(0.6));
        assert_eq!(hop_free, hop_loaded, "nothing collapsed, nothing to do");
    }

    #[test]
    fn threaded_backend_matches_sequential_end_to_end() {
        use mn_util::{ByteSize, SimDuration, SimTime};
        // The whole run phase — TCP dynamics included — must be
        // bit-identical across backends: any divergence in delivery order
        // or timing would cascade through congestion control and change
        // the flow results.
        let run = |backend: ExecutionBackend| {
            let mut runner = Experiment::new(small_ring())
                .distillation(DistillationMode::HopByHop)
                .cores(2)
                .edge_nodes(4)
                .seed(9)
                .backend(backend)
                .build()
                .unwrap();
            let vns = runner.vn_ids();
            let f1 =
                runner.add_bulk_flow(vns[0], vns[4], Some(ByteSize::from_kb(96)), SimTime::ZERO);
            let f2 = runner.add_bulk_flow(vns[2], vns[6], None, SimTime::from_millis(50));
            runner.run_for(SimDuration::from_secs(4)).unwrap();
            (
                runner.flow_completed_at(f1),
                runner.flow_bytes_acked(f1),
                runner.flow_bytes_acked(f2),
                runner.packets_delivered(),
                runner.backend().total_stats(),
            )
        };
        let sequential = run(ExecutionBackend::Sequential);
        let threaded = run(ExecutionBackend::Threaded);
        assert!(sequential.0.is_some(), "the bounded flow completes");
        assert_eq!(sequential, threaded);
    }

    #[test]
    fn scheduled_dynamics_are_bit_identical_across_backends_and_core_counts() {
        // The acceptance bar for runtime reconfiguration: a schedule with
        // three link failures/recoveries plus a CBR cross-traffic episode,
        // driven through the full Runner (TCP dynamics included), produces
        // bit-identical results on the sequential and threaded backends at
        // 1, 2 and 4 cores.
        use mn_util::{ByteSize, DataRate, SimDuration, SimTime};
        let topo = small_ring();
        // Identify the ring (router-to-router) duplex pipes from an
        // identical distillation to the one the experiment will run.
        let d = distill(&topo, DistillationMode::HopByHop);
        let ring_pipes: Vec<(mn_distill::PipeId, mn_distill::PipeId)> = d
            .pipes()
            .filter(|(_, p)| {
                !d.vns().contains(&p.src) && !d.vns().contains(&p.dst) && p.src < p.dst
            })
            .map(|(id, p)| (id, d.find_pipe(p.dst, p.src).expect("duplex")))
            .collect();
        assert!(ring_pipes.len() >= 3, "a 4-router ring has 4 ring links");
        let t = SimTime::from_millis;
        let schedule = || {
            let perturbation = mn_dynamics::LinkPerturbation {
                fraction: 0.5,
                kind: mn_dynamics::FaultKind::DelayIncrease {
                    min: 0.0,
                    max: 0.25,
                },
            };
            mn_dynamics::Schedule::new()
                .duplex_down(t(500), ring_pipes[0].0, ring_pipes[0].1)
                .duplex_up(t(1500), ring_pipes[0].0, ring_pipes[0].1)
                .duplex_down(t(2000), ring_pipes[1].0, ring_pipes[1].1)
                .duplex_up(t(3000), ring_pipes[1].0, ring_pipes[1].1)
                .duplex_down(t(3500), ring_pipes[2].0, ring_pipes[2].1)
                .duplex_up(t(4500), ring_pipes[2].0, ring_pipes[2].1)
                .cbr_start(t(1000), ring_pipes[3].0, DataRate::from_mbps(1))
                .cbr_stop(t(4000), ring_pipes[3].0)
                .perturb(t(2500), perturbation, 13)
        };
        let run = |backend: ExecutionBackend, cores: usize| {
            let mut runner = Experiment::new(small_ring())
                .distillation(DistillationMode::HopByHop)
                .cores(cores)
                .edge_nodes(4)
                .unconstrained_hardware()
                .seed(13)
                .backend(backend)
                .with_schedule(schedule())
                .build()
                .unwrap();
            let vns = runner.vn_ids();
            let f1 =
                runner.add_bulk_flow(vns[0], vns[4], Some(ByteSize::from_kb(128)), SimTime::ZERO);
            let f2 = runner.add_bulk_flow(vns[2], vns[6], None, SimTime::from_millis(100));
            let udp = runner.add_udp_flow(
                vns[1],
                vns[5],
                mn_transport::UdpStreamConfig {
                    payload: 500,
                    rate: DataRate::from_kbps(400),
                    max_datagrams: Some(2000),
                },
                SimTime::ZERO,
            );
            runner.run_for(SimDuration::from_secs(6)).unwrap();
            let engine = runner.dynamics().expect("schedule installed");
            assert!(engine.finished(), "all events applied by t=6s");
            (
                runner.flow_completed_at(f1),
                runner.flow_bytes_acked(f1),
                runner.flow_bytes_acked(f2),
                runner.flow_retransmissions(f2),
                runner.udp_flow_received(udp),
                runner.packets_delivered(),
                runner.backend().total_stats(),
            )
        };
        for cores in [1usize, 2, 4] {
            let sequential = run(ExecutionBackend::Sequential, cores);
            let threaded = run(ExecutionBackend::Threaded, cores);
            assert_eq!(sequential, threaded, "{cores}-core runs diverge");
            let modelled = sequential.6.fluid_modelled_bytes;
            assert_eq!(modelled, 375_000, "1 Mb/s of CBR for 3 s");
            assert!(sequential.1 > 0, "traffic flowed through the dynamics");
        }
    }

    #[test]
    fn schedule_survives_link_loss_and_recovers_throughput() {
        // Behavioural check on top of bit-identity: a failover schedule on
        // a dumbbell with two parallel bottlenecks degrades a flow while
        // its path is down and recovers it afterwards.
        use mn_util::{DataRate, SimDuration, SimTime};
        // a - r1 - b  (fast) and a - r2 - b (slow detour).
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        let r1 = topo.add_node(NodeKind::Stub);
        let r2 = topo.add_node(NodeKind::Stub);
        let fast =
            mn_topology::LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        let slow = mn_topology::LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(4));
        topo.add_link(a, r1, fast).unwrap();
        topo.add_link(
            r1,
            b,
            mn_topology::LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(2)),
        )
        .unwrap();
        topo.add_link(a, r2, slow).unwrap();
        topo.add_link(
            r2,
            b,
            mn_topology::LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(8)),
        )
        .unwrap();
        let d = distill(&topo, DistillationMode::HopByHop);
        let fwd = d.find_pipe(a, r1).unwrap();
        let rev = d.find_pipe(r1, a).unwrap();
        let schedule = mn_dynamics::Schedule::new()
            .duplex_down(SimTime::from_secs(4), fwd, rev)
            .duplex_up(SimTime::from_secs(8), fwd, rev);
        let mut runner = Experiment::new(topo)
            .distillation(DistillationMode::HopByHop)
            .cores(1)
            .edge_nodes(2)
            .unconstrained_hardware()
            .seed(3)
            .with_schedule(schedule)
            .build()
            .unwrap();
        let binding = runner.binding().clone();
        let src = binding.vn_at(a).unwrap();
        let dst = binding.vn_at(b).unwrap();
        let flow = runner.add_bulk_flow(src, dst, None, SimTime::ZERO);
        let mut acked_at = Vec::new();
        for step in 1..=12u64 {
            runner.run_until(SimTime::from_secs(step)).unwrap();
            acked_at.push(runner.flow_bytes_acked(flow));
        }
        let rate = |from: usize, to: usize| {
            (acked_at[to] - acked_at[from]) as f64 * 8.0 / (to - from) as f64 / 1e6
        };
        let before = rate(1, 3); // t=2..4s on the 10 Mb/s path
        let during = rate(5, 7); // t=6..8s on the 2 Mb/s detour
        let after = rate(9, 11); // t=10..12s back on the fast path
        assert!(before > 6.0, "fast path before failure: {before} Mb/s");
        assert!(
            during > 0.4 && during < 2.4,
            "detour throughput while down: {during} Mb/s"
        );
        assert!(
            after > 6.0,
            "throughput recovers after restore: {after} Mb/s"
        );
    }

    /// The emulator answers on both backends; only its cores, which live
    /// on the worker threads of a threaded one, cannot be read there.
    #[test]
    #[should_panic(expected = "worker threads")]
    fn direct_emulator_access_panics_on_the_threaded_backend() {
        let runner = Experiment::new(small_ring()).threaded().build().unwrap();
        assert_eq!(runner.emulator().core_count(), 1);
        let _ = runner.emulator().cores();
    }

    #[test]
    fn topology_without_clients_is_rejected() {
        let mut topo = Topology::new();
        topo.add_node(NodeKind::Stub);
        let err = match Experiment::new(topo).build() {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert_eq!(err, ExperimentError::NoClients);
    }

    #[test]
    fn disconnected_topology_is_rejected_unless_allowed() {
        let mut topo = small_ring();
        topo.add_node(NodeKind::Client);
        let err = match Experiment::new(topo.clone()).build() {
            Err(e) => e,
            Ok(_) => panic!("expected an error"),
        };
        assert_eq!(err, ExperimentError::Disconnected);
        assert!(Experiment::new(topo).allow_disconnected().build().is_ok());
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert!(ExperimentError::NoClients.to_string().contains("client"));
        assert!(ExperimentError::Disconnected
            .to_string()
            .contains("connected"));
    }
}
