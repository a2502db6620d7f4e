//! # ModelNet-RS
//!
//! A Rust reproduction of **ModelNet** (Vahdat et al., OSDI 2002): a
//! large-scale network emulator in which unmodified applications on edge
//! nodes send their traffic through a cluster of core routers that subject
//! every packet, hop by hop, to the bandwidth, latency, loss and queueing of
//! a user-specified target topology. This crate is the façade: it wires the
//! substrate crates together into the paper's five-phase pipeline and
//! provides the virtual-time simulation driver that plays the role of the
//! physical cluster.
//!
//! ## The five phases
//!
//! 1. **Create** — produce an annotated target topology
//!    ([`mn_topology::Topology`]): parse GML, or use one of the synthetic
//!    generators.
//! 2. **Distill** — transform it into a pipe graph
//!    ([`mn_distill::DistilledTopology`]), choosing a point on the
//!    accuracy-versus-scalability continuum ([`DistillationMode`]).
//! 3. **Assign** — partition the pipes across core nodes
//!    ([`mn_assign::greedy_k_clusters`]), producing the pipe ownership
//!    directory.
//! 4. **Bind** — bind VNs to edge nodes and edge nodes to cores
//!    ([`mn_assign::Binding`]); pre-compute the routing matrix.
//! 5. **Run** — execute applications and traffic generators against the
//!    emulated network ([`Runner`]).
//!
//! [`Experiment`] walks these phases for you:
//!
//! ```
//! use modelnet::{Experiment, DistillationMode};
//! use mn_topology::generators::{star_topology, StarParams};
//! use mn_util::{ByteSize, SimTime, SimDuration};
//!
//! // Create.
//! let topo = star_topology(&StarParams { clients: 4, ..StarParams::default() });
//! // Distill + Assign + Bind.
//! let mut runner = Experiment::new(topo)
//!     .distillation(DistillationMode::HopByHop)
//!     .cores(1)
//!     .edge_nodes(2)
//!     .seed(7)
//!     .build()
//!     .expect("experiment builds");
//! // Run: one 64 KB transfer between two VNs.
//! let vns = runner.vn_ids();
//! let flow = runner.add_bulk_flow(vns[0], vns[1], Some(ByteSize::from_kb(64)), SimTime::ZERO);
//! runner.run_for(SimDuration::from_secs(5));
//! assert!(runner.flow_completed_at(flow).is_some());
//! ```

pub mod experiment;
pub mod runner;

pub use experiment::{Experiment, ExperimentError};
pub use runner::{
    DriverCounters, EmulatorBackend, ExecutionBackend, FlowId, Reconfigure, RecoverError, Runner,
    SnapshotError, UdpFlowId,
};

// Re-export the pieces users need to drive the pipeline by hand.
pub use mn_assign::{Binding, BindingParams, CoreId, PipeOwnershipDirectory};
pub use mn_distill::{distill, DistillationMode, DistilledTopology};
pub use mn_dynamics::{DynamicsTarget, Schedule, ScheduleEngine, ScheduleEvent};
pub use mn_edge::{AppAction, AppCtx, Application, Message};
pub use mn_emucore::{
    ChaosPlan, EmuError, Emulator, Executor, FailureCause, HardwareProfile, MultiCoreEmulator,
    ParallelEmulator,
};
pub use mn_packet::VnId;
pub use mn_routing::RoutingMatrix;
pub use mn_topology::{LinkAttrs, NodeId, NodeKind, Topology};
pub use mn_transport::TcpConfig;
pub use mn_util::{ByteSize, DataRate, SimDuration, SimTime};
