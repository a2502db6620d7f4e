//! Dynamic network changes (§4.3 of the paper).
//!
//! ModelNet changes network conditions during a run in two ways:
//!
//! * **Synthetic cross traffic.** The paper derives per-pipe settings from
//!   a background-demand matrix off line and installs them periodically.
//!   Here background load is carried at run time by the emulator itself:
//!   CBR episodes on a pipe ([`ScheduleEvent::CbrStart`] /
//!   [`ScheduleEvent::CbrStop`], `Emulator::set_pipe_compensation`,
//!   `Experiment::compensation`) and scheduled fluid flows, all of them
//!   fluid demands the fair share allocates. There is no off-line matrix
//!   tool in this crate.
//! * **Fault injection and link perturbation**: scheduled changes to link
//!   bandwidth/latency/loss (including complete failures), with routes
//!   recomputed afterwards under the paper's "perfect routing protocol"
//!   assumption. [`ScheduleEvent::Perturb`] draws a seeded
//!   [`LinkPerturbation`] of a random fraction of the pipes (the ACDC
//!   experiment's periodic delay increases are expressed this way).
//!
//! Both are events of one deterministic, virtual-time-stamped [`Schedule`]
//! — link failures/recoveries, parameter renegotiation, perturbations,
//! node and VN churn, CBR and fluid episodes — applied to a live emulation
//! by the [`ScheduleEngine`], whose pipe graph is the one record of every
//! run-time change: pipe parameters mutate in place, background demands
//! re-solve allocation-free, and only the routes a change can affect are
//! recomputed (incrementally, preserving the route ids of descriptors in
//! flight).

pub mod engine;
pub mod faults;
pub mod schedule;

pub use engine::{AppliedChanges, DynamicsTarget, ScheduleEngine, ScheduleRestoreError};
pub use faults::{FaultKind, LinkPerturbation};
pub use schedule::{Schedule, ScheduleEvent};
