//! Dynamic network changes (§4.3 of the paper).
//!
//! ModelNet changes network conditions during a run in two ways:
//!
//! * **Synthetic cross traffic.** The paper derives per-pipe settings from
//!   a background-demand matrix off line and installs them periodically.
//!   Here background load is carried at run time by the emulator itself:
//!   CBR episodes on a pipe (`Emulator::set_pipe_cbr`, scheduled with
//!   [`ScheduleEvent::CbrStart`]/[`ScheduleEvent::CbrStop`]) and fluid
//!   background demand (`Emulator::set_pipe_compensation`,
//!   `Experiment::compensation`, scheduled fluid flows), all of them fluid
//!   demands the fair share allocates. There is no
//!   off-line matrix tool in this crate.
//! * **Fault injection and link perturbation**: scheduled changes to link
//!   bandwidth/latency/loss (including complete failures), with routes
//!   recomputed afterwards under the paper's "perfect routing protocol"
//!   assumption. [`FaultInjector`] draws seeded perturbations (the ACDC
//!   experiment's periodic delay increases are expressed this way).
//!
//! Both are applied through **runtime reconfiguration**: a deterministic,
//! virtual-time-stamped [`Schedule`] of link failures/recoveries, parameter
//! renegotiation, node churn and CBR / fluid episode changes, applied to a
//! live emulation by the [`ScheduleEngine`] — pipe parameters mutate in
//! place, background demands re-solve allocation-free, and only the routes
//! a change can affect are recomputed (incrementally, preserving the route
//! ids of descriptors in flight).

pub mod engine;
pub mod faults;
pub mod schedule;

pub use engine::{AppliedChanges, DynamicsTarget, ScheduleEngine, ScheduleRestoreError};
pub use faults::{FaultEvent, FaultInjector, FaultKind, LinkPerturbation};
pub use schedule::{Schedule, ScheduleEvent};
