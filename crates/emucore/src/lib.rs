//! The ModelNet core — §2.2 and §3 of the paper.
//!
//! A core router intercepts every packet a VN emits (the ipfw 10.0.0.0/8
//! rule), looks up the pipe route for its (source, destination) pair, and
//! schedules a descriptor referencing the buffered packet onto the pipes of
//! that route. Packet scheduling uses a heap of pipes sorted by earliest
//! deadline; the scheduler runs once every clock tick (10 kHz in the paper's
//! configuration) at the kernel's highest priority. Because emulation runs at
//! a *higher* priority than NIC interrupt handling, an overloaded core drops
//! packets physically at its NIC rather than emulating inaccurately — the
//! relative accuracy of a run is therefore proportional to the number of
//! physical drops.
//!
//! # One coordinator, two executors
//!
//! State has one owner, everything else is a command:
//!
//! * An [`EmulatorCore`] owns its pipes, its timing wheel, its RNG, its
//!   NIC/CPU admission model, the descriptors of the packets inside it and
//!   the tunnels addressed to it (its inbox) outright. A descriptor is
//!   written into the core's slab at admission, updated in place per hop
//!   and copied out once, at delivery or tunnel; pipes and the wheel carry
//!   4-byte slot handles and deadlines. Nothing outside the core mutates any
//!   of it; the only things that cross between cores are tunnelled
//!   descriptors, by value, from one core's output to another's inbox —
//!   handles never do.
//! * [`Emulator`] — the coordinator — owns everything global: the routing
//!   matrix, the published `Arc<RouteTable>`, VN location / entry-core /
//!   membership tables, the per-core load vector, the fluid solver
//!   ([`FluidState`]) and its epoch chopping, same-location deliveries, and
//!   snapshot encode/decode. Every operation (`submit`, `advance_into`,
//!   `reroute`, `vn_join`, `set_pipe_compensation`, `snapshot`, …) has
//!   exactly one body, there. A CBR cross-traffic episode is a fixed-rate
//!   fluid flow (`set_pipe_compensation`) and nothing else: a core sees it
//!   only as its pipe's fluid demand. The coordinator keeps no record of
//!   run-time changes beyond its pipes' state; a schedule's pipe graph
//!   (`mn_dynamics::ScheduleEngine`) is that record.
//! * An executor, a private field of the emulator, decides only where the
//!   cores run and carries the coordinator's commands to them: inline, a
//!   `Vec<EmulatorCore>` on the calling thread (what every constructor
//!   builds), or threaded, each core on an OS thread called over bounded
//!   channels ([`Emulator::threaded`]). The threaded executor is the only
//!   place that knows about abort flags, heartbeats, the stall watchdog
//!   and failure poisoning.
//!
//! There is one emulator type, and each call that reaches a core is one
//! `match` onto the executor inside. Results are **bit-identical** between
//! the executors for two separate reasons. On the coordinator side it holds by construction: the
//! sequence of matrix updates, route-table generations, entry-core
//! assignments, fluid solves and per-core commands is literally the same
//! code. On the executor side it holds by protocol: the threaded executor's
//! epochs, one barrier each, reproduce the inline executor's rounds (tick
//! every core, each admitting its due tunnels first → hand the fresh
//! tunnels to their owners → repeat while one is due), every inbox is
//! filed in the same (round, source core, FIFO) order, and deliveries are
//! concatenated round-major, core-major. The determinism, differential and
//! snapshot suites pin the second; the golden fixtures of `tests/golden.rs`
//! (the current version reproduced byte for byte by both executors, it and
//! the one before restored on both) pin the bytes.
//!
//! Operations that reach a core share one fallible signature
//! (`Result<_, EmuError>`; the inline executor never errs). Once an
//! executor has failed the emulator is poisoned: data-plane calls return
//! the first error, control-plane calls are refused with no coordinator
//! state changed, and the way out is [`Emulator::restore`] from a
//! checkpoint.
//!
//! The crate also provides [`HardwareProfile`] — the CPU/NIC capacity model
//! standing in for the paper's Pentium III + gigabit NIC testbed (see
//! DESIGN.md §2) — the per-packet [`AccuracyLog`], the versioned
//! [`EmulatorSnapshot`] framing, and [`ChaosPlan`] fault injection for the
//! threaded executor's supervision tests.

pub mod accuracy;
pub mod chaos;
pub mod core;
pub mod descriptor;
pub mod emulator;
pub mod error;
mod executor;
pub mod fluid;
pub mod hardware;
mod multicore;
mod parallel;
pub mod snapshot;

pub use accuracy::AccuracyLog;
pub use chaos::ChaosPlan;
pub use core::{CoreStats, EmulatorCore, IngressOutcome, TickOutput};
pub use descriptor::{Delivery, Descriptor};
pub use emulator::{Emulator, SubmitOutcome};
#[doc(hidden)]
pub use emulator::{MultiCoreEmulator, ParallelEmulator};
pub use error::{EmuError, FailureCause};
pub use fluid::FluidState;
pub use hardware::HardwareProfile;
pub use snapshot::{EmulatorSnapshot, SNAPSHOT_VERSION};
