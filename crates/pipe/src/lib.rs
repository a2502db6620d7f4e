//! Pipe emulation units — the per-link machinery inside a ModelNet core.
//!
//! Each pipe follows the dummynet design the paper extends: arriving packets
//! first pass a loss check and a bounded FIFO **bandwidth queue**; the time to
//! drain into the pipe is computed from the packet size, the sizes of all
//! earlier queued packets and the pipe bandwidth. A drained packet then sits
//! in the pipe's **delay line** for the configured latency before it exits
//! and either moves to the next pipe on its route or is delivered to the
//! destination edge node. Overflowing the bandwidth queue or failing the
//! random loss check count as *virtual* drops — drops the emulated network
//! would have imposed — as opposed to the *physical* drops an overloaded core
//! suffers at its NIC.

pub mod emu_pipe;
pub mod stats;

pub use emu_pipe::{DequeuedPacket, EmuPipe, EnqueueOutcome};
pub use stats::PipeStats;
