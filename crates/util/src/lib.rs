//! Foundation primitives shared by every ModelNet-RS crate.
//!
//! This crate deliberately has no knowledge of topologies, pipes or packets.
//! It provides the vocabulary the rest of the emulator is written in:
//!
//! * [`SimTime`] and [`SimDuration`] — nanosecond-resolution virtual time,
//!   the clock every component of the emulation runs against.
//! * [`DataRate`] and [`ByteSize`] — link bandwidths and transfer sizes with
//!   the arithmetic needed to turn "N bytes at rate R" into a duration.
//! * [`TimerWheel`] — the hierarchical timing wheel every event queue of the
//!   emulator runs on: `O(1)` push/pop for near-term deadlines, earliest
//!   deadline first and insertion order among equal deadlines.
//! * [`spsc`] — bounded single-producer/single-consumer rings, kept for
//!   their one caller, the benchmark's ring kernel.
//! * [`sync`] — the sense-reversing spin barrier the parallel backend's
//!   workers meet at once per epoch.
//! * [`stats`] — CDFs and summary statistics
//!   used by the measurement infrastructure and the benchmark harness.
//! * [`rngs`] — seeded RNG construction helpers so every experiment is
//!   reproducible from a single `u64` seed.

pub mod alloc;
pub mod codec;
#[cfg(test)]
mod event;
pub mod rate;
pub mod rngs;
pub mod spsc;
pub mod stats;
pub mod sync;
pub mod time;
pub mod wheel;

pub use codec::{ByteReader, ByteWriter, Codec, CodecError};
pub use rate::{ByteSize, DataRate};
pub use rngs::seeded_rng;
pub use stats::{Cdf, RunningStats};
pub use sync::SpinBarrier;
pub use time::{SimDuration, SimTime};
pub use wheel::{EventKey, TimerWheel};
