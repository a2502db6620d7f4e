//! Edge-node transport stacks.
//!
//! ModelNet's edge nodes run unmodified operating systems, so the TCP
//! behaviour the paper's experiments measure is that of a stock late-1990s
//! Reno/NewReno stack reacting to the drops and delays the core imposes.
//! This crate provides the equivalent for the virtual-time reproduction:
//!
//! * [`TcpConnection`] — a Reno-style congestion-controlled byte stream
//!   (slow start, congestion avoidance, fast retransmit/recovery, RTO with
//!   exponential backoff, delayed ACKs, a simplified three-way handshake),
//! * [`UdpStream`] — constant-bit-rate and on/off datagram sources,
//! * [`netperf`] — the bulk-transfer load generator the capacity experiments
//!   use.
//!
//! Everything here is a **pure state machine**: methods take the current
//! virtual time and return the segments to transmit and the timers to arm;
//! the simulation driver (`modelnet::Runner`) owns the clock and the network.

pub mod netperf;
pub mod tcp;
pub mod udp;

pub use netperf::BulkSender;
pub use tcp::{SegmentToSend, TcpConfig, TcpConnection, TcpEvent, TcpState};
pub use udp::{UdpStream, UdpStreamConfig};
