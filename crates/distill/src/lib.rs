//! Topology distillation — the *Distill* phase of ModelNet.
//!
//! Distillation transforms the annotated target topology into a **pipe
//! graph** that the emulation core executes. A pipe is a unidirectional
//! emulated link with a bandwidth queue, a delay line, a loss rate and a
//! bounded packet queue. The distillation mode chooses where the emulation
//! sits on the accuracy-versus-scalability continuum (§4.1 of the paper):
//!
//! * [`DistillationMode::HopByHop`] — the pipe graph is isomorphic to the
//!   target network: every link is faithfully emulated, all congestion and
//!   contention effects are captured, per-packet cost is highest. It records
//!   no route bound: routes minimise latency, not hops.
//! * [`DistillationMode::EndToEnd`] — all interior nodes are removed and each
//!   VN pair is connected by a single pipe whose bandwidth is the minimum
//!   along the original path, latency the sum and reliability the product.
//!   Cheapest per packet, but no shared-link contention is modelled.
//! * [`DistillationMode::WalkIn`] — preserves the first `walk_in` frontier
//!   links from the edges and replaces the interior with a full mesh of
//!   collapsed pipes; each packet traverses at most `2*walk_in + 1` pipes.
//!   `walk_in = 1` is the paper's "last-mile" configuration.
//! * [`DistillationMode::WalkInOut`] — additionally preserves the inner core
//!   (`walk_out` frontier sets around the topological centre) to model an
//!   under-provisioned backbone.

pub mod autodistill;
pub mod distiller;
pub mod pipe_graph;

pub use autodistill::{autodistill, CandidateConfig, DistillBudget, DistillChoice, WorkloadSketch};
pub use distiller::{
    compensation_rates, distill, distill_end_to_end_pairs, frontier_sets, DistillationMode,
};
pub use pipe_graph::{DistilledTopology, Pipe, PipeAttrs, PipeId};
