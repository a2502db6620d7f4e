//! The *Assign* and *Bind* phases of ModelNet.
//!
//! Assignment maps pieces of the distilled pipe topology onto ModelNet core
//! nodes, partitioning the pipe graph to spread emulation load. The ideal
//! assignment depends on routing, link properties and offered traffic — an
//! NP-complete problem — so the paper uses a simple **greedy k-clusters**
//! heuristic: pick k random seed nodes in the distilled topology and grow a
//! connected region around each in round-robin fashion, claiming pipes as
//! they are reached. The result is recorded in a **pipe ownership directory
//! (POD)** that multi-core emulation consults when a route crosses from one
//! core's pipes to another's.
//!
//! Binding assigns VNs to physical edge nodes (multiplexing several VNs per
//! node) and binds each edge node to a single core. The Run phase reads the
//! binding and the POD directly when it builds its emulator; there is no
//! per-node configuration file in between.

pub mod binding;
pub mod partition;

pub use binding::{least_loaded, Binding, BindingParams, EdgeNodeId};
pub use partition::{greedy_k_clusters, CoreId, PipeOwnershipDirectory};
