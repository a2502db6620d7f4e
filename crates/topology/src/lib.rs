//! Target network topologies — the *Create* phase of ModelNet.
//!
//! The first phase of the ModelNet pipeline produces a network topology: a
//! graph whose edges represent network links and whose nodes represent
//! clients, stubs or transits. Sources in the paper include Internet traces,
//! BGP dumps and synthetic topology generators; all are normalised to GML
//! (Graph Modelling Language) and may be annotated with attributes such as
//! loss rates that the original source did not provide.
//!
//! This crate provides:
//!
//! * [`Topology`] — the annotated graph (clients, stubs, transits; links with
//!   bandwidth, latency, loss and queue length).
//! * [`gml`] — a GML parser and writer so topologies round-trip through the
//!   same interchange format the paper uses.
//! * [`generators`] — synthetic generators: ring, star, multi-hop path
//!   pairs, dumbbell and a GT-ITM-style transit–stub generator used by the
//!   replicated-web and ACDC case studies.
//! * [`ron`] — a synthetic "RON-like" measured mesh standing in for the
//!   published RON inter-node characteristics used by the CFS case study
//!   (see DESIGN.md for the substitution rationale).

pub mod generators;
pub mod gml;
pub mod graph;
pub mod paths;
pub mod ron;

pub use graph::{LinkAttrs, LinkId, NodeId, NodeKind, Topology, TopologyError};
pub use paths::{shortest_path, shortest_path_latency, GraphPath, PathMetric};
