//! Workspace umbrella crate.
//!
//! This crate exists so the repository-level `tests/` (cross-crate
//! integration and property tests) and `examples/` build as workspace
//! targets; all functionality lives in the `crates/` members. Start with the
//! `modelnet` façade crate (`crates/core`).
