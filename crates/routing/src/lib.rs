//! Route computation and lookup for the ModelNet core (§2.2 of the paper).
//!
//! During the Binding phase ModelNet pre-computes shortest-path routes among
//! all pairs of VNs in the distilled topology and installs them in a routing
//! matrix on each core node. Each route is an ordered list of pipes a packet
//! traverses from source to destination. The paper's dense matrix gives O(1)
//! lookup but consumes O(n²) space, and it sketches hierarchical tables and
//! a route cache as ways out. This reproduction keeps the all-pairs
//! interface and answers the scaling question once, by keying every piece
//! of route state on the *location* rather than the VN:
//!
//! * [`RoutingMatrix`] — one shortest-route **tree** per tree root, a
//!   source location's or, for a stub location, its access router's (a row
//!   of 4-byte predecessor pipes, O(roots × nodes)); routes are
//!   materialised and distance labels summed on demand, and the trees a
//!   changed pipe is an edge of are read off the rows, which is what makes
//!   reconfiguration output-sensitive.
//! * [`RouteTable`] — the per-packet lookup structure the cores read: each
//!   distinct route interned once, one copy-on-write row per location, and
//!   4 bytes per endpoint, so memory is O(locations²) however many VNs are
//!   multiplexed onto a location.
//!
//! The paper assumes a "perfect" routing protocol that instantaneously
//! recomputes shortest paths after a failure; [`RoutingMatrix::update_pipes`]
//! provides exactly that for the trees a changed pipe can affect
//! ([`RoutingMatrix::rebuild`] is its from-scratch reference), and
//! [`RouteTable::rewire_in_place`] re-wires the pairs it reports.

pub mod dijkstra;
pub mod matrix;
mod resolver;
pub mod table;

pub use dijkstra::{
    pipe_cost, route_between, route_from_tree, shortest_route_tree_with_dist, Route, UNUSABLE_COST,
};
pub use matrix::{RouteUpdate, RoutingMatrix};
pub use table::{RouteId, RouteNumbering, RouteStateMemory, RouteTable};
