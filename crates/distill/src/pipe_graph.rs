//! The distilled pipe graph consumed by routing, assignment and the
//! emulation core.
//!
//! Pipes are **directed**: an undirected target link becomes two pipes, one
//! per direction, each with its own queue — exactly as dummynet configures a
//! pair of pipes for bidirectional traffic. The paper quotes pipe counts per
//! unordered pair (e.g. 79,800 pipes for the end-to-end distillation of 400
//! VNs); [`DistilledTopology::undirected_pipe_count`] reports that
//! convention, while [`DistilledTopology::pipe_count`] counts directed pipes.

use std::fmt;

use mn_topology::{LinkAttrs, NodeId};
use mn_util::{ByteReader, ByteWriter, Codec, CodecError, DataRate, SimDuration};

/// Identifier of a pipe within a [`DistilledTopology`]: 4 bytes in memory,
/// where route arenas and timer wheels hold one per hop or entry, and 4 on
/// disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PipeId(pub u32);

impl PipeId {
    /// The id of the pipe at `index`. Panics at 2³² or more: a topology
    /// holds fewer pipes than that, as every pipe id in memory is a `u32`.
    pub fn from_index(index: usize) -> Self {
        PipeId(u32::try_from(index).expect("a topology holds fewer than 2^32 pipes"))
    }

    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A `u32` on the wire, as it is held.
impl Codec for PipeId {
    const MIN_BYTES: usize = 4;

    #[inline]
    fn put(&self, w: &mut ByteWriter) {
        w.put_u32(self.0);
    }

    #[inline]
    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        r.get_u32().map(PipeId)
    }
}

impl fmt::Display for PipeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

mn_util::codec_record! {
    /// Emulation parameters of one pipe.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct PipeAttrs {
        /// Drain rate of the bandwidth queue.
        pub bandwidth: DataRate,
        /// Propagation delay applied by the delay line.
        pub latency: SimDuration,
        /// Probability of a random (non-congestion) drop.
        pub loss_rate: f64,
        /// Maximum number of packets the bandwidth queue may hold.
        pub queue_len: usize,
    }
}

impl PipeAttrs {
    /// Creates pipe attributes with no random loss and the default queue.
    pub fn new(bandwidth: DataRate, latency: SimDuration) -> Self {
        PipeAttrs {
            bandwidth,
            latency,
            loss_rate: 0.0,
            queue_len: LinkAttrs::DEFAULT_QUEUE_LEN,
        }
    }

    /// The pipe's reliability, `1 - loss_rate`.
    pub fn reliability(&self) -> f64 {
        1.0 - self.loss_rate
    }

    /// The bandwidth-delay product of the pipe, i.e. the amount of data the
    /// delay line holds when the pipe is fully utilised.
    pub fn bandwidth_delay_product(&self) -> mn_util::ByteSize {
        self.bandwidth.bandwidth_delay_product(self.latency)
    }
}

impl From<LinkAttrs> for PipeAttrs {
    fn from(a: LinkAttrs) -> Self {
        PipeAttrs {
            bandwidth: a.bandwidth,
            latency: a.latency,
            loss_rate: a.loss_rate,
            queue_len: a.queue_len,
        }
    }
}

/// A directed emulated link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pipe {
    /// Node the pipe leaves.
    pub src: NodeId,
    /// Node the pipe enters.
    pub dst: NodeId,
    /// Emulation parameters.
    pub attrs: PipeAttrs,
}

/// The distilled pipe graph.
///
/// Node identifiers are shared with the source [`mn_topology::Topology`]:
/// distillation never renumbers nodes, it only removes links (collapsing them
/// into mesh pipes), so a node that became interior under an end-to-end
/// distillation simply has no incident pipes.
#[derive(Debug, Clone, Default)]
pub struct DistilledTopology {
    node_count: usize,
    pipes: Vec<Pipe>,
    out_pipes: Vec<Vec<PipeId>>,
    vns: Vec<NodeId>,
    max_route_pipes: usize,
    /// Per-pipe count of target-topology links the pipe stands in for:
    /// 1 for a preserved link, >1 for a collapsed path. Drives the CBR
    /// cross-traffic compensation for distilled-away hops.
    collapsed_hops: Vec<usize>,
}

impl DistilledTopology {
    /// Creates an empty pipe graph over `node_count` nodes with the given VN
    /// (client) set and a bound on route length in pipes (0 = unknown).
    pub fn new(node_count: usize, vns: Vec<NodeId>, max_route_pipes: usize) -> Self {
        DistilledTopology {
            node_count,
            pipes: Vec::new(),
            out_pipes: vec![Vec::new(); node_count],
            vns,
            max_route_pipes,
            collapsed_hops: Vec::new(),
        }
    }

    /// Adds a directed pipe and returns its identifier.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range; distillation constructs the
    /// graph from a validated topology so this indicates a logic error.
    pub fn add_pipe(&mut self, src: NodeId, dst: NodeId, attrs: PipeAttrs) -> PipeId {
        self.add_pipe_collapsed(src, dst, attrs, 1)
    }

    /// Adds a directed pipe that stands in for `hops` links of the target
    /// topology (a collapsed path); `hops = 1` is a preserved link.
    pub fn add_pipe_collapsed(
        &mut self,
        src: NodeId,
        dst: NodeId,
        attrs: PipeAttrs,
        hops: usize,
    ) -> PipeId {
        assert!(src.index() < self.node_count, "pipe src out of range");
        assert!(dst.index() < self.node_count, "pipe dst out of range");
        let id = PipeId::from_index(self.pipes.len());
        self.pipes.push(Pipe { src, dst, attrs });
        self.out_pipes[src.index()].push(id);
        self.collapsed_hops.push(hops.max(1));
        id
    }

    /// Adds a pipe in each direction between `a` and `b` with identical
    /// attributes, returning both identifiers.
    pub fn add_duplex(&mut self, a: NodeId, b: NodeId, attrs: PipeAttrs) -> (PipeId, PipeId) {
        (self.add_pipe(a, b, attrs), self.add_pipe(b, a, attrs))
    }

    /// [`DistilledTopology::add_duplex`] for a collapsed path of `hops`
    /// target links.
    pub fn add_duplex_collapsed(
        &mut self,
        a: NodeId,
        b: NodeId,
        attrs: PipeAttrs,
        hops: usize,
    ) -> (PipeId, PipeId) {
        (
            self.add_pipe_collapsed(a, b, attrs, hops),
            self.add_pipe_collapsed(b, a, attrs, hops),
        )
    }

    /// Number of target-topology links the pipe stands in for (1 for a
    /// preserved link, >1 for a collapsed path; 1 if out of range).
    pub fn collapsed_hops(&self, id: PipeId) -> usize {
        self.collapsed_hops.get(id.index()).copied().unwrap_or(1)
    }

    /// Number of nodes (same as the source topology).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of directed pipes.
    pub fn pipe_count(&self) -> usize {
        self.pipes.len()
    }

    /// Number of unordered pipe pairs — the convention the paper uses when it
    /// quotes pipe counts (each bidirectional link counted once).
    pub fn undirected_pipe_count(&self) -> usize {
        self.pipes.len() / 2
    }

    /// Returns the pipe record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if the pipe does not exist.
    pub fn pipe(&self, id: PipeId) -> &Pipe {
        &self.pipes[id.index()]
    }

    /// Returns the pipe record for `id`, or `None` if out of range.
    pub fn get_pipe(&self, id: PipeId) -> Option<&Pipe> {
        self.pipes.get(id.index())
    }

    /// Mutable access to a pipe's attributes (used by the dynamic
    /// cross-traffic and fault-injection machinery).
    pub fn pipe_attrs_mut(&mut self, id: PipeId) -> Option<&mut PipeAttrs> {
        self.pipes.get_mut(id.index()).map(|p| &mut p.attrs)
    }

    /// Iterator over all `(id, pipe)` pairs.
    pub fn pipes(&self) -> impl Iterator<Item = (PipeId, &Pipe)> + '_ {
        self.pipe_ids().zip(&self.pipes)
    }

    /// Iterator over all pipe identifiers.
    pub fn pipe_ids(&self) -> impl Iterator<Item = PipeId> + '_ {
        (0..self.pipes.len()).map(PipeId::from_index)
    }

    /// Outgoing pipes of `node`.
    pub fn out_pipes(&self, node: NodeId) -> &[PipeId] {
        self.out_pipes
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// The virtual-node (client) set of the emulation.
    pub fn vns(&self) -> &[NodeId] {
        &self.vns
    }

    /// Upper bound on the number of pipes any VN-to-VN route traverses, or 0
    /// if the distiller did not record one. Hop-by-hop records none: routes
    /// minimise latency, not hops, so the hop diameter bounds no route.
    pub fn max_route_pipes(&self) -> usize {
        self.max_route_pipes
    }

    /// Finds a pipe from `src` to `dst` if one exists (first match).
    pub fn find_pipe(&self, src: NodeId, dst: NodeId) -> Option<PipeId> {
        self.out_pipes(src)
            .iter()
            .copied()
            .find(|&p| self.pipes[p.index()].dst == dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(mbps: u64, ms: u64) -> PipeAttrs {
        PipeAttrs::new(DataRate::from_mbps(mbps), SimDuration::from_millis(ms))
    }

    #[test]
    fn add_and_query_pipes() {
        let mut g = DistilledTopology::new(3, vec![NodeId(0), NodeId(2)], 2);
        let (ab, ba) = g.add_duplex(NodeId(0), NodeId(1), attrs(10, 5));
        let (bc, _cb) = g.add_duplex(NodeId(1), NodeId(2), attrs(10, 5));
        assert_eq!(g.pipe_count(), 4);
        assert_eq!(g.undirected_pipe_count(), 2);
        assert_eq!(g.pipe(ab).src, NodeId(0));
        assert_eq!(g.pipe(ba).dst, NodeId(0));
        assert_eq!(g.out_pipes(NodeId(1)), &[ba, bc]);
        assert_eq!(g.find_pipe(NodeId(0), NodeId(1)), Some(ab));
        assert_eq!(g.find_pipe(NodeId(0), NodeId(2)), None);
        assert_eq!(g.vns(), &[NodeId(0), NodeId(2)]);
        assert_eq!(g.max_route_pipes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_pipe_panics() {
        let mut g = DistilledTopology::new(2, vec![], 0);
        g.add_pipe(NodeId(0), NodeId(5), attrs(1, 1));
    }

    #[test]
    fn pipe_attrs_mutation() {
        let mut g = DistilledTopology::new(2, vec![], 0);
        let id = g.add_pipe(NodeId(0), NodeId(1), attrs(10, 5));
        g.pipe_attrs_mut(id).unwrap().bandwidth = DataRate::from_mbps(1);
        assert_eq!(g.pipe(id).attrs.bandwidth, DataRate::from_mbps(1));
        assert!(g.pipe_attrs_mut(PipeId(9)).is_none());
        assert!(g.get_pipe(PipeId(9)).is_none());
    }

    #[test]
    fn a_pipe_id_is_four_wire_bytes() {
        mn_util::codec::record_contract(PipeId(u32::MAX));
        let mut w = ByteWriter::new();
        PipeId(0x0102_0304).put(&mut w);
        assert_eq!(w.as_slice(), [4, 3, 2, 1]);
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    #[should_panic(expected = "fewer than 2^32 pipes")]
    fn a_pipe_index_of_2_to_the_32_has_no_id() {
        let _ = PipeId::from_index(1 << 32);
    }

    #[test]
    fn pipe_attrs_derived_quantities() {
        let a = attrs(10, 100);
        assert_eq!(a.reliability(), 1.0);
        // 10 Mb/s * 100 ms = 1 Mbit = 125 kB.
        assert_eq!(a.bandwidth_delay_product().as_bytes(), 125_000);
    }

    #[test]
    fn from_link_attrs_copies_fields() {
        let link = LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(7))
            .with_loss(0.05)
            .with_queue_len(13);
        let p: PipeAttrs = link.into();
        assert_eq!(p.bandwidth, DataRate::from_mbps(2));
        assert_eq!(p.latency, SimDuration::from_millis(7));
        assert_eq!(p.loss_rate, 0.05);
        assert_eq!(p.queue_len, 13);
    }

    #[test]
    fn out_pipes_for_unknown_node_is_empty() {
        let g = DistilledTopology::new(1, vec![], 0);
        assert!(g.out_pipes(NodeId(7)).is_empty());
    }
}
