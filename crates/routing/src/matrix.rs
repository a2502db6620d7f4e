//! Tree-only all-pairs routing state.
//!
//! The paper's default design stores a dense O(n²) route matrix: "This
//! straightforward design allows fast indexing and scales to 10,000 VNs,
//! but the routing tables consume O(n²) space." This reproduction keeps the
//! paper's *interface* (every ordered VN pair resolves to a shortest route)
//! while storing only shortest-route **trees** — rows of 4-byte predecessor
//! pipes over the nodes of a tree root's structural component — and
//! materialising a route on demand by walking predecessors from the
//! destination. A root reaches nothing outside its component, so a row holds
//! no entry for it: the Fig. 4 capacity topology (many disjoint chains)
//! stores a few nodes a row, not the whole graph. A row is indexed by a
//! node's position in its component's node list, and each pipe keeps its
//! tail's position beside its tail node, so a walk stays in those
//! coordinates. A distance label is not stored: it is the sum of the pipe
//! costs up the same walk ([`RoutingMatrix::distance`]), exactly the label
//! Dijkstra computed, since Dijkstra accepts only a label below
//! [`UNUSABLE_COST`]. The rows are also the index of which trees cross a
//! pipe: pipe `p` into node `h` is an edge of exactly the trees that name
//! `p` at `h`'s position, so [`RoutingMatrix::update_pipes`] finds the trees
//! a worsened pipe touches with one read per source of its component, and
//! recomputes only those.
//!
//! **Stub trees.** ModelNet's VNs are edge clients, each on one access link,
//! so most sources are *stubs*: `s`'s only out-pipe `p` is usable, with cost
//! `c`, into a hub `h ≠ s`. Its tree is `h`'s shifted by `c` — `pred_s =
//! pred_h` but `pred_s[s] = NO_PRED`, `pred_s[h] = p`; `dist_s = c + dist_h`
//! (unreachable stays so) but `dist_s[s] = 0` — bit for bit Dijkstra's from
//! `s`: `s` pops first and improves only `h`, which pops next at `c`;
//! relaxation is strict and every pipe costs ≥ 1, so nothing improves `s`
//! again; and from there every key is `h`'s run's plus `c`, which keeps the
//! `(dist, node)` pop order and every comparison, ties included. So a stub
//! stores no row: its slot names its hub, whose row it reads, and its
//! access pipe, and a read patches those two entries over the hub's row.
//! `s` is a leaf of `h`'s tree (its one out-pipe enters the root), so no
//! walk through the hub's row passes through `s`. One row
//! per hub, one Dijkstra per hub ([`RoutingMatrix::dijkstra_runs`]), however
//! many stubs hang off it. A stub whose access pipe is unusable, or whose
//! shifted labels would overflow, roots a row of its own.
//!
//! A row is named by its root: the matrix keeps one entry a node, the row
//! rooted there or none, and a source slot names the node whose row it
//! reads. A row is stored exactly while some live slot names its root.
//!
//! A hub row's entry at a stub's position is read by the row's other
//! readers only. When that stub is the row's one reader nothing reads the
//! entry, and the row keeps `NO_PRED` there — which is what makes the rows
//! a function of the trees alone. A second reader joining such a row
//! recomputes it.

use std::cmp::Reverse;

use mn_distill::DistilledTopology;
use mn_topology::NodeId;
use mn_util::{ByteReader, ByteWriter, Codec, CodecError};

use crate::dijkstra::{pipe_cost, scoped_route_tree, Route, NO_PRED, UNUSABLE_COST};

use mn_distill::PipeId;

/// Sentinel location of a tombstoned source slot (see
/// [`RoutingMatrix::remove_source`]): the slot reads no row until the next
/// [`RoutingMatrix::add_source`] reuses it, and no node maps to it.
const DEAD_SOURCE: NodeId = NodeId(usize::MAX);

/// [`Row::dead`] of a row an update found stale: whoever is placed on it
/// first recomputes it.
const STALE: u32 = NO_PRED - 1;

/// One stored row: a tree root's predecessor pipes over its component,
/// and what placing a reader on it needs.
#[derive(Debug, Clone)]
struct Row {
    /// `entries[i]` is the predecessor pipe of `component_nodes[c][i]` in
    /// the root's tree ([`NO_PRED`] for the root, for unreachable nodes and
    /// at `dead`).
    entries: Box<[u32]>,
    /// The live slots reading the row.
    refs: u32,
    /// The position not kept ([`NO_PRED`]: none): its one reader's, when
    /// that reader is a stub patched over it.
    dead: u32,
    /// The largest finite label ([`UNUSABLE_COST`]: not known, for a row
    /// restored or one that dropped an entry, until a placement asks).
    far: u64,
}

impl Row {
    /// A row of `entries` that no slot reads yet, every entry kept.
    fn new(entries: Box<[u32]>) -> Box<Row> {
        let (refs, dead, far) = (0, NO_PRED, UNUSABLE_COST);
        Box::new(Row {
            entries,
            refs,
            dead,
            far,
        })
    }
}

/// What one [`RoutingMatrix::update_pipes`] call changed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RouteUpdate {
    /// Ordered VN location pairs whose route changed (appeared, disappeared
    /// or was rewired). Callers re-wire exactly these pairs in their route
    /// tables.
    pub changed_pairs: Vec<(NodeId, NodeId)>,
    /// Number of sources whose shortest-route tree had to be recomputed (a
    /// stub counts through the row it reads).
    pub recomputed_sources: usize,
}

impl RouteUpdate {
    /// Returns `true` if no route changed.
    pub fn is_empty(&self) -> bool {
        self.changed_pairs.is_empty()
    }
}

/// Tree-only route storage over the VN set of a distilled topology.
///
/// The matrix stores one predecessor row per *tree root* — a hub some stub
/// hangs off, a source that is no stub, a stub that cannot share its hub's
/// row — over the root's structural component, at the root's node, and
/// each source slot names the root whose row it reads and, for a stub, the
/// access pipe patched over it (see the module docs). Routes and distance
/// labels are never stored, only derived. Lookup walks the destination's
/// predecessor chain — O(hops), allocation-free via
/// [`RoutingMatrix::materialize_at`].
///
/// Its checkpoint ([`Codec`]) is the complete persistent route state — the
/// slot list (tombstones included), pipe costs and tails, the component
/// node lists, each live slot's root, and the rows in ascending root order.
/// Everything else is derived from those: each node's component and
/// position, the pipe tails' positions, the node → slot map, each
/// component's slots, the free slots, each stub's access pipe (its one
/// out-pipe), the set of roots (the slots' roots) and the readers of each
/// row; the scratch buffers hold no state between calls and restore empty.
/// Decoding refuses a state any later call would index out of range or
/// walk forever.
#[derive(Debug, Clone, Default)]
pub struct RoutingMatrix {
    /// The VN set, in index order.
    vns: Vec<NodeId>,
    /// Dense node-index → VN-index table (`u32::MAX` for non-VN nodes);
    /// the hash-free replacement for the old `index_of` map on every hot
    /// path. Derived from `vns` ([`RoutingMatrix::index_slots`]).
    vn_of_node: Vec<u32>,
    /// Node count of the pipe graph the matrix was last (re)built against.
    pub(crate) node_count: usize,
    /// The stored rows by root node: `rows[u]` is the row rooted at node
    /// `u`, `None` where no row is. One pointer a node, the row behind it
    /// only where one is stored. Together with `pipe_tail` and the slots'
    /// patches this is the entire route store.
    rows: Vec<Option<Box<Row>>>,
    /// Each slot's root: the node whose row it reads ([`NO_PRED`] for a
    /// tombstone).
    slot_root: Vec<u32>,
    /// Each slot's access pipe, patched over its row's root position
    /// ([`NO_PRED`]: the slot is its row's root).
    slot_access: Vec<u32>,
    /// Per-pipe routing cost snapshot from the last (re)build/update: what
    /// a label sums.
    pipe_cost: Vec<u64>,
    /// Tail node index of every pipe.
    pub(crate) pipe_src: Vec<u32>,
    /// Every pipe's tail as a position in its component's node list — the
    /// coordinates a row is in, so a walk needs no access to the topology
    /// and no lookup a step. A pipe never leaves its component.
    pipe_tail: Vec<u32>,
    /// Structural (attrs-independent) connected component of every node.
    /// Pipes never change endpoints at runtime — only attributes — so a
    /// pipe change can only ever affect sources and destinations inside its
    /// own structural component. Derived from `component_nodes`; route
    /// tables share it.
    pub(crate) node_component: std::sync::Arc<[u32]>,
    /// Every node's position in its component's node list.
    node_local: Vec<u32>,
    /// Live VN indices per structural component, ascending: the sources a
    /// pipe of the component can be a tree edge of. Derived from `vns`.
    component_vns: Vec<Vec<u32>>,
    /// Node indices per structural component, ascending: what a row's
    /// positions name.
    component_nodes: Vec<Vec<u32>>,
    /// The rows an update reads its old trees from: `(root, entries)`, the
    /// first `saved_len` in use, their buffers kept across calls.
    saved: Vec<(u32, Vec<u32>)>,
    saved_len: usize,
    /// The verdict memos of an update's diff: `(saved row, root, memo)`,
    /// the first `memos_len` in use, one for each old and new row a stub
    /// kept its patch between (see [`RoutingMatrix::update_pipes`]).
    memos: Vec<(u32, u32, Vec<u8>)>,
    memos_len: usize,
    /// The roots of the rows a call touched, settled
    /// ([`RoutingMatrix::settle`]) at its end.
    touched: Vec<u32>,
    trees: TreeScratch,
    /// Per-position verdicts of the changed-destination scan of one
    /// recomputed tree (see [`route_changed`]).
    scratch_memo: Vec<u8>,
    /// Tombstoned source slots (ascending), left behind by
    /// [`RoutingMatrix::remove_source`] and reused by
    /// [`RoutingMatrix::add_source`] so sustained churn does not grow the
    /// slot count without bound. Derived from `vns`.
    free_slots: Vec<u32>,
    /// Bumped by every rebuild and every non-empty incremental update (not
    /// carried by a snapshot).
    version: u64,
    /// Head node index of every pipe. Declared last: declared beside the
    /// tails, it moved the fields a tree walk reads, and `fwd_chain8`'s
    /// setup (`RouteTable::build`) read about 10 % slower on a 2-vCPU host.
    pub(crate) pipe_dst: Vec<u32>,
}

/// What a recompute reuses, so none allocates: the heap's backing vector
/// and Dijkstra's labels and predecessors by node.
#[derive(Debug, Clone, Default)]
struct TreeScratch {
    heap: Vec<Reverse<(u64, NodeId)>>,
    /// The last Dijkstra's labels and predecessors, by node index (only
    /// the source's component is written).
    dist: Vec<u64>,
    pred: Vec<u32>,
    /// Dijkstra runs so far ([`RoutingMatrix::dijkstra_runs`]).
    runs: u64,
}

impl TreeScratch {
    /// `source`'s tree over its component's `nodes`, bit for bit what
    /// [`scoped_route_tree`] computes, into `row` by position.
    fn tree_row(
        &mut self,
        topo: &DistilledTopology,
        source: NodeId,
        nodes: &[u32],
        row: &mut [u32],
    ) {
        self.dist.resize(topo.node_count(), UNUSABLE_COST);
        self.pred.resize(topo.node_count(), NO_PRED);
        scoped_route_tree(
            topo,
            source,
            nodes,
            &mut self.dist,
            &mut self.pred,
            &mut self.heap,
        );
        self.runs += 1;
        for (entry, &u) in row.iter_mut().zip(nodes) {
            *entry = self.pred[u as usize];
        }
    }
}

/// The row rooted at `root`: stored, as every live slot's root's is.
fn stored(rows: &[Option<Box<Row>>], root: usize) -> &Row {
    rows[root].as_deref().expect("a slot's root stores a row")
}

/// The stub `source` is, if it is one: its only out-pipe, usable, the hub
/// that pipe enters, and its cost.
fn stub_of(topo: &DistilledTopology, source: NodeId) -> Option<(PipeId, NodeId, u64)> {
    let &[p] = topo.out_pipes(source) else {
        return None;
    };
    let (hub, c) = (topo.pipe(p).dst, pipe_cost(&topo.pipe(p).attrs));
    (c != UNUSABLE_COST && hub != source).then_some((p, hub, c))
}

/// One source's tree as a stored row and the patch over it: the source's
/// position `root`, its row's root position `hub`, and the access pipe
/// (`hub == root` and [`NO_PRED`] for a slot that is its row's root).
#[derive(Debug, Clone, Copy)]
struct Patched<'a> {
    row: &'a [u32],
    root: usize,
    hub: usize,
    access: u32,
}

impl Patched<'_> {
    /// The predecessor pipe at position `at`: none at the source, the
    /// access pipe at the hub, the row's entry everywhere else.
    #[inline]
    fn pred(&self, at: usize) -> u32 {
        if at == self.root {
            NO_PRED
        } else if at == self.hub {
            self.access
        } else {
            self.row[at]
        }
    }
}

/// Walks the predecessor chain of position `dst` in one tree up to its
/// source, writing the forward pipe sequence into `out`. Returns whether a
/// route exists; the trivial `src == dst` route always does (empty),
/// matching [`crate::dijkstra::route_from_tree`].
fn walk_tree(tree: Patched<'_>, tails: &[u32], dst: usize, out: &mut Vec<PipeId>) -> bool {
    out.clear();
    let mut cur = dst;
    while cur != tree.root {
        let p = tree.pred(cur);
        if p == NO_PRED {
            out.clear();
            return false;
        }
        out.push(PipeId(p));
        cur = tails[p as usize] as usize;
    }
    out.reverse();
    true
}

/// The label of position `at` in `tree`: the pipe costs up its chain,
/// summed ([`UNUSABLE_COST`] when unreachable).
fn tree_label(tree: Patched<'_>, tails: &[u32], costs: &[u64], at: usize) -> u64 {
    let (mut cur, mut sum) = (at, 0u64);
    while cur != tree.root {
        let p = tree.pred(cur);
        if p == NO_PRED {
            return UNUSABLE_COST;
        }
        sum = sum.saturating_add(costs[p as usize]);
        cur = tails[p as usize] as usize;
    }
    sum
}

/// [`route_changed`] verdicts in its memo row; `0` is "not yet known".
const ROUTE_SAME: u8 = 1;
const ROUTE_CHANGED: u8 = 2;

/// Whether the route to position `dst` differs between two trees of one
/// source, without materialising either: the route *is* the predecessor
/// chain read backwards, so a node's route changed iff its predecessor pipe
/// changed or its tree parent's route did. `memo` (zeroed over the row
/// before a tree's first call) keeps every verdict reached, so a tree's
/// destinations together cost O(component nodes), not a chain each.
fn route_changed(
    old: Patched<'_>,
    new: Patched<'_>,
    tails: &[u32],
    memo: &mut [u8],
    dst: usize,
) -> bool {
    // Walk up to the first node whose verdict is known or decided locally…
    let mut cur = dst;
    let verdict = loop {
        if cur == old.root {
            break ROUTE_SAME;
        }
        if memo[cur] != 0 {
            break memo[cur];
        }
        let p = old.pred(cur);
        if p != new.pred(cur) {
            break ROUTE_CHANGED;
        }
        if p == NO_PRED {
            break ROUTE_SAME; // unreachable in both trees from the same node
        }
        cur = tails[p as usize] as usize;
    };
    // …and hand it down the chain: every node below shares it, because
    // each kept its predecessor pipe.
    memo[cur] = verdict;
    let mut below = dst;
    while below != cur {
        memo[below] = verdict;
        below = tails[old.pred(below) as usize] as usize;
    }
    verdict == ROUTE_CHANGED
}

/// What a walk up one source's tree reads ([`RoutingMatrix::tree_of`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tree<'a> {
    patched: Patched<'a>,
    /// Every pipe's tail, by position in its component.
    pub(crate) tails: &'a [u32],
    component: u32,
    matrix: &'a RoutingMatrix,
}

impl Tree<'_> {
    /// The predecessor pipe of the node at position `at` ([`NO_PRED`] at
    /// the source and where no route reaches): the stored row's entry, or
    /// the stub's patch.
    #[inline]
    pub(crate) fn pred(&self, at: usize) -> u32 {
        self.patched.pred(at)
    }

    /// The source's own position.
    pub(crate) fn root(&self) -> usize {
        self.patched.root
    }

    /// Positions in the tree: its component's node count.
    pub(crate) fn width(&self) -> usize {
        self.patched.row.len()
    }

    /// `node`'s position in the row, or `None` outside the source's
    /// component (no route reaches it).
    #[inline]
    pub(crate) fn position(&self, node: NodeId) -> Option<usize> {
        let m = self.matrix;
        let same = m.node_component.get(node.index()) == Some(&self.component);
        same.then(|| m.node_local[node.index()] as usize)
    }
}

impl RoutingMatrix {
    /// Pre-computes the shortest-route tree of every VN in the distilled
    /// topology (routes among all pairs are derived from the trees on
    /// demand).
    pub fn build(topo: &DistilledTopology) -> Self {
        let mut matrix = RoutingMatrix {
            vns: topo.vns().to_vec(),
            ..RoutingMatrix::default()
        };
        matrix.rebuild(topo);
        matrix
    }

    /// Recomputes every source tree against the (possibly modified) pipe
    /// graph. Used after fault injection changes reachability or latencies.
    pub fn rebuild(&mut self, topo: &DistilledTopology) {
        let n = self.vns.len();
        self.node_count = topo.node_count();
        let nc = self.node_count;
        self.pipe_cost = topo.pipes().map(|(_, p)| pipe_cost(&p.attrs)).collect();
        self.pipe_src = topo.pipes().map(|(_, p)| p.src.index() as u32).collect();
        self.pipe_dst = topo.pipes().map(|(_, p)| p.dst.index() as u32).collect();
        self.rebuild_components(topo);
        self.index_slots();
        self.rows.clear();
        self.rows.resize_with(nc, || None);
        self.slot_root = vec![NO_PRED; n];
        self.slot_access = vec![NO_PRED; n];
        for si in 0..n {
            if self.vns[si].index() < nc {
                self.place(topo, si);
            }
        }
        self.settle_touched();
        self.version += 1;
    }

    /// Binds slot `si` to the row its tree is read from: its hub's, patched
    /// with its access pipe, when it is a stub whose shifted labels fit
    /// below [`UNUSABLE_COST`]; its own otherwise.
    fn place(&mut self, topo: &DistilledTopology, si: usize) {
        let src = self.vns[si];
        let at = self.node_local[src.index()];
        if let Some((p, hub, c)) = stub_of(topo, src) {
            let hub = hub.index();
            self.row_for(topo, hub, at);
            if self.far(hub) < UNUSABLE_COST - c {
                self.bind(si, hub, p.0);
                return;
            }
        }
        self.row_for(topo, src.index(), NO_PRED);
        self.bind(si, src.index(), NO_PRED);
    }

    /// Makes the row rooted at `root` able to serve a new reader (at
    /// position `reader` when it is a stub patched over the row, [`NO_PRED`]
    /// when it is the root): stores it if none is, and recomputes it if it
    /// does not keep an entry the reader reads.
    fn row_for(&mut self, topo: &DistilledTopology, root: usize, reader: u32) {
        let dead = self.rows[root].as_ref().map_or(STALE, |row| row.dead);
        if dead != NO_PRED && (reader == NO_PRED || dead != reader) {
            self.fill(topo, root);
        }
    }

    /// Recomputes the row rooted at `root`, stored first if none is: the
    /// root's Dijkstra, every entry kept. The row is settled at the call's
    /// end.
    fn fill(&mut self, topo: &DistilledTopology, root: usize) {
        let nodes = &self.component_nodes[self.node_component[root] as usize];
        let width = nodes.len();
        let row = self.rows[root].get_or_insert_with(|| Row::new(vec![NO_PRED; width].into()));
        self.trees
            .tree_row(topo, NodeId(root), nodes, &mut row.entries);
        let dist = nodes.iter().map(|&u| self.trees.dist[u as usize]);
        let far = dist.filter(|&d| d != UNUSABLE_COST).max();
        (row.dead, row.far) = (NO_PRED, far.unwrap_or(0));
        self.touched.push(root as u32);
    }

    fn row_mut(&mut self, root: usize) -> &mut Row {
        self.rows[root]
            .as_deref_mut()
            .expect("a slot's root stores a row")
    }

    /// The largest finite label of the row rooted at `root`: what a stub
    /// shifted from it adds its access cost to. Read off the stored row —
    /// Dijkstra's labels when it was filled, which are the pipe costs summed
    /// up the row; summed, once, for a row restored or one that dropped an
    /// entry — so a restored matrix places a stub as the one it was taken
    /// from does.
    fn far(&mut self, root: usize) -> u64 {
        let row = stored(&self.rows, root);
        if row.far == UNUSABLE_COST {
            let at = self.node_local[root] as usize;
            let tree = Patched {
                row: &row.entries,
                root: at,
                hub: at,
                access: NO_PRED,
            };
            let label = |i| tree_label(tree, &self.pipe_tail, &self.pipe_cost, i);
            let finite = (0..row.entries.len())
                .map(label)
                .filter(|&l| l != UNUSABLE_COST);
            self.row_mut(root).far = finite.max().unwrap_or(0);
        }
        stored(&self.rows, root).far
    }

    /// Slot `si` reads the row rooted at `root`, patched with `access`.
    fn bind(&mut self, si: usize, root: usize, access: u32) {
        (self.slot_root[si], self.slot_access[si]) = (root as u32, access);
        self.row_mut(root).refs += 1;
        self.touched.push(root as u32);
    }

    /// Slot `si` reads no row; the row it read is settled at the call's
    /// end.
    fn unbind(&mut self, si: usize) {
        let root = self.slot_root[si];
        if root != NO_PRED {
            self.row_mut(root as usize).refs -= 1;
            self.touched.push(root);
        }
        (self.slot_root[si], self.slot_access[si]) = (NO_PRED, NO_PRED);
    }

    /// Settles every row the call touched: a row no slot reads is dropped,
    /// and a row whose one reader is a stub drops the entry at that stub's
    /// position (nothing reads it).
    fn settle_touched(&mut self) {
        let mut touched = std::mem::take(&mut self.touched);
        touched.sort_unstable();
        touched.dedup();
        for &root in &touched {
            self.settle(root as usize);
        }
        touched.clear();
        self.touched = touched;
    }

    fn settle(&mut self, root: usize) {
        let Some(row) = self.rows[root].as_deref() else {
            return;
        };
        if row.refs == 0 {
            self.rows[root] = None;
        } else if row.refs == 1 && row.dead == NO_PRED {
            if let Some(at) = self.lone_stub(root) {
                let row = self.row_mut(root);
                row.entries[at as usize] = NO_PRED;
                (row.dead, row.far) = (at, UNUSABLE_COST);
            }
        }
    }

    /// The position of the one reader of the row rooted at `root`, when
    /// that reader is a stub patched over it.
    fn lone_stub(&self, root: usize) -> Option<u32> {
        let comp = self.node_component[root] as usize;
        let reads = |&&si: &&u32| self.slot_root[si as usize] == root as u32;
        let si = *self.component_vns[comp].iter().find(reads)? as usize;
        let patched = self.slot_access[si] != NO_PRED;
        patched.then(|| self.node_local[self.vns[si].index()])
    }

    /// Derives what the slot list determines: the dense node → slot map
    /// (sized to cover every node and every live slot's node), each
    /// component's live slots and the free slots, all ascending. Returns
    /// whether no node is claimed by two live slots (if one is, the later
    /// slot is mapped).
    fn index_slots(&mut self) -> bool {
        let live = self.vns.iter().filter(|v| **v != DEAD_SOURCE);
        let table_len = live.map(|v| v.index() + 1).max().unwrap_or(0);
        self.vn_of_node.clear();
        self.vn_of_node
            .resize(table_len.max(self.node_count), NO_PRED);
        self.component_vns = vec![Vec::new(); self.component_nodes.len()];
        self.free_slots.clear();
        let mut distinct = true;
        for (si, &vn) in self.vns.iter().enumerate() {
            if vn == DEAD_SOURCE {
                self.free_slots.push(si as u32);
                continue;
            }
            distinct &= self.vn_of_node[vn.index()] == NO_PRED;
            self.vn_of_node[vn.index()] = si as u32;
            if let Some(&c) = self.node_component.get(vn.index()) {
                self.component_vns[c as usize].push(si as u32);
            }
        }
        distinct
    }

    /// Recomputes the structural component index (union-find over the pipe
    /// graph's shape, ignoring attributes). Attribute changes can never
    /// move a node between structural components, so this only runs on
    /// (re)build.
    fn rebuild_components(&mut self, topo: &DistilledTopology) {
        fn find(parent: &mut [u32], x: u32) -> u32 {
            let mut root = x;
            while parent[root as usize] != root {
                root = parent[root as usize];
            }
            let mut cur = x;
            while parent[cur as usize] != root {
                let next = parent[cur as usize];
                parent[cur as usize] = root;
                cur = next;
            }
            root
        }
        let mut parent: Vec<u32> = (0..self.node_count as u32).collect();
        for (_, pipe) in topo.pipes() {
            let a = find(&mut parent, pipe.src.index() as u32);
            let b = find(&mut parent, pipe.dst.index() as u32);
            if a != b {
                parent[a as usize] = b;
            }
        }
        // Roots are node indices, so a dense table maps root → component id
        // without hashing (the whole rebuild path is now hash-free).
        let mut id_of_root = vec![NO_PRED; self.node_count];
        self.component_nodes.clear();
        for u in 0..self.node_count as u32 {
            let root = find(&mut parent, u) as usize;
            if id_of_root[root] == NO_PRED {
                id_of_root[root] = self.component_nodes.len() as u32;
                self.component_nodes.push(Vec::new());
            }
            self.component_nodes[id_of_root[root] as usize].push(u);
        }
        self.derive_components();
        self.derive_positions();
    }

    /// Fills `node_local` and `pipe_tail` from the component lists and the
    /// pipe tails: what a row's positions mean.
    fn derive_positions(&mut self) {
        self.node_local = vec![0; self.node_count];
        for nodes in &self.component_nodes {
            for (at, &u) in nodes.iter().enumerate() {
                self.node_local[u as usize] = at as u32;
            }
        }
        let local = &self.node_local;
        self.pipe_tail = self.pipe_src.iter().map(|&u| local[u as usize]).collect();
    }

    /// Incrementally updates the matrix after the listed pipes of `topo`
    /// were mutated in place (failure, restore, latency/bandwidth
    /// renegotiation).
    ///
    /// Output-sensitive in both directions. A pipe that got *worse* can
    /// only change trees that crossed it as a tree edge — exactly the
    /// sources whose tree names it at its head
    /// ([`RoutingMatrix::pipe_tree_sources`]). (A source whose labels
    /// merely held the pipe *tight* without using it is provably
    /// unaffected: relaxation is strict, so the final predecessor of the
    /// pipe's head is the first edge in relaxation order to achieve the
    /// final distance, and an edge that lost that race before cannot win
    /// it by getting worse — a from-scratch rerun relaxes the same pushes
    /// in the same order and rebuilds the identical tree.) A pipe that got
    /// *better* has no cheap exact set, so each source of its component sums
    /// the labels at the pipe's two ends — at the costs its tree was computed
    /// with, before this call's are written — and is recomputed where the
    /// new cost ties or undercuts (`<=` so tie-breaking matches a
    /// from-scratch recomputation exactly). The same two tests, applied to
    /// each stored row as its root's tree, pick the rows to recompute: each
    /// once, however many stubs read it. A stub whose tree changed only in
    /// its patch (its access pipe) is placed again, and roots a row of its
    /// own or reads its hub's by the same rule as at a build. The result
    /// equals a from-scratch [`RoutingMatrix::rebuild`] pair for pair —
    /// pinned by the `dynamics_invariants` and `matrix_trees` property
    /// suites.
    ///
    /// # Panics
    ///
    /// Panics if `topo` is not the pipe graph the matrix was built over
    /// (another node or pipe count): only attributes change in place.
    pub fn update_pipes(&mut self, topo: &DistilledTopology, changed: &[PipeId]) -> RouteUpdate {
        let same =
            (self.node_count, self.pipe_cost.len()) == (topo.node_count(), topo.pipe_count());
        assert!(same, "update_pipes over another pipe graph");
        // Classify each genuinely changed pipe by cost direction; the new
        // costs are written once the labels have been read.
        let mut worsened: Vec<PipeId> = Vec::new();
        let mut improved: Vec<(usize, usize, u64)> = Vec::new(); // (src, dst, new cost)
        let mut costs: Vec<(usize, u64)> = Vec::new();
        for &p in changed {
            let (old, new) = (self.pipe_cost[p.index()], pipe_cost(&topo.pipe(p).attrs));
            if new > old {
                worsened.push(p);
            } else if new < old {
                let pipe = topo.pipe(p);
                improved.push((pipe.src.index(), pipe.dst.index(), new));
            } else {
                continue;
            }
            costs.push((p.index(), new));
        }
        let mut update = RouteUpdate::default();
        if worsened.is_empty() && improved.is_empty() {
            return update;
        }
        // Candidate sources and rows. Worsened pipes: the trees that name
        // the pipe at its head — one read a source of its component, and a
        // row of a root other than the head. Improved pipes: the trees of
        // the pipe's component whose labels the new cost ties or undercuts.
        let mut candidates: Vec<u32> = Vec::new();
        let mut rows: Vec<u32> = Vec::new();
        for &p in &worsened {
            candidates.extend(self.pipe_tree_sources(topo, p));
            let head = topo.pipe(p).dst.index();
            let at = self.node_local[head] as usize;
            for (root, row) in self.component_rows(self.node_component[head] as usize) {
                if row.entries[at] == p.0 && root as usize != head {
                    rows.push(root);
                }
            }
        }
        if !improved.is_empty() {
            let mut comps: Vec<u32> = improved
                .iter()
                .map(|&(u, _, _)| self.node_component[u])
                .collect();
            comps.sort_unstable();
            comps.dedup();
            let undercut = |tree| {
                let label = |node: usize| {
                    let at = self.node_local[node] as usize;
                    tree_label(tree, &self.pipe_tail, &self.pipe_cost, at)
                };
                improved.iter().any(|&(u, v, new_cost)| {
                    let du = label(u);
                    du != UNUSABLE_COST && du.saturating_add(new_cost) <= label(v)
                })
            };
            for &c in &comps {
                for &si in &self.component_vns[c as usize] {
                    let tree = self
                        .patched(si as usize)
                        .expect("a component's slots are live");
                    if undercut(tree) {
                        candidates.push(si);
                    }
                }
                for (root, row) in self.component_rows(c as usize) {
                    let at = self.node_local[root as usize] as usize;
                    let tree = Patched {
                        row: &row.entries,
                        root: at,
                        hub: at,
                        access: NO_PRED,
                    };
                    if undercut(tree) {
                        rows.push(root);
                    }
                }
            }
        }
        for (p, new) in costs {
            self.pipe_cost[p] = new;
        }
        // Ascending order keeps the reported pair order identical to a full
        // ascending scan, so callers' rewire order cannot drift.
        candidates.sort_unstable();
        candidates.dedup();
        rows.sort_unstable();
        rows.dedup();
        update.recomputed_sources = candidates.len();
        // Every reader of a stale row is placed again and diffed, with the
        // candidates: its old tree is read from a saved copy of its old
        // row. A stale row is recomputed when the first slot is placed on
        // it, and freed if none is.
        let mut affected = candidates;
        for &root in &rows {
            let comp = self.node_component[root as usize] as usize;
            let readers = self.component_vns[comp].iter();
            affected.extend(readers.filter(|&&si| self.slot_root[si as usize] == root));
        }
        affected.sort_unstable();
        affected.dedup();
        let mut old_places: Vec<(u32, u32, u32)> = Vec::with_capacity(affected.len());
        self.saved_len = 0;
        for &si in &affected {
            let (root, access) = (self.slot_root[si as usize], self.slot_access[si as usize]);
            old_places.push((self.save(root), root, access));
        }
        for &root in &rows {
            self.row_mut(root as usize).dead = STALE;
        }
        for &si in &affected {
            self.unbind(si as usize);
            self.place(topo, si as usize);
        }
        // Report changed destinations, old trees against new. A slot that
        // reads the same root's row with the same patch before and after
        // shares the root's verdicts at every destination but itself (a
        // stub is a leaf of its hub's tree): one memo a pair of rows.
        self.memos_len = 0;
        for (&si, &(saved, old_root, old_access)) in affected.iter().zip(&old_places) {
            let si = si as usize;
            let src = self.vns[si];
            let comp = self.node_component[src.index()] as usize;
            let root = self.node_local[src.index()] as usize;
            let (hub, access) = (self.slot_root[si], self.slot_access[si]);
            let at_hub = self.node_local[hub as usize] as usize;
            let old_row = &self.saved[saved as usize].1;
            let shared = (old_root, old_access) == (hub, access);
            let (old, new, memo) = if shared {
                let kept = self.memos[..self.memos_len].iter();
                let k = match kept.into_iter().position(|m| (m.0, m.1) == (saved, hub)) {
                    Some(k) => k,
                    None => {
                        if self.memos_len == self.memos.len() {
                            self.memos.push((0, 0, Vec::new()));
                        }
                        let (old, new, memo) = &mut self.memos[self.memos_len];
                        (*old, *new) = (saved, hub);
                        memo.clear();
                        memo.resize(old_row.len(), 0);
                        self.memos_len += 1;
                        self.memos_len - 1
                    }
                };
                let tree = |row| Patched {
                    row,
                    root: at_hub,
                    hub: at_hub,
                    access: NO_PRED,
                };
                let new_row = &stored(&self.rows, hub as usize).entries;
                (tree(old_row), tree(new_row), &mut self.memos[k].2)
            } else {
                self.scratch_memo.clear();
                self.scratch_memo.resize(old_row.len(), 0);
                let old = Patched {
                    row: old_row,
                    root,
                    hub: self.node_local[old_root as usize] as usize,
                    access: old_access,
                };
                let new = Patched {
                    row: &stored(&self.rows, hub as usize).entries,
                    hub: at_hub,
                    access,
                    ..old
                };
                (old, new, &mut self.scratch_memo)
            };
            for &di in &self.component_vns[comp] {
                let dst = self.vns[di as usize];
                let at = self.node_local[dst.index()] as usize;
                if at != root && route_changed(old, new, &self.pipe_tail, memo, at) {
                    update.changed_pairs.push((src, dst));
                }
            }
        }
        self.settle_touched();
        if !update.changed_pairs.is_empty() || update.recomputed_sources > 0 {
            self.version += 1;
        }
        update
    }

    /// The rows stored over component `c`, with their roots.
    fn component_rows(&self, c: usize) -> impl Iterator<Item = (u32, &Row)> {
        let nodes = &self.component_nodes[c];
        nodes
            .iter()
            .filter_map(|&u| Some((u, self.rows[u as usize].as_deref()?)))
    }

    /// Saves the entries of the row rooted at `root` for this update's
    /// diff, once: the index of its copy.
    fn save(&mut self, root: u32) -> u32 {
        let kept = &self.saved[..self.saved_len];
        if let Some(at) = kept.iter().position(|(saved, _)| *saved == root) {
            return at as u32;
        }
        if self.saved_len == self.saved.len() {
            self.saved.push((root, Vec::new()));
        }
        let stored = stored(&self.rows, root as usize);
        let (saved, copy) = &mut self.saved[self.saved_len];
        *saved = root;
        copy.clear();
        copy.extend_from_slice(&stored.entries);
        self.saved_len += 1;
        self.saved_len as u32 - 1
    }

    /// Adds a source tree for `node` incrementally. A stub whose hub's row
    /// is stored reads it: no Dijkstra and no row (unless the row's one
    /// reader so far was a stub, whose entry the row did not keep — then
    /// the row is recomputed). Otherwise one component-scoped Dijkstra —
    /// O(component log component), independent of how many sources the
    /// matrix already holds. A tombstoned slot left by
    /// [`RoutingMatrix::remove_source`] is reused when available, so
    /// sustained join/leave churn keeps the slot count at its high-water
    /// mark instead of growing it forever. Returns `false` (and changes
    /// nothing) when `node` is already a live source or is not a node of the
    /// graph the matrix was built over.
    pub fn add_source(&mut self, topo: &DistilledTopology, node: NodeId) -> bool {
        if self.vn_index(node).is_some() || node.index() >= self.node_count {
            return false;
        }
        let si = if self.free_slots.is_empty() {
            self.vns.push(node);
            self.slot_root.push(NO_PRED);
            self.slot_access.push(NO_PRED);
            self.vns.len() - 1
        } else {
            // Lowest tombstone first: slot assignment is a pure function
            // of the churn history, so replayed schedules land identical
            // slot layouts.
            let si = self.free_slots.remove(0) as usize;
            self.vns[si] = node;
            si
        };
        if self.vn_of_node.len() <= node.index() {
            self.vn_of_node.resize(node.index() + 1, NO_PRED);
        }
        self.vn_of_node[node.index()] = si as u32;
        let vns = &mut self.component_vns[self.node_component[node.index()] as usize];
        if let Err(pos) = vns.binary_search(&(si as u32)) {
            vns.insert(pos, si as u32);
        }
        self.place(topo, si);
        self.settle_touched();
        self.version += 1;
        true
    }

    /// Removes `node`'s source tree incrementally: the slot is tombstoned
    /// for reuse, and its row freed if no other slot reads it. Trees
    /// *toward* the node's location (other sources' rows) are untouched,
    /// which is what lets descriptors already in flight toward a departed
    /// endpoint drain on their pre-departure routes. Returns `false` when
    /// `node` is not a live source.
    pub fn remove_source(&mut self, node: NodeId) -> bool {
        let Some(si) = self.vn_index(node) else {
            return false;
        };
        let si_u32 = si as u32;
        self.vn_of_node[node.index()] = NO_PRED;
        self.unbind(si);
        let vns = &mut self.component_vns[self.node_component[node.index()] as usize];
        if let Ok(pos) = vns.binary_search(&si_u32) {
            vns.remove(pos);
        }
        self.vns[si] = DEAD_SOURCE;
        if let Err(pos) = self.free_slots.binary_search(&si_u32) {
            self.free_slots.insert(pos, si_u32);
        }
        self.settle_touched();
        self.version += 1;
        true
    }

    /// Number of live (non-tombstoned) source trees currently stored.
    pub fn live_source_count(&self) -> usize {
        self.vns.len() - self.free_slots.len()
    }

    /// Number of rows stored: one per tree root, not one per source.
    pub fn stored_row_count(&self) -> usize {
        self.rows.iter().flatten().count()
    }

    /// Change counter of this matrix (a restored one starts at 0): bumped
    /// by every rebuild and every incremental update that touched a source
    /// tree.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The VN set the matrix covers.
    pub fn vns(&self) -> &[NodeId] {
        &self.vns
    }

    /// Number of VNs.
    pub fn vn_count(&self) -> usize {
        self.vns.len()
    }

    /// Materialises the route between two VNs by walking the destination's
    /// predecessor chain, allocating a fresh `Route`. `None` when either
    /// node is not a VN or the destination is unreachable. Hot callers
    /// resolve indexes once ([`RoutingMatrix::vn_index`]) and reuse a
    /// buffer via [`RoutingMatrix::materialize_at`] instead.
    pub fn lookup(&self, src: NodeId, dst: NodeId) -> Option<Route> {
        let si = self.vn_index(src)?;
        let di = self.vn_index(dst)?;
        let mut pipes = Vec::new();
        self.materialize_at(si, di, &mut pipes)
            .then(|| Route::new(pipes))
    }

    /// The dense index of a VN in this matrix, or `None` for a node that is
    /// not a VN. A single array load — no hashing.
    pub fn vn_index(&self, node: NodeId) -> Option<usize> {
        match self.vn_of_node.get(node.index()) {
            Some(&i) if i != NO_PRED => Some(i as usize),
            _ => None,
        }
    }

    /// Walks the route between two VNs (by dense index) into `out` without
    /// allocating: `out` is cleared and filled with the pipe sequence in
    /// traversal order. Returns `false` (with `out` empty) when the
    /// destination is unreachable; the trivial `src == dst` route is an
    /// empty `true`. This is the zero-copy resolution path the sharded
    /// route table builds and rewires through.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn materialize_at(
        &self,
        src_index: usize,
        dst_index: usize,
        out: &mut Vec<PipeId>,
    ) -> bool {
        let n = self.vns.len();
        assert!(src_index < n && dst_index < n, "VN index out of range");
        out.clear();
        let (src, dst) = (self.vns[src_index], self.vns[dst_index]);
        if src == dst {
            return true;
        }
        match self
            .tree_of_slot(src_index)
            .and_then(|t| Some((t, t.position(dst)?)))
        {
            Some((tree, at)) => walk_tree(tree.patched, tree.tails, at, out),
            None => false,
        }
    }

    /// What a walk up `src`'s tree reads, or `None` when `src` is not a VN
    /// of the graph.
    pub(crate) fn tree_of(&self, src: NodeId) -> Option<Tree<'_>> {
        self.tree_of_slot(self.vn_index(src)?)
    }

    /// [`RoutingMatrix::tree_of`] by slot: `None` for a tombstone.
    fn tree_of_slot(&self, si: usize) -> Option<Tree<'_>> {
        let patched = self.patched(si)?;
        Some(Tree {
            patched,
            tails: &self.pipe_tail,
            component: self.node_component[self.vns[si].index()],
            matrix: self,
        })
    }

    /// Slot `si`'s tree as its row and patch: `None` for a tombstone.
    fn patched(&self, si: usize) -> Option<Patched<'_>> {
        let hub = *self.slot_root.get(si)? as usize;
        let row = self.rows.get(hub)?.as_deref()?;
        Some(Patched {
            row: &row.entries,
            root: self.node_local[self.vns[si].index()] as usize,
            hub: self.node_local[hub] as usize,
            access: self.slot_access[si],
        })
    }

    /// Distance label of `dst` in `src`'s shortest-route tree (total pipe
    /// cost: latency in nanoseconds plus one per hop), or `None` when
    /// either node is not a VN or the destination is unreachable.
    pub fn distance(&self, src: NodeId, dst: NodeId) -> Option<u64> {
        let si = self.vn_index(src)?;
        let d = (dst.index() < self.node_count).then(|| self.label(si, dst.index()))?;
        (d != UNUSABLE_COST).then_some(d)
    }

    /// Slot `si`'s label of `node`: the pipe costs up its predecessor chain,
    /// summed ([`UNUSABLE_COST`] when unreachable) — what Dijkstra computed,
    /// as it accepts only a label below [`UNUSABLE_COST`].
    fn label(&self, si: usize, node: usize) -> u64 {
        let Some(tree) = self.tree_of_slot(si) else {
            return UNUSABLE_COST;
        };
        match tree.position(NodeId(node)) {
            Some(at) => tree_label(tree.patched, tree.tails, &self.pipe_cost, at),
            None => UNUSABLE_COST,
        }
    }

    /// Number of pipes of the graph the matrix was last (re)built over.
    pub fn pipe_count(&self) -> usize {
        self.pipe_src.len()
    }

    /// `true` when both matrices write the same checkpoint, compared field
    /// by field rather than encoded.
    pub fn same_state(&self, other: &RoutingMatrix) -> bool {
        let mut rows = self.rows.iter().zip(&other.rows);
        (self.vns == other.vns && self.node_count == other.node_count)
            && (self.pipe_cost == other.pipe_cost && self.pipe_src == other.pipe_src)
            && (self.pipe_dst == other.pipe_dst && self.component_nodes == other.component_nodes)
            && (self.slot_root == other.slot_root && self.rows.len() == other.rows.len())
            && rows
                .all(|(a, b)| a.as_deref().map(|a| &a.entries) == b.as_deref().map(|b| &b.entries))
    }

    /// Dijkstra runs this matrix has made (not carried by a snapshot): a
    /// stub reads its hub's row, so this counts tree roots, not sources.
    /// Exact, so tests can state tree cost as a count.
    #[doc(hidden)]
    pub fn dijkstra_runs(&self) -> u64 {
        self.trees.runs
    }

    /// The sources (ascending dense VN indices) whose current tree crosses
    /// `pipe` of `topo` as a tree edge — exactly the trees a worsening of
    /// this pipe forces [`RoutingMatrix::update_pipes`] to recompute. A
    /// tree edge is its head's predecessor, so these are the live sources
    /// of the pipe's component whose tree names it at its head's position
    /// (a stub's through its hub's row, or its access pipe): one read a
    /// source.
    #[doc(hidden)]
    pub fn pipe_tree_sources<'a>(
        &'a self,
        topo: &DistilledTopology,
        pipe: PipeId,
    ) -> impl Iterator<Item = u32> + 'a {
        let head = topo.get_pipe(pipe).map(|p| p.dst.index());
        let (sources, at) = match head.filter(|&h| h < self.node_count) {
            Some(h) => {
                let comp = self.node_component[h] as usize;
                (&self.component_vns[comp][..], self.node_local[h] as usize)
            }
            None => (&[][..], 0),
        };
        let crosses = move |si: &u32| {
            let tree = self.patched(*si as usize);
            tree.is_some_and(|t| t.pred(at) == pipe.0)
        };
        sources.iter().copied().filter(crosses)
    }

    /// Resident heap bytes of the route state (rows, slot maps, pipe costs
    /// and tails, component maps and positions) — the structures that
    /// scale with topology size, reported beside the table's own
    /// accounting.
    pub fn memory_bytes(&self) -> usize {
        fn nested(v: &[Vec<u32>]) -> usize {
            std::mem::size_of_val(v) + v.iter().map(|e| e.capacity() * 4).sum::<usize>()
        }
        let rows = self.rows.iter().flatten();
        let row_bytes = rows.map(|row| std::mem::size_of::<Row>() + row.entries.len() * 4);
        let u32s = [
            &self.slot_root,
            &self.slot_access,
            &self.pipe_src,
            &self.pipe_dst,
            &self.pipe_tail,
            &self.vn_of_node,
            &self.node_local,
        ];
        self.rows.capacity() * std::mem::size_of::<Option<Box<Row>>>()
            + row_bytes.sum::<usize>()
            + u32s.iter().map(|v| v.capacity() * 4).sum::<usize>()
            + self.node_component.len() * 4
            + self.pipe_cost.capacity() * 8
            + self.vns.capacity() * std::mem::size_of::<NodeId>()
            + nested(&self.component_vns)
            + nested(&self.component_nodes)
    }

    /// Longest route in pipes over all pairs (diagnostics: O(pairs × hops)
    /// predecessor walks into one reused buffer).
    pub fn max_route_length(&self) -> usize {
        let (n, mut pipes) = (self.vns.len(), Vec::new());
        let routed = |i| (self.materialize_at(i / n, i % n, &mut pipes)).then_some(pipes.len());
        (0..n * n).filter_map(routed).max().unwrap_or(0)
    }

    /// The component node count of `node` (0 outside the graph): a row's
    /// width.
    fn width_at(&self, node: usize) -> usize {
        let comp = |c: &u32| self.component_nodes[*c as usize].len();
        self.node_component.get(node).map_or(0, comp)
    }

    /// Binds each live slot, in slot order, to the row rooted at its entry
    /// of `roots`, patched with its one out-pipe when it is not that root.
    /// Refuses a root outside the graph or of another component than the
    /// slot's, and a stub slot without exactly one out-pipe or whose
    /// out-pipe does not enter the root.
    fn bind_slots(&mut self, roots: &[u32]) -> Result<(), CodecError> {
        use CodecError::Invalid;
        // Each node's one out-pipe, if it has exactly one.
        let mut outs = vec![(0u32, NO_PRED); self.node_count];
        for (p, &u) in self.pipe_src.iter().enumerate() {
            outs[u as usize] = (outs[u as usize].0.saturating_add(1), p as u32);
        }
        let n = self.vns.len();
        (self.slot_root, self.slot_access) = (vec![NO_PRED; n], vec![NO_PRED; n]);
        let live = (0..n).filter(|&si| self.vns[si] != DEAD_SOURCE);
        for (si, &root) in live.zip(roots) {
            let src = self.vns[si].index();
            let Some(&comp) = self.node_component.get(root as usize) else {
                return Err(Invalid("slot root outside the graph"));
            };
            if comp != self.node_component[src] {
                return Err(Invalid("root of another component than its slot's"));
            }
            if root as usize != src {
                let (count, p) = outs[src];
                if count != 1 {
                    return Err(Invalid("stub slot without a unique access pipe"));
                }
                if self.pipe_dst[p as usize] != root {
                    return Err(Invalid("stub slot's access pipe does not enter its root"));
                }
                self.slot_access[si] = p;
            }
            self.slot_root[si] = root;
        }
        Ok(())
    }

    /// Derives each node's component from the component lists; returns
    /// whether they partition the nodes, each list ascending.
    fn derive_components(&mut self) -> bool {
        let listed: usize = self.component_nodes.iter().map(Vec::len).sum();
        if listed != self.node_count {
            return false;
        }
        let mut node_component = vec![NO_PRED; self.node_count];
        for (c, list) in self.component_nodes.iter().enumerate() {
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return false;
            }
            for &u in list {
                match node_component.get_mut(u as usize) {
                    Some(slot) if *slot == NO_PRED => *slot = c as u32,
                    _ => return false,
                }
            }
        }
        self.node_component = node_component.into();
        self.node_component.iter().all(|&c| c != NO_PRED)
    }

    /// Refuses component lists, pipe tables and slot lists a later call
    /// would index out of range with, and derives each node's component,
    /// the node → slot map, each component's slots, the free slots and the
    /// positions.
    fn check_tables(&mut self) -> Result<(), CodecError> {
        use CodecError::Invalid;
        if !self.derive_components() {
            return Err(Invalid("component lists do not partition the nodes"));
        }
        let node_count = self.node_count;
        let in_graph = |v: &NodeId| *v == DEAD_SOURCE || v.index() < node_count;
        if !self.vns.iter().all(in_graph) {
            return Err(Invalid("source slot outside the graph"));
        }
        let pipes = self.pipe_src.len();
        if self.pipe_cost.len() != pipes || self.pipe_dst.len() != pipes {
            return Err(Invalid("pipe tables of unequal lengths"));
        }
        if self.pipe_src.iter().any(|&u| u as usize >= node_count) {
            return Err(Invalid("pipe tail out of range"));
        }
        if self.pipe_dst.iter().any(|&u| u as usize >= node_count) {
            return Err(Invalid("pipe head out of range"));
        }
        if !self.index_slots() {
            return Err(Invalid("node claimed by two live slots"));
        }
        self.derive_positions();
        Ok(())
    }

    /// Refuses a row that names a pipe out of range, of another component or
    /// not entering the node at its position, or whose walk up from some
    /// position comes back to it
    /// (a cycle: a lookup, label or route diff over it never ends). `rows`
    /// yields each row with its root node. One pass over each row: every
    /// position is stamped by the first walk through it, each walk with a
    /// fresh stamp, and a walk ends at the root, at [`NO_PRED`], or at a
    /// position an earlier walk of the row stamped — one that walk showed
    /// ends. A position the walk itself stamped is a cycle. Stamps only
    /// grow, so none is cleared between rows.
    fn check_rows<'a>(
        &self,
        rows: impl Iterator<Item = (&'a [u32], usize)>,
    ) -> Result<(), CodecError> {
        use CodecError::Invalid;
        let pipes = self.pipe_src.len();
        // Each pipe's component, looked up per entry only where there is
        // more than one to be in.
        let several = self.component_nodes.len() > 1;
        let comp_of = |u: &u32| self.node_component[*u as usize];
        let pipe_comp: Vec<u32> = match several {
            true => self.pipe_src.iter().map(comp_of).collect(),
            false => Vec::new(),
        };
        let widest = self.component_nodes.iter().map(Vec::len).max();
        let mut stamp = vec![0u64; widest.unwrap_or(0)];
        let mut walk = 0u64;
        for (row, src) in rows {
            let comp = self.node_component[src];
            let nodes = &self.component_nodes[comp as usize];
            let (root, row_start) = (self.node_local[src] as usize, walk + 1);
            for start in 0..row.len() {
                if stamp[start] >= row_start {
                    continue;
                }
                walk += 1;
                let mut at = start;
                loop {
                    stamp[at] = walk;
                    let p = row[at];
                    if p == NO_PRED {
                        break;
                    }
                    if p as usize >= pipes {
                        return Err(Invalid("predecessor pipe out of range"));
                    }
                    if several && pipe_comp[p as usize] != comp {
                        return Err(Invalid("predecessor pipe from another component"));
                    }
                    if self.pipe_dst[p as usize] != nodes[at] {
                        return Err(Invalid("predecessor pipe does not enter its node"));
                    }
                    if at == root {
                        break;
                    }
                    at = self.pipe_tail[p as usize] as usize;
                    if stamp[at] >= row_start {
                        if stamp[at] == walk {
                            return Err(Invalid("predecessor row with a cycle"));
                        }
                        break;
                    }
                }
            }
        }
        Ok(())
    }
}

/// The slot list and the node count, the pipe tables (costs and tails, then
/// the heads with no length of their own), the component node
/// lists, each live slot's root, and then the row of each distinct root,
/// ascending, at its root's component's width — roots and rows with no
/// length of their own, as the lists before them give each. Written out
/// rather than declared because the rows' widths come from the maps, which
/// are checked before a row is read; the set of roots is the slots' (a row
/// is stored exactly while a live slot reads it), and each node's component
/// and position, the node → slot map, each component's slots, the free
/// slots, each stub's access pipe and each row's readers are derived from
/// the rest. The change counter and the scratch are not written.
impl Codec for RoutingMatrix {
    /// Four count prefixes and the node count.
    const MIN_BYTES: usize = 4 * <Vec<u32> as Codec>::MIN_BYTES + usize::MIN_BYTES;

    fn put(&self, w: &mut ByteWriter) {
        self.vns.put(w);
        self.node_count.put(w);
        self.pipe_cost.put(w);
        self.pipe_src.put(w);
        w.put_bare_u32s(self.pipe_dst.iter().copied());
        self.component_nodes.put(w);
        for &root in self.slot_root.iter().filter(|&&root| root != NO_PRED) {
            w.put_u32(root);
        }
        // Rows in root order: the layout is the trees', not the history's.
        for row in self.rows.iter().flatten() {
            w.put_bare_u32s(row.entries.iter().copied());
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        let vns = Vec::<NodeId>::get(r)?;
        let (node_count, pipe_cost, pipe_src): (usize, Vec<u64>, Vec<u32>) = Codec::get(r)?;
        let pipe_dst = r.get_bare_u32s(pipe_src.len())?;
        let mut m = RoutingMatrix {
            vns,
            node_count,
            pipe_cost,
            pipe_src,
            pipe_dst,
            component_nodes: Codec::get(r)?,
            ..RoutingMatrix::default()
        };
        // Tables a later read would index out of range with are refused
        // before anything is read against them.
        m.check_tables()?;
        let live = m.vns.iter().filter(|&&v| v != DEAD_SOURCE).count();
        let slot_roots = r.get_bare_u32s(live)?;
        m.bind_slots(&slot_roots)?;
        let mut roots = slot_roots;
        roots.sort_unstable();
        roots.dedup();
        // A row a root, at its component's width, stored at the root; then
        // each row's readers counted among the bound slots.
        let mut rows = Vec::with_capacity(roots.len());
        for &root in &roots {
            rows.push(r.get_bare_u32s(m.width_at(root as usize))?);
        }
        let at = roots.iter().map(|&root| root as usize);
        m.check_rows(rows.iter().map(Vec::as_slice).zip(at))?;
        m.rows.resize_with(m.node_count, || None);
        for (&root, row) in roots.iter().zip(rows) {
            m.rows[root as usize] = Some(Row::new(row.into()));
        }
        for &root in &m.slot_root {
            if let Some(Some(row)) = m.rows.get_mut(root as usize) {
                row.refs += 1;
                m.touched.push(root);
            }
        }
        m.settle_touched();
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_distill::{distill, DistillationMode, PipeAttrs};
    use mn_topology::generators::{ring_topology, star_topology, RingParams, StarParams};
    use mn_util::{Codec, DataRate, SimDuration};

    fn small_ring() -> DistilledTopology {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        distill(&topo, DistillationMode::HopByHop)
    }

    #[test]
    fn matrix_covers_all_vn_pairs() {
        let d = small_ring();
        let m = RoutingMatrix::build(&d);
        assert_eq!(m.vn_count(), 12);
        for &a in m.vns() {
            for &b in m.vns() {
                let r = m.lookup(a, b).unwrap();
                if a == b {
                    assert!(r.pipes.is_empty());
                } else {
                    assert!(r.hop_count() >= 2, "VN-to-VN routes cross two access links");
                }
            }
        }
    }

    #[test]
    fn matrix_routes_match_direct_dijkstra() {
        let d = small_ring();
        let m = RoutingMatrix::build(&d);
        let vns = m.vns().to_vec();
        for &a in &vns {
            for &b in &vns {
                let expected = crate::route_between(&d, a, b).unwrap();
                assert_eq!(m.lookup(a, b).unwrap().hop_count(), expected.hop_count());
            }
        }
    }

    #[test]
    fn lookup_unknown_vn_is_none() {
        let d = small_ring();
        let m = RoutingMatrix::build(&d);
        // Node 0 is a transit router, not a VN.
        let router = NodeId(0);
        assert!(m.lookup(router, m.vns()[0]).is_none());
        assert!(m.vn_index(router).is_none());
        assert!(m.vn_index(NodeId(usize::MAX)).is_none());
    }

    #[test]
    fn star_routes_are_two_hops() {
        let topo = star_topology(&StarParams {
            clients: 20,
            ..StarParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let m = RoutingMatrix::build(&d);
        assert_eq!(m.max_route_length(), 2);
    }

    #[test]
    fn rebuild_picks_up_latency_changes() {
        // Square of stubs with a client at two corners; raising one side's
        // latency shifts the route to the other side.
        let mut topo = mn_topology::Topology::new();
        let a = topo.add_node(mn_topology::NodeKind::Client);
        let r1 = topo.add_node(mn_topology::NodeKind::Stub);
        let r2 = topo.add_node(mn_topology::NodeKind::Stub);
        let b = topo.add_node(mn_topology::NodeKind::Client);
        let fast =
            mn_topology::LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        topo.add_link(a, r1, fast).unwrap();
        topo.add_link(r1, b, fast).unwrap();
        topo.add_link(a, r2, fast).unwrap();
        topo.add_link(r2, b, fast).unwrap();
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let mut m = RoutingMatrix::build(&d);
        let before = m.lookup(a, b).unwrap();
        // Slow down whichever first-hop pipe the current route uses.
        let used_pipe = before.pipes[0];
        d.pipe_attrs_mut(used_pipe).unwrap().latency = SimDuration::from_millis(50);
        m.rebuild(&d);
        let after = m.lookup(a, b).unwrap();
        assert_ne!(
            after.pipes[0], used_pipe,
            "route should avoid the slowed pipe"
        );
        assert_eq!(after.total_latency(&d), SimDuration::from_millis(2));
    }

    #[test]
    fn incremental_update_matches_scratch_rebuild_across_a_flap() {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 2,
            ..RingParams::default()
        });
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let mut m = RoutingMatrix::build(&d);
        let v0 = m.version();
        // Fail one ring pipe (both directions of the link), then restore it;
        // after each step the incremental update must equal a from-scratch
        // build pair for pair.
        let vns = m.vns().to_vec();
        let victim = m.lookup(vns[0], vns[6]).unwrap().pipes[1];
        let original = d.pipe(victim).attrs;
        let check = |m: &RoutingMatrix, d: &DistilledTopology| {
            let scratch = RoutingMatrix::build(d);
            for &a in m.vns() {
                for &b in m.vns() {
                    assert_eq!(m.lookup(a, b), scratch.lookup(a, b), "{a}->{b}");
                }
            }
        };
        d.pipe_attrs_mut(victim).unwrap().bandwidth = mn_util::DataRate::ZERO;
        let down = m.update_pipes(&d, &[victim]);
        assert!(!down.is_empty(), "failing a used pipe rewires routes");
        assert!(m.version() > v0);
        check(&m, &d);
        *d.pipe_attrs_mut(victim).unwrap() = original;
        let up = m.update_pipes(&d, &[victim]);
        assert!(!up.is_empty(), "restoring the pipe rewires routes back");
        check(&m, &d);
    }

    #[test]
    fn update_touching_nothing_reports_empty_and_keeps_version() {
        let d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let v = m.version();
        // Same attributes: no cost change, nothing recomputed.
        let update = m.update_pipes(&d, &[mn_distill::PipeId(0)]);
        assert!(update.is_empty());
        assert_eq!(update.recomputed_sources, 0);
        assert_eq!(m.version(), v);
    }

    #[test]
    fn only_affected_sources_are_recomputed() {
        // Two disjoint duplex paths a1-r1-b1 and a2-r2-b2: failing a1's
        // access pipe can only affect sources that could route over it.
        let mut topo = mn_topology::Topology::new();
        let fast =
            mn_topology::LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        let mut pair = || {
            let a = topo.add_node(mn_topology::NodeKind::Client);
            let r = topo.add_node(mn_topology::NodeKind::Stub);
            let b = topo.add_node(mn_topology::NodeKind::Client);
            topo.add_link(a, r, fast).unwrap();
            topo.add_link(r, b, fast).unwrap();
            (a, b)
        };
        let (a1, _b1) = pair();
        let (_a2, _b2) = pair();
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let mut m = RoutingMatrix::build(&d);
        let victim = d.out_pipes(a1)[0];
        d.pipe_attrs_mut(victim).unwrap().bandwidth = mn_util::DataRate::ZERO;
        let update = m.update_pipes(&d, &[victim]);
        // Only a1's own tree used the failed outbound pipe.
        assert_eq!(update.recomputed_sources, 1);
        assert!(update.changed_pairs.iter().all(|&(src, _)| src == a1));
        assert!(m.lookup(a1, _b1).is_none(), "a1 lost its only route out");
    }

    #[test]
    fn bandwidth_only_renegotiation_changes_no_routes() {
        // Routing cost is latency plus usability: halving a pipe's (nonzero)
        // bandwidth must not recompute or rewire anything.
        let mut d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let pipe = mn_distill::PipeId(0);
        let bw = d.pipe(pipe).attrs.bandwidth;
        d.pipe_attrs_mut(pipe).unwrap().bandwidth = bw.mul_f64(0.5);
        let update = m.update_pipes(&d, &[pipe]);
        assert!(update.is_empty());
        assert_eq!(update.recomputed_sources, 0);
    }

    /// The trees `pipe` is an edge of, as [`RoutingMatrix::update_pipes`]
    /// reads them off the rows.
    fn trees(m: &RoutingMatrix, d: &DistilledTopology, pipe: PipeId) -> Vec<u32> {
        m.pipe_tree_sources(d, pipe).collect()
    }

    /// Every pipe is an edge of exactly the trees whose stored row, of any
    /// slot, names it at its head, and — after incremental maintenance — of
    /// the trees a from-scratch build puts it in.
    fn assert_tree_membership_exact(m: &RoutingMatrix, d: &DistilledTopology) {
        assert_membership_matches_rows(m, d);
        let fresh = RoutingMatrix::build(d);
        for pid in 0..d.pipe_count() {
            let p = PipeId::from_index(pid);
            assert_eq!(
                trees(m, d, p),
                trees(&fresh, d, p),
                "incrementally maintained trees diverged from scratch for pipe {pid}"
            );
        }
    }

    /// The scan over a component's live slots ≡ the slots whose row names
    /// `p` at its head, among all slots.
    fn assert_membership_matches_rows(m: &RoutingMatrix, d: &DistilledTopology) {
        for pid in 0..d.pipe_count() {
            let p = PipeId::from_index(pid);
            let head = d.pipe(p).dst;
            let names = |si: &u32| {
                let tree = m.tree_of_slot(*si as usize);
                tree.and_then(|t| Some(t.pred(t.position(head)?))) == Some(pid as u32)
            };
            let expected: Vec<u32> = (0..m.vn_count() as u32).filter(names).collect();
            assert_eq!(trees(m, d, p), expected, "pipe {pid}");
        }
    }

    #[test]
    fn tree_membership_matches_a_scratch_build_across_a_flap() {
        let mut d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        assert_tree_membership_exact(&m, &d);
        // …and stays exact across a fail/restore flap maintained
        // incrementally.
        let victim = m.lookup(m.vns()[0], m.vns()[6]).unwrap().pipes[1];
        let original = d.pipe(victim).attrs;
        d.pipe_attrs_mut(victim).unwrap().bandwidth = DataRate::ZERO;
        m.update_pipes(&d, &[victim]);
        assert_tree_membership_exact(&m, &d);
        *d.pipe_attrs_mut(victim).unwrap() = original;
        m.update_pipes(&d, &[victim]);
        assert_tree_membership_exact(&m, &d);
    }

    #[test]
    fn flap_recomputes_exactly_the_trees_crossing_the_pipe() {
        // The acceptance criterion of the tree-only design: a worsened pipe
        // recomputes precisely the trees it is an edge of, and a restore
        // puts it back in the same trees.
        let mut d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let victim = m.lookup(m.vns()[0], m.vns()[6]).unwrap().pipes[1];
        let before = trees(&m, &d, victim);
        assert!(!before.is_empty(), "a transit pipe carries some tree");
        let original = d.pipe(victim).attrs;
        d.pipe_attrs_mut(victim).unwrap().bandwidth = DataRate::ZERO;
        let down = m.update_pipes(&d, &[victim]);
        assert_eq!(
            down.recomputed_sources,
            before.len(),
            "down-flap recompute set must equal the trees crossing the pipe"
        );
        assert!(
            trees(&m, &d, victim).is_empty(),
            "a failed pipe sits in no tree"
        );
        *d.pipe_attrs_mut(victim).unwrap() = original;
        let up = m.update_pipes(&d, &[victim]);
        assert!(up.recomputed_sources > 0);
        assert_eq!(
            trees(&m, &d, victim),
            before,
            "restore puts the pipe back in its pre-failure trees"
        );
    }

    #[test]
    fn remove_then_add_source_round_trips_to_scratch_equality() {
        let d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let victim = m.vns()[3];
        let si = m.vn_index(victim).unwrap() as u32;
        let v = m.version();
        assert!(m.remove_source(victim));
        assert!(m.version() > v);
        assert_eq!(m.live_source_count(), 11);
        assert_eq!(m.vn_count(), 12, "the slot is tombstoned, not compacted");
        // The departed source routes nowhere; trees toward it are kept.
        assert!(m.lookup(victim, m.vns()[0]).is_none());
        assert!(m.vn_index(victim).is_none());
        for pid in 0..d.pipe_count() {
            assert!(
                !trees(&m, &d, PipeId::from_index(pid)).contains(&si),
                "a removed tree crosses no pipe"
            );
        }
        // Rejoin reuses the tombstoned slot and restores scratch equality.
        assert!(m.add_source(&d, victim));
        assert_eq!(m.vn_index(victim), Some(si as usize));
        assert_eq!(m.live_source_count(), 12);
        let scratch = RoutingMatrix::build(&d);
        for &a in scratch.vns() {
            for &b in scratch.vns() {
                assert_eq!(m.lookup(a, b), scratch.lookup(a, b), "{a}->{b}");
            }
        }
        assert_tree_membership_exact(&m, &d);
    }

    #[test]
    fn add_source_rejects_live_and_unknown_nodes() {
        let d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let v = m.version();
        assert!(!m.add_source(&d, m.vns()[0]), "already a live source");
        assert!(!m.add_source(&d, NodeId(d.node_count())), "not a node");
        assert!(!m.remove_source(NodeId(0)), "a transit router is no source");
        let victim = m.vns()[5];
        assert!(m.remove_source(victim));
        assert!(!m.remove_source(victim), "double-leave is refused");
        assert_eq!(m.version(), v + 1, "refused churn must not bump version");
    }

    #[test]
    fn add_source_at_a_fresh_location_matches_direct_dijkstra() {
        // A node that was never a VN (a transit router) can become a source
        // — this is the rejoin-at-an-empty-location path.
        let d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let router = NodeId(0);
        assert!(m.add_source(&d, router));
        assert_eq!(m.vn_count(), 13, "no tombstone to reuse: the set grows");
        for &b in &m.vns().to_vec() {
            if b == DEAD_SOURCE || b == router {
                continue;
            }
            let expected = crate::route_between(&d, router, b).unwrap();
            assert_eq!(
                m.lookup(router, b).unwrap().hop_count(),
                expected.hop_count()
            );
        }
    }

    #[test]
    fn churn_storm_keeps_label_arrays_at_high_water() {
        // Sustained leave/join cycles reuse tombstoned slots: the label
        // arrays stay at the high-water source count.
        let d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let baseline = m.vn_count();
        let nodes = m.vns().to_vec();
        for round in 0..8 {
            for &n in nodes.iter().skip(round % 3).step_by(3) {
                assert!(m.remove_source(n));
            }
            for &n in nodes.iter().skip(round % 3).step_by(3) {
                assert!(m.add_source(&d, n));
            }
        }
        assert_eq!(m.vn_count(), baseline);
        assert_eq!(m.live_source_count(), baseline);
        let scratch = RoutingMatrix::build(&d);
        for &a in &nodes {
            for &b in &nodes {
                assert_eq!(m.lookup(a, b), scratch.lookup(a, b), "{a}->{b}");
            }
        }
        assert_tree_membership_exact(&m, &d);
    }

    #[test]
    fn update_pipes_skips_departed_sources() {
        // A pipe flap while a source is tombstoned must neither recompute
        // the dead tree nor put the pipe back in it.
        let mut d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let victim_vn = m.vns()[0];
        let flapped = m.lookup(victim_vn, m.vns()[6]).unwrap().pipes[1];
        let original = d.pipe(flapped).attrs;
        assert!(m.remove_source(victim_vn));
        d.pipe_attrs_mut(flapped).unwrap().bandwidth = DataRate::ZERO;
        let down = m.update_pipes(&d, &[flapped]);
        assert!(down.changed_pairs.iter().all(|&(s, _)| s != victim_vn));
        *d.pipe_attrs_mut(flapped).unwrap() = original;
        m.update_pipes(&d, &[flapped]);
        assert!(m.add_source(&d, victim_vn));
        let scratch = RoutingMatrix::build(&d);
        for &a in scratch.vns() {
            for &b in scratch.vns() {
                assert_eq!(m.lookup(a, b), scratch.lookup(a, b), "{a}->{b}");
            }
        }
        assert_tree_membership_exact(&m, &d);
    }

    #[test]
    fn codec_round_trip_preserves_state_and_future_updates() {
        // Capture a matrix mid-history (a flap plus a tombstoned source), so
        // the codec has to carry recomputed rows and a tombstone, and the
        // decoder derive the free slot — not just a freshly built state.
        let mut d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let victim = m.lookup(m.vns()[0], m.vns()[6]).unwrap().pipes[1];
        let original = d.pipe(victim).attrs;
        d.pipe_attrs_mut(victim).unwrap().bandwidth = DataRate::ZERO;
        m.update_pipes(&d, &[victim]);
        let departed = m.vns()[4];
        assert!(m.remove_source(departed));

        let mut w = mn_util::ByteWriter::new();
        m.put(&mut w);
        assert_eq!(m.encoded_len(), w.len());
        let mut restored =
            RoutingMatrix::get(&mut mn_util::ByteReader::new(w.as_slice())).expect("decodes");
        // Byte-stable, and every strict prefix is refused.
        mn_util::codec::record_contract(m.clone());

        assert_eq!(restored.version(), 0, "the change counter is not written");
        assert_eq!(restored.live_source_count(), m.live_source_count());
        for &a in m.vns() {
            for &b in m.vns() {
                if a == DEAD_SOURCE || b == DEAD_SOURCE {
                    continue;
                }
                assert_eq!(m.lookup(a, b), restored.lookup(a, b), "{a}->{b}");
            }
        }
        // The restored matrix reacts to future changes identically.
        *d.pipe_attrs_mut(victim).unwrap() = original;
        let up_orig = m.update_pipes(&d, &[victim]);
        let up_restored = restored.update_pipes(&d, &[victim]);
        assert_eq!(up_orig, up_restored);
        assert!(restored.add_source(&d, departed));
        assert!(m.add_source(&d, departed));
        assert_eq!(m.vn_index(departed), restored.vn_index(departed));
        assert_tree_membership_exact(&restored, &d);
    }

    /// Every live source's tree (its row, patched) and summed labels
    /// against a from-scratch Dijkstra, bit for bit: a stub read through its
    /// hub's row must be indistinguishable from it. And every stored row is
    /// its root's tree, but for the entry a lone stub reader does not read;
    /// no row is stale, and none is stored that no slot reads.
    fn assert_rows_are_dijkstras(m: &RoutingMatrix, d: &DistilledTopology) {
        let nc = m.node_count;
        let dijkstra = |src: NodeId| {
            let (pred, dist) = crate::shortest_route_tree_with_dist(d, src);
            let pred: Vec<u32> = pred.iter().map(|p| p.map_or(NO_PRED, |p| p.0)).collect();
            let nodes = &m.component_nodes[m.node_component[src.index()] as usize];
            let kept: Vec<u32> = nodes.iter().map(|&u| pred[u as usize]).collect();
            let set = |row: &[u32]| row.iter().filter(|&&p| p != NO_PRED).count();
            assert_eq!(
                set(&kept),
                set(&pred),
                "{src} reaches outside its component"
            );
            (kept, dist)
        };
        for (si, &src) in m.vns.iter().enumerate() {
            if src == DEAD_SOURCE {
                assert_eq!(m.slot_root[si], NO_PRED, "a tombstone reads no row");
                continue;
            }
            let (kept, dist) = dijkstra(src);
            let tree = m.tree_of_slot(si).unwrap();
            let read: Vec<u32> = (0..tree.width()).map(|at| tree.pred(at)).collect();
            assert_eq!(read, kept, "pred row of {src}");
            let labels: Vec<u64> = (0..nc).map(|u| m.label(si, u)).collect();
            assert_eq!(labels, dist, "labels of {src}");
        }
        assert_eq!(m.rows.len(), nc, "one entry a node");
        for (root, row) in m.rows.iter().enumerate() {
            let Some(row) = row else {
                continue;
            };
            assert!(row.refs > 0, "the row rooted at {root} is read");
            let (mut kept, _) = dijkstra(NodeId(root));
            assert_ne!(row.dead, STALE);
            if row.dead != NO_PRED {
                kept[row.dead as usize] = NO_PRED;
            }
            assert_eq!(*row.entries, kept, "row rooted at {root}");
        }
    }

    #[test]
    fn a_stub_whose_access_pipe_is_down_runs_dijkstra_and_reaches_nothing() {
        let mut d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        assert_eq!(m.dijkstra_runs(), 6, "one per router, none per client");
        let stub = m.vns()[0];
        let access = d.out_pipes(stub)[0];
        d.pipe_attrs_mut(access).unwrap().bandwidth = DataRate::ZERO;
        let update = m.update_pipes(&d, &[access]);
        assert_eq!(update.recomputed_sources, 1);
        assert_eq!(m.dijkstra_runs(), 7, "the stub's own run, no hub's");
        assert!(m
            .vns()
            .iter()
            .all(|&b| b == stub || m.lookup(stub, b).is_none()));
        assert_rows_are_dijkstras(&m, &d);
    }

    #[test]
    fn a_hub_that_is_itself_a_vn_is_shifted_from_exactly() {
        // VN h reaches VN t over two equal-cost paths (a tie), and is the
        // hub of stub VNs s1 and s2 (s2's access link at zero latency).
        let mut topo = mn_topology::Topology::new();
        let attrs =
            |ms| mn_topology::LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(ms));
        let [t, h, s1, s2] = [(); 4].map(|_| topo.add_node(mn_topology::NodeKind::Client));
        for r in [(); 2].map(|_| topo.add_node(mn_topology::NodeKind::Stub)) {
            topo.add_link(h, r, attrs(1)).unwrap();
            topo.add_link(r, t, attrs(1)).unwrap();
        }
        topo.add_link(s1, h, attrs(2)).unwrap();
        topo.add_link(s2, h, attrs(0)).unwrap();
        let d = distill(&topo, DistillationMode::HopByHop);
        let m = RoutingMatrix::build(&d);
        assert_eq!(m.vns(), [t, h, s1, s2]);
        assert_eq!(m.dijkstra_runs(), 2, "t, and h for itself and its stubs");
        assert_eq!(m.stored_row_count(), 2);
        assert_rows_are_dijkstras(&m, &d);
    }

    #[test]
    fn stubs_of_one_hub_recomputed_in_one_update_share_its_dijkstra() {
        // Every other client's tree crosses the hub's pipe to client 0: down
        // and back up, each call shifts them all from one fresh hub tree.
        let topo = star_topology(&StarParams {
            clients: 6,
            ..StarParams::default()
        });
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let mut m = RoutingMatrix::build(&d);
        assert_eq!(m.dijkstra_runs(), 1);
        let victim = m.lookup(m.vns()[1], m.vns()[0]).unwrap().pipes[1];
        let original = d.pipe(victim).attrs;
        let crossing = trees(&m, &d, victim);
        assert_eq!(crossing, [1, 2, 3, 4, 5]);
        for attrs in [
            PipeAttrs {
                bandwidth: DataRate::ZERO,
                ..original
            },
            original,
        ] {
            *d.pipe_attrs_mut(victim).unwrap() = attrs;
            let runs = m.dijkstra_runs();
            let update = m.update_pipes(&d, &[victim]);
            assert_eq!(update.recomputed_sources, crossing.len());
            assert_eq!(m.dijkstra_runs() - runs, 1, "one hub tree a call");
            assert_rows_are_dijkstras(&m, &d);
        }
        assert_eq!(trees(&m, &d, victim), crossing);
    }

    /// A stub joining a hub whose row other slots read binds its slot to
    /// that row: no Dijkstra, and no row stored or allocated.
    #[test]
    fn a_stub_joining_a_live_hub_row_runs_no_dijkstra_and_stores_no_row() {
        let topo = star_topology(&StarParams {
            clients: 6,
            ..StarParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let mut m = RoutingMatrix::build(&d);
        assert_eq!((m.dijkstra_runs(), m.stored_row_count()), (1, 1));
        let stub = m.vns()[3];
        assert!(m.remove_source(stub));
        let hub = m.slot_root[0] as usize;
        let (runs, entries) = (m.dijkstra_runs(), stored(&m.rows, hub).entries.as_ptr());
        assert!(m.add_source(&d, stub));
        assert_eq!(m.dijkstra_runs(), runs, "no Dijkstra");
        assert_eq!(m.stored_row_count(), 1, "no row");
        assert_eq!(
            stored(&m.rows, hub).entries.as_ptr(),
            entries,
            "no row reallocated"
        );
        assert_rows_are_dijkstras(&m, &d);
        assert_tree_membership_exact(&m, &d);
    }

    /// A stub rejoining reads its hub's tree. Here the hub's row was read
    /// by one stub meanwhile, so it did not keep the entry at that stub's
    /// position, and the second stub joining recomputes it, once.
    #[test]
    fn add_source_of_a_stub_copies_its_hubs_tree() {
        let d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let stub = m.vns()[3];
        assert!(m.remove_source(stub));
        let sibling = m.vns()[2];
        let hub = m.slot_root[2] as usize;
        let at = m.node_local[sibling.index()];
        let row = stored(&m.rows, hub);
        assert_eq!(
            (row.refs, row.dead, row.entries[at as usize]),
            (1, at, NO_PRED)
        );
        assert_rows_are_dijkstras(&m, &d);
        let runs = m.dijkstra_runs();
        assert!(m.add_source(&d, stub));
        assert_eq!(m.dijkstra_runs() - runs, 1, "the hub's tree");
        assert_eq!(
            (m.slot_root[3], stored(&m.rows, hub).dead),
            (hub as u32, NO_PRED)
        );
        assert_rows_are_dijkstras(&m, &d);
        assert_tree_membership_exact(&m, &d);
    }

    #[test]
    fn a_shift_that_would_overflow_falls_back_to_dijkstra() {
        // Client 0's access cost is within 100 of u64::MAX: its hub's labels
        // shifted by it would overflow, so it runs Dijkstra itself (and,
        // saturating, reaches only the hub). The other clients shift.
        let topo = star_topology(&StarParams {
            clients: 4,
            ..StarParams::default()
        });
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let access = d.out_pipes(d.vns()[0])[0];
        d.pipe_attrs_mut(access).unwrap().latency = SimDuration::from_nanos(u64::MAX - 100);
        let m = RoutingMatrix::build(&d);
        assert_eq!(m.dijkstra_runs(), 2, "the hub's, then client 0's own");
        assert!(m.lookup(m.vns()[0], m.vns()[1]).is_none());
        assert!(m.lookup(m.vns()[1], m.vns()[0]).is_some());
        assert_rows_are_dijkstras(&m, &d);
    }

    /// Lists a call's changed pairs as slot indices, for recorded values.
    fn slot_pairs(m: &RoutingMatrix, update: &RouteUpdate) -> Vec<(usize, usize)> {
        let slot = |node| m.vn_index(node).unwrap();
        let pairs = update.changed_pairs.iter();
        pairs.map(|&(s, d)| (slot(s), slot(d))).collect()
    }

    #[test]
    fn a_flap_up_listing_its_pipe_twice_counts_it_once() {
        let mut d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let victim = m.lookup(m.vns()[0], m.vns()[6]).unwrap().pipes[1];
        let original = d.pipe(victim).attrs;
        d.pipe_attrs_mut(victim).unwrap().bandwidth = DataRate::ZERO;
        m.update_pipes(&d, &[victim]);
        *d.pipe_attrs_mut(victim).unwrap() = original;
        let up = m.update_pipes(&d, &[victim, victim]);
        // Recorded when each label was a stored row.
        assert_eq!(up.recomputed_sources, 6);
        let rows: [(&[usize], &[usize]); 3] = [
            (&[0, 1], &[2, 3, 4, 5, 6, 7]),
            (&[8, 9], &[2, 3]),
            (&[10, 11], &[2, 3, 4, 5]),
        ];
        let mut expected = Vec::new();
        for (srcs, dsts) in rows {
            expected.extend(srcs.iter().flat_map(|&s| dsts.iter().map(move |&d| (s, d))));
        }
        assert_eq!(slot_pairs(&m, &up), expected);
        assert_rows_are_dijkstras(&m, &d);
    }

    #[test]
    fn two_improved_pipes_one_on_the_others_label_path() {
        let mut d = small_ring();
        let mut m = RoutingMatrix::build(&d);
        let route = m.lookup(m.vns()[0], m.vns()[8]).unwrap();
        let (first, second) = (route.pipes[1], route.pipes[2]);
        assert_eq!(d.pipe(first).dst, d.pipe(second).src);
        for p in [first, second] {
            d.pipe_attrs_mut(p).unwrap().latency = SimDuration::ZERO;
        }
        // The scan reads `second`'s tail label before `first` is cheaper:
        // recorded when each label was a stored row.
        let update = m.update_pipes(&d, &[second, first]);
        assert_eq!(update.recomputed_sources, 8);
        let expected = [
            (0, 6),
            (0, 7),
            (1, 6),
            (1, 7),
            (2, 8),
            (2, 9),
            (3, 8),
            (3, 9),
        ];
        let expected = expected
            .into_iter()
            .chain([(10, 4), (10, 5), (11, 4), (11, 5)]);
        assert_eq!(slot_pairs(&m, &update), expected.collect::<Vec<_>>());
        assert_rows_are_dijkstras(&m, &d);
    }

    /// Two islands of unequal width: clients a, b on one stub (3 nodes),
    /// clients c, d at either end of two stubs (4 nodes).
    fn two_islands() -> DistilledTopology {
        let mut topo = mn_topology::Topology::new();
        let attrs =
            |ms| mn_topology::LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(ms));
        let client =
            |topo: &mut mn_topology::Topology| topo.add_node(mn_topology::NodeKind::Client);
        let stub = |topo: &mut mn_topology::Topology| topo.add_node(mn_topology::NodeKind::Stub);
        let (a, r, b) = (client(&mut topo), stub(&mut topo), client(&mut topo));
        topo.add_link(a, r, attrs(1)).unwrap();
        topo.add_link(r, b, attrs(2)).unwrap();
        let (c, s1, s2, d) = (
            client(&mut topo),
            stub(&mut topo),
            stub(&mut topo),
            client(&mut topo),
        );
        topo.add_link(c, s1, attrs(1)).unwrap();
        topo.add_link(s1, s2, attrs(3)).unwrap();
        topo.add_link(s2, d, attrs(1)).unwrap();
        distill(&topo, DistillationMode::HopByHop)
    }

    #[test]
    fn each_row_is_as_wide_as_its_component_and_a_tombstone_is_empty() {
        let d = two_islands();
        let mut m = RoutingMatrix::build(&d);
        // a and b hang off one stub router (node 1); c and d off one each
        // (nodes 4 and 5).
        let widths: Vec<usize> = m.rows.iter().flatten().map(|r| r.entries.len()).collect();
        assert_eq!(widths, [3, 4, 4]);
        assert_eq!(m.slot_root, [1, 1, 4, 5]);
        let [a, b, c, _] = m.vns().to_vec()[..] else {
            unreachable!("four clients")
        };
        assert!(m.lookup(a, c).is_none() && m.distance(a, c).is_none());
        assert_eq!(m.lookup(a, b).unwrap().hop_count(), 2);
        // A tombstone in the narrow island, reused by a router of the wide
        // one: the slot reads that router's row, which its stub read alone.
        assert!(m.remove_source(a));
        assert_eq!(m.slot_root[0], NO_PRED);
        let router = NodeId(c.index() + 1);
        assert!(m.add_source(&d, router));
        assert_eq!((m.vn_index(router), m.slot_root[0]), (Some(0), 4));
        assert_eq!(m.slot_access[0], NO_PRED, "the router roots the row");
        assert_rows_are_dijkstras(&m, &d);
        assert_membership_matches_rows(&m, &d);
        assert_eq!(m.lookup(router, c).unwrap().hop_count(), 1);
        assert!(m.lookup(router, b).is_none());
        mn_util::codec::record_contract(m);
    }

    fn encoded(m: &RoutingMatrix) -> Vec<u8> {
        let mut w = mn_util::ByteWriter::new();
        m.put(&mut w);
        w.into_bytes()
    }

    fn decoded(m: &RoutingMatrix) -> Result<RoutingMatrix, CodecError> {
        RoutingMatrix::get(&mut mn_util::ByteReader::new(&encoded(m)))
    }

    /// Rows that would let a walk index another component's positions are
    /// a typed error, never a panic.
    #[test]
    fn a_row_naming_a_pipe_of_another_component_is_refused() {
        let d = two_islands();
        let m = RoutingMatrix::build(&d);
        // The row rooted at a and b's hub, node 1, names the wide island's
        // first pipe at b.
        let elsewhere = d.out_pipes(m.vns()[2])[0].0;
        let mut hostile = m.clone();
        hostile.row_mut(1).entries[2] = elsewhere;
        let refused = Err(CodecError::Invalid(
            "predecessor pipe from another component",
        ));
        assert_eq!(decoded(&hostile).map(|_| ()), refused);
    }

    /// A row whose walk comes back to where it started is a typed error: a
    /// lookup, label or route diff over it would never
    /// end. Here the row rooted at the wide island's first stub router
    /// names, at the second, the pipe from client d, whose own entry names
    /// the pipe back: the walk from d goes to the router and back.
    #[test]
    fn a_row_with_a_cycle_is_refused() {
        let d = two_islands();
        let m = RoutingMatrix::build(&d);
        let far = m.vns()[3];
        let router = NodeId(far.index() - 1);
        let back = d.out_pipes(far)[0];
        assert_eq!(d.pipe(back).dst, router);
        let mut hostile = m.clone();
        let at = m.node_local[router.index()] as usize;
        hostile.row_mut(router.index() - 1).entries[at] = back.0;
        let refused = Err(CodecError::Invalid("predecessor row with a cycle"));
        assert_eq!(decoded(&hostile).map(|_| ()), refused);
    }

    /// The node → slot map is derived from the slot list, which therefore
    /// must name each node once.
    #[test]
    fn a_node_claimed_by_two_live_slots_is_refused() {
        let d = two_islands();
        let mut hostile = RoutingMatrix::build(&d);
        hostile.vns[1] = hostile.vns[0];
        let refused = Err(CodecError::Invalid("node claimed by two live slots"));
        assert_eq!(decoded(&hostile).map(|_| ()), refused);
    }

    /// A matrix frame's fields, as [`Codec::put`] lays them out.
    #[derive(Clone)]
    struct Frame {
        vns: Vec<NodeId>,
        node_count: usize,
        costs: Vec<u64>,
        tails: Vec<u32>,
        heads: Vec<u32>,
        lists: Vec<Vec<u32>>,
        slots: Vec<u32>,
        rows: Vec<Vec<u32>>,
    }

    impl Frame {
        fn of(m: &RoutingMatrix) -> Frame {
            let bytes = encoded(m);
            let r = &mut mn_util::ByteReader::new(&bytes);
            let (vns, node_count, costs, tails): (_, _, _, Vec<u32>) = Codec::get(r).unwrap();
            let heads = r.get_bare_u32s(tails.len()).unwrap();
            let mut f = Frame {
                vns,
                node_count,
                costs,
                tails,
                heads,
                lists: Codec::get(r).unwrap(),
                slots: Vec::new(),
                rows: Vec::new(),
            };
            let live = f.vns.iter().filter(|&&v| v != DEAD_SOURCE).count();
            f.slots = r.get_bare_u32s(live).unwrap();
            let mut roots = f.slots.clone();
            roots.sort_unstable();
            roots.dedup();
            for root in roots {
                let width = m.width_at(root as usize);
                f.rows.push(r.get_bare_u32s(width).unwrap());
            }
            assert!(r.is_exhausted());
            f
        }

        /// The fields before the slots' roots.
        fn put_head(&self, w: &mut mn_util::ByteWriter) {
            (self.vns.clone(), self.node_count).put(w);
            (self.costs.clone(), self.tails.clone()).put(w);
            w.put_bare_u32s(self.heads.iter().copied());
            self.lists.put(w);
        }

        fn decoded(&self) -> Result<RoutingMatrix, CodecError> {
            let mut w = mn_util::ByteWriter::new();
            self.put_head(&mut w);
            w.put_bare_u32s(self.slots.iter().copied());
            for row in &self.rows {
                w.put_bare_u32s(row.iter().copied());
            }
            RoutingMatrix::get(&mut mn_util::ByteReader::new(w.as_slice()))
        }
    }

    /// Each refusal of the slots' roots and the component lists, on a
    /// frame of the two islands whose only fault is the one named.
    #[test]
    fn a_frame_whose_rows_or_slots_disagree_is_refused() {
        let d = two_islands();
        let m = RoutingMatrix::build(&d);
        let f = Frame::of(&m);
        assert_eq!((f.slots.as_slice(), f.rows.len()), (&[1, 1, 4, 5][..], 3));
        assert!(f.decoded().is_ok());
        type Corrupt = fn(&mut Frame);
        let cases: [(&str, Corrupt); 8] = [
            ("slot root outside the graph", |f| {
                f.slots[3] = f.node_count as u32;
            }),
            // Client a reads the wide island's row.
            ("root of another component than its slot's", |f| {
                f.slots[0] = 4
            }),
            // Client d's access pipe, which no row names, moved to leave
            // client c: c has two out-pipes, d none.
            ("stub slot without a unique access pipe", |f| {
                let [c, d] = [2, 3].map(|si| f.vns[si].index() as u32);
                let p = f.tails.iter().position(|&t| t == d).unwrap();
                f.tails[p] = c;
            }),
            ("component lists do not partition the nodes", |f| {
                let node = f.lists[1][0];
                f.lists[0].push(node);
                f.lists[0].sort_unstable();
            }),
            ("component lists do not partition the nodes", |f| {
                f.lists[1].pop();
            }),
            // Client a's access pipe (pipe 0) enters a, not router 1.
            ("stub slot's access pipe does not enter its root", |f| {
                f.heads[0] = 0;
            }),
            // The pipe from router 4 to router 5, the row rooted at 4's
            // entry at 5, enters client c.
            ("predecessor pipe does not enter its node", |f| {
                f.heads[6] = 3
            }),
            ("pipe head out of range", |f| f.heads[6] = 7),
        ];
        for (what, corrupt) in cases {
            let mut hostile = f.clone();
            corrupt(&mut hostile);
            let refused = Err(CodecError::Invalid(what));
            assert_eq!(hostile.decoded().map(|_| ()), refused, "{what}");
        }
    }

    /// Whatever one byte of a matrix's bytes becomes, decoding returns a
    /// matrix or a typed error.
    #[test]
    fn any_one_byte_changed_decodes_or_is_a_typed_error() {
        let d = two_islands();
        let mut m = RoutingMatrix::build(&d);
        assert!(m.remove_source(m.vns()[1]));
        let mut w = mn_util::ByteWriter::new();
        m.put(&mut w);
        let bytes = w.into_bytes();
        for at in 0..bytes.len() {
            for value in [0x00, 0x01, 0x02, 0x05, 0xFF, bytes[at] ^ 0x80] {
                let mut mutated = bytes.clone();
                mutated[at] = value;
                match RoutingMatrix::get(&mut mn_util::ByteReader::new(&mutated)) {
                    Ok(_) | Err(CodecError::Invalid(_) | CodecError::Eof) => {}
                    Err(other) => panic!("byte {at} -> {value:#04x}: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn materialize_at_is_allocation_free_on_a_warmed_buffer() {
        let d = small_ring();
        let m = RoutingMatrix::build(&d);
        let n = m.vn_count();
        let mut buf = Vec::with_capacity(64);
        // Warm once, then every further walk reuses the buffer.
        for s in 0..n {
            for t in 0..n {
                let _ = m.materialize_at(s, t, &mut buf);
            }
        }
        let cap = buf.capacity();
        for s in 0..n {
            for t in 0..n {
                let _ = std::hint::black_box(m.materialize_at(s, t, &mut buf));
            }
        }
        assert_eq!(buf.capacity(), cap, "warmed walks must not regrow");
    }
}
