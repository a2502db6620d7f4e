//! One resolver for a run of location pairs that share a source.
//!
//! A rewire, a row derivation and a join's column refresh each resolve the
//! routes from one source location to many destinations. A route is the
//! destination's predecessor chain in the source's tree read backwards, and
//! the chains of one tree share their upper parts: on a ring, the clients
//! behind one router share every pipe but their last. A [`Run`] therefore
//! walks the source's predecessor row once. A destination's route is its
//! tree parent's route and one pipe, and the parent's route is memoized:
//! laid out once in the run's pipe buffer, with the fingerprint fold of it,
//! the first time a walk passes through it — every node on the way down
//! from its nearest memoized ancestor is laid out by the same copy. A
//! node's memo is a mark — the run that memoized it and its entry — kept
//! across runs and invalidated by a per-run stamp, never cleared. A
//! destination itself costs one predecessor read, and no copy.
//!
//! The content index's fingerprint is a prefix fold for the same reason:
//! the fold's state after a route's pipes is stored at the route's last
//! node, and the fingerprint is that state finished with the route length
//! (see `ContentIndex::finish` in `table.rs`), so hashing costs only the
//! pipes a walk adds.

use mn_distill::PipeId;
use mn_topology::NodeId;

use crate::dijkstra::NO_PRED;
use crate::matrix::{RoutingMatrix, Tree};

/// One step of the fingerprint fold, which starts at 0: a pipe index, or
/// the route length that finishes it.
#[inline]
pub(crate) fn fold(state: u64, x: u64) -> u64 {
    (state.rotate_left(5) ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The fold of a whole pipe sequence, not yet finished with its length.
pub(crate) fn fold_pipes(pipes: Pipes) -> u64 {
    let pipes = pipes.0.iter().chain(&pipes.1);
    pipes.fold(0, |h, p| fold(h, p.index() as u64))
}

/// A pipe sequence as a slice and, maybe, one pipe after it: a route a
/// [`Run`] hands out (its parent's route and its last pipe), or any slice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pipes<'a>(pub &'a [PipeId], pub Option<PipeId>);

impl Pipes<'_> {
    pub(crate) fn len(self) -> usize {
        self.0.len() + usize::from(self.1.is_some())
    }

    /// Whether `stored` is this sequence.
    pub(crate) fn is(self, stored: &[PipeId]) -> bool {
        stored.len() == self.len() && {
            let (head, last) = stored.split_at(self.0.len());
            head == self.0 && last.first().copied() == self.1
        }
    }
}

/// `len` of a node no route reaches from the run's source.
const UNREACHABLE: u32 = u32::MAX;

/// A memoized node's route: `pipes[start..start + len]` of the run
/// (`len == UNREACHABLE`: none), and the fold of its pipes.
#[derive(Debug, Clone, Copy)]
struct Memo {
    start: u32,
    len: u32,
    fold: u64,
}

/// The route of a node no route reaches.
const NONE: Memo = Memo {
    start: 0,
    len: UNREACHABLE,
    fold: 0,
};

/// A destination's route in a run: its tree parent's, then `last` (none
/// when the parent has none).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Route {
    parent: Memo,
    last: u32,
}

/// No route.
const UNROUTED: Route = Route {
    parent: NONE,
    last: NO_PRED,
};

/// The scratch runs walk in (see the module docs). Table generations
/// share one, so no rewire allocates it.
#[derive(Debug, Default)]
pub(crate) struct Resolver {
    /// Per position in the source's component: the run that memoized the
    /// node there (0: none) and its entry in `memos`.
    marks: Vec<(u32, u32)>,
    /// The current run's stamp.
    stamp: u32,
    /// The current run's memoized routes, the source's first.
    memos: Vec<Memo>,
    /// Nodes walked up to the nearest memoized ancestor, each with its
    /// predecessor pipe.
    chain: Vec<(u32, u32)>,
    /// The memoized routes back to back.
    pipes: Vec<PipeId>,
    /// Predecessor reads over every run.
    pub(crate) steps: u64,
    /// Times `marks` was sized.
    pub(crate) sizings: u64,
}

impl Resolver {
    /// Starts a run of routes from `src` in `matrix`, forgetting the last.
    pub(crate) fn run<'a>(&'a mut self, matrix: &'a RoutingMatrix, src: NodeId) -> Run<'a> {
        self.pipes.clear();
        self.memos.clear();
        let tree = matrix.tree_of(src);
        if let Some(tree) = tree {
            if self.marks.len() < tree.width() {
                self.marks.resize(tree.width(), (0, 0));
                self.sizings += 1;
            }
            self.stamp = self.stamp.checked_add(1).unwrap_or_else(|| {
                self.marks.fill((0, 0));
                1
            });
            self.mark(tree.root(), Memo { len: 0, ..NONE });
        }
        Run {
            resolver: self,
            matrix,
            tree,
        }
    }

    /// `node`'s route, if the run has memoized it.
    #[inline]
    fn memo(&self, node: usize) -> Option<Memo> {
        let (stamp, at) = self.marks[node];
        (stamp == self.stamp).then(|| self.memos[at as usize])
    }

    /// Memoizes `memo` as `node`'s route.
    fn mark(&mut self, node: usize, memo: Memo) {
        self.marks[node] = (self.stamp, self.memos.len() as u32);
        self.memos.push(memo);
    }

    /// The route of the node at position `node`, not yet memoized: walks
    /// up to the nearest memoized ancestor (the source is one), then lays
    /// out that ancestor's route and the pipes walked once, every node on
    /// the way down a prefix of it.
    #[cold]
    fn memoize(&mut self, node: usize, tree: &Tree<'_>) -> Memo {
        self.chain.clear();
        let mut cur = node;
        let top = loop {
            if let Some(memo) = self.memo(cur) {
                break memo;
            }
            let p = tree.pred(cur);
            self.steps += 1;
            if p == NO_PRED {
                self.mark(cur, NONE);
                break NONE;
            }
            self.chain.push((cur as u32, p));
            cur = tree.tails[p as usize] as usize;
        };
        if top.len == UNREACHABLE {
            for &(v, _) in &self.chain {
                self.marks[v as usize] = self.marks[cur];
            }
            return top;
        }
        let start = u32::try_from(self.pipes.len()).expect("a run's routes fit u32 offsets");
        let prefix = top.start as usize..(top.start + top.len) as usize;
        self.pipes.extend_from_within(prefix);
        let mut memo = Memo { start, ..top };
        for at in (0..self.chain.len()).rev() {
            let (v, p) = self.chain[at];
            self.pipes.push(PipeId(p));
            memo.len += 1;
            memo.fold = fold(memo.fold, p as u64);
            self.mark(v as usize, memo);
        }
        memo
    }
}

/// The routes from one source: [`Run::route`] resolves one, [`Run::pipes`]
/// reads it back while the run lasts.
pub(crate) struct Run<'a> {
    resolver: &'a mut Resolver,
    matrix: &'a RoutingMatrix,
    /// The source's tree (`None`: the source is no VN of the matrix).
    tree: Option<Tree<'a>>,
}

impl Run<'_> {
    /// The route to `dst`: none where it is not one of the matrix's VNs or
    /// is unreachable.
    pub(crate) fn route(&mut self, dst: NodeId) -> Route {
        let Some(tree) = self.tree else {
            return UNROUTED;
        };
        let Some(at) = tree.position(dst) else {
            return UNROUTED;
        };
        if self.matrix.vn_index(dst).is_none() {
            return UNROUTED;
        }
        self.resolver.steps += 1;
        match tree.pred(at) {
            NO_PRED => UNROUTED,
            last => {
                let node = tree.tails[last as usize] as usize;
                let memo = self.resolver.memo(node);
                let parent = memo.unwrap_or_else(|| self.resolver.memoize(node, &tree));
                Route { parent, last }
            }
        }
    }

    /// A route's pipes and the fold of them (`None`: no route).
    pub(crate) fn pipes(&self, route: Route) -> Option<(Pipes<'_>, u64)> {
        let Route { parent, last } = route;
        let head = || &self.resolver.pipes[parent.start as usize..][..parent.len as usize];
        let fold = fold(parent.fold, last as u64);
        (parent.len != UNREACHABLE).then(|| (Pipes(head(), Some(PipeId(last))), fold))
    }
}
