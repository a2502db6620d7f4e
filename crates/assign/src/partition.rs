//! Greedy k-clusters pipe-to-core partitioning and the pipe ownership
//! directory (POD).

use std::collections::BTreeSet;
use std::fmt;

use rand::seq::SliceRandom;
use rand::Rng;

use mn_distill::{DistilledTopology, PipeId};
use mn_routing::Route;
use mn_topology::NodeId;
use mn_util::rngs::derived_rng;

mn_util::codec_record! {
    /// Identifier of a core (emulation) node.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct CoreId(pub usize);
}

impl CoreId {
    /// Returns the raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// The pipe ownership directory: which core emulates each pipe.
///
/// Created during the Binding phase and consulted by multi-core emulation to
/// decide when a packet descriptor must be tunnelled to another core.
#[derive(Debug, Clone)]
pub struct PipeOwnershipDirectory {
    owner: Vec<CoreId>,
    cores: usize,
}

impl PipeOwnershipDirectory {
    /// Creates a directory assigning every pipe to `CoreId(0)` (single-core
    /// operation).
    pub fn single_core(pipe_count: usize) -> Self {
        PipeOwnershipDirectory {
            owner: vec![CoreId(0); pipe_count],
            cores: 1,
        }
    }

    /// Creates a directory from an explicit owner vector.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or any owner index is out of range.
    pub fn from_owners(owner: Vec<CoreId>, cores: usize) -> Self {
        assert!(cores > 0, "need at least one core");
        assert!(
            owner.iter().all(|c| c.index() < cores),
            "pipe owner out of range"
        );
        PipeOwnershipDirectory { owner, cores }
    }

    /// Number of cores participating in the emulation.
    pub fn core_count(&self) -> usize {
        self.cores
    }

    /// Number of pipes covered.
    pub fn pipe_count(&self) -> usize {
        self.owner.len()
    }

    /// The core that owns `pipe`.
    ///
    /// # Panics
    ///
    /// Panics if the pipe is not covered by the directory.
    pub fn owner(&self, pipe: PipeId) -> CoreId {
        self.owner[pipe.index()]
    }

    /// The core that owns `pipe`, or `None` if out of range.
    pub fn get_owner(&self, pipe: PipeId) -> Option<CoreId> {
        self.owner.get(pipe.index()).copied()
    }

    /// Number of core-to-core transitions a packet following `route` incurs:
    /// each time two consecutive pipes are owned by different cores the
    /// descriptor must be tunnelled. A route entirely on one core crosses
    /// zero times.
    pub fn crossings(&self, route: &Route) -> usize {
        route
            .pipes
            .windows(2)
            .filter(|w| self.owner(w[0]) != self.owner(w[1]))
            .count()
    }
}

/// Greedy k-clusters assignment of pipes to `cores` core nodes (the paper's
/// heuristic): pick `cores` random seed nodes of the distilled topology and
/// grow each core's connected region in round-robin fashion, claiming the
/// pipes incident to the region as it grows. Pipes left unreached (disjoint
/// components) are dealt out round-robin at the end.
pub fn greedy_k_clusters(
    topo: &DistilledTopology,
    cores: usize,
    seed: u64,
) -> PipeOwnershipDirectory {
    assert!(cores > 0, "need at least one core");
    let pipe_count = topo.pipe_count();
    if cores == 1 || pipe_count == 0 {
        return PipeOwnershipDirectory::single_core(pipe_count);
    }
    let mut rng = derived_rng(seed, 0xA551);

    // Candidate seed nodes: prefer nodes that actually have pipes.
    let mut nodes_with_pipes: Vec<NodeId> = (0..topo.node_count())
        .map(NodeId)
        .filter(|&n| !topo.out_pipes(n).is_empty())
        .collect();
    nodes_with_pipes.shuffle(&mut rng);

    let mut owner: Vec<Option<CoreId>> = vec![None; pipe_count];
    // Each core's frontier: the set of nodes it has reached.
    let mut regions: Vec<BTreeSet<NodeId>> = Vec::with_capacity(cores);
    for i in 0..cores {
        let seed_node = nodes_with_pipes
            .get(i)
            .copied()
            .unwrap_or_else(|| nodes_with_pipes[rng.gen_range(0..nodes_with_pipes.len().max(1))]);
        let mut set = BTreeSet::new();
        set.insert(seed_node);
        regions.push(set);
    }

    let mut assigned = 0usize;
    let mut stalled_rounds = 0usize;
    while assigned < pipe_count && stalled_rounds < 2 {
        let mut progressed = false;
        #[allow(clippy::needless_range_loop)]
        for core in 0..cores {
            // Claim the first unassigned pipe leaving the core's region.
            let mut claim: Option<PipeId> = None;
            'search: for &node in &regions[core] {
                for &p in topo.out_pipes(node) {
                    if owner[p.index()].is_none() {
                        claim = Some(p);
                        break 'search;
                    }
                }
            }
            if let Some(p) = claim {
                owner[p.index()] = Some(CoreId(core));
                assigned += 1;
                progressed = true;
                let pipe = topo.pipe(p);
                regions[core].insert(pipe.dst);
                regions[core].insert(pipe.src);
                // Claim the reverse pipe too so a bidirectional link lives on
                // one core (halves tunnelling for request/response flows).
                if let Some(rev) = topo.find_pipe(pipe.dst, pipe.src) {
                    if owner[rev.index()].is_none() {
                        owner[rev.index()] = Some(CoreId(core));
                        assigned += 1;
                    }
                }
            }
        }
        if !progressed {
            // All regions exhausted: re-seed each core at a node incident to
            // an unassigned pipe (handles disconnected pipe graphs).
            let mut reseeded = false;
            for (i, region) in regions.iter_mut().enumerate() {
                if let Some((pid, _)) = owner
                    .iter()
                    .enumerate()
                    .find(|(_, o)| o.is_none())
                    .map(|(i, _)| (PipeId::from_index(i), ()))
                {
                    region.insert(topo.pipe(pid).src);
                    reseeded = true;
                    let _ = i;
                }
            }
            if reseeded {
                stalled_rounds += 1;
            } else {
                break;
            }
        } else {
            stalled_rounds = 0;
        }
    }

    // Anything still unassigned is dealt round-robin.
    let mut next = 0usize;
    let owner: Vec<CoreId> = owner
        .into_iter()
        .map(|o| {
            o.unwrap_or_else(|| {
                let c = CoreId(next % cores);
                next += 1;
                c
            })
        })
        .collect();

    PipeOwnershipDirectory::from_owners(owner, cores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_distill::{distill, DistillationMode};
    use mn_routing::{route_between, RoutingMatrix};
    use mn_topology::generators::{ring_topology, star_topology, RingParams, StarParams};

    fn pipes_per_core(pod: &PipeOwnershipDirectory) -> Vec<usize> {
        let mut load = vec![0; pod.core_count()];
        for p in 0..pod.pipe_count() {
            load[pod.owner(PipeId::from_index(p)).index()] += 1;
        }
        load
    }

    fn ring_graph() -> DistilledTopology {
        let topo = ring_topology(&RingParams {
            routers: 8,
            clients_per_router: 4,
            ..RingParams::default()
        });
        distill(&topo, DistillationMode::HopByHop)
    }

    #[test]
    fn single_core_owns_everything() {
        let d = ring_graph();
        let pod = greedy_k_clusters(&d, 1, 1);
        assert_eq!(pod.core_count(), 1);
        assert_eq!(pod.pipe_count(), d.pipe_count());
        assert!(pipes_per_core(&pod)[0] == d.pipe_count());
        let r = route_between(&d, d.vns()[0], d.vns()[5]).unwrap();
        assert_eq!(pod.crossings(&r), 0);
    }

    #[test]
    fn every_pipe_gets_an_owner() {
        let d = ring_graph();
        for cores in [2, 3, 4, 7] {
            let pod = greedy_k_clusters(&d, cores, 42);
            assert_eq!(pod.pipe_count(), d.pipe_count());
            assert_eq!(pod.core_count(), cores);
            let load = pipes_per_core(&pod);
            assert_eq!(load.iter().sum::<usize>(), d.pipe_count());
        }
    }

    #[test]
    fn load_is_roughly_balanced() {
        let d = ring_graph();
        let pod = greedy_k_clusters(&d, 4, 7);
        let load = pipes_per_core(&pod);
        let max = *load.iter().max().unwrap();
        let min = *load.iter().min().unwrap();
        // The greedy heuristic does not guarantee tight balance (regions that
        // collide early stop growing), but every core must carry real load and
        // no core may own the overwhelming majority of pipes.
        assert!(min > 0, "a core was left with no pipes");
        assert!(
            max <= d.pipe_count() / 2,
            "one core owns more than half the pipes: min {min}, max {max}"
        );
    }

    #[test]
    fn reverse_pipes_stay_on_the_same_core() {
        let d = ring_graph();
        let pod = greedy_k_clusters(&d, 4, 3);
        let mut colocated = 0;
        let mut total = 0;
        for (id, pipe) in d.pipes() {
            if let Some(rev) = d.find_pipe(pipe.dst, pipe.src) {
                total += 1;
                if pod.owner(id) == pod.owner(rev) {
                    colocated += 1;
                }
            }
        }
        assert!(
            colocated * 10 >= total * 9,
            "{colocated}/{total} duplex pairs colocated"
        );
    }

    #[test]
    fn crossings_counted_along_routes() {
        let d = ring_graph();
        let pod = greedy_k_clusters(&d, 4, 11);
        let matrix = RoutingMatrix::build(&d);
        let vns = matrix.vns().to_vec();
        let mut any_crossing = false;
        for &a in &vns {
            for &b in &vns {
                if a == b {
                    continue;
                }
                let r = matrix.lookup(a, b).unwrap();
                let c = pod.crossings(&r);
                assert!(c < r.hop_count().max(1));
                if c > 0 {
                    any_crossing = true;
                }
            }
        }
        assert!(
            any_crossing,
            "a 4-way partition of a ring must split some route"
        );
    }

    #[test]
    fn star_partition_keeps_spoke_pairs_together() {
        let topo = star_topology(&StarParams {
            clients: 64,
            ..StarParams::default()
        });
        let d = distill(&topo, DistillationMode::HopByHop);
        let pod = greedy_k_clusters(&d, 4, 5);
        // With a star, a flow crosses cores only when source and destination
        // spokes land on different cores; each route has 2 pipes so at most
        // one crossing.
        let matrix = RoutingMatrix::build(&d);
        let vns = matrix.vns().to_vec();
        for &a in vns.iter().take(8) {
            for &b in vns.iter().take(8) {
                if a == b {
                    continue;
                }
                assert!(pod.crossings(&matrix.lookup(a, b).unwrap()) <= 1);
            }
        }
    }

    #[test]
    fn deterministic_for_seed() {
        let d = ring_graph();
        let a = greedy_k_clusters(&d, 4, 99);
        let b = greedy_k_clusters(&d, 4, 99);
        for id in d.pipe_ids() {
            assert_eq!(a.owner(id), b.owner(id));
        }
    }

    #[test]
    fn from_owners_validates() {
        let pod = PipeOwnershipDirectory::from_owners(vec![CoreId(0), CoreId(1)], 2);
        assert_eq!(pod.owner(PipeId(1)), CoreId(1));
        assert_eq!(pod.get_owner(PipeId(5)), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_owners_rejects_bad_core() {
        let _ = PipeOwnershipDirectory::from_owners(vec![CoreId(3)], 2);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let d = ring_graph();
        let _ = greedy_k_clusters(&d, 0, 1);
    }
}
