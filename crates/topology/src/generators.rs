//! Synthetic topology generators.
//!
//! The paper's evaluation uses several topology families:
//!
//! * a **star** with all VNs connected to a central point (Table 1),
//! * **direct multi-hop paths** between sender/receiver pairs (Figure 4),
//! * a **ring** of transit routers with VNs hanging off each (Figure 5),
//! * GT-ITM style **transit–stub** graphs for the replicated-web and ACDC
//!   case studies (Figures 10–12),
//! * plus a **dumbbell**, the classic shared-bottleneck scenario.
//!
//! Each generator produces a plain [`Topology`]; clients are marked
//! [`NodeKind::Client`] so that later phases know where VNs may be bound.

use rand::Rng;

use mn_util::rngs::derived_rng;
use mn_util::{DataRate, SimDuration};

use crate::graph::{LinkAttrs, NodeId, NodeKind, Topology};

/// Parameters for [`ring_topology`], defaulting to the paper's distillation
/// experiment: 20 routers interconnected at 20 Mb/s, 20 VNs per router on
/// individual 2 Mb/s links (419 pipes shared by 400 VNs in the undistilled
/// form — 420 undirected links, of which one closes the ring).
#[derive(Debug, Clone)]
pub struct RingParams {
    /// Number of routers on the ring.
    pub routers: usize,
    /// Number of client nodes attached to each router.
    pub clients_per_router: usize,
    /// Bandwidth of ring (transit) links.
    pub ring_bandwidth: DataRate,
    /// Latency of ring links.
    pub ring_latency: SimDuration,
    /// Bandwidth of client access links.
    pub client_bandwidth: DataRate,
    /// Latency of client access links.
    pub client_latency: SimDuration,
}

impl Default for RingParams {
    fn default() -> Self {
        RingParams {
            routers: 20,
            clients_per_router: 20,
            ring_bandwidth: DataRate::from_mbps(20),
            ring_latency: SimDuration::from_millis(5),
            client_bandwidth: DataRate::from_mbps(2),
            client_latency: SimDuration::from_millis(1),
        }
    }
}

/// Generates a ring of routers with clients attached to each router.
pub fn ring_topology(params: &RingParams) -> Topology {
    let mut topo = Topology::new();
    let ring_attrs = LinkAttrs::new(params.ring_bandwidth, params.ring_latency);
    let client_attrs = LinkAttrs::new(params.client_bandwidth, params.client_latency);

    let routers: Vec<NodeId> = (0..params.routers)
        .map(|i| topo.add_named_node(NodeKind::Transit, format!("ring-{i}")))
        .collect();
    for i in 0..params.routers {
        let next = (i + 1) % params.routers;
        if params.routers > 1 && !(params.routers == 2 && i == 1) {
            topo.add_link(routers[i], routers[next], ring_attrs)
                .expect("ring link endpoints exist");
        }
    }
    for (i, &router) in routers.iter().enumerate() {
        for j in 0..params.clients_per_router {
            let client = topo.add_named_node(NodeKind::Client, format!("vn-{i}-{j}"));
            topo.add_link(client, router, client_attrs)
                .expect("client link endpoints exist");
        }
    }
    topo
}

/// Parameters for [`star_topology`], defaulting to the Table 1 experiment:
/// every VN connected to a central point by a 10 Mb/s, 5 ms pipe so that all
/// paths consist of exactly two hops.
#[derive(Debug, Clone)]
pub struct StarParams {
    /// Number of client nodes.
    pub clients: usize,
    /// Bandwidth of each spoke link.
    pub spoke_bandwidth: DataRate,
    /// Latency of each spoke link.
    pub spoke_latency: SimDuration,
}

impl Default for StarParams {
    fn default() -> Self {
        StarParams {
            clients: 1120,
            spoke_bandwidth: DataRate::from_mbps(10),
            spoke_latency: SimDuration::from_millis(5),
        }
    }
}

/// Generates a star: one central router, `clients` clients each connected by
/// an individual spoke link.
pub fn star_topology(params: &StarParams) -> Topology {
    let mut topo = Topology::new();
    let center = topo.add_named_node(NodeKind::Transit, "hub");
    let attrs = LinkAttrs::new(params.spoke_bandwidth, params.spoke_latency);
    for i in 0..params.clients {
        let c = topo.add_named_node(NodeKind::Client, format!("vn-{i}"));
        topo.add_link(c, center, attrs)
            .expect("spoke endpoints exist");
    }
    topo
}

/// Parameters for [`path_pairs_topology`], defaulting to the Figure 4 capacity
/// experiment: sender/receiver pairs connected by a configurable number of
/// 10 Mb/s pipes with 10 ms end-to-end latency.
#[derive(Debug, Clone)]
pub struct PathPairsParams {
    /// Number of sender/receiver pairs.
    pub pairs: usize,
    /// Number of pipes (hops) on each sender→receiver path.
    pub hops: usize,
    /// Per-pipe bandwidth.
    pub bandwidth: DataRate,
    /// End-to-end latency of the whole path (split evenly across hops).
    pub end_to_end_latency: SimDuration,
}

impl Default for PathPairsParams {
    fn default() -> Self {
        PathPairsParams {
            pairs: 24,
            hops: 1,
            bandwidth: DataRate::from_mbps(10),
            end_to_end_latency: SimDuration::from_millis(10),
        }
    }
}

/// Generates disjoint linear paths, one per sender/receiver pair.
///
/// Each path has `hops` links; interior nodes are stubs. Returns the topology
/// together with the list of `(sender, receiver)` client pairs.
pub fn path_pairs_topology(params: &PathPairsParams) -> (Topology, Vec<(NodeId, NodeId)>) {
    assert!(params.hops >= 1, "a path needs at least one hop");
    let mut topo = Topology::new();
    let mut pairs = Vec::with_capacity(params.pairs);
    let per_hop_latency =
        SimDuration::from_nanos(params.end_to_end_latency.as_nanos() / params.hops as u64);
    let attrs = LinkAttrs::new(params.bandwidth, per_hop_latency);
    for p in 0..params.pairs {
        let sender = topo.add_named_node(NodeKind::Client, format!("send-{p}"));
        let mut prev = sender;
        for h in 0..params.hops - 1 {
            let mid = topo.add_named_node(NodeKind::Stub, format!("mid-{p}-{h}"));
            topo.add_link(prev, mid, attrs)
                .expect("path endpoints exist");
            prev = mid;
        }
        let receiver = topo.add_named_node(NodeKind::Client, format!("recv-{p}"));
        topo.add_link(prev, receiver, attrs)
            .expect("path endpoints exist");
        pairs.push((sender, receiver));
    }
    (topo, pairs)
}

/// Parameters for [`dumbbell_topology`]: `n` clients on each side of a single
/// shared bottleneck link.
#[derive(Debug, Clone)]
pub struct DumbbellParams {
    /// Clients on each side.
    pub clients_per_side: usize,
    /// Bandwidth of client access links.
    pub access_bandwidth: DataRate,
    /// Latency of client access links.
    pub access_latency: SimDuration,
    /// Bandwidth of the shared bottleneck link.
    pub bottleneck_bandwidth: DataRate,
    /// Latency of the shared bottleneck link.
    pub bottleneck_latency: SimDuration,
    /// Queue length of the bottleneck link in packets.
    pub bottleneck_queue: usize,
}

impl Default for DumbbellParams {
    fn default() -> Self {
        DumbbellParams {
            clients_per_side: 8,
            access_bandwidth: DataRate::from_mbps(100),
            access_latency: SimDuration::from_millis(1),
            bottleneck_bandwidth: DataRate::from_mbps(10),
            bottleneck_latency: SimDuration::from_millis(20),
            bottleneck_queue: 50,
        }
    }
}

/// Generates the classic dumbbell: two routers joined by a bottleneck with
/// clients fanned out on each side. Returns the topology and the
/// `(left_clients, right_clients)` lists.
pub fn dumbbell_topology(params: &DumbbellParams) -> (Topology, Vec<NodeId>, Vec<NodeId>) {
    let mut topo = Topology::new();
    let left_router = topo.add_named_node(NodeKind::Stub, "left-router");
    let right_router = topo.add_named_node(NodeKind::Stub, "right-router");
    let bottleneck = LinkAttrs::new(params.bottleneck_bandwidth, params.bottleneck_latency)
        .with_queue_len(params.bottleneck_queue);
    topo.add_link(left_router, right_router, bottleneck)
        .expect("router endpoints exist");
    let access = LinkAttrs::new(params.access_bandwidth, params.access_latency);
    let mut left = Vec::new();
    let mut right = Vec::new();
    for i in 0..params.clients_per_side {
        let l = topo.add_named_node(NodeKind::Client, format!("left-{i}"));
        topo.add_link(l, left_router, access)
            .expect("access endpoints exist");
        left.push(l);
        let r = topo.add_named_node(NodeKind::Client, format!("right-{i}"));
        topo.add_link(r, right_router, access)
            .expect("access endpoints exist");
        right.push(r);
    }
    (topo, left, right)
}

/// Per-class link attributes for a transit–stub topology. The defaults follow
/// the ACDC experiment in the paper: 155 Mb/s transit–transit, 45 Mb/s
/// transit–stub and 100 Mb/s stub–stub links.
#[derive(Debug, Clone)]
pub struct TransitStubLinkClasses {
    /// Transit–transit (backbone) links.
    pub transit_transit: LinkAttrs,
    /// Transit–stub (peering) links.
    pub transit_stub: LinkAttrs,
    /// Stub–stub (intra-domain) links.
    pub stub_stub: LinkAttrs,
    /// Client access links.
    pub client: LinkAttrs,
}

impl Default for TransitStubLinkClasses {
    fn default() -> Self {
        TransitStubLinkClasses {
            transit_transit: LinkAttrs::new(DataRate::from_mbps(155), SimDuration::from_millis(20)),
            transit_stub: LinkAttrs::new(DataRate::from_mbps(45), SimDuration::from_millis(10)),
            stub_stub: LinkAttrs::new(DataRate::from_mbps(100), SimDuration::from_millis(5)),
            client: LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1)),
        }
    }
}

/// Parameters for [`transit_stub_topology`], a GT-ITM-style hierarchical
/// generator: a ring-plus-chords backbone of transit domains, each transit
/// node sponsoring several stub domains, each stub domain containing a few
/// routers with clients attached.
#[derive(Debug, Clone)]
pub struct TransitStubParams {
    /// Number of transit domains.
    pub transit_domains: usize,
    /// Routers per transit domain.
    pub transit_nodes_per_domain: usize,
    /// Stub domains attached to each transit router.
    pub stubs_per_transit_node: usize,
    /// Routers per stub domain.
    pub stub_nodes_per_domain: usize,
    /// Clients attached to each stub router.
    pub clients_per_stub_node: usize,
    /// Link attribute classes.
    pub link_classes: TransitStubLinkClasses,
    /// Extra random intra-domain chords probability.
    pub extra_edge_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for TransitStubParams {
    fn default() -> Self {
        TransitStubParams {
            transit_domains: 2,
            transit_nodes_per_domain: 4,
            stubs_per_transit_node: 3,
            stub_nodes_per_domain: 4,
            clients_per_stub_node: 2,
            link_classes: TransitStubLinkClasses::default(),
            extra_edge_prob: 0.2,
            seed: 7,
        }
    }
}

impl TransitStubParams {
    /// Chooses parameters so the total node count is close to `target`
    /// (within the granularity of whole stub domains), holding the default
    /// shape ratios. Used to build the paper's "320-node" and "600-node"
    /// transit–stub graphs.
    pub fn sized_for(target: usize, seed: u64) -> Self {
        let mut params = TransitStubParams {
            seed,
            ..TransitStubParams::default()
        };
        // Each transit node sponsors stubs_per_transit_node domains of
        // stub_nodes_per_domain routers with clients_per_stub_node clients:
        // weight per transit node = 1 + s*(r*(1+c)).
        let per_transit = 1 + params.stubs_per_transit_node
            * params.stub_nodes_per_domain
            * (1 + params.clients_per_stub_node);
        let needed_transit = (target / per_transit).max(2);
        params.transit_domains = (needed_transit / params.transit_nodes_per_domain).max(1);
        params.transit_nodes_per_domain = (needed_transit / params.transit_domains).clamp(2, 16);
        params
    }
}

/// The generated transit–stub topology along with the node classification
/// lists that case studies need (e.g. to pick client stub domains).
#[derive(Debug, Clone)]
pub struct TransitStubTopology {
    /// The graph itself.
    pub topology: Topology,
    /// All transit routers.
    pub transit_nodes: Vec<NodeId>,
    /// All stub routers, grouped by stub domain.
    pub stub_domains: Vec<Vec<NodeId>>,
    /// All client nodes, grouped by the stub domain they attach to.
    pub clients_by_domain: Vec<Vec<NodeId>>,
}

/// Generates a GT-ITM-style transit–stub topology.
pub fn transit_stub_topology(params: &TransitStubParams) -> TransitStubTopology {
    let mut rng = derived_rng(params.seed, 0x7575);
    let mut topo = Topology::new();
    let classes = &params.link_classes;

    // Transit domains: each a ring of routers with chords; domains joined in
    // a ring of inter-domain links.
    let mut transit_nodes = Vec::new();
    let mut domain_first = Vec::new();
    for d in 0..params.transit_domains {
        let nodes: Vec<NodeId> = (0..params.transit_nodes_per_domain)
            .map(|i| topo.add_named_node(NodeKind::Transit, format!("t{d}-{i}")))
            .collect();
        for i in 0..nodes.len() {
            let next = (i + 1) % nodes.len();
            if nodes.len() > 1 && !(nodes.len() == 2 && i == 1) {
                topo.add_link(nodes[i], nodes[next], classes.transit_transit)
                    .expect("transit ring endpoints exist");
            }
        }
        // Random chords inside the domain.
        for i in 0..nodes.len() {
            for j in (i + 2)..nodes.len() {
                if rng.gen::<f64>() < params.extra_edge_prob {
                    topo.add_link(nodes[i], nodes[j], classes.transit_transit)
                        .expect("transit chord endpoints exist");
                }
            }
        }
        domain_first.push(nodes[0]);
        transit_nodes.extend(nodes);
    }
    for d in 0..params.transit_domains {
        let next = (d + 1) % params.transit_domains;
        if params.transit_domains > 1 && !(params.transit_domains == 2 && d == 1) {
            topo.add_link(domain_first[d], domain_first[next], classes.transit_transit)
                .expect("inter-domain endpoints exist");
        }
    }

    // Stub domains: a small connected cluster per (transit node, slot).
    let mut stub_domains = Vec::new();
    let mut clients_by_domain = Vec::new();
    for (ti, &tnode) in transit_nodes.iter().enumerate() {
        for s in 0..params.stubs_per_transit_node {
            let routers: Vec<NodeId> = (0..params.stub_nodes_per_domain)
                .map(|i| topo.add_named_node(NodeKind::Stub, format!("s{ti}-{s}-{i}")))
                .collect();
            // Chain plus random chords keeps each stub domain connected.
            for w in routers.windows(2) {
                topo.add_link(w[0], w[1], classes.stub_stub)
                    .expect("stub chain endpoints exist");
            }
            for i in 0..routers.len() {
                for j in (i + 2)..routers.len() {
                    if rng.gen::<f64>() < params.extra_edge_prob {
                        topo.add_link(routers[i], routers[j], classes.stub_stub)
                            .expect("stub chord endpoints exist");
                    }
                }
            }
            // Peering link from the stub domain to its transit router.
            topo.add_link(routers[0], tnode, classes.transit_stub)
                .expect("peering endpoints exist");
            // Clients.
            let mut clients = Vec::new();
            for (ri, &router) in routers.iter().enumerate() {
                for c in 0..params.clients_per_stub_node {
                    let client =
                        topo.add_named_node(NodeKind::Client, format!("c{ti}-{s}-{ri}-{c}"));
                    topo.add_link(client, router, classes.client)
                        .expect("client endpoints exist");
                    clients.push(client);
                }
            }
            stub_domains.push(routers);
            clients_by_domain.push(clients);
        }
    }

    TransitStubTopology {
        topology: topo,
        transit_nodes,
        stub_domains,
        clients_by_domain,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_matches_paper_dimensions() {
        let topo = ring_topology(&RingParams::default());
        // 20 routers + 400 clients.
        assert_eq!(topo.node_count(), 420);
        assert_eq!(topo.client_count(), 400);
        // 20 ring links + 400 access links = 420 undirected links
        // (the paper counts 419 pipes because its pipe count collapses the
        // ring-closing link differently; the graph itself is a 20-cycle).
        assert_eq!(topo.link_count(), 420);
        assert!(topo.is_connected());
    }

    #[test]
    fn ring_with_two_routers_has_no_duplicate_link() {
        let params = RingParams {
            routers: 2,
            clients_per_router: 1,
            ..RingParams::default()
        };
        let topo = ring_topology(&params);
        assert_eq!(topo.node_count(), 4);
        assert_eq!(topo.link_count(), 3);
        assert!(topo.is_connected());
    }

    #[test]
    fn star_matches_table1_dimensions() {
        let topo = star_topology(&StarParams::default());
        assert_eq!(topo.node_count(), 1121);
        assert_eq!(topo.client_count(), 1120);
        assert_eq!(topo.link_count(), 1120);
        // Every client-to-client path is exactly two hops.
        let clients: Vec<NodeId> = topo.client_nodes().take(2).collect();
        let dists = topo.bfs_distances(clients[0]);
        assert_eq!(dists[clients[1].index()], Some(2));
    }

    #[test]
    fn path_pairs_hop_count_and_latency_split() {
        let params = PathPairsParams {
            pairs: 3,
            hops: 4,
            ..PathPairsParams::default()
        };
        let (topo, pairs) = path_pairs_topology(&params);
        assert_eq!(pairs.len(), 3);
        // Each path: sender + 3 interior + receiver = 5 nodes, 4 links.
        assert_eq!(topo.node_count(), 15);
        assert_eq!(topo.link_count(), 12);
        let (s, r) = pairs[0];
        let dists = topo.bfs_distances(s);
        assert_eq!(dists[r.index()], Some(4));
        // Latency split evenly: 10 ms / 4 hops = 2.5 ms.
        let (_, link) = topo.links().next().unwrap();
        assert_eq!(link.attrs.latency, SimDuration::from_micros(2500));
    }

    #[test]
    fn single_hop_path_is_direct() {
        let (topo, pairs) = path_pairs_topology(&PathPairsParams {
            pairs: 1,
            hops: 1,
            ..PathPairsParams::default()
        });
        assert_eq!(topo.node_count(), 2);
        assert_eq!(topo.link_count(), 1);
        let (s, r) = pairs[0];
        assert_eq!(topo.bfs_distances(s)[r.index()], Some(1));
    }

    #[test]
    fn dumbbell_structure() {
        let (topo, left, right) = dumbbell_topology(&DumbbellParams::default());
        assert_eq!(left.len(), 8);
        assert_eq!(right.len(), 8);
        assert_eq!(topo.node_count(), 18);
        assert_eq!(topo.link_count(), 17);
        // Left-to-right paths are 3 hops (access, bottleneck, access).
        let dists = topo.bfs_distances(left[0]);
        assert_eq!(dists[right[0].index()], Some(3));
    }

    #[test]
    fn transit_stub_structure() {
        let params = TransitStubParams::default();
        let ts = transit_stub_topology(&params);
        assert!(ts.topology.is_connected());
        assert_eq!(ts.transit_nodes.len(), 8);
        assert_eq!(ts.stub_domains.len(), 8 * 3);
        assert_eq!(ts.clients_by_domain.len(), 24);
        let total_clients: usize = ts.clients_by_domain.iter().map(Vec::len).sum();
        assert_eq!(total_clients, ts.topology.client_count());
        // 8 transit nodes, 24 stub domains of 4 routers, 2 clients a router.
        assert_eq!(ts.topology.node_count(), 8 + 96 + 192);
    }

    #[test]
    fn transit_stub_link_classes_applied() {
        let ts = transit_stub_topology(&TransitStubParams::default());
        let classes = TransitStubLinkClasses::default();
        let mut saw_tt = false;
        let mut saw_client = false;
        for (_, link) in ts.topology.links() {
            let ka = ts.topology.node(link.a).unwrap().kind;
            let kb = ts.topology.node(link.b).unwrap().kind;
            if ka == NodeKind::Transit && kb == NodeKind::Transit {
                assert_eq!(link.attrs.bandwidth, classes.transit_transit.bandwidth);
                saw_tt = true;
            }
            if ka == NodeKind::Client || kb == NodeKind::Client {
                assert_eq!(link.attrs.bandwidth, classes.client.bandwidth);
                saw_client = true;
            }
        }
        assert!(saw_tt && saw_client);
    }

    #[test]
    fn transit_stub_sized_for_reaches_target_scale() {
        let ts = transit_stub_topology(&TransitStubParams::sized_for(320, 3));
        let n = ts.topology.node_count();
        assert!(
            (200..=480).contains(&n),
            "sized_for(320) produced {n} nodes"
        );
        assert!(ts.topology.is_connected());

        let ts = transit_stub_topology(&TransitStubParams::sized_for(600, 3));
        let n = ts.topology.node_count();
        assert!(
            (400..=800).contains(&n),
            "sized_for(600) produced {n} nodes"
        );
    }

    #[test]
    fn transit_stub_deterministic_for_seed() {
        let a = transit_stub_topology(&TransitStubParams::default());
        let b = transit_stub_topology(&TransitStubParams::default());
        assert_eq!(a.topology.link_count(), b.topology.link_count());
        let c = transit_stub_topology(&TransitStubParams {
            seed: 99,
            ..TransitStubParams::default()
        });
        // Different seed shifts the random chords (node counts stay fixed).
        assert_eq!(a.topology.node_count(), c.topology.node_count());
    }
}
