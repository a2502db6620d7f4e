//! An independent flow-level reference simulator.
//!
//! The paper validates ModelNet against ns-2: the ring-distillation
//! experiment (Figure 5) and the ACDC case study (Figure 12) plot ns-2 runs
//! next to the emulation. ns-2 is not available in this reproduction, so this
//! crate plays its role: a deliberately *different* abstraction level —
//! steady-state flow rates from progressive-filling max-min fair share plus
//! propagation-delay queries over the target graph — implemented with no code
//! shared with the emulation path. Agreement between the two therefore
//! carries the same kind of evidence the paper's ns-2 comparison does.
//!
//! The model intentionally ignores TCP dynamics (slow start, RTT bias,
//! timeouts); for long-lived flows over moderate drop rates, max-min fair
//! share is the standard first-order prediction of what TCP converges to.

use mn_topology::paths::{shortest_path, PathMetric};
use mn_topology::{LinkId, NodeId, Topology};
use mn_util::{DataRate, SimDuration, SimTime};

/// One long-lived flow between two nodes of the target topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// The computed allocation for one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAllocation {
    /// The flow this allocation is for.
    pub flow: FlowSpec,
    /// Steady-state max-min fair rate.
    pub rate: DataRate,
    /// One-way propagation delay along the flow's route.
    pub latency: SimDuration,
    /// Number of links on the route.
    pub hops: usize,
}

/// Computes max-min fair-share allocations for a set of flows routed along
/// latency-shortest paths, by progressive filling.
///
/// Unroutable flows (disconnected endpoints) receive a zero rate and zero
/// latency.
pub fn max_min_fair_share(topo: &Topology, flows: &[FlowSpec]) -> Vec<FlowAllocation> {
    // Route every flow.
    let routes: Vec<Option<Vec<LinkId>>> = flows
        .iter()
        .map(|f| shortest_path(topo, f.src, f.dst, PathMetric::Latency).map(|p| p.links))
        .collect();

    let link_count = topo.link_count();
    let mut capacity: Vec<f64> = (0..link_count)
        .map(|l| {
            topo.link(LinkId(l))
                .expect("link exists")
                .attrs
                .bandwidth
                .as_bps() as f64
        })
        .collect();
    // Which unfrozen flows cross each link.
    let mut crossing: Vec<Vec<usize>> = vec![Vec::new(); link_count];
    for (fi, route) in routes.iter().enumerate() {
        if let Some(links) = route {
            for l in links {
                crossing[l.index()].push(fi);
            }
        }
    }

    let mut rate = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    // Flows with no route (or a zero-hop route) are frozen at zero/infinity.
    for (fi, route) in routes.iter().enumerate() {
        match route {
            None => frozen[fi] = true,
            Some(links) if links.is_empty() => {
                frozen[fi] = true;
                rate[fi] = f64::MAX;
            }
            _ => {}
        }
    }

    loop {
        // Find the bottleneck link: the smallest fair share among links that
        // still carry unfrozen flows.
        let mut best: Option<(f64, usize)> = None;
        for (li, flows_here) in crossing.iter().enumerate() {
            let active = flows_here.iter().filter(|&&f| !frozen[f]).count();
            if active == 0 {
                continue;
            }
            let share = capacity[li] / active as f64;
            if best.is_none_or(|(s, _)| share < s) {
                best = Some((share, li));
            }
        }
        let Some((share, bottleneck)) = best else {
            break;
        };
        // Freeze every unfrozen flow crossing the bottleneck at that share
        // and subtract their usage everywhere.
        let to_freeze: Vec<usize> = crossing[bottleneck]
            .iter()
            .copied()
            .filter(|&f| !frozen[f])
            .collect();
        for fi in to_freeze {
            frozen[fi] = true;
            rate[fi] = share;
            if let Some(links) = &routes[fi] {
                for l in links {
                    capacity[l.index()] = (capacity[l.index()] - share).max(0.0);
                }
            }
        }
    }

    flows
        .iter()
        .enumerate()
        .map(|(fi, &flow)| {
            let (latency, hops) = match &routes[fi] {
                Some(links) => {
                    let lat: SimDuration = links
                        .iter()
                        .map(|&l| topo.link(l).expect("link exists").attrs.latency)
                        .sum();
                    (lat, links.len())
                }
                None => (SimDuration::ZERO, 0),
            };
            FlowAllocation {
                flow,
                rate: if rate[fi] == f64::MAX {
                    DataRate::from_gbps(1_000)
                } else {
                    DataRate::from_bps(rate[fi] as u64)
                },
                latency,
                hops,
            }
        })
        .collect()
}

/// One fluid (flow-level) demand between two nodes: an aggregate offered
/// rate standing in for `weight` modelled clients. The reference oracle for
/// the emulation's hybrid fluid/packet fast path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidSpec {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Aggregate offered rate (the demand bound).
    pub demand: DataRate,
    /// Max-min weight: how many clients the aggregate stands in for.
    pub weight: u32,
}

/// Computes the **weighted, demand-bounded** max-min fair share for a set of
/// fluid demands routed along latency-shortest paths, by progressive
/// filling in floating point — deliberately a different arithmetic (and a
/// different implementation) from the emulation's integer water-fill, so
/// agreement between the two carries evidence.
///
/// The fill level rises uniformly; each flow's rate grows at `weight ×`
/// the level until its demand is met or a link it crosses saturates.
/// Unroutable flows get zero; zero-hop (same-node) flows get their demand.
pub fn fluid_max_min(topo: &Topology, flows: &[FluidSpec]) -> Vec<FlowAllocation> {
    let routes: Vec<Option<Vec<LinkId>>> = flows
        .iter()
        .map(|f| shortest_path(topo, f.src, f.dst, PathMetric::Latency).map(|p| p.links))
        .collect();

    let link_count = topo.link_count();
    let mut remaining: Vec<f64> = (0..link_count)
        .map(|l| {
            topo.link(LinkId(l))
                .expect("link exists")
                .attrs
                .bandwidth
                .as_bps() as f64
        })
        .collect();

    let mut rate = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    for (fi, route) in routes.iter().enumerate() {
        match route {
            None => frozen[fi] = true,
            Some(links) if links.is_empty() => {
                frozen[fi] = true;
                rate[fi] = flows[fi].demand.as_bps() as f64;
            }
            _ => {}
        }
    }

    loop {
        // Per-link weight sums over the unfrozen flows crossing them.
        let mut wsum = vec![0.0f64; link_count];
        let mut any = false;
        for (fi, route) in routes.iter().enumerate() {
            if frozen[fi] {
                continue;
            }
            any = true;
            for l in route.as_ref().expect("unfrozen flows are routed") {
                wsum[l.index()] += flows[fi].weight as f64;
            }
        }
        if !any {
            break;
        }
        // The uniform fill increment: bounded by every crossed link's
        // residual share and every flow's remaining demand headroom.
        let mut inc = f64::INFINITY;
        for (fi, route) in routes.iter().enumerate() {
            if frozen[fi] {
                continue;
            }
            let w = flows[fi].weight as f64;
            for l in route.as_ref().expect("unfrozen flows are routed") {
                inc = inc.min(remaining[l.index()] / wsum[l.index()]);
            }
            inc = inc.min((flows[fi].demand.as_bps() as f64 - rate[fi]) / w);
        }
        // Grant it, then freeze demand-met flows and flows on saturated
        // links; every round freezes at least one flow.
        for (fi, route) in routes.iter().enumerate() {
            if frozen[fi] {
                continue;
            }
            let w = flows[fi].weight as f64;
            rate[fi] += inc * w;
            for l in route.as_ref().expect("unfrozen flows are routed") {
                remaining[l.index()] = (remaining[l.index()] - inc * w).max(0.0);
            }
            if rate[fi] >= flows[fi].demand.as_bps() as f64 - 1e-6 {
                frozen[fi] = true;
            }
        }
        for (fi, route) in routes.iter().enumerate() {
            if frozen[fi] {
                continue;
            }
            if route
                .as_ref()
                .expect("unfrozen flows are routed")
                .iter()
                .any(|l| remaining[l.index()] < 1e-6 * wsum[l.index()].max(1.0))
            {
                frozen[fi] = true;
            }
        }
    }

    flows
        .iter()
        .enumerate()
        .map(|(fi, &flow)| {
            let (latency, hops) = match &routes[fi] {
                Some(links) => {
                    let lat: SimDuration = links
                        .iter()
                        .map(|&l| topo.link(l).expect("link exists").attrs.latency)
                        .sum();
                    (lat, links.len())
                }
                None => (SimDuration::ZERO, 0),
            };
            FlowAllocation {
                flow: FlowSpec {
                    src: flow.src,
                    dst: flow.dst,
                },
                rate: DataRate::from_bps(rate[fi].round() as u64),
                latency,
                hops,
            }
        })
        .collect()
}

/// Convenience: the latency-shortest one-way delay between two nodes, or
/// `None` if unreachable. The ACDC comparison uses this as its latency
/// oracle.
pub fn path_latency(topo: &Topology, src: NodeId, dst: NodeId) -> Option<SimDuration> {
    mn_topology::paths::shortest_path_latency(topo, src, dst)
}

/// A timed change to one link of a dynamic reference scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkChange {
    /// The link fails (zero bandwidth: no path may use it).
    Down,
    /// The link returns to its original attributes.
    Up,
    /// The link is re-parameterised (e.g. its capacity reduced by a CBR
    /// cross-traffic rate).
    Set(mn_topology::LinkAttrs),
}

/// A timed endpoint-membership change: the reference-side mirror of the
/// emulation's first-class VN join/leave churn events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberChange {
    /// The endpoint departs: flows touching it are refused from this
    /// instant (they receive zero allocations, exactly as the emulation
    /// returns `NoRoute` for traffic touching a departed VN).
    Leave,
    /// The endpoint (re)joins and is routable again.
    Join,
}

/// The reference simulator's view of a dynamic network: a base topology
/// plus a virtual-time-ordered stream of link changes — the same failures,
/// recoveries and renegotiations an emulation-side
/// `mn_dynamics::Schedule` applies, expressed over target links — and of
/// endpoint-membership churn.
///
/// The flow-level model is memoryless, so honoring a schedule means
/// evaluating each query against the topology *as of* the query time:
/// [`ScheduledTopology::topology_at`] materialises that snapshot, and the
/// existing oracles ([`max_min_fair_share`], [`path_latency`]) run over it
/// unchanged. Failed links are excluded from shortest paths entirely;
/// flows touching a departed endpoint are excluded from contention
/// entirely (see [`ScheduledTopology::allocations_at`]).
#[derive(Debug, Clone)]
pub struct ScheduledTopology {
    base: Topology,
    /// `(time, link, change)`, kept time-ordered (stable for equal times).
    changes: Vec<(SimTime, LinkId, LinkChange)>,
    /// `(time, node, change)`, kept time-ordered (stable for equal times).
    members: Vec<(SimTime, NodeId, MemberChange)>,
}

impl ScheduledTopology {
    /// Wraps a base topology with no changes scheduled.
    pub fn new(base: Topology) -> Self {
        ScheduledTopology {
            base,
            changes: Vec::new(),
            members: Vec::new(),
        }
    }

    /// The unmodified base topology.
    pub fn base(&self) -> &Topology {
        &self.base
    }

    /// Adds a change at `at`, keeping the stream time-ordered (insertion
    /// order breaks ties, mirroring the emulation-side schedule).
    pub fn push(&mut self, at: SimTime, link: LinkId, change: LinkChange) {
        let idx = self.changes.partition_point(|&(t, _, _)| t <= at);
        self.changes.insert(idx, (at, link, change));
    }

    /// Schedules a link failure.
    pub fn link_down(mut self, at: SimTime, link: LinkId) -> Self {
        self.push(at, link, LinkChange::Down);
        self
    }

    /// Schedules a link recovery.
    pub fn link_up(mut self, at: SimTime, link: LinkId) -> Self {
        self.push(at, link, LinkChange::Up);
        self
    }

    /// Schedules a link re-parameterisation.
    pub fn set_link(mut self, at: SimTime, link: LinkId, attrs: mn_topology::LinkAttrs) -> Self {
        self.push(at, link, LinkChange::Set(attrs));
        self
    }

    /// Adds a membership change at `at`, keeping the stream time-ordered
    /// (insertion order breaks ties, mirroring the emulation schedule).
    pub fn push_member(&mut self, at: SimTime, node: NodeId, change: MemberChange) {
        let idx = self.members.partition_point(|&(t, _, _)| t <= at);
        self.members.insert(idx, (at, node, change));
    }

    /// Schedules an endpoint departure.
    pub fn node_leave(mut self, at: SimTime, node: NodeId) -> Self {
        self.push_member(at, node, MemberChange::Leave);
        self
    }

    /// Schedules an endpoint (re)join.
    pub fn node_join(mut self, at: SimTime, node: NodeId) -> Self {
        self.push_member(at, node, MemberChange::Join);
        self
    }

    /// Whether `node` is an active member as of virtual time `t`. Every
    /// node starts as a member; the last change at or before `t` wins.
    pub fn is_member_at(&self, t: SimTime, node: NodeId) -> bool {
        let mut member = true;
        for &(at, n, change) in &self.members {
            if at > t {
                break;
            }
            if n == node {
                member = matches!(change, MemberChange::Join);
            }
        }
        member
    }

    /// Max-min fair allocations as of virtual time `t`, churn-aware: flows
    /// touching a departed endpoint receive zero rate, latency and hops
    /// (the emulation refuses their traffic), and — crucially — consume no
    /// capacity, so surviving flows absorb the freed share.
    pub fn allocations_at(&self, t: SimTime, flows: &[FlowSpec]) -> Vec<FlowAllocation> {
        let topo = self.topology_at(t);
        let live: Vec<usize> = (0..flows.len())
            .filter(|&fi| {
                self.is_member_at(t, flows[fi].src) && self.is_member_at(t, flows[fi].dst)
            })
            .collect();
        let live_flows: Vec<FlowSpec> = live.iter().map(|&fi| flows[fi]).collect();
        let live_alloc = max_min_fair_share(&topo, &live_flows);
        let mut out: Vec<FlowAllocation> = flows
            .iter()
            .map(|&flow| FlowAllocation {
                flow,
                rate: DataRate::ZERO,
                latency: SimDuration::ZERO,
                hops: 0,
            })
            .collect();
        for (slot, alloc) in live.into_iter().zip(live_alloc) {
            out[slot] = alloc;
        }
        out
    }

    /// The network as of virtual time `t`: the base topology with every
    /// change at or before `t` folded in, in schedule order.
    pub fn topology_at(&self, t: SimTime) -> Topology {
        let mut topo = self.base.clone();
        for &(at, link, change) in &self.changes {
            if at > t {
                break;
            }
            let attrs = match change {
                LinkChange::Down => {
                    let mut failed = self.base.link(link).expect("scheduled link exists").attrs;
                    failed.bandwidth = DataRate::ZERO;
                    failed
                }
                LinkChange::Up => self.base.link(link).expect("scheduled link exists").attrs,
                LinkChange::Set(attrs) => attrs,
            };
            *topo.link_attrs_mut(link).expect("scheduled link exists") = attrs;
        }
        topo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_topology::generators::{dumbbell_topology, ring_topology, DumbbellParams, RingParams};
    use mn_topology::{LinkAttrs, NodeKind};

    #[test]
    fn single_flow_gets_the_bottleneck() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let r = topo.add_node(NodeKind::Stub);
        let b = topo.add_node(NodeKind::Client);
        topo.add_link(
            a,
            r,
            LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(2)),
        )
        .unwrap();
        topo.add_link(
            r,
            b,
            LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(3)),
        )
        .unwrap();
        let alloc = max_min_fair_share(&topo, &[FlowSpec { src: a, dst: b }]);
        assert_eq!(alloc[0].rate, DataRate::from_mbps(2));
        assert_eq!(alloc[0].latency, SimDuration::from_millis(5));
        assert_eq!(alloc[0].hops, 2);
    }

    #[test]
    fn dumbbell_flows_share_equally() {
        let (topo, left, right) = dumbbell_topology(&DumbbellParams {
            clients_per_side: 5,
            ..DumbbellParams::default()
        });
        let flows: Vec<FlowSpec> = (0..5)
            .map(|i| FlowSpec {
                src: left[i],
                dst: right[i],
            })
            .collect();
        let alloc = max_min_fair_share(&topo, &flows);
        for a in &alloc {
            assert_eq!(a.rate, DataRate::from_mbps(2), "10 Mb/s shared by 5 flows");
        }
    }

    #[test]
    fn unequal_demands_get_max_min_not_equal_split() {
        // Two flows share link L1 (10 Mb/s); one of them also crosses a
        // 2 Mb/s access link and is limited there, so the other should get
        // the remaining 8 Mb/s.
        let mut topo = Topology::new();
        let s1 = topo.add_node(NodeKind::Client);
        let s2 = topo.add_node(NodeKind::Client);
        let m = topo.add_node(NodeKind::Stub);
        let d1 = topo.add_node(NodeKind::Client);
        let d2 = topo.add_node(NodeKind::Client);
        let fast = |mbps| LinkAttrs::new(DataRate::from_mbps(mbps), SimDuration::from_millis(1));
        topo.add_link(s1, m, fast(100)).unwrap();
        topo.add_link(s2, m, fast(100)).unwrap();
        let shared = topo.add_link(m, d1, fast(10)).unwrap();
        topo.add_link(d1, d2, fast(2)).unwrap();
        let _ = shared;
        let flows = vec![FlowSpec { src: s1, dst: d1 }, FlowSpec { src: s2, dst: d2 }];
        let alloc = max_min_fair_share(&topo, &flows);
        assert_eq!(alloc[1].rate, DataRate::from_mbps(2));
        assert_eq!(alloc[0].rate, DataRate::from_mbps(8));
    }

    #[test]
    fn ring_transit_contention_limits_cross_ring_flows() {
        // The paper's ring: 20 Mb/s transit links, 2 Mb/s access links. With
        // ten flows crossing the same transit link, each gets 2 Mb/s from the
        // access link; with forty, the transit link becomes the bottleneck.
        let topo = ring_topology(&RingParams {
            routers: 2,
            clients_per_router: 40,
            ..RingParams::default()
        });
        let clients: Vec<NodeId> = topo.client_nodes().collect();
        // First 40 clients attach to router 0, the rest to router 1.
        let flows: Vec<FlowSpec> = (0..40)
            .map(|i| FlowSpec {
                src: clients[i],
                dst: clients[40 + i],
            })
            .collect();
        let alloc = max_min_fair_share(&topo, &flows);
        let per_flow = alloc[0].rate;
        // 20 Mb/s shared by 40 flows = 0.5 Mb/s each.
        assert_eq!(per_flow, DataRate::from_kbps(500));
        assert!(alloc.iter().all(|a| a.rate == per_flow));
    }

    #[test]
    fn unroutable_flows_get_zero() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        let alloc = max_min_fair_share(&topo, &[FlowSpec { src: a, dst: b }]);
        assert_eq!(alloc[0].rate, DataRate::ZERO);
        assert_eq!(alloc[0].hops, 0);
    }

    #[test]
    fn scheduled_topology_replays_failures_and_recoveries() {
        // a - r - b (fast) plus a - b direct (slow): failing the a-r link
        // moves the reference route to the direct link, restoring moves it
        // back; between the events the snapshots are stable.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let r = topo.add_node(NodeKind::Stub);
        let b = topo.add_node(NodeKind::Client);
        let fast = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        let ar = topo.add_link(a, r, fast).unwrap();
        topo.add_link(r, b, fast).unwrap();
        topo.add_link(
            a,
            b,
            LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(20)),
        )
        .unwrap();
        let t = SimTime::from_secs;
        let scenario = ScheduledTopology::new(topo)
            .link_down(t(2), ar)
            .link_up(t(4), ar);
        let flow = [FlowSpec { src: a, dst: b }];
        // Before the failure: 2 ms via the router at 10 Mb/s.
        let before = max_min_fair_share(&scenario.topology_at(t(1)), &flow);
        assert_eq!(before[0].latency, SimDuration::from_millis(2));
        assert_eq!(before[0].rate, DataRate::from_mbps(10));
        assert_eq!(before[0].hops, 2);
        // While down: the direct 20 ms / 2 Mb/s link, and the failed link
        // is excluded from shortest paths entirely.
        let during = max_min_fair_share(&scenario.topology_at(t(3)), &flow);
        assert_eq!(during[0].latency, SimDuration::from_millis(20));
        assert_eq!(during[0].rate, DataRate::from_mbps(2));
        assert_eq!(during[0].hops, 1);
        // After the recovery: back to the fast path.
        let after = max_min_fair_share(&scenario.topology_at(t(5)), &flow);
        assert_eq!(after[0].latency, SimDuration::from_millis(2));
        // Snapshots at the event instants include the event (<= semantics).
        assert_eq!(
            max_min_fair_share(&scenario.topology_at(t(2)), &flow)[0].hops,
            1
        );
        assert_eq!(scenario.base().link(ar).unwrap().attrs, fast);
    }

    #[test]
    fn scheduled_topology_set_link_models_cbr_compensation() {
        // Reducing a link's capacity by a CBR rate is how the reference
        // honors a cross-traffic episode.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        let base = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(5));
        let ab = topo.add_link(a, b, base).unwrap();
        let reduced = LinkAttrs::new(DataRate::from_mbps(6), SimDuration::from_millis(5));
        let scenario = ScheduledTopology::new(topo)
            .set_link(SimTime::from_secs(1), ab, reduced)
            .link_up(SimTime::from_secs(2), ab);
        let flow = [FlowSpec { src: a, dst: b }];
        let loaded = max_min_fair_share(&scenario.topology_at(SimTime::from_secs(1)), &flow);
        assert_eq!(loaded[0].rate, DataRate::from_mbps(6));
        let clean = max_min_fair_share(&scenario.topology_at(SimTime::from_secs(3)), &flow);
        assert_eq!(clean[0].rate, DataRate::from_mbps(10));
    }

    #[test]
    fn failed_links_are_unusable_in_the_reference_model() {
        // A topology whose only path fails: the flow becomes unroutable
        // rather than crossing a zero-capacity link.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        let ab = topo
            .add_link(
                a,
                b,
                LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1)),
            )
            .unwrap();
        let scenario = ScheduledTopology::new(topo).link_down(SimTime::from_secs(1), ab);
        let snapshot = scenario.topology_at(SimTime::from_secs(2));
        assert_eq!(path_latency(&snapshot, a, b), None);
        let alloc = max_min_fair_share(&snapshot, &[FlowSpec { src: a, dst: b }]);
        assert_eq!(alloc[0].rate, DataRate::ZERO);
        assert_eq!(alloc[0].hops, 0);
    }

    #[test]
    fn membership_churn_frees_capacity_and_restores_on_rejoin() {
        // Two client pairs share a 10 Mb/s bottleneck through a router.
        // One endpoint departs at t=2 and rejoins at t=4: while away its
        // flow gets zero and the survivor absorbs the whole bottleneck.
        let mut topo = Topology::new();
        let s1 = topo.add_node(NodeKind::Client);
        let s2 = topo.add_node(NodeKind::Client);
        let m = topo.add_node(NodeKind::Stub);
        let d = topo.add_node(NodeKind::Client);
        let fast = |mbps| LinkAttrs::new(DataRate::from_mbps(mbps), SimDuration::from_millis(1));
        topo.add_link(s1, m, fast(100)).unwrap();
        topo.add_link(s2, m, fast(100)).unwrap();
        topo.add_link(m, d, fast(10)).unwrap();
        let t = SimTime::from_secs;
        let scenario = ScheduledTopology::new(topo)
            .node_leave(t(2), s2)
            .node_join(t(4), s2);
        let flows = [FlowSpec { src: s1, dst: d }, FlowSpec { src: s2, dst: d }];
        // Before: the bottleneck splits evenly.
        let before = scenario.allocations_at(t(1), &flows);
        assert_eq!(before[0].rate, DataRate::from_mbps(5));
        assert_eq!(before[1].rate, DataRate::from_mbps(5));
        // While away: zero for the departed pair, everything for the rest.
        assert!(!scenario.is_member_at(t(3), s2));
        let during = scenario.allocations_at(t(3), &flows);
        assert_eq!(during[0].rate, DataRate::from_mbps(10));
        assert_eq!(during[1].rate, DataRate::ZERO);
        assert_eq!(during[1].hops, 0);
        // After the rejoin: the even split returns.
        assert!(scenario.is_member_at(t(5), s2));
        let after = scenario.allocations_at(t(5), &flows);
        assert_eq!(after, before);
        // Membership changes take effect at their instant (<= semantics).
        assert!(!scenario.is_member_at(t(2), s2));
    }

    #[test]
    fn membership_and_link_churn_compose_in_one_scenario() {
        // The departed endpoint's flow stays zero even while an unrelated
        // link failure reroutes the survivor.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let r = topo.add_node(NodeKind::Stub);
        let b = topo.add_node(NodeKind::Client);
        let c = topo.add_node(NodeKind::Client);
        let fast = LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        let ar = topo.add_link(a, r, fast).unwrap();
        topo.add_link(r, b, fast).unwrap();
        topo.add_link(
            a,
            b,
            LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(20)),
        )
        .unwrap();
        topo.add_link(c, r, fast).unwrap();
        let t = SimTime::from_secs;
        let scenario = ScheduledTopology::new(topo)
            .node_leave(t(1), c)
            .link_down(t(2), ar);
        let flows = [FlowSpec { src: a, dst: b }, FlowSpec { src: c, dst: b }];
        let alloc = scenario.allocations_at(t(3), &flows);
        // The survivor detours over the slow direct link...
        assert_eq!(alloc[0].rate, DataRate::from_mbps(2));
        assert_eq!(alloc[0].hops, 1);
        // ...and the departed endpoint is still refused.
        assert_eq!(alloc[1].rate, DataRate::ZERO);
    }

    #[test]
    fn fluid_weighted_shares_split_the_bottleneck_by_weight() {
        // Two aggregates with weights 1 and 2 share a 9 Mb/s pipe; neither
        // demand binds, so shares are 3 and 6 Mb/s.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        topo.add_link(
            a,
            b,
            LinkAttrs::new(DataRate::from_mbps(9), SimDuration::from_millis(1)),
        )
        .unwrap();
        let flows = [
            FluidSpec {
                src: a,
                dst: b,
                demand: DataRate::from_mbps(100),
                weight: 1,
            },
            FluidSpec {
                src: a,
                dst: b,
                demand: DataRate::from_mbps(100),
                weight: 2,
            },
        ];
        let alloc = fluid_max_min(&topo, &flows);
        assert_eq!(alloc[0].rate, DataRate::from_mbps(3));
        assert_eq!(alloc[1].rate, DataRate::from_mbps(6));
    }

    #[test]
    fn fluid_demand_bound_frees_capacity_for_the_hungry_flow() {
        // A 2 Mb/s demand on a 10 Mb/s pipe caps itself; the competing
        // unbounded flow absorbs the remaining 8 Mb/s even at equal weight.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let b = topo.add_node(NodeKind::Client);
        topo.add_link(
            a,
            b,
            LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1)),
        )
        .unwrap();
        let flows = [
            FluidSpec {
                src: a,
                dst: b,
                demand: DataRate::from_mbps(2),
                weight: 1,
            },
            FluidSpec {
                src: a,
                dst: b,
                demand: DataRate::from_mbps(100),
                weight: 1,
            },
        ];
        let alloc = fluid_max_min(&topo, &flows);
        assert_eq!(alloc[0].rate, DataRate::from_mbps(2));
        assert_eq!(alloc[1].rate, DataRate::from_mbps(8));
    }

    #[test]
    fn fluid_multi_hop_flows_are_held_by_their_tightest_pipe() {
        // a → r at 10 Mb/s, r → b at 2 Mb/s: the aggregate is held to
        // 2 Mb/s regardless of weight; same-node flows pass their demand;
        // unroutable flows get zero.
        let mut topo = Topology::new();
        let a = topo.add_node(NodeKind::Client);
        let r = topo.add_node(NodeKind::Stub);
        let b = topo.add_node(NodeKind::Client);
        let lone = topo.add_node(NodeKind::Client);
        topo.add_link(
            a,
            r,
            LinkAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1)),
        )
        .unwrap();
        topo.add_link(
            r,
            b,
            LinkAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(1)),
        )
        .unwrap();
        let flows = [
            FluidSpec {
                src: a,
                dst: b,
                demand: DataRate::from_mbps(50),
                weight: 1000,
            },
            FluidSpec {
                src: a,
                dst: a,
                demand: DataRate::from_mbps(7),
                weight: 1,
            },
            FluidSpec {
                src: a,
                dst: lone,
                demand: DataRate::from_mbps(5),
                weight: 1,
            },
        ];
        let alloc = fluid_max_min(&topo, &flows);
        assert_eq!(alloc[0].rate, DataRate::from_mbps(2));
        assert_eq!(alloc[0].hops, 2);
        assert_eq!(alloc[1].rate, DataRate::from_mbps(7));
        assert_eq!(alloc[2].rate, DataRate::ZERO);
    }

    #[test]
    fn latency_oracle_matches_shortest_path() {
        let topo = ring_topology(&RingParams {
            routers: 6,
            clients_per_router: 1,
            ..RingParams::default()
        });
        let clients: Vec<NodeId> = topo.client_nodes().collect();
        let lat = path_latency(&topo, clients[0], clients[3]).unwrap();
        // 1 ms access + 3 × 5 ms ring + 1 ms access.
        assert_eq!(lat, SimDuration::from_millis(17));
    }
}
