//! Property suite for the copy-on-write, one-row-per-location route table.
//!
//! Four invariants anchor the design:
//!
//! 1. **Observational equivalence.** Across random fail/restore/renegotiate
//!    sequences interleaved with endpoint churn (leaves with and without
//!    siblings, rejoins in the same place, elsewhere and under a fresh
//!    index), the incrementally maintained table must agree with
//!    [`RouteTable::build`] over the live binding and a from-scratch matrix
//!    on **every** `(src, dst)` lookup — same routability, same pipe
//!    sequence — with endpoints multiplexed two per location throughout.
//! 2. **`RouteId` stability.** Pairs a step did not change keep their exact
//!    `RouteId` (descriptors in flight keep resolving), routes *toward* an
//!    endpoint that just left included while a sibling stays at its
//!    location; the last leave there clears them, as a build over the live
//!    binding has none.
//! 3. **Copy-on-write identity.** After a step, the rows of untouched source
//!    locations are literally the same storage as before it (`Arc` identity
//!    for spilled rows) — the publish cost is O(changed rows) — and a
//!    co-located join or leave touches no row at all.
//! 4. **Byte stability.** A checkpoint's route section, every stored route
//!    held, decodes over the step's matrix and encodes to the same bytes
//!    after every step.
//!
//! A row covers its source's structural component only; on a topology of
//! several components, a build, first joins at new locations and last
//! leaves give every route and id the derive over every slot gives.

mod common;

use std::collections::{HashMap, HashSet};

use proptest::prelude::*;

use common::arb_unique_path_topology;
use mn_distill::{distill, DistillationMode, DistilledTopology, PipeId};
use mn_routing::{RouteId, RouteTable, RoutingMatrix};
use mn_topology::{LinkAttrs, NodeId, NodeKind, Topology};
use mn_util::{ByteReader, ByteWriter, DataRate, SimDuration};

/// One random perturbation of a duplex link.
#[derive(Debug, Clone, Copy)]
enum LinkOp {
    /// Fail the link (bandwidth to zero): routes detour or disappear.
    Down,
    /// Restore the link's build-time attributes.
    Restore,
    /// Double the link's latency: routes may shift without a failure.
    SlowerLatency,
    /// Halve the link's (nonzero) bandwidth: no routing impact at all.
    RenegotiateBandwidth,
}

/// One step of the random history. Every `usize` is a choice reduced modulo
/// whatever it picks from; a churn op with nothing to pick from is skipped.
#[derive(Debug, Clone, Copy)]
enum Op {
    Link(usize, LinkOp),
    /// One live endpoint leaves (its siblings, if any, stay).
    Leave(usize),
    /// Every endpoint at a live endpoint's location leaves, one by one.
    EmptyLocation(usize),
    /// A departed endpoint rejoins where it left.
    RejoinSamePlace(usize),
    /// A departed endpoint rejoins at the given client location.
    RejoinAt(usize, usize),
    /// A fresh endpoint index joins at the given client location.
    JoinFresh(usize),
}

fn arb_op() -> impl Strategy<Value = Op> {
    let link_op = prop_oneof![
        Just(LinkOp::Down),
        Just(LinkOp::Restore),
        Just(LinkOp::SlowerLatency),
        Just(LinkOp::RenegotiateBandwidth),
    ];
    prop_oneof![
        4 => (any::<usize>(), link_op).prop_map(|(k, op)| Op::Link(k, op)),
        2 => any::<usize>().prop_map(Op::Leave),
        2 => any::<usize>().prop_map(Op::EmptyLocation),
        2 => any::<usize>().prop_map(Op::RejoinSamePlace),
        2 => (any::<usize>(), any::<usize>()).prop_map(|(e, at)| Op::RejoinAt(e, at)),
        1 => any::<usize>().prop_map(Op::JoinFresh),
    ]
}

/// Applies `op` to both directions of the `link_choice`-th duplex link,
/// returning the mutated pipes. Hop-by-hop distillation adds duplex pairs
/// back to back: pipes 2k and 2k+1 are the two directions of link k.
fn apply_link_op(
    d: &mut DistilledTopology,
    original: &[mn_distill::PipeAttrs],
    link_choice: usize,
    op: LinkOp,
) -> Vec<PipeId> {
    let links = d.pipe_count() / 2;
    let k = link_choice % links;
    let pipes = vec![PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
    for &p in &pipes {
        let attrs = d.pipe_attrs_mut(p).expect("pipe exists");
        match op {
            LinkOp::Down => attrs.bandwidth = DataRate::ZERO,
            LinkOp::Restore => *attrs = original[p.index()],
            LinkOp::SlowerLatency => attrs.latency = attrs.latency * 2,
            LinkOp::RenegotiateBandwidth => attrs.bandwidth = attrs.bandwidth.mul_f64(0.5),
        }
    }
    pipes
}

/// The matrix, the table and the binding, churned the way
/// `Emulator::{vn_join, vn_leave}` churn them.
struct Sut {
    matrix: RoutingMatrix,
    table: RouteTable,
    /// Where each endpoint is bound, or was when it left.
    locations: Vec<NodeId>,
    live: Vec<bool>,
}

impl Sut {
    /// Returns whether the leave emptied its location (which writes rows).
    fn leave(&mut self, e: usize) -> bool {
        assert!(self.table.unbind_endpoint(e));
        self.live[e] = false;
        let emptied = !self.table.has_endpoints_at(self.locations[e]);
        if emptied {
            assert!(self.matrix.remove_source(self.locations[e]));
        }
        emptied
    }

    /// Returns whether the join populated an empty location (the one kind
    /// that writes rows).
    fn join(&mut self, d: &DistilledTopology, e: usize, at: NodeId) -> bool {
        let populates = !self.table.has_endpoints_at(at);
        if self.matrix.vn_index(at).is_none() {
            assert!(self.matrix.add_source(d, at));
        }
        assert!(self.table.bind_endpoint(&self.matrix, e, at));
        if e == self.locations.len() {
            self.locations.push(at);
            self.live.push(true);
        } else {
            self.locations[e] = at;
            self.live[e] = true;
        }
        populates
    }

    /// The `choice`-th endpoint that is live (or departed).
    fn pick(&self, live: bool, choice: usize) -> Option<usize> {
        let pool: Vec<usize> = (0..self.live.len())
            .filter(|&e| self.live[e] == live)
            .collect();
        (!pool.is_empty()).then(|| pool[choice % pool.len()])
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_multi_component_table_matches_the_derive_over_every_slot(
        components in 2usize..4,
        routers in 1usize..4,
        clients in 1usize..3,
        ops in prop::collection::vec((0u8..3, any::<usize>(), any::<usize>()), 1..16),
    ) {
        let d = distill(&disjoint_chains(components, routers, clients), DistillationMode::HopByHop);
        let homes = d.vns().to_vec();
        let matrix = RoutingMatrix::build(&d);
        // Every third client is left unbound, so a join can open a location.
        let bound: Vec<NodeId> = homes.iter().copied().step_by(3).chain(
            homes.iter().copied().skip(1).step_by(3)).collect();
        let locations: Vec<NodeId> = bound.iter().chain(&bound).copied().collect();
        let table = RouteTable::build(&matrix, &locations);
        let live = vec![true; locations.len()];
        let mut sut = Sut { matrix, table, locations, live };
        let mut model = AllSlots::default();
        for &at in &sut.locations {
            if !model.slots.contains(&at) {
                model.slots.push(at);
            }
        }
        let slots = model.live_except(&sut, None);
        for &src in &slots {
            for &dst in slots.iter().filter(|&&dst| dst != src) {
                model.derive(&sut.matrix, src, dst);
            }
        }
        for (kind, choice, at) in ops {
            let at = homes[at % homes.len()];
            let joined = match kind {
                0 => {
                    if let Some(e) = sut.pick(true, choice) {
                        sut.leave(e);
                    }
                    None
                }
                1 => sut.pick(false, choice).map(|e| (e, sut.join(&d, e, at))),
                _ => Some((sut.live.len(), sut.join(&d, sut.live.len(), at))),
            };
            if let Some((_, true)) = joined {
                if !model.slots.contains(&at) {
                    model.slots.push(at);
                }
                for dst in model.live_except(&sut, Some(at)) {
                    model.derive(&sut.matrix, at, dst);
                }
                for src in model.live_except(&sut, Some(at)) {
                    model.derive(&sut.matrix, src, at);
                }
            }
            let (n, table) = (sut.live.len(), &sut.table);
            prop_assert_eq!(table.route_count(), model.ids.len());
            for s in (0..n).filter(|&s| sut.live[s]) {
                for t in (0..n).filter(|&t| sut.live[t]) {
                    let (src, dst) = (sut.locations[s], sut.locations[t]);
                    let route = sut.matrix.lookup(src, dst).filter(|_| src != dst);
                    let expected = route.map(|r| (model.ids[&r.pipes], r.pipes));
                    let got = table.route_id(s, t).map(|id| (id.0, table.pipes(id).to_vec()));
                    prop_assert_eq!(got, expected, "{} -> {}", s, t);
                }
            }
        }
    }

    #[test]
    fn sharded_table_matches_dense_reference_under_random_dynamics(
        topo in arb_unique_path_topology(Just(0.0)),
        ops in prop::collection::vec(arb_op(), 1..16),
    ) {
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let original: Vec<_> = d.pipes().map(|(_, p)| p.attrs).collect();
        let homes = d.vns().to_vec();
        let matrix = RoutingMatrix::build(&d);
        // Two endpoints per location: half the endpoint set repeats the VN
        // list, so every row is read by a co-located pair and same-location
        // pairs must stay unroutable (local delivery).
        let mut locations = homes.clone();
        locations.extend(homes.iter().copied());
        let table = RouteTable::build(&matrix, &locations);
        let live = vec![true; locations.len()];
        let mut sut = Sut { matrix, table, locations, live };

        for op in ops {
            let before = sut.table.clone();
            let n_before = sut.live.len();
            let live_before = sut.live.clone();
            let ids_before: Vec<Option<RouteId>> = (0..n_before * n_before)
                .map(|i| before.route_id(i / n_before, i % n_before))
                .collect();
            // Location pairs whose route the step may change, endpoints it
            // binds or unbinds, and whether it may write rows at all (a
            // link op, a join that populates an empty location, or a leave
            // that empties one).
            let mut changed_set: HashSet<(NodeId, NodeId)> = HashSet::new();
            let mut churned: Vec<usize> = Vec::new();
            let mut rows_may_move = false;
            match op {
                Op::Link(choice, link_op) => {
                    let changed_pipes = apply_link_op(&mut d, &original, choice, link_op);
                    let update = sut.matrix.update_pipes(&d, &changed_pipes);
                    if !update.is_empty() {
                        sut.table.rewire_in_place(&sut.matrix, &sut.locations, &update.changed_pairs);
                    }
                    changed_set.extend(update.changed_pairs.iter().copied());
                    rows_may_move = true;
                }
                Op::Leave(choice) => {
                    if let Some(e) = sut.pick(true, choice) {
                        rows_may_move = sut.leave(e);
                        churned.push(e);
                    }
                }
                Op::EmptyLocation(choice) => {
                    if let Some(e) = sut.pick(true, choice) {
                        let at = sut.locations[e];
                        for e in 0..n_before {
                            if sut.live[e] && sut.locations[e] == at {
                                rows_may_move |= sut.leave(e);
                                churned.push(e);
                            }
                        }
                        prop_assert!(!sut.table.has_endpoints_at(at));
                    }
                }
                Op::RejoinSamePlace(choice) => {
                    if let Some(e) = sut.pick(false, choice) {
                        rows_may_move = sut.join(&d, e, sut.locations[e]);
                        churned.push(e);
                    }
                }
                Op::RejoinAt(choice, at) => {
                    if let Some(e) = sut.pick(false, choice) {
                        rows_may_move = sut.join(&d, e, homes[at % homes.len()]);
                        churned.push(e);
                    }
                }
                Op::JoinFresh(at) => {
                    rows_may_move = sut.join(&d, n_before, homes[at % homes.len()]);
                    churned.push(n_before);
                }
            }
            let n = sut.live.len();
            let table = &sut.table;

            // 1. Every (src, dst) lookup agrees with a table built from
            //    scratch — scratch matrix, live binding only.
            let live_now: Vec<usize> = (0..n).filter(|&e| sut.live[e]).collect();
            let live_locations: Vec<NodeId> = live_now.iter().map(|&e| sut.locations[e]).collect();
            let fresh = RouteTable::build(&RoutingMatrix::build(&d), &live_locations);
            for (i, &s) in live_now.iter().enumerate() {
                for (j, &t) in live_now.iter().enumerate() {
                    let expected = fresh.route_id(i, j).map(|id| fresh.pipes(id).to_vec());
                    let got = table.route_id(s, t).map(|id| table.pipes(id).to_vec());
                    prop_assert_eq!(got, expected, "pair ({}, {}) after {:?}", s, t, op);
                }
            }
            for s in (0..n).filter(|&s| !sut.live[s]) {
                prop_assert!(!table.is_endpoint_bound(s));
                for t in 0..n {
                    prop_assert_eq!(table.route_id(s, t), None, "departed {} routes after {:?}", s, op);
                }
            }

            // 2. RouteId stability: a pair of endpoints the step neither
            //    bound nor unbound, whose location pair it did not list,
            //    keeps its exact pre-step id — and so does every route
            //    *toward* an endpoint that just left, unless it was the
            //    last at its location: then there is none.
            let stayed = |e: usize| e < n_before && live_before[e] && sut.live[e];
            for s in (0..n_before).filter(|&s| stayed(s)) {
                for t in 0..n_before {
                    let kept = if stayed(t) {
                        !changed_set.contains(&(sut.locations[s], sut.locations[t]))
                    } else {
                        live_before[t] && churned.contains(&t)
                    };
                    if kept {
                        let sibling = stayed(t) || table.has_endpoints_at(sut.locations[t]);
                        prop_assert_eq!(
                            table.route_id(s, t),
                            ids_before[s * n_before + t].filter(|_| sibling),
                            "untouched pair ({}, {}) must keep its RouteId after {:?}",
                            s, t, op
                        );
                    }
                }
            }

            // 3. Copy-on-write identity: source locations with no changed
            //    pair keep literally the same row storage across the step;
            //    a join or leave beside a live sibling moves no row at all.
            let changed_sources: HashSet<NodeId> =
                changed_set.iter().map(|&(src, _)| src).collect();
            for s in (0..n_before).filter(|&s| stayed(s)) {
                let untouched = churned.is_empty() && !changed_sources.contains(&sut.locations[s]);
                if !rows_may_move || untouched {
                    prop_assert!(
                        table.row_storage_shared(&before, s),
                        "untouched source {} lost its row storage after {:?}",
                        s, op
                    );
                }
                prop_assert!(table.row_storage_shared(table, s), "identity is reflexive");
            }

            // 4. The bytes survive a round trip, every stored route held.
            let bytes = section(table);
            let mut r = ByteReader::new(&bytes);
            let restored = RouteTable::decode_section(&mut r, &sut.matrix, None).expect("decodes");
            prop_assert!(r.is_exhausted());
            prop_assert!(bytes == section(&restored), "encode -> decode -> encode after {:?}", op);
        }
    }
}

/// `table`'s route section as a checkpoint writes it while descriptors in
/// flight hold every route it stores.
fn section(table: &RouteTable) -> Vec<u8> {
    let routes = (0..table.route_count() as u32).map(RouteId);
    let numbering = table.numbering(|held| {
        held.extend(routes);
        Ok::<_, ()>(())
    });
    let (rows, numbering) = numbering.unwrap();
    let mut w = ByteWriter::new();
    table.encode_section(&mut w, rows, numbering.as_ref());
    w.into_bytes()
}

/// `components` disjoint chains of `routers` routers, `clients` clients a
/// router, the clients added round-robin over the components so that their
/// VN order interleaves the components.
fn disjoint_chains(components: usize, routers: usize, clients: usize) -> Topology {
    let mut topo = Topology::new();
    let chains: Vec<Vec<NodeId>> = (0..components)
        .map(|_| {
            (0..routers)
                .map(|_| topo.add_node(NodeKind::Stub))
                .collect()
        })
        .collect();
    let link = |k: usize| {
        LinkAttrs::new(
            DataRate::from_mbps(10),
            SimDuration::from_micros(100 + k as u64),
        )
    };
    let mut links = 0;
    for chain in &chains {
        for pair in chain.windows(2) {
            links += 1;
            topo.add_link(pair[0], pair[1], link(links)).unwrap();
        }
    }
    for i in 0..components * routers * clients {
        let client = topo.add_node(NodeKind::Client);
        links += 1;
        let router = chains[i % components][(i / components) % routers];
        topo.add_link(client, router, link(links)).unwrap();
    }
    topo
}

/// The derive over every slot: a row visits every other live slot, and a
/// route takes the next id when its content is first derived — at a build,
/// row by row in slot order, and at a first join, the location's row, then
/// every other row's column toward it.
#[derive(Default)]
struct AllSlots {
    /// Location nodes in slot order (first appearance).
    slots: Vec<NodeId>,
    ids: HashMap<Vec<PipeId>, u32>,
}

impl AllSlots {
    fn derive(&mut self, matrix: &RoutingMatrix, src: NodeId, dst: NodeId) {
        if let Some(route) = matrix.lookup(src, dst) {
            let next = self.ids.len() as u32;
            self.ids.entry(route.pipes).or_insert(next);
        }
    }

    /// Live slots in slot order, other than `at`.
    fn live_except(&self, sut: &Sut, at: Option<NodeId>) -> Vec<NodeId> {
        let live = |&&node: &&NodeId| {
            Some(node) != at && (0..sut.live.len()).any(|e| sut.live[e] && sut.locations[e] == node)
        };
        self.slots.iter().filter(live).copied().collect()
    }
}

/// One link-down or link-up half of a flap, the way `Emulator::reroute` and
/// `publish_routes` run it: mutate both directions of ring link `k`, update
/// the matrix, clone the published table, rewire the clone, and only then
/// let go of the old generation. Returns the new generation, the pairs the
/// update listed, and the content-index probes the rewire spent.
fn flap_half(
    d: &mut DistilledTopology,
    healthy: &[mn_distill::PipeAttrs],
    matrix: &mut RoutingMatrix,
    locations: &[NodeId],
    published: &RouteTable,
    k: usize,
    up: bool,
) -> (RouteTable, Vec<(NodeId, NodeId)>, u64) {
    let link = [PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
    for p in link {
        d.pipe_attrs_mut(p).expect("pipe exists").bandwidth = if up {
            healthy[p.index()].bandwidth
        } else {
            DataRate::ZERO
        };
    }
    let update = matrix.update_pipes(d, &link);
    let mut next = published.clone();
    next.rewire_in_place(matrix, locations, &update.changed_pairs);
    let probes = next.content_index_probes() - published.content_index_probes();
    (next, update.changed_pairs, probes)
}

/// The k-th flap costs what the first did, stated as a count. Twelve
/// *distinct* links of a 16-router ring (8 VN locations per router, 4
/// endpoints per location) fail and recover in sequence, so every link-down
/// interns thousands of detours the table has never seen. Re-flapping one
/// link interns nothing after its first cycle and so never sees what the
/// index costs once it has grown.
#[test]
fn the_kth_distinct_link_flap_costs_what_the_first_did() {
    const ROUTERS: usize = 16;
    const LINKS: usize = 12;
    let topo = mn_topology::generators::ring_topology(&mn_topology::generators::RingParams {
        routers: ROUTERS,
        clients_per_router: 8,
        ..Default::default()
    });
    let mut d = distill(&topo, DistillationMode::HopByHop);
    let healthy: Vec<_> = d.pipes().map(|(_, p)| p.attrs).collect();
    for k in 0..ROUTERS {
        let pipe = d.pipe(PipeId::from_index(2 * k));
        assert!(
            !d.vns().contains(&pipe.src) && !d.vns().contains(&pipe.dst),
            "the first {ROUTERS} duplex pairs are the ring links"
        );
    }
    let mut matrix = RoutingMatrix::build(&d);
    let locations: Vec<NodeId> = (0..4).flat_map(|_| d.vns().to_vec()).collect();
    // The first endpoint bound at each location stands for all four.
    let first_endpoint: std::collections::HashMap<NodeId, usize> =
        d.vns().iter().copied().zip(0..).collect();
    let endpoint_at = |loc: NodeId| first_endpoint[&loc];
    let mut table = RouteTable::build(&matrix, &locations);

    // Per pass, per link: (lookups, probes) of the down half and of the up.
    let mut cost: Vec<Vec<[(usize, u64); 2]>> = Vec::new();
    for pass in 0..3 {
        let routes_at_pass_start = table.route_count();
        let mut pass_cost = Vec::new();
        for k in 0..LINKS {
            let before = table.clone();
            let (down, failed_pairs, down_probes) =
                flap_half(&mut d, &healthy, &mut matrix, &locations, &table, k, false);
            assert!(!failed_pairs.is_empty(), "a ring link carries routes");
            if pass == 0 {
                assert!(down.route_count() > table.route_count(), "detours are new");
            }
            // The old generation is still published while the new one
            // interns: nothing it answers may move.
            assert_eq!(table.route_count(), before.route_count());
            for &(src, dst) in &failed_pairs {
                let (s, t) = (endpoint_at(src), endpoint_at(dst));
                let id = table.route_id(s, t);
                assert_eq!(id, before.route_id(s, t), "old generation, {s}->{t}");
                if let (Some(id), Some(new)) = (id, down.route_id(s, t)) {
                    assert_ne!(table.pipes(id), down.pipes(new), "{s}->{t} rerouted");
                }
            }
            table = down;

            let routes_while_down = table.route_count();
            let (restored, restored_pairs, up_probes) =
                flap_half(&mut d, &healthy, &mut matrix, &locations, &table, k, true);
            table = restored;
            assert_eq!(
                table.route_count(),
                routes_while_down,
                "a link-up interns nothing"
            );
            assert_eq!(restored_pairs.len(), failed_pairs.len());
            for &(src, dst) in &restored_pairs {
                let (s, t) = (endpoint_at(src), endpoint_at(dst));
                assert_eq!(
                    table.route_id(s, t),
                    before.route_id(s, t),
                    "{s}->{t} returns to its pre-failure id"
                );
            }
            pass_cost.push([
                (failed_pairs.len(), down_probes),
                (restored_pairs.len(), up_probes),
            ]);
        }
        if pass > 0 {
            assert_eq!(
                table.route_count(),
                routes_at_pass_start,
                "no growth under oscillation"
            );
        }
        cost.push(pass_cost);
    }

    // One changed pair is one lookup, and a lookup is a handful of slot
    // reads and store comparisons whichever flap it serves: a hit on its
    // home slot is 2 probes, and no half of any cycle averages more than 8
    // (the first pass's link-downs miss, at up to 3/4 load) — 3 once every
    // lookup is a hit.
    for (pass, pass_cost) in cost.iter().enumerate() {
        for (k, halves) in pass_cost.iter().enumerate() {
            for &(lookups, probes) in halves {
                let bound = if pass == 0 { 8 } else { 3 };
                assert!(
                    probes <= bound * lookups as u64,
                    "pass {pass} link {k}: {probes} probes for {lookups} lookups"
                );
            }
        }
    }
    // Once nothing new is interned, a lookup's probe sequence is fixed by
    // the index alone: replaying the sequence costs exactly the same count,
    // cycle by cycle, first link to twelfth. Cost does not depend on how
    // many generations came before.
    assert_eq!(cost[1], cost[2]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The rewire resolves a run of pairs sharing a source in one walk of
    /// its tree, reads every home slot before the first probe and then
    /// interns in pair order; [`RouteTable::rewire_pair_by_pair`] walks and
    /// interns each pair alone. Across random flaps of a multiplexed ring
    /// the two agree on every endpoint pair's `RouteId`, on every stored
    /// route's pipes and on the content-index probes spent. The ring has a VN at a
    /// router, so a walk can stop at a destination another destination's
    /// route passes through; a location whose endpoints all left and whose
    /// tree is gone; and it starts by failing a client's access link, which
    /// partitions that client from every other.
    #[test]
    fn a_run_rewire_matches_the_pair_by_pair_oracle(
        flaps in prop::collection::vec((any::<usize>(), any::<bool>()), 1..24),
    ) {
        let topo = mn_topology::generators::ring_topology(&mn_topology::generators::RingParams {
            routers: 6,
            clients_per_router: 2,
            ..Default::default()
        });
        let mut d = distill(&topo, DistillationMode::HopByHop);
        let healthy: Vec<_> = d.pipes().map(|(_, p)| p.attrs).collect();
        let mut matrix = RoutingMatrix::build(&d);
        let (clients, router) = (d.vns().to_vec(), NodeId(0));
        prop_assert!(matrix.vn_index(router).is_none(), "node 0 is a ring router");
        prop_assert!(matrix.add_source(&d, router));
        let mut locations: Vec<NodeId> = clients.iter().chain(&clients).copied().collect();
        locations.push(router);
        let mut table = RouteTable::build(&matrix, &locations);
        for e in [0, clients.len()] {
            prop_assert!(table.unbind_endpoint(e));
        }
        prop_assert!(matrix.remove_source(clients[0]));
        let access = d.out_pipes(clients[1])[0];
        let partition = access.index() / 2;
        let mut oracle = table.clone();
        for (k, up) in [(partition, false)].into_iter().chain(flaps) {
            let k = k % (d.pipe_count() / 2);
            let link = [PipeId::from_index(2 * k), PipeId::from_index(2 * k + 1)];
            for p in link {
                d.pipe_attrs_mut(p).expect("pipe exists").bandwidth =
                    if up { healthy[p.index()].bandwidth } else { DataRate::ZERO };
            }
            let update = matrix.update_pipes(&d, &link);
            let mut next = table.clone();
            next.rewire_in_place(&matrix, &locations, &update.changed_pairs);
            table = next;
            let mut next = oracle.clone();
            next.rewire_pair_by_pair(&matrix, &update.changed_pairs);
            oracle = next;
            let n = locations.len();
            for (s, t) in (0..n * n).map(|i| (i / n, i % n)) {
                prop_assert_eq!(table.route_id(s, t), oracle.route_id(s, t), "{} -> {}", s, t);
            }
            prop_assert_eq!(table.route_count(), oracle.route_count());
            for id in (0..table.route_count() as u32).map(RouteId) {
                prop_assert_eq!(table.pipes(id), oracle.pipes(id), "route {:?} after link {} up = {}", id, k, up);
            }
            prop_assert_eq!(table.content_index_probes(), oracle.content_index_probes());
        }
    }
}
