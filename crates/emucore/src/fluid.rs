//! Flow-level (fluid) traffic modelling: rate processes on the pipe graph.
//!
//! Per-packet emulation pays ~160 ns per packet-hop; for bulk/background
//! traffic whose aggregate behaviour is all that matters, that cost buys
//! nothing. The hybrid fast path models designated flows as *fluid rate
//! processes*: each flow is a demand (bits/second) with a weight (how many
//! modelled clients it aggregates) over its route's pipes, and a weighted
//! max-min fair share is solved at discrete virtual-time epochs. Between
//! epochs the rates are piecewise-constant; each pipe exposes the summed
//! fluid demand to the packet path as consumed capacity, so foreground
//! packets queue and drop against the *residual* bandwidth — accuracy where
//! it counts, flow-level cost for the bulk.
//!
//! A CBR cross-traffic episode is a special case and nothing more: a
//! fixed-rate fluid demand pinned to a single pipe, allocated before the
//! max-min pass, in installation order. No core builds, meters or wakes
//! for its packets.
//!
//! Everything here is integer arithmetic on bits/second and bit-nanoseconds:
//! the solve is deterministic, identical on the sequential and threaded
//! backends, and allocation-free at steady state (all scratch is retained).

use std::collections::HashMap;

use mn_distill::PipeId;
use mn_packet::VnId;
use mn_routing::RouteTable;
use mn_util::codec::Transient;
use mn_util::{ByteReader, ByteWriter, Codec, CodecError, DataRate, SimDuration, SimTime};

/// Cadence at which fluid rates are recomputed while flows are live:
/// `2^23` ns ≈ 8.39 ms. The timer wheel keeps every pending entry in one
/// arena, so the cadence need not line up with its slots to stay
/// allocation-free; the value is kept because every recorded snapshot and
/// digest was taken at it.
pub const DEFAULT_FLUID_EPOCH: SimDuration = SimDuration::from_nanos(1 << 23);

/// Bit-nanoseconds per byte: the divisor turning a `bps × ns` integral into
/// bytes.
const BITS_NS_PER_BYTE: u128 = 8_000_000_000;

/// Identity of a fluid flow inside the state: user flows are keyed by the
/// caller's tag, CBR episodes by their pipe (the two spaces never collide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum FlowKey {
    /// A caller-tagged bulk flow routed between two VNs.
    User(u64),
    /// A CBR cross-traffic episode pinned to one pipe.
    Cbr(PipeId),
}

/// A tag byte (0 user, 1 CBR), then the tag or the pipe.
impl Codec for FlowKey {
    const MIN_BYTES: usize = 1 + PipeId::MIN_BYTES;

    fn put(&self, w: &mut ByteWriter) {
        match *self {
            FlowKey::User(tag) => (0u8, tag).put(w),
            FlowKey::Cbr(pipe) => (1u8, pipe).put(w),
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(FlowKey::User(u64::get(r)?)),
            1 => Ok(FlowKey::Cbr(PipeId::get(r)?)),
            _ => Err(CodecError::Invalid("unknown fluid flow key tag")),
        }
    }
}

/// What a fluid flow crosses.
#[derive(Debug, Clone, Copy)]
enum FlowKind {
    /// Routed between two VNs; the pipe list follows the route table and is
    /// re-resolved whenever routing changes.
    Route { src: VnId, dst: VnId },
    /// Pinned to a single pipe (CBR episodes).
    Pipe { pipe: PipeId },
}

/// A tag byte (0 routed, 1 pinned), then the VN pair or the pipe.
impl Codec for FlowKind {
    const MIN_BYTES: usize = 1 + <(VnId, VnId)>::MIN_BYTES;

    fn put(&self, w: &mut ByteWriter) {
        match *self {
            FlowKind::Route { src, dst } => (0u8, src, dst).put(w),
            FlowKind::Pipe { pipe } => (1u8, pipe).put(w),
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(FlowKind::Route {
                src: VnId::get(r)?,
                dst: VnId::get(r)?,
            }),
            1 => Ok(FlowKind::Pipe {
                pipe: PipeId::get(r)?,
            }),
            _ => Err(CodecError::Invalid("unknown fluid flow kind tag")),
        }
    }
}

mn_util::codec_record! {
    /// One fluid flow: demand, weight, and the solver's current allocation.
    #[derive(Debug)]
    struct FlowSlot {
        key: FlowKey,
        kind: FlowKind,
        /// Aggregate offered rate in bits/second.
        demand_bps: u64,
        /// Max-min weight: the number of modelled clients this flow aggregates.
        weight: u64,
        /// Allocated rate from the last solve, bits/second.
        rate_bps: u64,
        /// Resolved pipe route (for `Pipe` kind, the single pinned pipe).
        pipes: Vec<PipeId>,
        /// `false` when the route lookup failed (unroutable flows get rate 0).
        routable: bool,
        /// Exact integral of the allocated rate over virtual time.
        goodput_bits_ns: u128,
        /// Solver scratch: the flow's allocation is final for this solve.
        frozen: Transient<bool>,
    }
}

/// Coordinator-owned fluid flow state: the flow set, per-pipe capacities and
/// demands, and the epoch clock. Both execution backends drive one of these
/// identically, which is what makes the combined fluid+packet stream
/// bit-identical across them.
#[derive(Debug)]
pub struct FluidState {
    /// Virtual time all flow integrals have been settled to.
    clock: SimTime,
    /// Next scheduled rate recompute, if any flow is live.
    next_epoch: Option<SimTime>,
    flows: Vec<FlowSlot>,
    index: HashMap<FlowKey, usize>,
    /// Per-pipe capacity in bits/second, kept in sync with pipe attrs.
    capacity_bps: Vec<u64>,
    /// Per-pipe fluid demand distributed to the cores, bits/second.
    demand_bps: Vec<u64>,
    /// Scratch: demand totals of the solve in progress.
    new_demand: Vec<u64>,
    /// Scratch: per-pipe residual capacity during a solve.
    remaining: Vec<u64>,
    /// Scratch: per-pipe unfrozen weight sums during a solve.
    wsum: Vec<u64>,
    /// Pipes whose demand changed in the last solve, with the new demand.
    changed: Vec<(PipeId, u64)>,
    /// Routing changed since the last solve: re-resolve `Route` flows.
    routes_dirty: bool,
}

impl FluidState {
    /// Creates the state over `capacity_bps[pipe]` capacities.
    pub fn new(capacity_bps: Vec<u64>) -> Self {
        let pipes = capacity_bps.len();
        FluidState {
            clock: SimTime::ZERO,
            next_epoch: None,
            flows: Vec::new(),
            index: HashMap::new(),
            capacity_bps,
            demand_bps: vec![0; pipes],
            new_demand: vec![0; pipes],
            remaining: vec![0; pipes],
            wsum: vec![0; pipes],
            changed: Vec::new(),
            routes_dirty: false,
        }
    }

    /// Returns `true` while any fluid flow (or CBR episode) is live.
    pub fn has_flows(&self) -> bool {
        !self.flows.is_empty()
    }

    /// The next scheduled rate-recompute epoch, if flows are live.
    #[inline]
    pub fn next_epoch(&self) -> Option<SimTime> {
        self.next_epoch
    }

    /// The virtual time the flow integrals are settled to.
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// Number of live fluid flows (CBR episodes included).
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Sum of modelled clients (weights) across user flows.
    pub fn modelled_clients(&self) -> u64 {
        self.flows
            .iter()
            .filter(|f| matches!(f.key, FlowKey::User(_)))
            .map(|f| f.weight)
            .sum()
    }

    /// Adds a routed bulk flow: `demand` offered from `src` to `dst`,
    /// aggregating `clients` modelled clients (its max-min weight). Returns
    /// `false` if the tag is already in use.
    pub fn add_flow(
        &mut self,
        tag: u64,
        src: VnId,
        dst: VnId,
        demand: DataRate,
        clients: u32,
        at: SimTime,
    ) -> bool {
        let key = FlowKey::User(tag);
        if self.index.contains_key(&key) {
            return false;
        }
        self.integrate_to(at);
        self.index.insert(key, self.flows.len());
        self.flows.push(FlowSlot {
            key,
            kind: FlowKind::Route { src, dst },
            demand_bps: demand.as_bps(),
            weight: clients.max(1) as u64,
            rate_bps: 0,
            pipes: Vec::new(),
            routable: false,
            goodput_bits_ns: 0,
            frozen: Transient(false),
        });
        self.routes_dirty = true;
        true
    }

    /// Resizes a flow's demand and client count. Returns `false` for an
    /// unknown tag.
    pub fn resize_flow(&mut self, tag: u64, demand: DataRate, clients: u32, at: SimTime) -> bool {
        let Some(&slot) = self.index.get(&FlowKey::User(tag)) else {
            return false;
        };
        self.integrate_to(at);
        let flow = &mut self.flows[slot];
        flow.demand_bps = demand.as_bps();
        flow.weight = clients.max(1) as u64;
        true
    }

    /// Removes a flow. Returns `false` for an unknown tag.
    pub fn remove_flow(&mut self, tag: u64, at: SimTime) -> bool {
        self.remove_key(FlowKey::User(tag), at)
    }

    /// Installs, replaces or (with `None`) removes the fixed-rate fluid
    /// demand backing a CBR episode on `pipe`.
    pub fn set_cbr(&mut self, pipe: PipeId, rate: Option<DataRate>, at: SimTime) {
        let key = FlowKey::Cbr(pipe);
        match rate {
            None => {
                self.remove_key(key, at);
            }
            Some(rate) => {
                self.integrate_to(at);
                if let Some(&slot) = self.index.get(&key) {
                    self.flows[slot].demand_bps = rate.as_bps();
                } else {
                    self.index.insert(key, self.flows.len());
                    self.flows.push(FlowSlot {
                        key,
                        kind: FlowKind::Pipe { pipe },
                        demand_bps: rate.as_bps(),
                        weight: 1,
                        rate_bps: 0,
                        pipes: vec![pipe],
                        routable: true,
                        goodput_bits_ns: 0,
                        frozen: Transient(false),
                    });
                }
            }
        }
    }

    fn remove_key(&mut self, key: FlowKey, at: SimTime) -> bool {
        let Some(slot) = self.index.remove(&key) else {
            return false;
        };
        self.integrate_to(at);
        self.flows.swap_remove(slot);
        if let Some(moved) = self.flows.get(slot) {
            self.index.insert(moved.key, slot);
        }
        true
    }

    /// Removes every routed fluid flow that sources from or sinks at `vn`
    /// (a departed endpoint keeps no demand on the network). Returns the
    /// number of flows removed; the caller follows up with
    /// [`FluidState::recompute`] to redistribute the freed share.
    pub fn remove_vn_flows(&mut self, vn: VnId, at: SimTime) -> usize {
        let doomed: Vec<FlowKey> = self
            .flows
            .iter()
            .filter(|f| matches!(f.kind, FlowKind::Route { src, dst } if src == vn || dst == vn))
            .map(|f| f.key)
            .collect();
        for key in &doomed {
            self.remove_key(*key, at);
        }
        doomed.len()
    }

    /// The rate allocated to a flow by the last solve.
    pub fn flow_rate(&self, tag: u64) -> Option<DataRate> {
        self.index
            .get(&FlowKey::User(tag))
            .map(|&slot| DataRate::from_bps(self.flows[slot].rate_bps))
    }

    /// Bytes of goodput a flow has accumulated up to the settled clock,
    /// saturating at `u64::MAX`.
    pub fn flow_goodput_bytes(&self, tag: u64) -> Option<u64> {
        self.index.get(&FlowKey::User(tag)).map(|&slot| {
            u64::try_from(self.flows[slot].goodput_bits_ns / BITS_NS_PER_BYTE).unwrap_or(u64::MAX)
        })
    }

    /// Updates a pipe's capacity after its attributes changed. The caller
    /// follows up with [`FluidState::recompute`] at the current clock.
    pub fn set_capacity(&mut self, pipe: PipeId, bandwidth: DataRate) {
        if let Some(slot) = self.capacity_bps.get_mut(pipe.index()) {
            *slot = bandwidth.as_bps();
        }
    }

    /// Marks routed flows stale after a routing change; the next solve
    /// re-resolves their pipe lists.
    pub fn mark_routes_dirty(&mut self) {
        self.routes_dirty = true;
    }

    /// Settles every flow's goodput integral up to `at` at the current
    /// piecewise-constant rates.
    #[inline]
    pub fn integrate_to(&mut self, at: SimTime) {
        if at <= self.clock {
            return;
        }
        let elapsed_ns = (at - self.clock).as_nanos() as u128;
        self.clock = at;
        for flow in &mut self.flows {
            flow.goodput_bits_ns += flow.rate_bps as u128 * elapsed_ns;
        }
    }

    /// Settles integrals to `at`, re-solves the weighted max-min fair share,
    /// and returns the pipes whose total fluid demand changed (with the new
    /// demand in bits/second) for distribution to the owning cores.
    ///
    /// CBR episodes are allocated first, in installation order, each taking
    /// `min(demand, remaining capacity)` on its pipe — preserving PR 4's
    /// semantics where cross traffic consumes its configured rate
    /// unconditionally. Routed flows then water-fill the residual:
    /// every unfrozen flow grows at `weight × increment` until its demand is
    /// met or a crossed pipe saturates. Integer floor arithmetic throughout;
    /// each round freezes at least one flow, so the solve terminates in at
    /// most `flows` rounds with per-flow error below one weight-quantum of
    /// bits/second.
    pub fn recompute(&mut self, at: SimTime, routes: &RouteTable) -> &[(PipeId, u64)] {
        self.integrate_to(at);
        if self.routes_dirty {
            self.resolve_routes(routes);
            self.routes_dirty = false;
        }
        self.solve();
        // Diff the new per-pipe totals against what the cores currently
        // apply, reusing the changed buffer.
        self.changed.clear();
        for (idx, (&new, old)) in self
            .new_demand
            .iter()
            .zip(self.demand_bps.iter_mut())
            .enumerate()
        {
            if new != *old {
                *old = new;
                self.changed.push((PipeId::from_index(idx), new));
            }
        }
        // Maintain the epoch grid: live flows keep a recompute scheduled,
        // never before the clock — a change applied at its (earlier)
        // scheduled time, or a restored epoch behind the clock, does not
        // have the epoch loop step up from the past.
        if self.flows.is_empty() {
            self.next_epoch = None;
        } else if self.next_epoch.is_none_or(|e| e <= at) {
            self.next_epoch = Some((at + DEFAULT_FLUID_EPOCH).max(self.clock));
        }
        &self.changed
    }

    /// Re-resolves every routed flow's pipe list from the route table.
    fn resolve_routes(&mut self, routes: &RouteTable) {
        for flow in &mut self.flows {
            let FlowKind::Route { src, dst } = flow.kind else {
                continue;
            };
            flow.pipes.clear();
            match routes.route_id(src.index(), dst.index()) {
                Some(id) => {
                    flow.routable = true;
                    flow.pipes.extend_from_slice(routes.pipes(id));
                }
                None => {
                    // Same-location pairs share a row slot with "no route";
                    // src == dst flows are local and see no pipe, anything
                    // else is unroutable until a reroute restores a path.
                    flow.routable = src == dst;
                }
            }
        }
    }

    /// The weighted bounded max-min water-fill over `self.flows`, writing
    /// per-pipe totals into `self.new_demand` and per-flow rates in place.
    fn solve(&mut self) {
        self.new_demand.iter_mut().for_each(|d| *d = 0);
        self.remaining.copy_from_slice(&self.capacity_bps);
        self.wsum.iter_mut().for_each(|w| *w = 0);

        // Pass 1: CBR episodes, installation order, demand-or-residual.
        for flow in &mut self.flows {
            *flow.frozen = false;
            let FlowKind::Pipe { pipe } = flow.kind else {
                continue;
            };
            let p = pipe.index();
            let rate = flow.demand_bps.min(self.remaining[p]);
            flow.rate_bps = rate;
            *flow.frozen = true;
            self.remaining[p] -= rate;
            self.new_demand[p] += rate;
        }

        // Pass 2: routed flows water-fill the residual.
        for flow in &mut self.flows {
            if *flow.frozen {
                continue;
            }
            flow.rate_bps = 0;
            if !flow.routable {
                *flow.frozen = true;
                continue;
            }
            if flow.pipes.is_empty() || flow.demand_bps == 0 {
                // Local (zero-hop) flows get their full demand off-network.
                flow.rate_bps = flow.demand_bps;
                *flow.frozen = true;
            }
        }
        loop {
            // Weight sums over unfrozen flows, and the bottleneck increment.
            let mut any = false;
            for flow in &self.flows {
                if *flow.frozen {
                    continue;
                }
                any = true;
                for &pipe in &flow.pipes {
                    self.wsum[pipe.index()] += flow.weight;
                }
            }
            if !any {
                break;
            }
            let mut inc = u64::MAX;
            for flow in &self.flows {
                if *flow.frozen {
                    continue;
                }
                for &pipe in &flow.pipes {
                    let p = pipe.index();
                    inc = inc.min(self.remaining[p] / self.wsum[p]);
                }
                // Demand-bounded: no flow needs more than its headroom.
                inc = inc.min((flow.demand_bps - flow.rate_bps).div_ceil(flow.weight));
            }
            // Grant the increment and freeze saturated flows. A flow crossing
            // the bottleneck pipe (whose residual fell below its weight sum)
            // freezes, so every round retires at least one flow.
            for flow in &mut self.flows {
                if *flow.frozen {
                    continue;
                }
                let grant = (inc.saturating_mul(flow.weight)).min(flow.demand_bps - flow.rate_bps);
                flow.rate_bps += grant;
                for &pipe in &flow.pipes {
                    let p = pipe.index();
                    self.remaining[p] -= grant.min(self.remaining[p]);
                }
                if flow.rate_bps >= flow.demand_bps {
                    *flow.frozen = true;
                }
            }
            for flow in &mut self.flows {
                if *flow.frozen {
                    continue;
                }
                if flow
                    .pipes
                    .iter()
                    .any(|pipe| self.remaining[pipe.index()] < self.wsum[pipe.index()])
                {
                    *flow.frozen = true;
                }
            }
            // Reset the weight sums for the next round (only touched pipes).
            for flow in &self.flows {
                for &pipe in &flow.pipes {
                    self.wsum[pipe.index()] = 0;
                }
            }
        }
        // Top-off: integer water-filling floors the per-round increment, so
        // a bottleneck can be left with up to (weight sum - 1) bps
        // unallocated. Hand the dregs out in installation order — a
        // saturated pipe must end at exactly zero residual, or the packet
        // path would see a sliver of bandwidth where the fluid model means
        // "full".
        for flow in &mut self.flows {
            if matches!(flow.kind, FlowKind::Pipe { .. }) || !flow.routable || flow.pipes.is_empty()
            {
                continue;
            }
            let headroom = flow.demand_bps - flow.rate_bps;
            if headroom == 0 {
                continue;
            }
            let avail = flow
                .pipes
                .iter()
                .map(|pipe| self.remaining[pipe.index()])
                .min()
                .unwrap_or(0);
            let grant = headroom.min(avail);
            if grant == 0 {
                continue;
            }
            flow.rate_bps += grant;
            for &pipe in &flow.pipes {
                self.remaining[pipe.index()] -= grant;
            }
        }
        // Per-pipe totals for routed flows.
        for flow in &self.flows {
            if matches!(flow.kind, FlowKind::Pipe { .. }) {
                continue;
            }
            for &pipe in &flow.pipes {
                self.new_demand[pipe.index()] += flow.rate_bps;
            }
        }
    }
}

/// The fluid state's checkpoint: the settled clock, the next epoch, every
/// flow slot in order (so restore reproduces slot indices and therefore CBR
/// allocation order exactly) and the dirty mark. Each pipe's capacity and
/// distributed demand are the pipe's own, which its core writes, so restore
/// fills them in from the restored pipes ([`FluidState::restore_pipe`]).
/// Written out rather than declared because the flow index and solver
/// scratch are rebuilt, not read. A restored state produces the same
/// solves, integrals and epoch schedule as the original — and refuses what
/// would hang or panic them: a next epoch within one epoch of [`SimTime::MAX`]
/// (the re-solve there would overflow the clock), a flow on a pipe beyond
/// the capacities, two flows under one key. A next epoch before the clock
/// is read as written: the first re-solve moves the grid up to the clock
/// ([`FluidState::recompute`]).
impl FluidState {
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        (self.clock, self.next_epoch).put(w);
        self.flows.put(w);
        self.routes_dirty.put(w);
    }

    /// Reads what [`FluidState::encode`] wrote, over `pipes` pipes whose
    /// capacity and demand stay zero until restored.
    pub(crate) fn decode(r: &mut ByteReader<'_>, pipes: usize) -> Result<Self, CodecError> {
        use CodecError::Invalid;
        let (clock, next_epoch) = <(SimTime, Option<SimTime>)>::get(r)?;
        let flows = Vec::<FlowSlot>::get(r)?;
        let routes_dirty = bool::get(r)?;
        if next_epoch.is_some_and(|at| at > SimTime::MAX - DEFAULT_FLUID_EPOCH) {
            return Err(Invalid(
                "next fluid epoch within one epoch of the end of time",
            ));
        }
        let pinned = |flow: &FlowSlot| match flow.kind {
            FlowKind::Pipe { pipe } => Some(pipe),
            FlowKind::Route { .. } => None,
        };
        let mut named = flows
            .iter()
            .flat_map(|f| f.pipes.iter().copied().chain(pinned(f)));
        if named.any(|pipe| pipe.index() >= pipes) {
            return Err(Invalid("fluid flow on a pipe beyond the capacities"));
        }
        // The solver divides by a flow's weight; every constructor makes it
        // at least 1.
        if flows.iter().any(|flow| flow.weight == 0) {
            return Err(Invalid("fluid flow of weight 0"));
        }
        let mut index = HashMap::with_capacity(flows.len());
        for (slot, flow) in flows.iter().enumerate() {
            if index.insert(flow.key, slot).is_some() {
                return Err(Invalid("two fluid flows under one key"));
            }
        }
        Ok(FluidState {
            clock,
            next_epoch,
            flows,
            index,
            capacity_bps: vec![0; pipes],
            demand_bps: vec![0; pipes],
            new_demand: vec![0; pipes],
            remaining: vec![0; pipes],
            wsum: vec![0; pipes],
            changed: Vec::new(),
            routes_dirty,
        })
    }

    /// Restore's rebuild of `pipe`'s capacity and the demand its core
    /// applies, from the restored pipe.
    pub(crate) fn restore_pipe(&mut self, pipe: PipeId, capacity: DataRate, demand: DataRate) {
        self.capacity_bps[pipe.index()] = capacity.as_bps();
        self.demand_bps[pipe.index()] = demand.as_bps();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(routes: &[(usize, usize, Vec<PipeId>)], endpoints: usize) -> RouteTable {
        let mut t = RouteTable::new(endpoints);
        for (src, dst, pipes) in routes {
            let id = t.intern(pipes);
            t.set_pair(*src, *dst, id);
        }
        t
    }

    fn mbps(m: u64) -> DataRate {
        DataRate::from_mbps(m)
    }

    #[test]
    fn single_flow_is_demand_bounded() {
        let routes = table(&[(0, 1, vec![PipeId(0)])], 2);
        let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
        assert!(fluid.add_flow(1, VnId(0), VnId(1), mbps(4), 1, SimTime::ZERO));
        let changed = fluid.recompute(SimTime::ZERO, &routes);
        assert_eq!(changed, &[(PipeId(0), mbps(4).as_bps())]);
        assert_eq!(fluid.flow_rate(1), Some(mbps(4)));
    }

    #[test]
    fn bottleneck_is_shared_by_weight() {
        // Two flows over the same 9 Mb/s pipe, weights 1 and 2: 3 + 6.
        let routes = table(&[(0, 1, vec![PipeId(0)]), (2, 3, vec![PipeId(0)])], 4);
        let mut fluid = FluidState::new(vec![mbps(9).as_bps()]);
        assert!(fluid.add_flow(1, VnId(0), VnId(1), mbps(100), 1, SimTime::ZERO));
        assert!(fluid.add_flow(2, VnId(2), VnId(3), mbps(100), 2, SimTime::ZERO));
        fluid.recompute(SimTime::ZERO, &routes);
        assert_eq!(fluid.flow_rate(1), Some(mbps(3)));
        assert_eq!(fluid.flow_rate(2), Some(mbps(6)));
    }

    #[test]
    fn satisfied_flow_frees_its_share() {
        // Weight-equal flows, one demand-limited at 1 Mb/s: the other takes
        // the rest of the 10 Mb/s bottleneck (classic max-min, not 5/5).
        let routes = table(&[(0, 1, vec![PipeId(0)]), (2, 3, vec![PipeId(0)])], 4);
        let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
        fluid.add_flow(1, VnId(0), VnId(1), mbps(1), 1, SimTime::ZERO);
        fluid.add_flow(2, VnId(2), VnId(3), mbps(100), 1, SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        assert_eq!(fluid.flow_rate(1), Some(mbps(1)));
        assert_eq!(fluid.flow_rate(2), Some(mbps(9)));
    }

    #[test]
    fn multi_hop_flow_is_limited_by_its_tightest_pipe() {
        let routes = table(
            &[(0, 1, vec![PipeId(0), PipeId(1)]), (2, 3, vec![PipeId(1)])],
            4,
        );
        // Pipe 0: 4 Mb/s, pipe 1: 10 Mb/s shared.
        let mut fluid = FluidState::new(vec![mbps(4).as_bps(), mbps(10).as_bps()]);
        fluid.add_flow(1, VnId(0), VnId(1), mbps(100), 1, SimTime::ZERO);
        fluid.add_flow(2, VnId(2), VnId(3), mbps(100), 1, SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        // Flow 1 is capped at 4 by pipe 0; flow 2 takes the remaining 6.
        assert_eq!(fluid.flow_rate(1), Some(mbps(4)));
        assert_eq!(fluid.flow_rate(2), Some(mbps(6)));
    }

    #[test]
    fn cbr_episodes_are_allocated_before_routed_flows() {
        let routes = table(&[(0, 1, vec![PipeId(0)])], 2);
        let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
        fluid.set_cbr(PipeId(0), Some(mbps(4)), SimTime::ZERO);
        fluid.add_flow(1, VnId(0), VnId(1), mbps(100), 8, SimTime::ZERO);
        let changed = fluid.recompute(SimTime::ZERO, &routes);
        // CBR takes its 4 Mb/s off the top; the routed flow gets the rest.
        assert_eq!(changed, &[(PipeId(0), mbps(10).as_bps())]);
        assert_eq!(fluid.flow_rate(1), Some(mbps(6)));
        // Removing the episode hands its share to the routed flow; the
        // pipe's total demand is unchanged, so nothing is redistributed.
        fluid.set_cbr(PipeId(0), None, SimTime::ZERO);
        let changed = fluid.recompute(SimTime::ZERO, &routes);
        assert_eq!(changed, &[]);
        assert_eq!(fluid.flow_rate(1), Some(mbps(10)));
    }

    #[test]
    fn goodput_integrates_piecewise_constant_rates() {
        let routes = table(&[(0, 1, vec![PipeId(0)])], 2);
        let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
        fluid.add_flow(1, VnId(0), VnId(1), mbps(8), 1, SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        // 8 Mb/s for one second = 1 MB.
        fluid.integrate_to(SimTime::from_secs(1));
        assert_eq!(fluid.flow_goodput_bytes(1), Some(1_000_000));
        // Resize to 2 Mb/s for another second: +250 kB.
        fluid.resize_flow(1, mbps(2), 1, SimTime::from_secs(1));
        fluid.recompute(SimTime::from_secs(1), &routes);
        fluid.integrate_to(SimTime::from_secs(2));
        assert_eq!(fluid.flow_goodput_bytes(1), Some(1_250_000));
        // 100 Gb/s to the end of the clock is ~2.3·10^20 bytes: the count
        // saturates instead of wrapping.
        let fast = DataRate::from_gbps(100);
        let mut fluid = FluidState::new(vec![fast.as_bps()]);
        fluid.add_flow(1, VnId(0), VnId(1), fast, 1, SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        fluid.integrate_to(SimTime::from_nanos(u64::MAX));
        assert_eq!(fluid.flow_goodput_bytes(1), Some(u64::MAX));
    }

    #[test]
    fn epochs_are_scheduled_while_flows_live() {
        let routes = table(&[(0, 1, vec![PipeId(0)])], 2);
        let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
        assert_eq!(fluid.next_epoch(), None);
        fluid.add_flow(1, VnId(0), VnId(1), mbps(1), 1, SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        assert_eq!(
            fluid.next_epoch(),
            Some(SimTime::ZERO + DEFAULT_FLUID_EPOCH)
        );
        // A mid-epoch mutation recompute keeps the grid.
        fluid.recompute(SimTime::from_millis(3), &routes);
        assert_eq!(
            fluid.next_epoch(),
            Some(SimTime::ZERO + DEFAULT_FLUID_EPOCH)
        );
        // Crossing the epoch reschedules; removing the flow retires it.
        fluid.recompute(SimTime::from_millis(10), &routes);
        assert_eq!(
            fluid.next_epoch(),
            Some(SimTime::from_millis(10) + DEFAULT_FLUID_EPOCH)
        );
        fluid.remove_flow(1, SimTime::from_millis(12));
        fluid.recompute(SimTime::from_millis(12), &routes);
        assert_eq!(fluid.next_epoch(), None);
    }

    #[test]
    fn departed_vn_flows_are_removed_in_bulk() {
        let routes = table(&[(0, 1, vec![PipeId(0)]), (2, 3, vec![PipeId(0)])], 4);
        let mut fluid = FluidState::new(vec![mbps(9).as_bps()]);
        fluid.add_flow(1, VnId(0), VnId(1), mbps(100), 1, SimTime::ZERO);
        fluid.add_flow(2, VnId(2), VnId(3), mbps(100), 2, SimTime::ZERO);
        fluid.add_flow(3, VnId(1), VnId(2), mbps(100), 1, SimTime::ZERO);
        fluid.set_cbr(PipeId(0), Some(mbps(1)), SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        // VN 1 departs: flows 1 (dst) and 3 (src) go; flow 2 and CBR stay.
        assert_eq!(fluid.remove_vn_flows(VnId(1), SimTime::ZERO), 2);
        assert_eq!(fluid.flow_count(), 2);
        assert_eq!(fluid.flow_rate(1), None);
        assert_eq!(fluid.flow_rate(3), None);
        fluid.recompute(SimTime::ZERO, &routes);
        // The survivor takes the whole residual after the CBR episode.
        assert_eq!(fluid.flow_rate(2), Some(mbps(8)));
        // Removing for an uninvolved VN is a no-op.
        assert_eq!(fluid.remove_vn_flows(VnId(0), SimTime::ZERO), 0);
    }

    #[test]
    fn codec_round_trip_is_byte_stable_and_resumes_identically() {
        let routes = table(
            &[(0, 1, vec![PipeId(0), PipeId(1)]), (2, 3, vec![PipeId(1)])],
            4,
        );
        let mut fluid = FluidState::new(vec![mbps(4).as_bps(), mbps(10).as_bps()]);
        fluid.add_flow(1, VnId(0), VnId(1), mbps(100), 3, SimTime::ZERO);
        fluid.add_flow(2, VnId(2), VnId(3), mbps(100), 1, SimTime::ZERO);
        fluid.set_cbr(PipeId(1), Some(mbps(2)), SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        fluid.integrate_to(SimTime::from_millis(7));

        // Snapshot → restore → snapshot is byte-identical, and every strict
        // prefix of the bytes is refused.
        let bytes = encoded(&fluid);
        assert!(encoded(&round_trip(&fluid).unwrap()) == bytes);
        for len in 0..bytes.len() {
            let r = &mut ByteReader::new(&bytes[..len]);
            assert!(FluidState::decode(r, 2).is_err());
        }
        let mut restored = round_trip(&fluid).unwrap();

        // The restored state observes and evolves exactly like the original.
        assert_eq!(restored.clock(), fluid.clock());
        assert_eq!(restored.next_epoch(), fluid.next_epoch());
        assert_eq!(restored.flow_rate(1), fluid.flow_rate(1));
        assert_eq!(restored.flow_goodput_bytes(2), fluid.flow_goodput_bytes(2));
        assert_eq!(restored.modelled_clients(), fluid.modelled_clients());
        for state in [&mut fluid, &mut restored] {
            state.resize_flow(1, mbps(3), 2, SimTime::from_millis(7));
            state.recompute(SimTime::from_millis(9), &routes);
            state.integrate_to(SimTime::from_millis(20));
        }
        assert_eq!(restored.flow_rate(1), fluid.flow_rate(1));
        assert_eq!(restored.flow_rate(2), fluid.flow_rate(2));
        assert_eq!(restored.flow_goodput_bytes(1), fluid.flow_goodput_bytes(1));
        assert_eq!(restored.flow_goodput_bytes(2), fluid.flow_goodput_bytes(2));
    }

    fn encoded(state: &FluidState) -> Vec<u8> {
        let mut w = ByteWriter::new();
        state.encode(&mut w);
        w.into_bytes()
    }

    /// `state` written and read back, each pipe's capacity and demand
    /// restored from the original, as restore fills them in from the pipes.
    fn round_trip(state: &FluidState) -> Result<FluidState, CodecError> {
        let (bytes, pipes) = (encoded(state), state.capacity_bps.len());
        let mut restored = FluidState::decode(&mut ByteReader::new(&bytes), pipes)?;
        for (p, (&capacity, &demand)) in
            state.capacity_bps.iter().zip(&state.demand_bps).enumerate()
        {
            let (capacity, demand) = (DataRate::from_bps(capacity), DataRate::from_bps(demand));
            restored.restore_pipe(PipeId::from_index(p), capacity, demand);
        }
        Ok(restored)
    }

    /// A flow of 4 Mb/s between VNs 0 and 1 over pipe 0, solved.
    fn one_flow() -> FluidState {
        let routes = table(&[(0, 1, vec![PipeId(0)])], 2);
        let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
        fluid.add_flow(1, VnId(0), VnId(1), mbps(4), 1, SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        fluid
    }

    #[test]
    fn decode_rejects_corrupt_flow_tag() {
        let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
        fluid.set_cbr(PipeId(0), Some(mbps(1)), SimTime::ZERO);
        let mut bytes = encoded(&fluid);
        // The flow-key tag byte follows clock + Option tag + len.
        let tag_at = 8 + 1 + 8;
        assert_eq!(bytes[tag_at], 1, "layout drifted; fix the offset");
        bytes[tag_at] = 9;
        let r = &mut ByteReader::new(&bytes);
        assert!(FluidState::decode(r, 1).is_err());
    }

    #[test]
    fn a_next_epoch_near_the_end_of_time_is_refused() {
        // There the first re-solve's `at + DEFAULT_FLUID_EPOCH` would
        // overflow. (The clock leads, then the option tag and the next
        // epoch.)
        let with = |next_epoch: SimTime| {
            let mut bytes = encoded(&one_flow());
            assert_eq!(bytes[8], 1, "layout drifted; fix the offset");
            bytes[9..17].copy_from_slice(&next_epoch.as_nanos().to_le_bytes());
            let r = &mut ByteReader::new(&bytes);
            FluidState::decode(r, 1).map(|_| ())
        };
        let refused = Err(CodecError::Invalid(
            "next fluid epoch within one epoch of the end of time",
        ));
        let last = SimTime::MAX - DEFAULT_FLUID_EPOCH;
        assert_eq!(with(last + SimDuration::from_nanos(1)), refused);
        assert_eq!(with(SimTime::MAX), refused);
        assert_eq!(with(last), Ok(()));
    }

    #[test]
    fn the_next_epoch_is_never_set_before_the_clock() {
        // A flow started behind the clock (a dynamics event applied late,
        // at its scheduled time) is solved there; its first epoch is
        // `at + DEFAULT_FLUID_EPOCH`, or the clock if that is earlier.
        let routes = table(&[(0, 1, vec![PipeId(0)])], 2);
        let clock = SimTime::from_millis(100);
        let started_at = |at: SimTime| {
            let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
            fluid.integrate_to(clock);
            assert!(fluid.add_flow(1, VnId(0), VnId(1), mbps(4), 1, at));
            fluid.recompute(at, &routes);
            fluid
        };
        assert_eq!(
            started_at(SimTime::from_millis(90)).next_epoch(),
            Some(clock)
        );
        let near = SimTime::from_millis(95);
        assert_eq!(
            started_at(near).next_epoch(),
            Some(near + DEFAULT_FLUID_EPOCH)
        );

        // A restored epoch far behind the clock: the first re-solve, at
        // that epoch, moves the grid up to the clock in one step.
        let fluid = started_at(near);
        let mut bytes = encoded(&fluid);
        bytes[9..17].copy_from_slice(&0u64.to_le_bytes());
        let r = &mut ByteReader::new(&bytes);
        let mut restored = FluidState::decode(r, 1).unwrap();
        assert_eq!(restored.next_epoch(), Some(SimTime::ZERO));
        restored.recompute(SimTime::ZERO, &routes);
        assert_eq!(restored.next_epoch(), Some(clock));
    }

    #[test]
    fn a_flow_on_a_pipe_beyond_the_capacities_is_refused() {
        // The solve indexes its per-pipe vectors with every pipe a flow
        // crosses, and with the pipe a CBR episode is pinned to.
        let refused = Err(CodecError::Invalid(
            "fluid flow on a pipe beyond the capacities",
        ));
        let mut routed = one_flow();
        routed.flows[0].pipes.push(PipeId(1));
        assert_eq!(round_trip(&routed).map(|_| ()), refused);
        let mut pinned = one_flow();
        pinned.set_cbr(PipeId(0), Some(mbps(1)), SimTime::ZERO);
        pinned.flows[1].kind = FlowKind::Pipe { pipe: PipeId(7) };
        assert_eq!(round_trip(&pinned).map(|_| ()), refused);
    }

    #[test]
    fn two_flows_under_one_key_are_refused() {
        // The index would name one slot for both, and a removal would
        // leave it pointing at the wrong flow or past the end.
        let mut fluid = one_flow();
        fluid.add_flow(2, VnId(1), VnId(0), mbps(1), 1, SimTime::ZERO);
        fluid.flows[1].key = FlowKey::User(1);
        let refused = Err(CodecError::Invalid("two fluid flows under one key"));
        assert_eq!(round_trip(&fluid).map(|_| ()), refused);
    }

    #[test]
    fn unroutable_flows_get_zero_until_rerouted() {
        let routes = table(&[(0, 1, vec![PipeId(0)])], 4);
        let mut fluid = FluidState::new(vec![mbps(10).as_bps()]);
        fluid.add_flow(1, VnId(2), VnId(3), mbps(5), 1, SimTime::ZERO);
        fluid.recompute(SimTime::ZERO, &routes);
        assert_eq!(fluid.flow_rate(1), Some(DataRate::ZERO));
        // Routing appears: the dirty mark re-resolves it.
        let routes = table(&[(0, 1, vec![PipeId(0)]), (2, 3, vec![PipeId(0)])], 4);
        fluid.mark_routes_dirty();
        fluid.recompute(SimTime::from_millis(1), &routes);
        assert_eq!(fluid.flow_rate(1), Some(mbps(5)));
    }
}
