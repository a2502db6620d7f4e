//! A single ModelNet core node.
//!
//! The core holds the pipes assigned to it, a scheduler wheel of pipe
//! deadlines, the descriptors of the packets currently inside it, and the
//! hardware capacity model.
//!
//! Descriptors stay put. A descriptor is written into the core's slab when
//! the packet is admitted (edge ingress or tunnel accept), updated in place
//! at every hop, and copied out exactly once: into the [`Delivery`] when its
//! route is complete, or by value into [`TickOutput::tunnels`] when its next
//! pipe lives on a peer core. What moves between this core's pipes and
//! through its wheel is a 4-byte slot handle and a deadline. Handles never
//! leave the core, and neither their values nor the free list's order reach
//! a snapshot or any result: [`EmulatorCore::encode_state`] writes the
//! descriptor a handle refers to, and restore refills the slab densely.
//!
//! Two priorities govern the core's behaviour, mirroring the kernel design
//! in the paper:
//!
//! * the **scheduler** (pipe-to-pipe movement and final delivery) runs every
//!   clock tick and always completes its due work — emulated delays are never
//!   stretched by load;
//! * **packet admission** (the NIC interrupt path) runs at lower priority: if
//!   the accumulated emulation work exceeds the CPU's ability to keep up, or
//!   the NIC line rate / buffering is exceeded, newly arriving packets are
//!   dropped *physically* and counted as such.

use std::sync::Arc;

use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use mn_assign::{CoreId, PipeOwnershipDirectory};
use mn_distill::{PipeAttrs, PipeId};
use mn_pipe::{EmuPipe, EnqueueOutcome, PipeStats};
use mn_routing::RouteTable;
use mn_util::rngs::derived_rng;
use mn_util::{ByteReader, ByteSize, ByteWriter, Codec, CodecError, DataRate, SimDuration};
use mn_util::{SimTime, TimerWheel};

use crate::accuracy::AccuracyLog;
use crate::descriptor::{Delivery, Descriptor};
use crate::hardware::HardwareProfile;

/// Result of offering a packet to the core's NIC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngressOutcome {
    /// The packet was admitted and scheduled onto its first pipe (or queued
    /// for tunnelling if the first pipe lives on a peer core).
    Accepted,
    /// Dropped at the NIC: the line rate / receive buffer was exceeded.
    PhysicalDropNic,
    /// Dropped at the NIC because emulation work has saturated the CPU and
    /// interrupt handling is starved.
    PhysicalDropCpu,
    /// The packet was dropped by the first pipe's admission (virtual drop:
    /// queue overflow or random loss), or that pipe is a failed link
    /// (counted in [`CoreStats::dropped_unreachable`]).
    VirtualDrop,
}

impl IngressOutcome {
    /// Returns `true` if the packet entered the emulation.
    pub fn is_accepted(&self) -> bool {
        matches!(self, IngressOutcome::Accepted)
    }
}

/// Declares [`CoreStats`] from one field list: the struct and its
/// checkpoint codec (through `codec_record!`, fields in declaration order, so
/// the order here *is* the payload layout), the field-wise
/// [`CoreStats::merge`] and the unit tests' sample.
macro_rules! core_stats {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        mn_util::codec_record! {
            /// Counters for one core.
            #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
            pub struct CoreStats {
                $($(#[$doc])* pub $field: u64,)*
            }
        }

        impl CoreStats {
            /// Folds another core's counters into this one, field by field.
            ///
            /// Every field is a plain sum, so merging is associative and
            /// commutative: per-thread stats drained in any grouping (one
            /// core at a time, pairwise trees, all at once) produce the same
            /// total. The parallel backend relies on this when each core
            /// thread reports its counters independently.
            pub fn merge(&mut self, other: &CoreStats) {
                $(self.$field += other.$field;)*
            }

            /// A distinct odd multiplier and offset per field, so any
            /// dropped or double-counted field changes a result.
            #[cfg(test)]
            fn sample(seed: u64) -> CoreStats {
                let mut k = 0;
                CoreStats {
                    $($field: {
                        k += 1;
                        seed * (2 * k + 1) + k
                    },)*
                }
            }
        }
    };
}

core_stats! {
    /// Packets offered by edge nodes.
    packets_offered,
    /// Packets admitted into the emulation.
    packets_admitted,
    /// Packets delivered to their destination edge node by this core.
    packets_delivered,
    /// Descriptors tunnelled to a peer core.
    tunnels_out,
    /// Descriptors received from peer cores.
    tunnels_in,
    /// Packets dropped at the NIC because of line-rate/buffer exhaustion.
    physical_drops_nic,
    /// Packets dropped at the NIC because the CPU was saturated by emulation.
    physical_drops_cpu,
    /// Bytes received (edge ingress plus tunnels in).
    bytes_in,
    /// Bytes transmitted (deliveries plus tunnels out).
    bytes_out,
    /// Always 0 since format v8: a CBR episode is a fluid demand (its bytes
    /// count in `fluid_modelled_bytes`), and nothing meters its packets. A
    /// core restored from a v7 checkpoint keeps the count that run made.
    cbr_injected,
    /// Descriptors dropped because their next pipe was a failed link
    /// (configured bandwidth zero, e.g. after a `NodeDown` event). Without
    /// this counter such packets would vanish from the per-core ledger:
    /// admitted but never delivered, tunnelled or physically dropped.
    dropped_unreachable,
    /// Bytes of traffic modelled at flow level (fluid) on this core's
    /// pipes: the per-pipe fluid demand integrated over virtual time. The
    /// count saturates at `u64::MAX` (16 EiB, e.g. 100 Gb/s for ~47 years of
    /// virtual time) rather than wrapping; so does a fluid flow's goodput.
    fluid_modelled_bytes,
}

impl CoreStats {
    /// All physical drops.
    pub fn physical_drops(&self) -> u64 {
        self.physical_drops_nic + self.physical_drops_cpu
    }

    /// [`CoreStats::merge`] as a by-value fold step.
    pub fn merged(mut self, other: &CoreStats) -> CoreStats {
        self.merge(other);
        self
    }
}

/// The output of one scheduler pass. Callers on the steady-state path keep
/// one of these alive and pass it to [`EmulatorCore::tick_into`] so its
/// buffers are reused tick after tick instead of reallocated.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Packets that exited their last pipe and must be forwarded to the
    /// destination edge node.
    pub deliveries: Vec<Delivery>,
    /// Descriptors whose next pipe is owned by another core, together with
    /// that pipe and their arrival there: the ideal time they left their
    /// previous pipe plus the profile's `tunnel_latency`.
    pub tunnels: Vec<(PipeId, Descriptor, SimTime)>,
}

impl TickOutput {
    /// Empties both buffers, keeping their capacity.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.tunnels.clear();
    }
}

/// Bytes a tunnelled descriptor occupies on the inter-core wire.
fn tunnel_wire_bytes(profile: &HardwareProfile, descriptor: &Descriptor) -> u64 {
    if profile.payload_caching {
        HardwareProfile::DESCRIPTOR_BYTES
    } else {
        descriptor.packet.size.as_bytes()
    }
}

/// Handle to a descriptor in its core's slab.
type Slot = u32;

/// The handle of slab index `index`. Panics at 2^32 or more, where the
/// handle would wrap onto another descriptor's slot.
#[inline]
fn slot_at(index: usize) -> Slot {
    assert!(index <= Slot::MAX as usize, "fewer than 2^32 slab slots");
    index as Slot
}

/// A descriptor on its way into a pipe.
enum Entering {
    /// Just admitted: it takes a slab slot only if the core keeps it.
    New(Descriptor),
    /// Already inside: it gives its slot back if the core drops it.
    Held(Slot),
}

/// One emulation core. It owns what is addressed to it: a descriptor
/// tunnelled here is the core's from the moment the executor hands it over
/// ([`EmulatorCore::receive_tunnel`]), waiting in its inbox until the first
/// pass at or after its arrival admits it.
#[derive(Debug, Clone)]
pub struct EmulatorCore {
    id: CoreId,
    profile: HardwareProfile,
    /// The interned routes shared by every core of the emulation; descriptors
    /// carry a `RouteId` into this table instead of a route of their own.
    /// The table is sharded copy-on-write: a reconfiguration publishes a new
    /// `Arc` whose untouched row blocks are the same allocations this core
    /// was already reading, so the per-packet lookup stays a fixed chain of
    /// indexed loads and a swap invalidates nothing that did not change.
    routes: Arc<RouteTable>,
    /// Dense pipe table indexed by `PipeId`: `Some` for the pipes this core
    /// owns, `None` for slots owned by peer cores. Sized once at
    /// construction to the distilled topology's pipe count. A pipe queues
    /// handles into `slab`, not descriptors.
    pipes: Vec<Option<EmuPipe<Slot>>>,
    /// The descriptors of every packet inside this core. A slot is taken
    /// when a packet is accepted by its first local pipe (or staged for a
    /// peer core) and released when the packet is delivered, tunnelled out
    /// or dropped, so the slab grows to the peak number of packets
    /// concurrently inside and no further.
    slab: Vec<Descriptor>,
    /// Released slots of `slab`, reused last-released-first.
    free: Vec<Slot>,
    /// Scheduler wheel: one entry per accepted packet, keyed by its pipe exit
    /// deadline. O(1) push/pop regardless of how many pipes are pending (the
    /// paper's requirement for scheduling tens of thousands of pipes at
    /// 100 µs fidelity). Entries for packets that were already moved by an
    /// earlier pass are stale and simply find no due work.
    wheel: TimerWheel<PipeId>,
    /// Descriptors whose next pipe lives on a peer core, with that pipe and
    /// the ideal time they left their previous one, staged until the end of
    /// the current (or next) tick copies them out as tunnel requests.
    pending_remote: Vec<(PipeId, Slot, SimTime)>,
    /// Tunnels addressed to this core, keyed by arrival time, in the order
    /// the executor filed them ([`EmulatorCore::receive_tunnel`]); a pass
    /// admits the due ones before anything else. Not in the slab: a
    /// descriptor takes a slot only once a pipe here accepts it.
    pub(crate) inbox: TimerWheel<Descriptor>,
    /// Sum of fluid demand over locally owned pipes, in bits/second.
    fluid_total_bps: u64,
    /// Virtual time the fluid byte integral has been advanced to.
    fluid_last: SimTime,
    /// Sub-byte remainder of the fluid integral, in bit-nanoseconds
    /// (always `< 8e9`, so the accounting is exact across epochs).
    fluid_bits_ns_rem: u64,
    // CPU model.
    cpu_backlog: SimDuration,
    cpu_busy_total: SimDuration,
    /// The last time CPU work was credited; the core starts at zero, so
    /// utilisation is measured over this long.
    cpu_last_credit: SimTime,
    // NIC receive model (token bucket at line rate, capped by the buffer).
    rx_tokens: f64,
    rx_last_refill: SimTime,
    stats: CoreStats,
    accuracy: AccuracyLog,
    rng: StdRng,
}

impl EmulatorCore {
    /// Creates a core with the given identity and hardware profile.
    /// `pipe_slots` is the distilled topology's total pipe count: the dense
    /// pipe table has one slot per pipe id, installed or not.
    pub fn new(
        id: CoreId,
        profile: HardwareProfile,
        seed: u64,
        routes: Arc<RouteTable>,
        pipe_slots: usize,
    ) -> Self {
        EmulatorCore {
            id,
            profile,
            routes,
            pipes: std::iter::repeat_with(|| None).take(pipe_slots).collect(),
            wheel: TimerWheel::new(),
            slab: Vec::new(),
            free: Vec::new(),
            pending_remote: Vec::new(),
            inbox: TimerWheel::new(),
            fluid_total_bps: 0,
            fluid_last: SimTime::ZERO,
            fluid_bits_ns_rem: 0,
            cpu_backlog: SimDuration::ZERO,
            cpu_busy_total: SimDuration::ZERO,
            cpu_last_credit: SimTime::ZERO,
            rx_tokens: profile.nic_buffer.as_bytes() as f64,
            rx_last_refill: SimTime::ZERO,
            stats: CoreStats::default(),
            accuracy: AccuracyLog::new(),
            rng: derived_rng(seed, 0xC0DE + id.index() as u64),
        }
    }

    /// This core's identity.
    pub fn id(&self) -> CoreId {
        self.id
    }

    /// Installs a pipe on this core.
    ///
    /// # Panics
    ///
    /// Panics if the pipe id is outside the table this core was sized for.
    pub fn install_pipe(&mut self, pipe: PipeId, attrs: PipeAttrs) {
        self.pipes[pipe.index()] = Some(EmuPipe::new(attrs));
    }

    /// Returns `true` if this core owns the pipe.
    pub fn owns_pipe(&self, pipe: PipeId) -> bool {
        self.pipe(pipe).is_some()
    }

    /// The installed pipe for `id`, if this core owns it.
    #[inline]
    pub(crate) fn pipe(&self, id: PipeId) -> Option<&EmuPipe<Slot>> {
        self.pipes.get(id.index()).and_then(Option::as_ref)
    }

    /// Mutable access to the installed pipe for `id`.
    #[inline]
    fn pipe_mut(&mut self, id: PipeId) -> Option<&mut EmuPipe<Slot>> {
        self.pipes.get_mut(id.index()).and_then(Option::as_mut)
    }

    /// Installs the next published route-table generation.
    pub fn set_route_table(&mut self, routes: Arc<RouteTable>) {
        self.routes = routes;
    }

    /// Updates a pipe's emulation parameters (dynamic network changes).
    /// Returns `false` if the pipe is not installed here.
    pub fn update_pipe_attrs(&mut self, pipe: PipeId, attrs: PipeAttrs) -> bool {
        match self.pipe_mut(pipe) {
            Some(p) => {
                p.set_attrs(attrs);
                true
            }
            None => false,
        }
    }

    /// Sets the fluid (flow-level) bandwidth demand on a locally owned pipe,
    /// effective from virtual time `at`. The byte integral of the previous
    /// demand is settled up to `at` first, so piecewise-constant rates
    /// accumulate exactly. Returns `false` if the pipe is not installed here.
    pub fn set_pipe_fluid_demand(&mut self, pipe: PipeId, demand: DataRate, at: SimTime) -> bool {
        if !self.owns_pipe(pipe) {
            return false;
        }
        self.integrate_fluid_to(at);
        let p = self.pipes[pipe.index()]
            .as_mut()
            .expect("ownership checked");
        let old = p.fluid_demand().as_bps();
        p.set_fluid_demand(demand);
        self.fluid_total_bps = self.fluid_total_bps - old + demand.as_bps();
        true
    }

    /// Advances the fluid byte integral to `now`: every locally owned
    /// pipe's fluid demand counts toward [`CoreStats::fluid_modelled_bytes`]
    /// for the elapsed interval. Exact (a bit-nanosecond remainder is
    /// carried), monotonic, and allocation-free.
    pub fn integrate_fluid_to(&mut self, now: SimTime) {
        if now <= self.fluid_last {
            return;
        }
        let elapsed_ns = (now - self.fluid_last).as_nanos();
        self.fluid_last = now;
        if self.fluid_total_bps == 0 {
            return;
        }
        let bits_ns =
            self.fluid_total_bps as u128 * elapsed_ns as u128 + self.fluid_bits_ns_rem as u128;
        let bytes = u64::try_from(bits_ns / 8_000_000_000).unwrap_or(u64::MAX);
        self.stats.fluid_modelled_bytes = self.stats.fluid_modelled_bytes.saturating_add(bytes);
        self.fluid_bits_ns_rem = (bits_ns % 8_000_000_000) as u64;
    }

    /// Counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The per-packet accuracy log.
    pub fn accuracy(&self) -> &AccuracyLog {
        &self.accuracy
    }

    /// Aggregated virtual-drop and throughput counters over this core's
    /// pipes.
    pub fn pipe_stats_total(&self) -> PipeStats {
        let mut total = PipeStats::default();
        for p in self.pipes.iter().flatten() {
            let s = p.stats();
            total.enqueued += s.enqueued;
            total.dequeued += s.dequeued;
            total.dropped_overflow += s.dropped_overflow;
            total.dropped_loss += s.dropped_loss;
            total.bytes_out += s.bytes_out;
        }
        total
    }

    /// Counters for a single pipe, if installed here.
    pub fn pipe_stats(&self, pipe: PipeId) -> Option<&PipeStats> {
        self.pipe(pipe).map(|p| p.stats())
    }

    /// Fraction of wall time the CPU spent on emulation work so far.
    pub fn cpu_utilization(&self) -> f64 {
        let elapsed = self.cpu_last_credit.as_secs_f64();
        if elapsed <= 0.0 {
            0.0
        } else {
            (self.cpu_busy_total.as_secs_f64() / elapsed).min(1.0)
        }
    }

    /// Earliest time at which this core has scheduler work due, rounded up to
    /// its tick boundary. Covers pipe deadlines, descriptors staged for
    /// tunnelling to a peer core and tunnels arriving here.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let heap_next = self.wheel.peek_time();
        let staged_next = self.pending_remote.iter().map(|(_, _, t)| *t).min();
        [heap_next, staged_next, self.inbox.peek_time()]
            .into_iter()
            .flatten()
            .min()
            .map(|t| self.profile.next_tick_at(t))
    }

    fn credit_cpu(&mut self, now: SimTime) {
        if now <= self.cpu_last_credit {
            return;
        }
        let elapsed = now - self.cpu_last_credit;
        let worked = self.cpu_backlog.min(elapsed);
        self.cpu_backlog -= worked;
        self.cpu_busy_total += worked;
        self.cpu_last_credit = now;
    }

    /// The NIC/CPU model an arrival from an edge node or a peer core passes
    /// at `now`: its `bytes` take receive-buffer tokens and the CPU must not
    /// be saturated, or it is dropped physically; admitted, it costs `cpu`.
    fn arrive(&mut self, now: SimTime, bytes: u64, cpu: SimDuration) -> Result<(), IngressOutcome> {
        self.credit_cpu(now);
        if now > self.rx_last_refill {
            let refill = self.profile.nic_rate.bytes_in(now - self.rx_last_refill);
            self.rx_tokens = (self.rx_tokens + refill.as_bytes() as f64)
                .min(self.profile.nic_buffer.as_bytes() as f64);
            self.rx_last_refill = now;
        }
        if self.rx_tokens < bytes as f64 {
            self.stats.physical_drops_nic += 1;
            return Err(IngressOutcome::PhysicalDropNic);
        }
        self.rx_tokens -= bytes as f64;
        if self.cpu_backlog > self.profile.saturation_backlog {
            self.stats.physical_drops_cpu += 1;
            return Err(IngressOutcome::PhysicalDropCpu);
        }
        self.cpu_backlog += cpu;
        self.stats.bytes_in += bytes;
        Ok(())
    }

    /// [`EmulatorCore::ingress_into`] the first pipe of the descriptor's
    /// route, resolved here. A complete route has no pipe to enter and is
    /// accepted untouched (the coordinator never offers one).
    pub fn ingress(&mut self, now: SimTime, descriptor: Descriptor) -> IngressOutcome {
        match descriptor.next_pipe(&self.routes) {
            Some(first) => self.ingress_into(now, first, descriptor),
            None => IngressOutcome::Accepted,
        }
    }

    /// Offers a packet arriving from an edge node (the ipfw intercept path)
    /// into `first`, the first pipe of its route as the caller resolved it.
    /// If a peer core owns that pipe, the accepted descriptor is emitted
    /// through the next [`EmulatorCore::tick`] as a tunnel request.
    pub fn ingress_into(
        &mut self,
        now: SimTime,
        first: PipeId,
        mut descriptor: Descriptor,
    ) -> IngressOutcome {
        self.stats.packets_offered += 1;
        let size = descriptor.packet.size;
        let cpu = self.profile.per_packet_cpu;
        if let Err(dropped) = self.arrive(now, size.as_bytes(), cpu) {
            return dropped;
        }
        self.stats.packets_admitted += 1;
        descriptor.entered_at = now;
        self.enter_pipe(now, first, size, Entering::New(descriptor))
    }

    /// Files a descriptor a peer core tunnelled here, arriving at `arrival`:
    /// the first [`EmulatorCore::tick_into`] at or after that time admits it
    /// into its next pipe, which must be installed on this core. Tunnels of
    /// one arrival time are admitted in the order they were filed.
    pub fn receive_tunnel(&mut self, arrival: SimTime, descriptor: Descriptor) {
        self.inbox.push(arrival, descriptor);
    }

    /// [`EmulatorCore::receive_tunnel`] for a tunnel read from a checkpoint,
    /// refused unless this core can admit it: its route and hop must
    /// [fit](Descriptor::fits) and its next pipe be installed here (a
    /// complete route would be counted in and never out, a peer's pipe
    /// would send it on again at a second NIC/CPU cost).
    fn receive_restored(
        &mut self,
        arrival: SimTime,
        descriptor: Descriptor,
    ) -> Result<(), CodecError> {
        if !descriptor.fits(&self.routes) {
            return Err(CodecError::Invalid("descriptor route or hop out of range"));
        }
        if !descriptor
            .next_pipe(&self.routes)
            .is_some_and(|pipe| self.owns_pipe(pipe))
        {
            return Err(CodecError::Invalid(
                "tunnel's next pipe is not installed on its target",
            ));
        }
        self.receive_tunnel(arrival, descriptor);
        Ok(())
    }

    /// Admits a tunnelled descriptor into its next pipe (installed locally)
    /// at `arrival`, the tunnel's ideal arrival time. A drop is counted
    /// where it happens, by the NIC/CPU model or the pipe.
    fn accept_tunnel(&mut self, arrival: SimTime, descriptor: Descriptor) {
        self.stats.tunnels_in += 1;
        let wire = tunnel_wire_bytes(&self.profile, &descriptor);
        if self.arrive(arrival, wire, self.profile.tunnel_cpu).is_err() {
            return;
        }
        // A tunnel is only ever filed toward a pipe of its route.
        if let Some(pipe) = descriptor.next_pipe(&self.routes) {
            let size = descriptor.packet.size;
            self.enter_pipe(arrival, pipe, size, Entering::New(descriptor));
        }
    }

    /// The one way into a pipe, for a packet arriving from an edge node, a
    /// descriptor tunnelled in from a peer core and a descriptor that has
    /// just left the previous pipe of its route alike: enqueue its handle on
    /// `pipe_id` and file the exit deadline in the wheel, or — when a peer
    /// core owns the pipe — stage it for tunnelling. Slots are accounted
    /// here and nowhere else: a new descriptor takes one only when the core
    /// keeps it, a held one gives its slot back when the pipe refuses it.
    #[inline]
    fn enter_pipe(
        &mut self,
        at: SimTime,
        pipe_id: PipeId,
        size: ByteSize,
        entering: Entering,
    ) -> IngressOutcome {
        let Some(pipe) = self.pipes.get_mut(pipe_id.index()).and_then(Option::as_mut) else {
            let slot = match entering {
                Entering::New(descriptor) => self.alloc_slot(descriptor),
                Entering::Held(slot) => slot,
            };
            self.pending_remote.push((pipe_id, slot, at));
            return IngressOutcome::Accepted;
        };
        // The slot the descriptor occupies if the pipe accepts it: its own,
        // or the one `alloc_slot` is about to hand out.
        let slot = match entering {
            Entering::New(_) => {
                (self.free.last().copied()).unwrap_or_else(|| slot_at(self.slab.len()))
            }
            Entering::Held(slot) => slot,
        };
        // A failed link (bandwidth configured to zero, e.g. the pipe's far
        // node is down) is unreachability, not congestion: count it so every
        // admitted packet stays on the ledger. The skipped enqueue would
        // have dropped before its first RNG draw, so the deterministic
        // random stream is unchanged.
        let accepted = if pipe.attrs().bandwidth.is_zero() {
            self.stats.dropped_unreachable += 1;
            None
        } else {
            // Virtual drops vanish here; the pipe counted them.
            match pipe.enqueue(at, size, slot, &mut self.rng) {
                EnqueueOutcome::Accepted { exit_time } => Some(exit_time),
                _ => None,
            }
        };
        match accepted {
            Some(exit_time) => {
                self.wheel.push(exit_time, pipe_id);
                if let Entering::New(descriptor) = entering {
                    let taken = self.alloc_slot(descriptor);
                    debug_assert_eq!(taken, slot);
                }
                IngressOutcome::Accepted
            }
            None => {
                if let Entering::Held(slot) = entering {
                    self.free.push(slot);
                }
                IngressOutcome::VirtualDrop
            }
        }
    }

    /// Stores `descriptor` in a free slot of the slab, growing it only when
    /// none is free.
    fn alloc_slot(&mut self, descriptor: Descriptor) -> Slot {
        match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = descriptor;
                slot
            }
            None => {
                self.slab.push(descriptor);
                slot_at(self.slab.len() - 1)
            }
        }
    }

    /// Runs one scheduler pass at time `now`, allocating fresh output
    /// buffers. Steady-state callers use [`EmulatorCore::tick_into`] with a
    /// long-lived [`TickOutput`] instead.
    pub fn tick(&mut self, now: SimTime) -> TickOutput {
        let mut out = TickOutput::default();
        self.tick_into(now, &mut out);
        out
    }

    /// Runs one scheduler pass at time `now`: admits the tunnels that have
    /// arrived, then moves every descriptor whose pipe deadline has passed
    /// to its next pipe, its destination edge node, or a peer core. `out` is
    /// cleared and refilled; with a warmed `TickOutput` the pass performs no
    /// heap allocation. A next pipe or tunnel is entered at the exit
    /// deadline just popped, so every hop due by `now` completes in this
    /// pass.
    pub fn tick_into(&mut self, now: SimTime, out: &mut TickOutput) {
        // Each at its own arrival, so before the CPU is credited up to now.
        while let Some((arrival, descriptor)) = self.inbox.pop_due(now) {
            self.accept_tunnel(arrival, descriptor);
        }
        self.credit_cpu(now);
        out.clear();

        let per_hop_cpu = self.profile.per_hop_cpu;
        // One loop per due wheel entry: pop a handle, step its descriptor in
        // place, hand the handle to the next pipe. An entry whose packet an
        // earlier entry of this pass already moved finds nothing due.
        while let Some((_, pipe_id)) = self.wheel.pop_due(now) {
            while let Some(dequeued) = self
                .pipes
                .get_mut(pipe_id.index())
                .and_then(Option::as_mut)
                .and_then(|pipe| pipe.pop_ready(now))
            {
                let slot = dequeued.item;
                self.cpu_backlog += per_hop_cpu;
                let descriptor = &mut self.slab[slot as usize];
                descriptor.advance_hop();
                let route = self.routes.pipes(descriptor.route);
                if let Some(&next) = route.get(descriptor.hop) {
                    let at = dequeued.exit_time;
                    self.enter_pipe(at, next, dequeued.size, Entering::Held(slot));
                    continue;
                }
                let delivery = Delivery {
                    hops: route.len(),
                    emulation_error: now.duration_since(dequeued.exit_time),
                    entered_at: descriptor.entered_at,
                    delivered_at: now,
                    packet: descriptor.packet,
                };
                self.free.push(slot);
                self.stats.packets_delivered += 1;
                self.stats.bytes_out += delivery.packet.size.as_bytes();
                self.accuracy.record(&delivery);
                out.deliveries.push(delivery);
            }
        }

        // Everything staged for a peer core — at ingress since the last
        // pass, then by the loop above — leaves the slab here.
        for (pipe, slot, at) in self.pending_remote.drain(..) {
            let descriptor = self.slab[slot as usize].clone();
            self.free.push(slot);
            self.stats.tunnels_out += 1;
            self.cpu_backlog += self.profile.tunnel_cpu;
            self.stats.bytes_out += tunnel_wire_bytes(&self.profile, &descriptor);
            out.tunnels
                .push((pipe, descriptor, at + self.profile.tunnel_latency));
        }
    }

    /// Number of packets currently inside this core: in one of its pipes or
    /// staged for tunnelling to a peer (not those still in its inbox). O(1)
    /// — it is the number of occupied slab slots.
    pub fn in_flight(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Handles queued in this core's pipes plus those staged for a peer —
    /// the walk over every pipe that [`EmulatorCore::in_flight`] must agree
    /// with.
    fn handles_held(&self) -> usize {
        let queued: usize = self
            .pipes
            .iter()
            .flatten()
            .map(EmuPipe::in_flight_count)
            .sum();
        queued + self.pending_remote.len()
    }
}

impl EmulatorCore {
    /// Serializes this core's complete emulation state for a checkpoint:
    /// every installed pipe (attributes, drain clock, stats, fluid demand
    /// and in-flight packets in queue order), the scheduler wheel's pending
    /// entries in pop order (stale entries included, so the restored wheel
    /// services deadlines identically), staged tunnel descriptors, the
    /// fluid/CPU/NIC accounting, counters, the accuracy log, the RNG stream
    /// position and the inbox in pop order. The fluid demand total is not
    /// written: it is the sum of the pipes' demands. Slot handles
    /// are resolved: each queue position carries its descriptor, so neither
    /// a handle's value nor the free list reaches the bytes. The hardware
    /// profile and route table are shared emulator-level state and are
    /// written once by the emulator snapshot, not per core. The layout is
    /// written out here rather than declared for that reason: pipes and
    /// staged tunnels hold slab handles, the bytes the descriptors behind
    /// them.
    pub fn encode_state(&self, w: &mut ByteWriter) {
        let from_slab = |slot: &Slot, w: &mut ByteWriter| self.slab[*slot as usize].put(w);
        // The slot ledger: every occupied slot is referenced exactly once.
        debug_assert_eq!(self.in_flight(), self.handles_held());
        self.id.put(w);
        w.put_len(self.pipes.len());
        for pipe in &self.pipes {
            pipe.is_some().put(w);
            if let Some(pipe) = pipe {
                pipe.put_with(w, from_slab);
            }
        }
        let wheel = self.wheel.entries_in_order();
        w.put_len(wheel.len());
        for (time, &pipe) in wheel {
            (time, pipe).put(w);
        }
        w.put_len(self.pending_remote.len());
        for (pipe, slot, at) in &self.pending_remote {
            pipe.put(w);
            from_slab(slot, w);
            at.put(w);
        }
        self.fluid_last.put(w);
        self.fluid_bits_ns_rem.put(w);
        self.cpu_backlog.put(w);
        self.cpu_busy_total.put(w);
        self.cpu_last_credit.put(w);
        // Two words the format keeps, read by nothing: the core's start and
        // its last credit again.
        (SimTime::ZERO, self.cpu_last_credit).put(w);
        self.rx_tokens.put(w);
        self.rx_last_refill.put(w);
        (self.stats, self.accuracy, self.rng.state()).put(w);
        let inbox = self.inbox.entries_in_order();
        w.put_len(inbox.len());
        for (arrival, descriptor) in inbox {
            arrival.put(w);
            descriptor.put(w);
        }
    }

    /// Rebuilds a core from [`EmulatorCore::encode_state`] output. `profile`
    /// and `routes` are the emulator-level shared state the snapshot carries
    /// once. The restored core is observationally identical to the one that
    /// was encoded: same deadlines, same queue contents, same RNG draws. Its
    /// slab is filled densely in decode order with no free slot, whatever
    /// the encoded core's looked like. Every descriptor must fit `routes`
    /// (`Descriptor::fits`); a wheel entry must name a pipe installed here,
    /// a staged tunnel one that `pod` gives to a peer, and a tunnel in the
    /// inbox must be one this core can admit
    /// (`EmulatorCore::receive_restored`). The fluid demand total is summed
    /// from the pipes; a `version` 7 core wrote it, after its CBR meters, and
    /// both are read past.
    pub fn decode_state(
        r: &mut ByteReader,
        version: u32,
        profile: HardwareProfile,
        routes: Arc<RouteTable>,
        pod: &PipeOwnershipDirectory,
    ) -> Result<Self, CodecError> {
        use CodecError::Invalid;

        let id = CoreId::get(r)?;
        let mut slab = Vec::new();
        let mut to_slab = |r: &mut ByteReader| {
            let slot =
                Slot::try_from(slab.len()).map_err(|_| Invalid("2^32 descriptors or more"))?;
            slab.push(Descriptor::get(r)?);
            Ok(slot)
        };
        let pipe_slots = r.get_count(bool::MIN_BYTES)?;
        let mut pipes = Vec::with_capacity(pipe_slots);
        for _ in 0..pipe_slots {
            pipes.push(match bool::get(r)? {
                true => Some(EmuPipe::get_with(r, Descriptor::MIN_BYTES, &mut to_slab)?),
                false => None,
            });
        }
        let installed = |pipe: PipeId| pipes.get(pipe.index()).is_some_and(Option::is_some);
        let mut wheel = TimerWheel::new();
        for _ in 0..r.get_count(<(SimTime, PipeId)>::MIN_BYTES)? {
            let (time, pipe) = Codec::get(r)?;
            if !installed(pipe) {
                return Err(Invalid("wheel entry for a pipe not installed here"));
            }
            wheel.push(time, pipe);
        }
        let pending_count = r.get_count(<(PipeId, Descriptor, SimTime)>::MIN_BYTES)?;
        let mut pending_remote = Vec::with_capacity(pending_count);
        for _ in 0..pending_count {
            let pipe = PipeId::get(r)?;
            // The tunnel exchange sends it to the pipe's owner, unasked.
            if pod.get_owner(pipe).is_none_or(|owner| owner == id) {
                return Err(Invalid("staged tunnel's pipe has no peer owner"));
            }
            pending_remote.push((pipe, to_slab(r)?, SimTime::get(r)?));
        }
        if version == 7 {
            // Each meter: its pipe, packet size, interval and next injection.
            let meter = <(PipeId, ByteSize, SimDuration, SimTime)>::MIN_BYTES;
            let meters = r.get_count(meter)?;
            r.take_bytes(meters * meter + u64::MIN_BYTES)?;
        }
        if slab.iter().any(|d| !d.fits(&routes)) {
            return Err(Invalid("descriptor route or hop out of range"));
        }
        let fluid_total_bps = (pipes.iter().flatten())
            .try_fold(0u64, |sum, pipe| {
                sum.checked_add(pipe.fluid_demand().as_bps())
            })
            .ok_or(Invalid("pipes' fluid demand overflows"))?;
        let (fluid_last, fluid_bits_ns_rem) = Codec::get(r)?;
        let (cpu_backlog, cpu_busy_total, cpu_last_credit) = Codec::get(r)?;
        let (started_at, last_seen, rx_tokens, rx_last_refill) = Codec::get(r)?;
        // The encoder writes both from the CPU clock, so that a decoded core
        // re-encodes to its input.
        if (started_at, last_seen) != (SimTime::ZERO, cpu_last_credit) {
            return Err(Invalid("CPU clock words disagree"));
        }
        let (stats, accuracy, rng_state) = Codec::get(r)?;
        let mut core = EmulatorCore {
            id,
            profile,
            routes,
            pipes,
            wheel,
            slab,
            free: Vec::new(),
            pending_remote,
            inbox: TimerWheel::new(),
            fluid_total_bps,
            fluid_last,
            fluid_bits_ns_rem,
            cpu_backlog,
            cpu_busy_total,
            cpu_last_credit,
            rx_tokens,
            rx_last_refill,
            stats,
            accuracy,
            rng: StdRng::from_state(rng_state),
        };
        for _ in 0..r.get_count(<(SimTime, Descriptor)>::MIN_BYTES)? {
            let (arrival, descriptor) = Codec::get(r)?;
            core.receive_restored(arrival, descriptor)?;
        }
        Ok(core)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::SNAPSHOT_VERSION;

    #[test]
    #[should_panic(expected = "fewer than 2^32 slab slots")]
    fn a_slab_index_past_the_handle_space_is_refused_not_wrapped() {
        assert_eq!(slot_at(Slot::MAX as usize), Slot::MAX);
        slot_at(Slot::MAX as usize + 1);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let sample = CoreStats::sample;
        let (a, b, c) = (sample(1), sample(2), sample(3));
        // (a + b) + c == a + (b + c)
        let left = a.merged(&b).merged(&c);
        let right = a.merged(&b.merged(&c));
        assert_eq!(left, right);
        // a + b == b + a, and folding in any order over a larger set too.
        assert_eq!(a.merged(&b), b.merged(&a));
        let stats: Vec<CoreStats> = (0..8).map(sample).collect();
        let forward = stats
            .iter()
            .fold(CoreStats::default(), |acc, s| acc.merged(s));
        let reverse = stats
            .iter()
            .rev()
            .fold(CoreStats::default(), |acc, s| acc.merged(s));
        let pairwise = {
            let halves: Vec<CoreStats> = stats
                .chunks(2)
                .map(|pair| pair.iter().fold(CoreStats::default(), |a, s| a.merged(s)))
                .collect();
            halves
                .iter()
                .fold(CoreStats::default(), |acc, s| acc.merged(s))
        };
        assert_eq!(forward, reverse);
        assert_eq!(forward, pairwise);
    }

    #[test]
    fn merge_with_identity_is_a_no_op() {
        let a = CoreStats::sample(4);
        assert_eq!(a.merged(&CoreStats::default()), a);
        assert_eq!(CoreStats::default().merged(&a), a);
    }

    #[test]
    fn core_records_keep_the_record_contract() {
        mn_util::codec::record_contract(CoreStats::sample(7));
        mn_util::codec::record_contract(HardwareProfile::paper_core());
        mn_util::codec::record_contract((CoreId(2), PipeId(9), mn_topology::NodeId(4)));
    }

    /// A lossy pipe overflowing mid-run beside one given a fluid demand, a
    /// tunnel staged for a peer and one waiting in the inbox: its core's
    /// checkpoint bytes, pinned by their length and sum — no golden fixture
    /// draws a random loss. Recorded at `MNSP` v5, when RED retired and
    /// tunnels in flight moved into their target core, and again at v8,
    /// 48 bytes shorter: the CBR meter this core carried then (a count and
    /// 32 bytes) and the fluid total went.
    #[test]
    fn a_lossy_core_encodes_to_its_pinned_bytes() {
        use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};

        let mut table = RouteTable::new(2);
        let local = table.intern(&[PipeId(0), PipeId(1)]);
        let remote = table.intern(&[PipeId(2), PipeId(1)]);
        let routes = Arc::new(table);
        let mut core = EmulatorCore::new(CoreId(0), HardwareProfile::unconstrained(), 5, routes, 3);
        let attrs = PipeAttrs {
            queue_len: 40,
            loss_rate: 0.01,
            ..PipeAttrs::new(DataRate::from_mbps(2), SimDuration::from_millis(3))
        };
        core.install_pipe(PipeId(0), attrs);
        core.install_pipe(PipeId(1), attrs);
        let packet = |id: u64, now: SimTime| {
            let flow = FlowKey {
                src: VnId(0),
                dst: VnId(1),
                src_port: 7,
                dst_port: 9,
                protocol: Protocol::Udp,
            };
            let header = TransportHeader::Udp {
                payload_len: 972,
                seq: id,
            };
            Packet::new(PacketId(id), flow, header, now)
        };
        for i in 0..95u64 {
            let now = SimTime::from_micros(i * 500);
            let route = if i % 7 == 3 { remote } else { local };
            core.ingress(now, Descriptor::new(packet(i, now), route, now));
            if i % 10 == 9 {
                core.tick(now);
            }
        }
        let demand = DataRate::from_kbps(300);
        assert!(core.set_pipe_fluid_demand(PipeId(1), demand, SimTime::from_millis(47)));
        let arrives = SimTime::from_millis(50);
        let mut crossing = Descriptor::new(packet(95, arrives), remote, SimTime::from_millis(45));
        crossing.hop = 1;
        core.receive_tunnel(arrives, crossing);
        let pipe = core.pipe_stats(PipeId(0)).unwrap();
        assert!(pipe.dropped_loss > 0 && pipe.dropped_overflow > 0);
        assert!(core.in_flight() > 0 && !core.pending_remote.is_empty());
        let mut w = mn_util::ByteWriter::new();
        core.encode_state(&mut w);
        assert_eq!(
            (w.len(), mn_util::codec::checksum64(w.as_slice())),
            (5_425, 0xc0df_84d4_b384_c4b7)
        );
        let pod = PipeOwnershipDirectory::from_owners([0, 0, 1].map(CoreId).to_vec(), 2);
        let (profile, routes) = (core.profile, core.routes.clone());
        let r = &mut mn_util::ByteReader::new(w.as_slice());
        let restored = EmulatorCore::decode_state(r, SNAPSHOT_VERSION, profile, routes, &pod);
        assert_eq!(restored.unwrap().fluid_total_bps, demand.as_bps());
    }

    /// 100 Gb/s over the whole `u64` nanosecond range models ~2.3·10^20
    /// bytes: the count stops at `u64::MAX` instead of wrapping.
    #[test]
    fn the_fluid_byte_integral_saturates() {
        let routes = Arc::new(RouteTable::new(2));
        let mut core = EmulatorCore::new(CoreId(0), HardwareProfile::unconstrained(), 1, routes, 1);
        let attrs = PipeAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        core.install_pipe(PipeId(0), attrs);
        assert!(core.set_pipe_fluid_demand(PipeId(0), DataRate::from_gbps(100), SimTime::ZERO));
        core.integrate_fluid_to(SimTime::from_nanos(u64::MAX));
        assert_eq!(core.stats().fluid_modelled_bytes, u64::MAX);
    }

    /// A v7 core wrote its CBR meters (a count, 32 bytes each) and its fluid
    /// total between its staged tunnels and its fluid clock: read past,
    /// bounded by the meter count, the total summed from the pipes.
    #[test]
    fn a_v7_core_is_read_past_its_cbr_meters_and_fluid_total() {
        let routes = Arc::new(RouteTable::new(2));
        let profile = HardwareProfile::unconstrained();
        let mut core = EmulatorCore::new(CoreId(0), profile, 1, routes.clone(), 1);
        let attrs = PipeAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
        core.install_pipe(PipeId(0), attrs);
        let clock = SimTime::from_nanos(0x5eed_5eed_5eed);
        assert!(core.set_pipe_fluid_demand(PipeId(0), DataRate::from_mbps(3), clock));
        let mut w = mn_util::ByteWriter::new();
        core.encode_state(&mut w);
        let v8 = w.into_bytes();
        let at = v8
            .windows(8)
            .position(|w| w == clock.as_nanos().to_le_bytes());
        let (head, tail) = v8.split_at(at.expect("the fluid clock is written"));
        let v7 = |meters: u64| [head, &meters.to_le_bytes(), &[9; 2 * 32 + 8], tail].concat();
        let pod = PipeOwnershipDirectory::single_core(1);
        let decode = |bytes: &[u8]| {
            let r = &mut mn_util::ByteReader::new(bytes);
            EmulatorCore::decode_state(r, 7, profile, routes.clone(), &pod)
        };
        let restored = decode(&v7(2)).unwrap();
        assert_eq!(restored.fluid_total_bps, DataRate::from_mbps(3).as_bps());
        let mut again = mn_util::ByteWriter::new();
        restored.encode_state(&mut again);
        assert!(again.into_bytes() == v8);
        let why = mn_util::CodecError::Invalid("length prefix exceeds input");
        assert_eq!(decode(&v7(u64::MAX)).map(|_| ()), Err(why));
    }

    /// Every hop is entered at the deadline its predecessor named, so an
    /// 8-hop route whose whole ideal delay falls before one pass's `now` is
    /// delivered by that one pass, carrying only the last hop's lateness.
    #[test]
    fn an_eight_hop_route_due_within_one_pass_is_delivered_by_it() {
        use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};

        let pipes: Vec<PipeId> = (0..8).map(PipeId).collect();
        let mut table = RouteTable::new(2);
        let route = table.intern(&pipes);
        let profile = HardwareProfile::unconstrained();
        let mut core = EmulatorCore::new(CoreId(0), profile, 1, Arc::new(table), pipes.len());
        let attrs = PipeAttrs::new(DataRate::from_mbps(100), SimDuration::from_micros(30));
        for &pipe in &pipes {
            core.install_pipe(pipe, attrs);
        }
        let flow = FlowKey {
            src: VnId(0),
            dst: VnId(1),
            src_port: 1,
            dst_port: 2,
            protocol: Protocol::Udp,
        };
        let header = TransportHeader::Udp {
            payload_len: 500,
            seq: 0,
        };
        let entered = SimTime::from_micros(5);
        let packet = Packet::new(PacketId(0), flow, header, entered);
        let per_hop = attrs.bandwidth.transmission_time(packet.size) + attrs.latency;
        let ideal = entered + per_hop * pipes.len() as u64;
        assert!(core
            .ingress(entered, Descriptor::new(packet, route, entered))
            .is_accepted());

        let now = SimTime::from_millis(1);
        assert!(ideal < now, "the whole route fits in the pass");
        let out = core.tick(now);
        let [delivery] = &out.deliveries[..] else {
            panic!("one pass delivers, got {}", out.deliveries.len())
        };
        assert_eq!((delivery.hops, delivery.delivered_at), (8, now));
        assert_eq!(delivery.emulation_error, now - ideal);
        assert_eq!((core.in_flight(), core.next_wakeup()), (0, None));
    }

    /// The slot ledger: every way a packet leaves a core gives its slab slot
    /// back, and a refused packet never took one.
    mod slots {
        use super::*;
        use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
        use mn_routing::RouteId;

        const LONG: usize = 0;
        const SHORT: usize = 1;

        const ALL: &[usize] = &[0, 1, 2, 3];

        /// A core owning the pipes `owned` of a four-pipe topology (10 Mb/s,
        /// 1 ms each), with the routes `LONG` = 0→1→2 and `SHORT` = 3.
        fn core_owning(owned: &[usize], profile: HardwareProfile) -> (EmulatorCore, [RouteId; 2]) {
            let mut table = RouteTable::new(2);
            let routes = [
                table.intern(&[PipeId(0), PipeId(1), PipeId(2)]),
                table.intern(&[PipeId(3)]),
            ];
            let mut core = EmulatorCore::new(CoreId(0), profile, 1, Arc::new(table), 4);
            let attrs = PipeAttrs::new(DataRate::from_mbps(10), SimDuration::from_millis(1));
            for &pipe in owned {
                core.install_pipe(PipeId::from_index(pipe), attrs);
            }
            (core, routes)
        }

        fn descriptor(id: u64, route: RouteId, now: SimTime) -> Descriptor {
            let flow = FlowKey {
                src: VnId(0),
                dst: VnId(1),
                src_port: 1,
                dst_port: 2,
                protocol: Protocol::Udp,
            };
            let header = TransportHeader::Udp {
                payload_len: 1000,
                seq: id,
            };
            Descriptor::new(Packet::new(PacketId(id), flow, header, now), route, now)
        }

        /// Ticks at every wakeup until the core has no scheduled work.
        fn drain(core: &mut EmulatorCore) -> (usize, usize) {
            let (mut delivered, mut tunnelled) = (0, 0);
            while let Some(t) = core.next_wakeup() {
                let out = core.tick(t);
                delivered += out.deliveries.len();
                tunnelled += out.tunnels.len();
            }
            (delivered, tunnelled)
        }

        #[test]
        fn delivery_returns_the_slot_and_the_slab_stops_at_the_peak() {
            let (mut core, routes) = core_owning(ALL, HardwareProfile::unconstrained());
            // Five waves of four packets, each drained before the next: 20
            // admitted, never more than 4 inside.
            for wave in 0..5u64 {
                let now = SimTime::from_millis(wave * 100);
                for i in 0..4 {
                    let d = descriptor(wave * 4 + i, routes[LONG], now);
                    assert!(core.ingress(now, d).is_accepted());
                }
                assert_eq!(core.in_flight(), 4);
                assert_eq!(core.in_flight(), core.handles_held());
                assert_eq!(drain(&mut core), (4, 0));
                assert_eq!(core.in_flight(), 0);
            }
            assert_eq!(core.stats().packets_delivered, 20);
            assert_eq!(core.slab.len(), 4, "the peak inside, not the 20 admitted");
            assert_eq!(core.free.len(), 4);
        }

        #[test]
        fn slots_free_out_of_order_and_are_reused() {
            let (mut core, routes) = core_owning(ALL, HardwareProfile::unconstrained());
            let now = SimTime::ZERO;
            // Long and short routes interleaved: the short ones leave first,
            // so the slab has holes between the long ones.
            for i in 0..8 {
                let route = routes[if i % 2 == 0 { LONG } else { SHORT }];
                assert!(core.ingress(now, descriptor(i, route, now)).is_accepted());
            }
            let mut delivered = 0;
            while core.in_flight() > 4 {
                let t = core.next_wakeup().expect("work pending");
                delivered += core.tick(t).deliveries.len();
            }
            assert_eq!(delivered, 4, "the short routes are out");
            assert_eq!(core.in_flight(), core.handles_held());
            // Four more go into the holes, not onto the end.
            let t = core.cpu_last_credit;
            for i in 8..12 {
                assert!(core
                    .ingress(t, descriptor(i, routes[SHORT], t))
                    .is_accepted());
            }
            assert_eq!(core.slab.len(), 8);
            assert_eq!(drain(&mut core), (8, 0));
            assert_eq!(core.in_flight(), 0);
            assert_eq!(core.slab.len(), 8);
        }

        #[test]
        fn a_tail_drop_at_a_later_hop_returns_the_slot() {
            let (mut core, routes) = core_owning(ALL, HardwareProfile::unconstrained());
            let narrow = PipeAttrs {
                queue_len: 1,
                ..PipeAttrs::new(DataRate::from_kbps(100), SimDuration::from_millis(1))
            };
            assert!(core.update_pipe_attrs(PipeId(1), narrow));
            let now = SimTime::ZERO;
            for i in 0..6 {
                assert!(core
                    .ingress(now, descriptor(i, routes[LONG], now))
                    .is_accepted());
            }
            let (delivered, _) = drain(&mut core);
            let dropped = core.pipe_stats(PipeId(1)).unwrap().dropped_overflow;
            assert!(dropped > 0, "the second hop overflowed");
            assert_eq!(delivered as u64 + dropped, 6);
            assert_eq!(core.in_flight(), 0);
            assert_eq!(core.free.len(), core.slab.len());
        }

        #[test]
        fn a_failed_link_drop_returns_the_slot_or_never_takes_one() {
            let (mut core, routes) = core_owning(ALL, HardwareProfile::unconstrained());
            let down = PipeAttrs::new(DataRate::ZERO, SimDuration::from_millis(1));
            let now = SimTime::ZERO;
            for i in 0..3 {
                assert!(core
                    .ingress(now, descriptor(i, routes[LONG], now))
                    .is_accepted());
            }
            // Fails under the three already inside: dropped at hop two.
            assert!(core.update_pipe_attrs(PipeId(1), down));
            assert_eq!(drain(&mut core), (0, 0));
            assert_eq!(core.stats().dropped_unreachable, 3);
            assert_eq!(core.in_flight(), 0);
            assert_eq!(core.slab.len(), 3);
            // Failed before admission: dropped at hop one, nothing stored.
            assert!(core.update_pipe_attrs(PipeId(3), down));
            let t = core.cpu_last_credit;
            assert_eq!(
                core.ingress(t, descriptor(9, routes[SHORT], t)),
                IngressOutcome::VirtualDrop
            );
            assert_eq!(core.stats().dropped_unreachable, 4);
            assert_eq!(core.pipe_stats(PipeId(3)).unwrap().dropped_overflow, 0);
            assert_eq!((core.in_flight(), core.free.len()), (0, 3));
        }

        #[test]
        fn a_tunnel_out_copies_the_descriptor_and_returns_the_slot() {
            // A two-core split: this core owns pipes 0 and 1, a peer 2 and 3.
            let (mut core, routes) = core_owning(&[0, 1], HardwareProfile::unconstrained());
            let now = SimTime::ZERO;
            assert!(core
                .ingress(now, descriptor(1, routes[LONG], now))
                .is_accepted());
            // First pipe on the peer: held (staged) until the next tick.
            assert!(core
                .ingress(now, descriptor(2, routes[SHORT], now))
                .is_accepted());
            assert_eq!(core.pending_remote.len(), 1);
            assert_eq!(core.in_flight(), 2);
            assert_eq!(core.in_flight(), core.handles_held());

            let mut tunnels = Vec::new();
            while let Some(t) = core.next_wakeup() {
                let out = core.tick(t);
                assert!(out.deliveries.is_empty());
                tunnels.extend(out.tunnels);
            }
            assert_eq!(core.in_flight(), 0);
            assert_eq!(core.free.len(), core.slab.len());
            assert_eq!(core.stats().tunnels_out, 2);
            let [(short_pipe, short, _), (long_pipe, long, arrival)] = &tunnels[..] else {
                panic!("two tunnels, got {}", tunnels.len())
            };
            assert_eq!(
                (*short_pipe, short.packet.id.0, short.hop),
                (PipeId(3), 2, 0)
            );
            // The long route crossed two local pipes first; its progress and
            // bookkeeping travel with the copy.
            assert_eq!((*long_pipe, long.packet.id.0, long.hop), (PipeId(2), 1, 2));
            assert_eq!(long.entered_at, now);
            assert!(*arrival > now);

            // The peer's side: the copy waits in the inbox, slot-free, for
            // the pass at its arrival, which admits it into a slot.
            let (mut peer, _) = core_owning(&[2, 3], HardwareProfile::unconstrained());
            peer.receive_tunnel(*arrival, long.clone());
            let wakeup = peer.profile.next_tick_at(*arrival);
            assert_eq!((peer.in_flight(), peer.next_wakeup()), (0, Some(wakeup)));
            assert!(peer.tick(wakeup).tunnels.is_empty());
            assert_eq!((peer.in_flight(), peer.stats().tunnels_in), (1, 1));
            let (delivered, tunnelled) = drain(&mut peer);
            assert_eq!((delivered, tunnelled, peer.in_flight()), (1, 0, 0));
        }

        #[test]
        fn a_refused_ingress_allocates_nothing() {
            // A NIC buffer smaller than one packet refuses everything...
            let tiny_nic = HardwareProfile {
                nic_buffer: ByteSize::from_bytes(100),
                ..HardwareProfile::unconstrained()
            };
            let (mut core, routes) = core_owning(ALL, tiny_nic);
            let now = SimTime::ZERO;
            assert_eq!(
                core.ingress(now, descriptor(1, routes[LONG], now)),
                IngressOutcome::PhysicalDropNic
            );
            assert_eq!((core.in_flight(), core.slab.len()), (0, 0));

            // ...and so does a CPU whose backlog is past saturation.
            let slow_cpu = HardwareProfile {
                per_packet_cpu: SimDuration::from_millis(1),
                saturation_backlog: SimDuration::from_micros(1),
                ..HardwareProfile::unconstrained()
            };
            let (mut core, routes) = core_owning(ALL, slow_cpu);
            assert!(core
                .ingress(now, descriptor(1, routes[LONG], now))
                .is_accepted());
            assert_eq!(
                core.ingress(now, descriptor(2, routes[LONG], now)),
                IngressOutcome::PhysicalDropCpu
            );
            assert_eq!((core.in_flight(), core.slab.len()), (1, 1));
        }

        #[test]
        fn restore_refills_the_slab_densely_whatever_the_free_list_held() {
            let (mut core, routes) = core_owning(&[0, 1], HardwareProfile::unconstrained());
            let now = SimTime::ZERO;
            for i in 0..6 {
                let route = routes[if i % 2 == 0 { LONG } else { SHORT }];
                assert!(core.ingress(now, descriptor(i, route, now)).is_accepted());
            }
            // The three staged for the peer leave; their slots are holes.
            let out = core.tick(core.profile.next_tick_at(now));
            assert_eq!(out.tunnels.len(), 3);
            assert_eq!((core.slab.len(), core.free.len()), (6, 3));

            let mut w = mn_util::ByteWriter::with_capacity(1024);
            core.encode_state(&mut w);
            let bytes = w.into_bytes();
            let (profile, table) = (core.profile, core.routes.clone());
            let owners = [0, 0, 1, 1].map(CoreId).to_vec();
            let pod = PipeOwnershipDirectory::from_owners(owners, 2);
            let decode = |bytes: &[u8]| {
                let r = &mut mn_util::ByteReader::new(bytes);
                EmulatorCore::decode_state(r, SNAPSHOT_VERSION, profile, table.clone(), &pod)
            };
            let mut restored = decode(&bytes).unwrap();
            assert_eq!((restored.slab.len(), restored.free.len()), (3, 0));
            assert_eq!(restored.in_flight(), 3);
            let mut again = mn_util::ByteWriter::with_capacity(bytes.len());
            restored.encode_state(&mut again);
            assert!(again.into_bytes() == bytes, "re-serialises identically");

            // A slab descriptor on a route the table does not hold, or past
            // its route's end, is refused where it is read; so is a pipe id
            // the run phase would index or look an owner up with, and fluid
            // demands whose sum, the core's total, a u64 cannot hold.
            let stage = |core: &mut EmulatorCore, pipe| {
                let slot = core.alloc_slot(core.slab[0].clone());
                core.pending_remote
                    .push((PipeId(pipe), slot, SimTime::ZERO));
            };
            type Corrupt<'a> = &'a dyn Fn(&mut EmulatorCore);
            let hostile: [(&str, Corrupt); 6] = [
                ("descriptor route or hop out of range", &|c| {
                    c.slab[1].route = RouteId(99)
                }),
                ("descriptor route or hop out of range", &|c| {
                    c.slab[1].hop = usize::MAX
                }),
                ("wheel entry for a pipe not installed here", &|c| {
                    c.wheel.push(SimTime::from_millis(5), PipeId(2));
                }),
                ("staged tunnel's pipe has no peer owner", &|c| stage(c, 99)),
                ("staged tunnel's pipe has no peer owner", &|c| stage(c, 1)),
                ("pipes' fluid demand overflows", &|c| {
                    for pipe in c.pipes.iter_mut().flatten() {
                        pipe.set_fluid_demand(DataRate::from_bps(u64::MAX));
                    }
                }),
            ];
            for (what, corrupt) in hostile {
                let mut damaged = decode(&bytes).unwrap();
                corrupt(&mut damaged);
                let mut w = mn_util::ByteWriter::with_capacity(bytes.len());
                damaged.encode_state(&mut w);
                assert_eq!(
                    decode(&w.into_bytes()).unwrap_err(),
                    mn_util::CodecError::Invalid(what)
                );
            }
            // What the encoder writes of a staged tunnel and a tunnel in the
            // inbox passes: both re-serialise.
            let mut sound = decode(&bytes).unwrap();
            stage(&mut sound, 2);
            sound.receive_tunnel(SimTime::from_millis(3), sound.slab[0].clone());
            let mut w = mn_util::ByteWriter::with_capacity(bytes.len());
            sound.encode_state(&mut w);
            let staged = w.into_bytes();
            let mut w = mn_util::ByteWriter::with_capacity(bytes.len());
            decode(&staged).unwrap().encode_state(&mut w);
            assert!(w.into_bytes() == staged);

            // Different handles, same future.
            loop {
                let (a, b) = (core.next_wakeup(), restored.next_wakeup());
                assert_eq!(a, b);
                let Some(t) = a else { break };
                let (x, y) = (core.tick(t), restored.tick(t));
                assert_eq!(format!("{:?}", x.tunnels), format!("{:?}", y.tunnels));
            }
            assert_eq!(core.stats(), restored.stats());
        }
    }
}
