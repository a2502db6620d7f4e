//! The pipe emulation unit: bandwidth queue + delay line.
//!
//! The timing model follows §2.2 of the paper exactly. When a packet arrives
//! at a pipe at time *t*:
//!
//! 1. it may be dropped by the configured random loss rate, or because the
//!    bandwidth queue already holds `queue_len` packets;
//! 2. otherwise its *drain finish* time is computed from the packet size, the
//!    sizes of all earlier packets waiting to enter the pipe, and the pipe
//!    bandwidth: `drain_finish = max(t, previous drain_finish) + size/bw`;
//! 3. it then sits in the delay line until `exit = drain_finish + latency`,
//!    at which point the scheduler either moves it to the next pipe on its
//!    route or delivers it to the destination edge node.
//!
//! The pipe is generic over the item `T` it queues, so the same machinery
//! serves the emulation core — whose pipes queue 4-byte handles to
//! descriptors that stay in the core's slab — the benchmark's
//! descriptor-carrying kernels and the unit tests' plain markers.
//! [`EmuPipe::enqueue`] and [`EmuPipe::pop_ready`] are the two halves of a
//! transit.

use std::collections::VecDeque;

use rand::Rng;

use mn_distill::PipeAttrs;
use mn_util::{ByteReader, ByteSize, ByteWriter, Codec, CodecError, DataRate, SimTime};

use crate::stats::PipeStats;

/// Result of offering a packet to a pipe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// The packet was accepted and will exit the pipe at the given time.
    Accepted {
        /// Time the packet exits the pipe's delay line.
        exit_time: SimTime,
    },
    /// Dropped: the bandwidth queue was full (congestion drop), or the pipe
    /// is configured with zero bandwidth (a failed link).
    DroppedOverflow,
    /// Dropped by the configured random loss rate.
    DroppedLoss,
}

impl EnqueueOutcome {
    /// Returns `true` if the packet was accepted.
    pub fn is_accepted(&self) -> bool {
        matches!(self, EnqueueOutcome::Accepted { .. })
    }
}

/// A packet leaving the pipe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DequeuedPacket<T> {
    /// The transported descriptor.
    pub item: T,
    /// The wire size used for bandwidth accounting.
    pub size: ByteSize,
    /// The exit deadline the emulation computed for this packet.
    pub exit_time: SimTime,
}

#[derive(Debug, Clone)]
struct InFlight<T> {
    item: T,
    size: ByteSize,
    drain_finish: SimTime,
    exit_time: SimTime,
}

/// One emulated link inside a core node.
#[derive(Debug, Clone)]
pub struct EmuPipe<T> {
    attrs: PipeAttrs,
    in_flight: VecDeque<InFlight<T>>,
    drain_busy_until: SimTime,
    stats: PipeStats,
    /// Bandwidth consumed by flow-level (fluid) traffic modelled on this
    /// pipe. Packets see only the residual: their transmission time and the
    /// failed-link check use `bandwidth - fluid_demand`.
    fluid_demand: DataRate,
}

impl<T> EmuPipe<T> {
    /// Creates an empty FIFO drop-tail pipe with the given attributes.
    pub fn new(attrs: PipeAttrs) -> Self {
        EmuPipe {
            attrs,
            in_flight: VecDeque::new(),
            drain_busy_until: SimTime::ZERO,
            stats: PipeStats::default(),
            fluid_demand: DataRate::ZERO,
        }
    }

    /// Current emulation parameters.
    pub fn attrs(&self) -> &PipeAttrs {
        &self.attrs
    }

    /// Replaces the emulation parameters. Packets already inside the pipe
    /// keep the deadlines computed when they entered; only future arrivals
    /// see the new bandwidth/latency/loss/queue values. This is the hook the
    /// dynamic cross-traffic and fault-injection machinery uses.
    pub fn set_attrs(&mut self, attrs: PipeAttrs) {
        self.attrs = attrs;
    }

    /// Sets the bandwidth consumed by fluid flows crossing this pipe.
    /// Packets already inside keep their deadlines; future arrivals drain
    /// at the residual rate.
    pub fn set_fluid_demand(&mut self, demand: DataRate) {
        self.fluid_demand = demand;
    }

    /// Bandwidth currently consumed by fluid flows on this pipe.
    pub fn fluid_demand(&self) -> DataRate {
        self.fluid_demand
    }

    /// The bandwidth left for packets after fluid demand is served.
    #[inline]
    fn residual_bandwidth(&self) -> DataRate {
        DataRate::from_bps(
            self.attrs
                .bandwidth
                .as_bps()
                .saturating_sub(self.fluid_demand.as_bps()),
        )
    }

    /// Counters.
    pub fn stats(&self) -> &PipeStats {
        &self.stats
    }

    /// Number of packets currently being emulated (bandwidth queue + delay
    /// line).
    pub fn in_flight_count(&self) -> usize {
        self.in_flight.len()
    }

    /// Number of packets still waiting to finish draining into the pipe at
    /// time `now` — the instantaneous bandwidth-queue occupancy used for the
    /// overflow check.
    pub fn queue_occupancy(&self, now: SimTime) -> usize {
        // `in_flight` is ordered by drain_finish (drain times are assigned
        // monotonically), so a binary search finds the drained prefix.
        let drained = self.partition_drained(now);
        self.in_flight.len() - drained
    }

    fn partition_drained(&self, now: SimTime) -> usize {
        let mut lo = 0;
        let mut hi = self.in_flight.len();
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.in_flight[mid].drain_finish <= now {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Offers a packet to the pipe at time `now`.
    pub fn enqueue<R: Rng + ?Sized>(
        &mut self,
        now: SimTime,
        size: ByteSize,
        item: T,
        rng: &mut R,
    ) -> EnqueueOutcome {
        // A zero-residual pipe models a failed link (or one fully consumed
        // by fluid demand): everything is dropped as congestion loss.
        let residual = self.residual_bandwidth();
        if residual.is_zero() {
            self.stats.dropped_overflow += 1;
            return EnqueueOutcome::DroppedOverflow;
        }
        // Configured random loss.
        if self.attrs.loss_rate > 0.0 && rng.gen::<f64>() < self.attrs.loss_rate {
            self.stats.dropped_loss += 1;
            return EnqueueOutcome::DroppedLoss;
        }
        // Tail drop on a full bandwidth queue.
        if self.queue_occupancy(now) >= self.attrs.queue_len {
            self.stats.dropped_overflow += 1;
            return EnqueueOutcome::DroppedOverflow;
        }

        let drain_start = now.max(self.drain_busy_until);
        let drain_finish = drain_start.saturating_add(residual.transmission_time(size));
        let exit_time = drain_finish.saturating_add(self.attrs.latency);
        self.drain_busy_until = drain_finish;
        self.in_flight.push_back(InFlight {
            item,
            size,
            drain_finish,
            exit_time,
        });
        self.stats.enqueued += 1;
        EnqueueOutcome::Accepted { exit_time }
    }

    /// Removes and returns the oldest packet if its exit deadline is at or
    /// before `now`.
    ///
    /// This is the scheduler's entry point and the pipe's one dequeue body:
    /// the core calls it in a loop for each due wheel entry, handling every
    /// packet (step its route, enqueue it on the next pipe) before popping
    /// the next, so nothing is staged in between.
    #[inline]
    pub fn pop_ready(&mut self, now: SimTime) -> Option<DequeuedPacket<T>> {
        if self.in_flight.front()?.exit_time > now {
            return None;
        }
        let f = self.in_flight.pop_front()?;
        self.stats.dequeued += 1;
        self.stats.bytes_out += f.size.as_bytes();
        Some(DequeuedPacket {
            item: f.item,
            size: f.size,
            exit_time: f.exit_time,
        })
    }

    /// Removes every packet whose exit deadline is at or before `now` and
    /// appends it to `out` in exit order ([`EmuPipe::pop_ready`] until it
    /// finds nothing due). The caller owns the buffer, so a warmed capacity
    /// is reused call after call.
    pub fn dequeue_ready_into(&mut self, now: SimTime, out: &mut Vec<DequeuedPacket<T>>) {
        while let Some(packet) = self.pop_ready(now) {
            out.push(packet);
        }
    }

    /// Removes and returns every packet whose exit deadline is at or before
    /// `now`, in exit order, allocating a fresh buffer (convenience wrapper
    /// over [`EmuPipe::dequeue_ready_into`]).
    pub fn dequeue_ready(&mut self, now: SimTime) -> Vec<DequeuedPacket<T>> {
        let mut out = Vec::new();
        self.dequeue_ready_into(now, &mut out);
        out
    }

    /// Writes the pipe's state for a checkpoint — attributes, drain clock,
    /// counters, fluid demand, then the packets inside in FIFO order with
    /// their sizes and deadlines — each queued item as `put_item` writes it.
    /// Hand-written rather than declared because of that hook: a core's
    /// pipes queue slab handles, and what its checkpoint carries for each is
    /// the descriptor the handle resolves to.
    pub fn put_with(&self, w: &mut ByteWriter, mut put_item: impl FnMut(&T, &mut ByteWriter)) {
        self.attrs.put(w);
        (self.drain_busy_until, self.stats, self.fluid_demand).put(w);
        w.put_len(self.in_flight.len());
        for packet in &self.in_flight {
            put_item(&packet.item, w);
            (packet.size, packet.drain_finish, packet.exit_time).put(w);
        }
    }

    /// Rebuilds a pipe [`EmuPipe::put_with`] wrote into a checkpoint of
    /// format `version`, reading each queued item with `get_item` (an item
    /// takes at least `item_bytes`). The restored pipe behaves bit-identically
    /// to the one written. Before version 5 a pipe also carried the retired
    /// RED discipline — a tag byte and an average after its attributes, a
    /// drop counter before `bytes_out` — which is skipped; only drop-tail
    /// pipes were ever written, so any other tag or a RED drop is refused.
    pub fn get_with(
        r: &mut ByteReader<'_>,
        version: u32,
        item_bytes: usize,
        mut get_item: impl FnMut(&mut ByteReader<'_>) -> Result<T, CodecError>,
    ) -> Result<Self, CodecError> {
        let attrs = PipeAttrs::get(r)?;
        let (drain_busy_until, stats) = if version < 5 {
            let (tag, _average, drain_busy_until, counts, red_drops, bytes_out) =
                <(u8, f64, SimTime, [u64; 4], u64, u64)>::get(r)?;
            if tag != 0 || red_drops != 0 {
                return Err(CodecError::Invalid("a RED pipe, which no encoder wrote"));
            }
            let [enqueued, dequeued, dropped_overflow, dropped_loss] = counts;
            let stats = PipeStats {
                enqueued,
                dequeued,
                dropped_overflow,
                dropped_loss,
                bytes_out,
            };
            (drain_busy_until, stats)
        } else {
            Codec::get(r)?
        };
        let fluid_demand = DataRate::get(r)?;
        let count = r.get_count(item_bytes + <(ByteSize, SimTime, SimTime)>::MIN_BYTES)?;
        let mut in_flight = VecDeque::with_capacity(count);
        for _ in 0..count {
            let item = get_item(r)?;
            let (size, drain_finish, exit_time) = Codec::get(r)?;
            in_flight.push_back(InFlight {
                item,
                size,
                drain_finish,
                exit_time,
            });
        }
        Ok(EmuPipe {
            attrs,
            in_flight,
            drain_busy_until,
            stats,
            fluid_demand,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_util::rngs::seeded_rng;
    use mn_util::{DataRate, SimDuration};

    fn attrs(mbps: u64, latency_ms: u64, queue: usize) -> PipeAttrs {
        let mut a = PipeAttrs::new(
            DataRate::from_mbps(mbps),
            SimDuration::from_millis(latency_ms),
        );
        a.queue_len = queue;
        a
    }

    fn kb(bytes: u64) -> ByteSize {
        ByteSize::from_bytes(bytes)
    }

    #[test]
    fn single_packet_timing() {
        // 1500 bytes at 10 Mb/s = 1.2 ms transmission + 10 ms latency.
        let mut pipe: EmuPipe<u32> = EmuPipe::new(attrs(10, 10, 50));
        let mut rng = seeded_rng(1);
        let out = pipe.enqueue(SimTime::ZERO, kb(1500), 7, &mut rng);
        let expected_exit = SimTime::from_micros(1200) + SimDuration::from_millis(10);
        assert_eq!(
            out,
            EnqueueOutcome::Accepted {
                exit_time: expected_exit
            }
        );
        assert!(pipe.dequeue_ready(SimTime::from_millis(11)).is_empty());
        let ready = pipe.dequeue_ready(expected_exit);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].item, 7);
        assert_eq!(ready[0].exit_time, expected_exit);
        assert_eq!(pipe.in_flight_count(), 0);
    }

    #[test]
    fn back_to_back_packets_serialise_on_bandwidth() {
        let mut pipe: EmuPipe<u32> = EmuPipe::new(attrs(10, 0, 50));
        let mut rng = seeded_rng(1);
        let t = SimTime::ZERO;
        let a = pipe.enqueue(t, kb(1500), 1, &mut rng);
        let b = pipe.enqueue(t, kb(1500), 2, &mut rng);
        let (
            EnqueueOutcome::Accepted { exit_time: ea },
            EnqueueOutcome::Accepted { exit_time: eb },
        ) = (a, b)
        else {
            panic!("both packets should be accepted")
        };
        // Second packet waits for the first to drain: exits 1.2 ms later.
        assert_eq!(eb - ea, SimDuration::from_micros(1200));
    }

    #[test]
    fn queue_overflow_drops() {
        // Queue of 2 packets; offer 4 back to back.
        let mut pipe: EmuPipe<u32> = EmuPipe::new(attrs(1, 5, 2));
        let mut rng = seeded_rng(1);
        let t = SimTime::ZERO;
        assert!(pipe.enqueue(t, kb(1500), 1, &mut rng).is_accepted());
        assert!(pipe.enqueue(t, kb(1500), 2, &mut rng).is_accepted());
        assert_eq!(
            pipe.enqueue(t, kb(1500), 3, &mut rng),
            EnqueueOutcome::DroppedOverflow
        );
        assert_eq!(pipe.stats().dropped_overflow, 1);
        assert_eq!(pipe.stats().enqueued, 2);
        assert!(pipe.stats().is_conserved(3));
    }

    #[test]
    fn queue_frees_as_packets_drain() {
        // 1500 B at 12 Mb/s = 1 ms drain time, queue of 1.
        let mut pipe: EmuPipe<u32> = EmuPipe::new(attrs(12, 50, 1));
        let mut rng = seeded_rng(1);
        assert!(pipe
            .enqueue(SimTime::ZERO, kb(1500), 1, &mut rng)
            .is_accepted());
        assert_eq!(
            pipe.enqueue(SimTime::ZERO, kb(1500), 2, &mut rng),
            EnqueueOutcome::DroppedOverflow
        );
        // After the first packet drains into the delay line, a slot is free.
        let later = SimTime::from_micros(1001);
        assert_eq!(pipe.queue_occupancy(later), 0);
        assert!(pipe.enqueue(later, kb(1500), 3, &mut rng).is_accepted());
        assert_eq!(pipe.in_flight_count(), 2);
    }

    #[test]
    fn random_loss_drops_expected_fraction() {
        let mut a = attrs(100, 1, 10_000);
        a.loss_rate = 0.3;
        let mut pipe: EmuPipe<u32> = EmuPipe::new(a);
        let mut rng = seeded_rng(42);
        let mut dropped = 0;
        for i in 0..10_000 {
            let t = SimTime::from_micros(i * 200);
            if !pipe.enqueue(t, kb(100), i as u32, &mut rng).is_accepted() {
                dropped += 1;
            }
        }
        let rate = dropped as f64 / 10_000.0;
        assert!((rate - 0.3).abs() < 0.02, "observed loss {rate}");
        assert_eq!(pipe.stats().dropped_loss, dropped);
    }

    #[test]
    fn zero_bandwidth_models_failed_link() {
        let mut pipe: EmuPipe<u32> =
            EmuPipe::new(PipeAttrs::new(DataRate::ZERO, SimDuration::from_millis(1)));
        let mut rng = seeded_rng(1);
        assert_eq!(
            pipe.enqueue(SimTime::ZERO, kb(100), 1, &mut rng),
            EnqueueOutcome::DroppedOverflow
        );
    }

    #[test]
    fn dequeue_order_is_fifo() {
        let mut pipe: EmuPipe<u32> = EmuPipe::new(attrs(10, 5, 50));
        let mut rng = seeded_rng(1);
        for i in 0..5 {
            pipe.enqueue(SimTime::from_micros(i as u64 * 10), kb(500), i, &mut rng);
        }
        let all = pipe.dequeue_ready(SimTime::from_secs(1));
        let order: Vec<u32> = all.iter().map(|p| p.item).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert_eq!(pipe.stats().dequeued, 5);
        assert_eq!(pipe.stats().bytes_out, 2500);
    }

    #[test]
    fn set_attrs_affects_only_future_packets() {
        let mut pipe: EmuPipe<u32> = EmuPipe::new(attrs(10, 10, 50));
        let mut rng = seeded_rng(1);
        let EnqueueOutcome::Accepted { exit_time: first } =
            pipe.enqueue(SimTime::ZERO, kb(1500), 1, &mut rng)
        else {
            panic!()
        };
        // Slow the pipe down and double its latency.
        pipe.set_attrs(attrs(1, 20, 50));
        let EnqueueOutcome::Accepted { exit_time: second } =
            pipe.enqueue(SimTime::ZERO, kb(1500), 2, &mut rng)
        else {
            panic!()
        };
        assert_eq!(
            first,
            SimTime::from_micros(1200) + SimDuration::from_millis(10)
        );
        // Second: waits for first drain (1.2 ms), then 12 ms at 1 Mb/s + 20 ms.
        assert_eq!(
            second,
            SimTime::from_micros(1200 + 12_000) + SimDuration::from_millis(20)
        );
    }

    #[test]
    fn fluid_demand_leaves_packets_the_residual() {
        // 10 Mb/s pipe with 5 Mb/s of fluid demand: packets drain at the
        // 5 Mb/s residual, so 1500 B takes 2.4 ms instead of 1.2 ms.
        let mut pipe: EmuPipe<u32> = EmuPipe::new(attrs(10, 0, 50));
        pipe.set_fluid_demand(DataRate::from_mbps(5));
        let mut rng = seeded_rng(1);
        let EnqueueOutcome::Accepted { exit_time } =
            pipe.enqueue(SimTime::ZERO, kb(1500), 1, &mut rng)
        else {
            panic!("accepted")
        };
        assert_eq!(exit_time, SimTime::from_micros(2400));
        // Demand at (or beyond) line rate leaves no residual: drops.
        pipe.set_fluid_demand(DataRate::from_mbps(10));
        assert_eq!(
            pipe.enqueue(SimTime::from_secs(1), kb(1500), 2, &mut rng),
            EnqueueOutcome::DroppedOverflow
        );
        // Clearing the demand restores full line rate for new arrivals.
        pipe.set_fluid_demand(DataRate::ZERO);
        assert_eq!(pipe.fluid_demand(), DataRate::ZERO);
        let EnqueueOutcome::Accepted { exit_time } =
            pipe.enqueue(SimTime::from_secs(2), kb(1500), 3, &mut rng)
        else {
            panic!("accepted")
        };
        assert_eq!(
            exit_time,
            SimTime::from_secs(2) + SimDuration::from_micros(1200)
        );
    }

    #[test]
    fn drain_all_empties_the_pipe() {
        let mut pipe: EmuPipe<u32> = EmuPipe::new(attrs(10, 1000, 50));
        let mut rng = seeded_rng(1);
        for i in 0..3 {
            pipe.enqueue(SimTime::ZERO, kb(100), i, &mut rng);
        }
        assert_eq!(pipe.dequeue_ready(SimTime::MAX).len(), 3);
        assert_eq!(pipe.in_flight_count(), 0);
    }

    #[test]
    fn delay_line_holds_bandwidth_delay_product() {
        // 10 Mb/s, 100 ms: BDP = 125 kB ~ 83 packets of 1500 B. Offer a
        // saturating stream and check the in-flight count approaches that.
        let mut pipe: EmuPipe<u64> = EmuPipe::new(attrs(10, 100, 100));
        let mut rng = seeded_rng(1);
        let mut t = SimTime::ZERO;
        let mut sent = 0u64;
        // Send at exactly line rate for 300 ms.
        while t < SimTime::from_millis(300) {
            pipe.enqueue(t, kb(1500), sent, &mut rng);
            let _ = pipe.dequeue_ready(t);
            sent += 1;
            t += SimDuration::from_micros(1200);
        }
        let in_flight = pipe.in_flight_count();
        assert!(
            (70..=95).contains(&in_flight),
            "in-flight {in_flight} should be near the 83-packet BDP"
        );
    }

    /// A pipe of plain items is a record: its queue items encode as
    /// themselves, in the current layout (`MNSP` v5).
    impl<T: Codec> Codec for EmuPipe<T> {
        const MIN_BYTES: usize = 0;

        fn put(&self, w: &mut ByteWriter) {
            self.put_with(w, T::put);
        }

        fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
            EmuPipe::get_with(r, 5, T::MIN_BYTES, T::get)
        }
    }

    /// A lossy, overflowing pipe with packets inside keeps the record
    /// contract; written with the RED fields a pre-v5 pipe carried, it reads
    /// back as the same pipe unless those fields say RED.
    #[test]
    fn a_pipe_mid_run_keeps_the_record_contract() {
        let mut lossy = attrs(5, 10, 8);
        lossy.loss_rate = 0.2;
        let mut pipe: EmuPipe<u32> = EmuPipe::new(lossy);
        pipe.set_fluid_demand(DataRate::from_mbps(1));
        let mut rng = seeded_rng(11);
        for i in 0..20 {
            pipe.enqueue(SimTime::from_micros(i as u64 * 50), kb(700), i, &mut rng);
        }
        let stats = *pipe.stats();
        assert!(pipe.in_flight_count() > 0 && stats.dropped_loss > 0 && stats.dropped_overflow > 0);
        fn bytes_of(record: &impl Codec) -> Vec<u8> {
            let mut w = ByteWriter::new();
            record.put(&mut w);
            w.into_bytes()
        }
        let v5 = bytes_of(&pipe);
        mn_util::codec::record_contract(pipe);
        mn_util::codec::record_contract(EmuPipe::<u64>::new(attrs(1, 1, 1)));

        // v4: the tag and average after the attributes (then the drain clock
        // and four counters), the RED drop counter before `bytes_out`.
        let at = bytes_of(&lossy).len();
        let legacy = |tag: u8, red_drops: u64| {
            let mut w = ByteWriter::new();
            w.put_bytes(&v5[..at]);
            (tag, 0.0f64).put(&mut w);
            w.put_bytes(&v5[at..at + 40]);
            red_drops.put(&mut w);
            w.put_bytes(&v5[at + 40..]);
            let bytes = w.into_bytes();
            let r = &mut ByteReader::new(&bytes);
            EmuPipe::<u32>::get_with(r, 4, u32::MIN_BYTES, u32::get).map(|pipe| bytes_of(&pipe))
        };
        assert!(legacy(0, 0).unwrap() == v5);
        let red = Err(CodecError::Invalid("a RED pipe, which no encoder wrote"));
        assert_eq!(legacy(1, 0), red);
        assert_eq!(legacy(0, 3), red);
    }

    #[test]
    fn conservation_property_under_random_load() {
        let mut pipe: EmuPipe<u64> = EmuPipe::new(attrs(5, 10, 10));
        let mut rng = seeded_rng(9);
        let mut offered = 0u64;
        let mut delivered = 0u64;
        let mut t = SimTime::ZERO;
        for i in 0..5_000u64 {
            t += SimDuration::from_micros(100 + (i % 7) * 137);
            offered += 1;
            let _ = pipe.enqueue(t, kb(200 + (i % 5) * 300), i, &mut rng);
            delivered += pipe.dequeue_ready(t).len() as u64;
        }
        delivered += pipe.dequeue_ready(SimTime::MAX).len() as u64;
        let s = pipe.stats();
        assert!(s.is_conserved(offered));
        assert_eq!(delivered, s.dequeued);
        assert_eq!(offered, s.dequeued + s.dropped_total());
    }
}
