//! Packet descriptors and deliveries.
//!
//! A descriptor is the unit the core schedules: a reference to the buffered
//! packet plus a handle to its interned route and the index of the next pipe
//! to traverse. It belongs to the core it is on: from admission to delivery
//! (or tunnel) it sits in one slot of that core's slab and is updated there
//! hop by hop, while the core's pipes and timing wheel carry only the slot's
//! 4-byte handle and deadlines (see [`crate::core`]). Descriptors are what
//! multi-core configurations tunnel between cores, by value — the one time
//! a descriptor is copied; neither the packet payload nor the route itself
//! ever moves
//! — every core holds the same [`RouteTable`] (installed at Bind time), so a
//! tunnelled descriptor carries only the 4-byte [`RouteId`] and its hop
//! index, exactly as the paper's descriptors reference routing state that is
//! pre-installed on each core node.

use mn_packet::Packet;
use mn_routing::{RouteId, RouteTable};
use mn_util::{SimDuration, SimTime};

mn_util::codec_record! {
    /// A scheduled packet inside the core: the packet descriptor plus its route
    /// progress. What a checkpoint carries of it is checked against the
    /// restored route table where it is read ([`Descriptor::fits`]).
    #[derive(Debug, Clone)]
    pub struct Descriptor {
        /// The packet being emulated (headers and size only — no payload bytes).
        pub packet: Packet,
        /// Handle to the interned pipe route from source to destination.
        pub route: RouteId,
        /// Index of the next pipe to enter (hops `0..hop` are already done).
        pub hop: usize,
        /// Time the packet entered the core (for per-packet latency reporting).
        pub entered_at: SimTime,
    }
}

impl Descriptor {
    /// Creates a descriptor at the start of its route.
    pub fn new(packet: Packet, route: RouteId, entered_at: SimTime) -> Self {
        Descriptor {
            packet,
            route,
            hop: 0,
            entered_at,
        }
    }

    /// Total number of pipes on the route.
    pub fn total_hops(&self, routes: &RouteTable) -> usize {
        routes.pipes(self.route).len()
    }

    /// The next pipe to traverse, or `None` if the route is complete.
    #[inline]
    pub fn next_pipe(&self, routes: &RouteTable) -> Option<mn_distill::PipeId> {
        routes.pipes(self.route).get(self.hop).copied()
    }

    /// Marks the current hop as traversed.
    #[inline]
    pub fn advance_hop(&mut self) {
        self.hop += 1;
    }

    /// Returns `true` once every pipe on the route has been traversed.
    #[inline]
    pub fn is_complete(&self, routes: &RouteTable) -> bool {
        self.hop >= routes.pipes(self.route).len()
    }

    /// `true` when `routes` holds the descriptor's route and its hop is at
    /// most that route's length: the two indices the forwarding path reads
    /// unchecked, so a restore refuses a descriptor that fails this.
    pub(crate) fn fits(&self, routes: &RouteTable) -> bool {
        self.route.index() < routes.route_count() && self.hop <= routes.pipes(self.route).len()
    }
}

mn_util::codec_record! {
    /// A packet that has exited the emulated network and must be forwarded to the
    /// edge node hosting the destination VN. Same-location deliveries waiting
    /// for the next advance are part of a checkpoint.
    #[derive(Debug, Clone)]
    pub struct Delivery {
        /// The delivered packet.
        pub packet: Packet,
        /// When the edge receives it: the pass that found its last exit due.
        pub delivered_at: SimTime,
        /// Time the packet entered the core.
        pub entered_at: SimTime,
        /// Number of pipes the packet traversed.
        pub hops: usize,
        /// The last hop's lateness, `delivered_at` minus its exit deadline:
        /// every earlier hop was entered at its ideal time, so
        /// `delivered_at - emulation_error` is the ideal delivery time.
        pub emulation_error: SimDuration,
    }
}

impl Delivery {
    /// The end-to-end delay the packet experienced inside the emulated
    /// network (queueing + transmission + propagation + the last hop's
    /// [`emulation_error`](Delivery::emulation_error)).
    pub fn core_delay(&self) -> SimDuration {
        self.delivered_at - self.entered_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_distill::PipeId;
    use mn_packet::{FlowKey, PacketId, Protocol, TcpFlags, TransportHeader, VnId};

    fn packet() -> Packet {
        Packet::new(
            PacketId(1),
            FlowKey {
                src: VnId(0),
                dst: VnId(1),
                src_port: 1,
                dst_port: 2,
                protocol: Protocol::Tcp,
            },
            TransportHeader::Tcp {
                seq: 0,
                ack: 0,
                payload_len: 100,
                flags: TcpFlags::ACK,
                window: 65535,
            },
            SimTime::ZERO,
        )
    }

    fn table_with(pipes: Vec<PipeId>) -> (RouteTable, RouteId) {
        let mut table = RouteTable::new(2);
        let id = table.intern(&pipes);
        table.set_pair(0, 1, id);
        (table, id)
    }

    #[test]
    fn descriptor_walks_its_route() {
        let (routes, id) = table_with(vec![PipeId(3), PipeId(7), PipeId(9)]);
        let mut d = Descriptor::new(packet(), id, SimTime::from_millis(1));
        assert_eq!(d.total_hops(&routes), 3);
        assert_eq!(d.next_pipe(&routes), Some(PipeId(3)));
        d.advance_hop();
        assert_eq!(d.next_pipe(&routes), Some(PipeId(7)));
        d.advance_hop();
        d.advance_hop();
        assert!(d.is_complete(&routes));
        assert_eq!(d.next_pipe(&routes), None);
    }

    #[test]
    fn empty_route_is_immediately_complete() {
        let (routes, id) = table_with(vec![]);
        let d = Descriptor::new(packet(), id, SimTime::ZERO);
        assert!(d.is_complete(&routes));
        assert_eq!(d.total_hops(&routes), 0);
    }

    #[test]
    fn tunnelled_descriptors_share_the_interned_route() {
        // Cloning a descriptor (what a tunnel does) must not clone the route:
        // both descriptors resolve to the same interned pipe slice.
        let (routes, id) = table_with(vec![PipeId(1), PipeId(2)]);
        let d1 = Descriptor::new(packet(), id, SimTime::ZERO);
        let d2 = d1.clone();
        assert_eq!(d1.route, d2.route);
        assert!(std::ptr::eq(routes.pipes(d1.route), routes.pipes(d2.route)));
    }

    #[test]
    fn descriptors_and_deliveries_keep_the_record_contract() {
        let (routes, id) = table_with(vec![PipeId(4), PipeId(5)]);
        let mut d = Descriptor::new(packet(), id, SimTime::from_micros(19));
        d.hop = 2;
        assert!(d.fits(&routes));
        mn_util::codec::record_contract(d.clone());
        d.hop = 3;
        assert!(!d.fits(&routes));
        d.hop = 0;
        d.route = RouteId(1);
        assert!(!d.fits(&routes));
        mn_util::codec::record_contract(Delivery {
            packet: packet(),
            delivered_at: SimTime::from_millis(25),
            entered_at: SimTime::from_millis(5),
            hops: 2,
            emulation_error: SimDuration::from_micros(40),
        });
    }

    #[test]
    fn delivery_core_delay() {
        let del = Delivery {
            packet: packet(),
            delivered_at: SimTime::from_millis(25),
            entered_at: SimTime::from_millis(5),
            hops: 2,
            emulation_error: SimDuration::from_micros(40),
        };
        assert_eq!(del.core_delay(), SimDuration::from_millis(20));
    }
}
