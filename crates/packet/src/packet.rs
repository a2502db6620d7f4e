//! Packet descriptors and flow identification.
//!
//! A [`Packet`] is what moves through the emulation: source and destination
//! VN, ports, a transport header (enough for the TCP/UDP state machines to
//! operate) and the wire size used by every bandwidth computation. Payload
//! bytes are never carried — exactly like ModelNet, which leaves packet
//! contents buffered at the entry point and forwards descriptors by
//! reference through the pipe network.

use std::fmt;

use mn_util::{ByteReader, ByteSize, ByteWriter, Codec, CodecError, SimTime};

use crate::addr::VnId;

/// Ethernet-style maximum transmission unit used by the edge stacks.
pub const MTU_BYTES: u32 = 1500;
/// Combined IPv4 + TCP header size (no options).
pub const IP_TCP_HEADER_BYTES: u32 = 40;
/// Combined IPv4 + UDP header size.
pub const IP_UDP_HEADER_BYTES: u32 = 28;
/// Maximum TCP segment payload given [`MTU_BYTES`] and [`IP_TCP_HEADER_BYTES`].
pub const MSS_BYTES: u32 = MTU_BYTES - IP_TCP_HEADER_BYTES;

mn_util::codec_record! {
    /// Globally unique packet identifier (assigned by the sending stack).
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
    pub struct PacketId(pub u64);
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt{}", self.0)
    }
}

/// Transport protocol of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Reliable, congestion-controlled byte stream.
    Tcp,
    /// Unreliable datagrams.
    Udp,
}

/// One tag byte: 0 TCP, 1 UDP.
impl Codec for Protocol {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(*self as u8);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(Protocol::Tcp),
            1 => Ok(Protocol::Udp),
            _ => Err(CodecError::Invalid("unknown protocol tag")),
        }
    }
}

mn_util::codec_record! {
    /// The 5-tuple identifying a flow. Route lookup in the core is by
    /// (source VN, destination VN); the full tuple is used by the edge stacks
    /// to demultiplex to sockets.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct FlowKey {
        /// Sending VN.
        pub src: VnId,
        /// Receiving VN.
        pub dst: VnId,
        /// Source port.
        pub src_port: u16,
        /// Destination port.
        pub dst_port: u16,
        /// Transport protocol.
        pub protocol: Protocol,
    }
}

impl FlowKey {
    /// The key of the reverse direction of this flow (ACK path).
    pub fn reverse(self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} {}:{} -> {}:{}",
            self.protocol, self.src, self.src_port, self.dst, self.dst_port
        )
    }
}

mn_util::codec_record! {
    /// TCP header flags relevant to the emulated state machines.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct TcpFlags {
        /// Connection-establishment flag.
        pub syn: bool,
        /// Connection-teardown flag.
        pub fin: bool,
        /// Acknowledgement number is valid.
        pub ack: bool,
    }
}

impl TcpFlags {
    /// A pure data or pure ACK segment (no SYN/FIN).
    pub const ACK: TcpFlags = TcpFlags {
        syn: false,
        fin: false,
        ack: true,
    };
    /// A SYN segment.
    pub const SYN: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        ack: false,
    };
    /// A SYN+ACK segment.
    pub const SYN_ACK: TcpFlags = TcpFlags {
        syn: true,
        fin: false,
        ack: true,
    };
    /// A FIN+ACK segment.
    pub const FIN_ACK: TcpFlags = TcpFlags {
        syn: false,
        fin: true,
        ack: true,
    };
}

/// Transport-layer header carried by a packet descriptor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TransportHeader {
    /// A TCP segment.
    Tcp {
        /// Sequence number of the first payload byte.
        seq: u64,
        /// Cumulative acknowledgement number (valid when `flags.ack`).
        ack: u64,
        /// Payload bytes carried.
        payload_len: u32,
        /// Header flags.
        flags: TcpFlags,
        /// Advertised receive window in bytes.
        window: u32,
    },
    /// A UDP datagram.
    Udp {
        /// Payload bytes carried.
        payload_len: u32,
        /// Datagram sequence number (for loss accounting by receivers).
        seq: u64,
    },
}

/// A tag byte (0 TCP, 1 UDP), then the variant's fields in order.
impl Codec for TransportHeader {
    const MIN_BYTES: usize = 1 + <(u32, u64)>::MIN_BYTES;

    fn put(&self, w: &mut ByteWriter) {
        match *self {
            TransportHeader::Tcp {
                seq,
                ack,
                payload_len,
                flags,
                window,
            } => (0u8, seq, ack, payload_len, flags, window).put(w),
            TransportHeader::Udp { payload_len, seq } => (1u8, payload_len, seq).put(w),
        }
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(match r.get_u8()? {
            0 => TransportHeader::Tcp {
                seq: Codec::get(r)?,
                ack: Codec::get(r)?,
                payload_len: Codec::get(r)?,
                flags: Codec::get(r)?,
                window: Codec::get(r)?,
            },
            1 => TransportHeader::Udp {
                payload_len: Codec::get(r)?,
                seq: Codec::get(r)?,
            },
            _ => return Err(CodecError::Invalid("unknown transport header tag")),
        })
    }
}

impl TransportHeader {
    /// Payload bytes carried by this header.
    pub fn payload_len(&self) -> u32 {
        match self {
            TransportHeader::Tcp { payload_len, .. } => *payload_len,
            TransportHeader::Udp { payload_len, .. } => *payload_len,
        }
    }

    /// Total wire size of a packet with this header (headers + payload).
    pub fn wire_size(&self) -> ByteSize {
        let header = match self {
            TransportHeader::Tcp { .. } => IP_TCP_HEADER_BYTES,
            TransportHeader::Udp { .. } => IP_UDP_HEADER_BYTES,
        };
        ByteSize::from_bytes((header + self.payload_len()) as u64)
    }
}

mn_util::codec_record! {
    /// A packet descriptor moving through the emulation. Its checkpoint
    /// carries the wire size verbatim (it is not re-derived from the header
    /// on restore, so size overrides survive).
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct Packet {
        /// Unique identifier.
        pub id: PacketId,
        /// Flow 5-tuple.
        pub flow: FlowKey,
        /// Transport header.
        pub header: TransportHeader,
        /// Total wire size (headers + payload).
        pub size: ByteSize,
        /// Virtual time at which the sending stack emitted the packet; used
        /// by the accuracy log to compute expected vs. actual delivery times.
        pub sent_at: SimTime,
    }
}

impl Packet {
    /// Builds a packet descriptor, deriving the wire size from the header.
    pub fn new(id: PacketId, flow: FlowKey, header: TransportHeader, sent_at: SimTime) -> Self {
        Packet {
            id,
            flow,
            header,
            size: header.wire_size(),
            sent_at,
        }
    }

    /// Source VN.
    pub fn src(&self) -> VnId {
        self.flow.src
    }

    /// Destination VN.
    pub fn dst(&self) -> VnId {
        self.flow.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowKey {
        FlowKey {
            src: VnId(1),
            dst: VnId(2),
            src_port: 4000,
            dst_port: 80,
            protocol: Protocol::Tcp,
        }
    }

    #[test]
    fn mss_matches_ethernet_mtu() {
        assert_eq!(MSS_BYTES, 1460);
        assert_eq!(MTU_BYTES, 1500);
    }

    #[test]
    fn flow_reverse_swaps_endpoints() {
        let f = flow();
        let r = f.reverse();
        assert_eq!(r.src, VnId(2));
        assert_eq!(r.dst, VnId(1));
        assert_eq!(r.src_port, 80);
        assert_eq!(r.dst_port, 4000);
        assert_eq!(r.reverse(), f);
    }

    #[test]
    fn tcp_wire_size_includes_headers() {
        let h = TransportHeader::Tcp {
            seq: 0,
            ack: 0,
            payload_len: 1460,
            flags: TcpFlags::ACK,
            window: 65535,
        };
        assert_eq!(h.wire_size().as_bytes(), 1500);
        assert_eq!(h.payload_len(), 1460);
        let ack = TransportHeader::Tcp {
            seq: 0,
            ack: 1460,
            payload_len: 0,
            flags: TcpFlags::ACK,
            window: 65535,
        };
        assert_eq!(ack.wire_size().as_bytes(), 40);
    }

    #[test]
    fn udp_wire_size_includes_headers() {
        let h = TransportHeader::Udp {
            payload_len: 1472,
            seq: 0,
        };
        assert_eq!(h.wire_size().as_bytes(), 1500);
    }

    #[test]
    fn packet_constructor_derives_size() {
        let p = Packet::new(
            PacketId(1),
            flow(),
            TransportHeader::Tcp {
                seq: 100,
                ack: 0,
                payload_len: 500,
                flags: TcpFlags::ACK,
                window: 65535,
            },
            SimTime::from_millis(3),
        );
        assert_eq!(p.size.as_bytes(), 540);
        assert_eq!(p.src(), VnId(1));
        assert_eq!(p.dst(), VnId(2));
        assert_eq!(p.sent_at, SimTime::from_millis(3));
    }

    #[test]
    fn tcp_flag_constants() {
        let (syn, syn_ack, fin_ack, ack) = (
            TcpFlags::SYN,
            TcpFlags::SYN_ACK,
            TcpFlags::FIN_ACK,
            TcpFlags::ACK,
        );
        assert!(syn.syn && !syn.ack);
        assert!(syn_ack.syn && syn_ack.ack);
        assert!(fin_ack.fin && fin_ack.ack);
        assert!(ack.ack && !ack.syn && !ack.fin);
    }

    #[test]
    fn packets_keep_the_record_contract() {
        let tcp = TransportHeader::Tcp {
            seq: 1_000_000,
            ack: 77,
            payload_len: 1460,
            flags: TcpFlags::FIN_ACK,
            window: 65_535,
        };
        let udp = TransportHeader::Udp {
            payload_len: 972,
            seq: 3,
        };
        for (header, at) in [(tcp, 17), (udp, 0)] {
            let mut packet = Packet::new(PacketId(42), flow(), header, SimTime::from_micros(at));
            packet.size = ByteSize::from_bytes(9_000);
            mn_util::codec::record_contract(packet);
        }
        mn_util::codec::record_contract((flow().reverse(), Protocol::Udp));
    }

    #[test]
    fn display_formats() {
        assert_eq!(PacketId(9).to_string(), "pkt9");
        let s = flow().to_string();
        assert!(s.contains("vn1") && s.contains("vn2") && s.contains("80"));
    }
}
