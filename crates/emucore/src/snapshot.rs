//! Deterministic checkpoint/restore of the emulator state.
//!
//! A snapshot captures the *complete* state of a running emulation — every
//! pipe's queue contents and drain clock, per-core timing wheels (stale
//! entries included), staged and in-flight tunnel descriptors, CBR meters,
//! fluid flows and their epoch cursor, the published route-table generation
//! and routing matrix (tombstones and free slots verbatim), VN membership
//! and entry-core assignment, per-core counters and accuracy logs, and the
//! exact position of every deterministic RNG stream. Restoring a snapshot
//! and running forward is **bit-identical** to never having stopped: same
//! deliveries at the same virtual times, same stats, same RNG draws — on
//! either execution backend, at any core count.
//!
//! The wire format is a versioned, checksummed frame (`MNSP`: magic, version,
//! payload length, payload, checksum of the payload): a truncated, corrupted,
//! padded or future-version snapshot is a structured [`CodecError`], never a
//! mis-restore. Version 2 changed the checksum only (byte-serial FNV-1a to
//! the word-wise [`checksum64`]); version 3 changed the route table's
//! section only (the route arena chunk by chunk with `u32` pipe ids, one row
//! per location instead of one per endpoint — see
//! [`mn_routing::RouteTable::encode`]); frames of every earlier version
//! still decode. What is *not* captured: application
//! state (traffic sources attached to a [`crate::Emulator`] via a
//! runner live outside the emulator; the runner documents its own policy)
//! and coordinator scratch buffers, which are rebuilt empty.

use mn_packet::{FlowKey, Packet, PacketId, Protocol, TcpFlags, TransportHeader, VnId};
use mn_routing::{RouteId, RouteTable};
use mn_util::codec::checksum64;
use mn_util::{ByteReader, ByteWriter, CodecError};

use crate::descriptor::{Delivery, Descriptor};

/// Magic bytes identifying an emulator snapshot ("MNSP").
pub const SNAPSHOT_MAGIC: u32 = 0x4D4E_5350;

/// Current snapshot format version, the only one written. Bumped on any
/// format change; decoders keep reading every earlier version and reject
/// later ones with [`CodecError::BadVersion`].
pub const SNAPSHOT_VERSION: u32 = 3;

/// A serialized emulator checkpoint: one verified `MNSP` frame.
///
/// Produced by [`crate::Emulator::snapshot`] (a wrapper over
/// [`crate::Emulator::snapshot_into`], the one encoder) and restored by
/// [`crate::Emulator::restore`]. The payload does not record which executor
/// the cores were on, so a snapshot taken on the inline executor restores
/// onto the threaded one (and vice versa) with bit-identical continuation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmulatorSnapshot {
    /// Only ever a frame the encoder just closed or [`Self::verify`] passed.
    pub(crate) framed: Vec<u8>,
}

impl EmulatorSnapshot {
    /// The verified frame's version word and a reader over its payload
    /// (after the 16-byte header), for restore.
    pub(crate) fn reader(&self) -> (u32, ByteReader<'_>) {
        let version = u32::from_le_bytes(self.framed[4..8].try_into().expect("4 bytes"));
        let payload = &self.framed[16..self.framed.len() - 8];
        (version, ByteReader::new(payload))
    }

    /// The frame, for storage, as the encoder wrote it or
    /// [`Self::from_bytes`] verified it.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.framed.clone()
    }

    /// Checks a frame (magic, a version this build reads, length, that
    /// version's checksum, nothing after it) and returns its version with a
    /// reader that borrows the payload.
    pub(crate) fn verify(bytes: &[u8]) -> Result<(u32, ByteReader<'_>), CodecError> {
        ByteReader::open_frame(bytes, SNAPSHOT_MAGIC, |version| match version {
            1 => Ok(mn_util::codec::fnv1a64),
            2 | 3 => Ok(checksum64),
            v => Err(CodecError::BadVersion(v)),
        })
    }

    /// Parses and validates a framed snapshot. Rejects bad magic, versions
    /// this build cannot read, truncation, trailing bytes and checksum
    /// mismatches.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        Self::verify(bytes)?;
        let framed = bytes.to_vec();
        Ok(EmulatorSnapshot { framed })
    }
}

/// The fewest bytes an encoded [`Descriptor`] / [`Delivery`] takes (a UDP
/// header; TCP's is longer): what a count prefix over them is bounded with.
pub(crate) const MIN_DESCRIPTOR_BYTES: usize = 78;
pub(crate) const MIN_DELIVERY_BYTES: usize = 82;

/// Encodes a packet, preserving the wire size verbatim (it is *not*
/// re-derived from the header on decode, so size overrides survive).
pub(crate) fn put_packet(w: &mut ByteWriter, p: &Packet) {
    w.put_u64(p.id.0);
    w.put_u32(p.flow.src.0);
    w.put_u32(p.flow.dst.0);
    w.put_u16(p.flow.src_port);
    w.put_u16(p.flow.dst_port);
    w.put_u8(match p.flow.protocol {
        Protocol::Tcp => 0,
        Protocol::Udp => 1,
    });
    match p.header {
        TransportHeader::Tcp {
            seq,
            ack,
            payload_len,
            flags,
            window,
        } => {
            w.put_u8(0);
            w.put_u64(seq);
            w.put_u64(ack);
            w.put_u32(payload_len);
            w.put_bool(flags.syn);
            w.put_bool(flags.fin);
            w.put_bool(flags.ack);
            w.put_u32(window);
        }
        TransportHeader::Udp { payload_len, seq } => {
            w.put_u8(1);
            w.put_u32(payload_len);
            w.put_u64(seq);
        }
    }
    w.put_size(p.size);
    w.put_time(p.sent_at);
}

/// Decodes a packet written by [`put_packet`].
pub(crate) fn get_packet(r: &mut ByteReader) -> Result<Packet, CodecError> {
    let id = PacketId(r.get_u64()?);
    let src = VnId(r.get_u32()?);
    let dst = VnId(r.get_u32()?);
    let src_port = r.get_u16()?;
    let dst_port = r.get_u16()?;
    let protocol = match r.get_u8()? {
        0 => Protocol::Tcp,
        1 => Protocol::Udp,
        _ => return Err(CodecError::Invalid("unknown protocol tag")),
    };
    let header = match r.get_u8()? {
        0 => TransportHeader::Tcp {
            seq: r.get_u64()?,
            ack: r.get_u64()?,
            payload_len: r.get_u32()?,
            flags: TcpFlags {
                syn: r.get_bool()?,
                fin: r.get_bool()?,
                ack: r.get_bool()?,
            },
            window: r.get_u32()?,
        },
        1 => TransportHeader::Udp {
            payload_len: r.get_u32()?,
            seq: r.get_u64()?,
        },
        _ => return Err(CodecError::Invalid("unknown transport header tag")),
    };
    let size = r.get_size()?;
    let sent_at = r.get_time()?;
    Ok(Packet {
        id,
        flow: FlowKey {
            src,
            dst,
            src_port,
            dst_port,
            protocol,
        },
        header,
        size,
        sent_at,
    })
}

/// Encodes a scheduled descriptor (packet + route progress + error
/// book-keeping).
pub(crate) fn put_descriptor(w: &mut ByteWriter, d: &Descriptor) {
    put_packet(w, &d.packet);
    w.put_u32(d.route.0);
    w.put_usize(d.hop);
    w.put_time(d.entered_at);
    w.put_duration(d.accumulated_error);
}

/// Decodes a descriptor written by [`put_descriptor`], refusing one that
/// names a route `routes` does not hold or a hop past that route's end —
/// the forwarding path indexes both unchecked.
pub(crate) fn get_descriptor(
    r: &mut ByteReader,
    routes: &RouteTable,
) -> Result<Descriptor, CodecError> {
    let packet = get_packet(r)?;
    let route = RouteId(r.get_u32()?);
    let hop = r.get_usize()?;
    if route.index() >= routes.route_count() || hop > routes.pipes(route).len() {
        return Err(CodecError::Invalid("descriptor route or hop out of range"));
    }
    let entered_at = r.get_time()?;
    let accumulated_error = r.get_duration()?;
    Ok(Descriptor {
        packet,
        route,
        hop,
        entered_at,
        accumulated_error,
    })
}

/// Encodes a delivered packet (pending same-location local deliveries are
/// part of the emulator state).
pub(crate) fn put_delivery(w: &mut ByteWriter, d: &Delivery) {
    put_packet(w, &d.packet);
    w.put_time(d.delivered_at);
    w.put_time(d.entered_at);
    w.put_usize(d.hops);
    w.put_duration(d.emulation_error);
}

/// Decodes a delivery written by [`put_delivery`].
pub(crate) fn get_delivery(r: &mut ByteReader) -> Result<Delivery, CodecError> {
    let packet = get_packet(r)?;
    let delivered_at = r.get_time()?;
    let entered_at = r.get_time()?;
    let hops = r.get_usize()?;
    let emulation_error = r.get_duration()?;
    Ok(Delivery {
        packet,
        delivered_at,
        entered_at,
        hops,
        emulation_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_util::{SimDuration, SimTime};

    fn sample_descriptor() -> Descriptor {
        Descriptor {
            packet: Packet {
                id: PacketId(42),
                flow: FlowKey {
                    src: VnId(3),
                    dst: VnId(9),
                    src_port: 1234,
                    dst_port: 80,
                    protocol: Protocol::Tcp,
                },
                header: TransportHeader::Tcp {
                    seq: 1_000_000,
                    ack: 77,
                    payload_len: 1460,
                    flags: TcpFlags {
                        syn: false,
                        fin: true,
                        ack: true,
                    },
                    window: 65_535,
                },
                size: mn_util::ByteSize::from_bytes(1500),
                sent_at: SimTime::from_micros(17),
            },
            route: RouteId(5),
            hop: 2,
            entered_at: SimTime::from_micros(19),
            accumulated_error: SimDuration::from_nanos(321),
        }
    }

    #[test]
    fn descriptor_round_trip_is_exact() {
        let d = sample_descriptor();
        let mut w = ByteWriter::new();
        put_descriptor(&mut w, &d);
        let bytes = w.into_bytes();
        // Six two-pipe routes: `d` sits at the end of the last one.
        let mut routes = RouteTable::new(0);
        for i in 0..6 {
            routes.intern_pipes(&[mn_distill::PipeId(i), mn_distill::PipeId(i + 1)]);
        }
        let out = get_descriptor(&mut ByteReader::new(&bytes), &routes).unwrap();
        assert_eq!(out.packet.id, d.packet.id);
        assert_eq!(out.packet.flow, d.packet.flow);
        assert_eq!(out.packet.size, d.packet.size);
        assert_eq!(out.packet.sent_at, d.packet.sent_at);
        assert_eq!(out.route, d.route);
        assert_eq!(out.hop, d.hop);
        assert_eq!(out.entered_at, d.entered_at);
        assert_eq!(out.accumulated_error, d.accumulated_error);
        match (out.packet.header, d.packet.header) {
            (
                TransportHeader::Tcp {
                    seq: s1,
                    ack: a1,
                    payload_len: p1,
                    flags: f1,
                    window: w1,
                },
                TransportHeader::Tcp {
                    seq: s2,
                    ack: a2,
                    payload_len: p2,
                    flags: f2,
                    window: w2,
                },
            ) => {
                assert_eq!((s1, a1, p1, w1), (s2, a2, p2, w2));
                assert_eq!((f1.syn, f1.fin, f1.ack), (f2.syn, f2.fin, f2.ack));
            }
            _ => panic!("header variant changed in round trip"),
        }
    }

    #[test]
    fn framing_detects_corruption_truncation_and_bad_version() {
        let mut w = ByteWriter::new();
        let start = w.begin_frame(SNAPSHOT_MAGIC, SNAPSHOT_VERSION);
        w.put_bytes(&[1, 2, 3, 4, 5, 6, 7, 8]);
        w.end_frame(start);
        let snap = EmulatorSnapshot {
            framed: w.into_bytes(),
        };
        let bytes = snap.to_bytes();
        assert_eq!(EmulatorSnapshot::from_bytes(&bytes).unwrap(), snap);
        let (version, payload) = snap.reader();
        assert_eq!((version, payload.remaining()), (SNAPSHOT_VERSION, 8));

        // Anything after the checksum: refused, not ignored.
        let mut padded = bytes.clone();
        padded.push(0);
        assert_eq!(
            EmulatorSnapshot::from_bytes(&padded),
            Err(CodecError::Invalid("trailing bytes"))
        );

        // Flip a payload bit: checksum mismatch.
        let mut corrupt = bytes.clone();
        corrupt[16] ^= 0x40;
        assert!(matches!(
            EmulatorSnapshot::from_bytes(&corrupt),
            Err(CodecError::BadChecksum)
        ));

        // Truncate: structured EOF, not a panic.
        assert!(EmulatorSnapshot::from_bytes(&bytes[..bytes.len() - 3]).is_err());

        // Wrong magic.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] ^= 0xFF;
        assert!(matches!(
            EmulatorSnapshot::from_bytes(&wrong_magic),
            Err(CodecError::BadMagic)
        ));

        // Future version.
        let mut future = bytes;
        future[4] = 0xEE;
        assert!(matches!(
            EmulatorSnapshot::from_bytes(&future),
            Err(CodecError::BadVersion(_))
        ));
    }
}
