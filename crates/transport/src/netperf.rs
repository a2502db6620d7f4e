//! netperf-style load generators.
//!
//! The capacity and scaling experiments (Figure 4, Table 1) drive ModelNet
//! with dozens to hundreds of netperf senders transmitting TCP streams to
//! netserver receivers. [`BulkSender`] is that workload: an endless (or
//! size-bounded) source that keeps the TCP connection's send buffer full.

use mn_util::{ByteSize, SimTime};

use crate::tcp::TcpConnection;

mn_util::codec_record! {
    /// A bulk-transfer source that keeps a TCP connection's buffer topped up;
    /// its checkpoint is its progress.
    #[derive(Debug, Clone)]
    pub struct BulkSender {
        total: Option<u64>,
        written: u64,
        chunk: u64,
        started_at: Option<SimTime>,
    }
}

impl BulkSender {
    /// Creates an unbounded sender (classic `netperf -t TCP_STREAM`).
    pub fn unbounded() -> Self {
        BulkSender {
            total: None,
            written: 0,
            chunk: 256 * 1024,
            started_at: None,
        }
    }

    /// Creates a sender that transfers exactly `size` bytes and then stops
    /// (used for the fixed-size file transfers of Figure 9).
    pub fn fixed(size: ByteSize) -> Self {
        BulkSender {
            total: Some(size.as_bytes()),
            written: 0,
            chunk: 256 * 1024,
            started_at: None,
        }
    }

    /// Bytes handed to the connection so far.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// Time the first byte was offered, if any.
    pub fn started_at(&self) -> Option<SimTime> {
        self.started_at
    }

    /// Tops up the connection's send buffer so it always has at least one
    /// chunk outstanding (or the remaining fixed size). Returns the bytes
    /// written in this call.
    pub fn pump(&mut self, now: SimTime, conn: &mut TcpConnection) -> u64 {
        if self.started_at.is_none() {
            self.started_at = Some(now);
        }
        let outstanding = conn.unacked_backlog();
        if outstanding >= self.chunk {
            return 0;
        }
        let want = self.chunk - outstanding;
        let write = match self.total {
            Some(t) => want.min(t.saturating_sub(self.written)),
            None => want,
        };
        if write > 0 {
            conn.write(write);
            self.written += write;
        }
        write
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::{TcpConfig, TcpConnection};
    use mn_packet::TcpFlags;
    use mn_util::SimDuration;

    fn establish() -> (TcpConnection, TcpConnection) {
        let mut c = TcpConnection::client(TcpConfig::default());
        let mut s = TcpConnection::server(TcpConfig::default());
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            let a = c.poll_send(now);
            let b = s.poll_send(now);
            now += SimDuration::from_millis(1);
            for seg in a {
                s.on_segment(
                    now,
                    seg.seq,
                    seg.payload_len,
                    seg.ack,
                    seg.flags,
                    seg.window,
                );
            }
            for seg in b {
                c.on_segment(
                    now,
                    seg.seq,
                    seg.payload_len,
                    seg.ack,
                    seg.flags,
                    seg.window,
                );
            }
        }
        assert!(c.is_established() && s.is_established());
        (c, s)
    }

    #[test]
    fn unbounded_sender_keeps_buffer_full() {
        let (mut conn, _) = establish();
        let mut sender = BulkSender::unbounded();
        let w1 = sender.pump(SimTime::ZERO, &mut conn);
        assert_eq!(w1, 256 * 1024);
        // Nothing acknowledged yet, so a second pump adds nothing.
        assert_eq!(sender.pump(SimTime::from_millis(1), &mut conn), 0);
    }

    #[test]
    fn fixed_sender_stops_at_size() {
        let (mut conn, _) = establish();
        let mut sender = BulkSender::fixed(ByteSize::from_kb(8));
        let w = sender.pump(SimTime::ZERO, &mut conn);
        assert_eq!(w, 8 * 1024);
        assert_eq!(sender.pump(SimTime::from_millis(1), &mut conn), 0);
        assert_eq!(sender.written(), 8 * 1024);
    }

    #[test]
    fn fixed_transfer_completes_over_a_perfect_link() {
        let (mut c, mut s) = establish();
        let mut sender = BulkSender::fixed(ByteSize::from_kb(64));
        let mut now = SimTime::from_millis(10);
        for _ in 0..1000 {
            sender.pump(now, &mut c);
            let segs = c.poll_send(now);
            now += SimDuration::from_millis(2);
            for seg in &segs {
                s.on_segment(
                    now,
                    seg.seq,
                    seg.payload_len,
                    seg.ack,
                    seg.flags,
                    seg.window,
                );
            }
            // Service delayed-ACK (and any other) timers that have expired.
            if s.next_timer().is_some_and(|t| t <= now) {
                s.on_timer(now);
            }
            if c.next_timer().is_some_and(|t| t <= now) {
                c.on_timer(now);
            }
            for seg in s.poll_send(now) {
                c.on_segment(
                    now,
                    seg.seq,
                    seg.payload_len,
                    seg.ack,
                    seg.flags,
                    seg.window,
                );
            }
            if c.bytes_acked() >= 64 * 1024 {
                break;
            }
        }
        assert_eq!(c.bytes_acked(), 64 * 1024);
        assert_eq!(s.bytes_received(), 64 * 1024);
    }

    #[test]
    fn handshake_helper_sanity() {
        // The establish() helper used above genuinely produces two
        // established endpoints exchanging no data.
        let (c, s) = establish();
        assert_eq!(c.bytes_acked(), 0);
        assert_eq!(s.bytes_received(), 0);
        // A pure ACK has the ACK flag set and no SYN.
        let ack = TcpFlags::ACK;
        assert!(ack.ack && !ack.syn);
    }
}
