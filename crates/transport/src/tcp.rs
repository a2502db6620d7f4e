//! A Reno-style TCP state machine.
//!
//! The experiments in the paper measure how stock TCP stacks on the edge
//! nodes respond to the bandwidth, delay and loss the core imposes; this
//! module provides that behaviour for the reproduction: slow start,
//! congestion avoidance, fast retransmit/recovery, retransmission timeout
//! with exponential backoff and Karn's rule, delayed ACKs (one ACK per two
//! segments, as assumed by the paper's 1 KB average-packet-size argument) and
//! a simplified three-way handshake.
//!
//! Simplifications relative to a production stack (documented here so the
//! benches can be interpreted): initial sequence numbers are zero, SYN/FIN do
//! not consume sequence space, there is no explicit FIN teardown (experiments
//! simply stop offering data), and selective acknowledgements are not
//! implemented (the paper's era predates widespread SACK deployment).

use mn_packet::{TcpFlags, MSS_BYTES};
use mn_util::{ByteReader, ByteWriter, Codec, CodecError, SimDuration, SimTime};

mn_util::codec_record! {
    /// Configuration of one TCP endpoint.
    #[derive(Debug, Clone, Copy)]
    pub struct TcpConfig {
        /// Maximum segment size in bytes.
        pub mss: u32,
        /// Initial congestion window in segments.
        pub initial_cwnd_segments: u32,
        /// Initial slow-start threshold in bytes.
        pub initial_ssthresh: u64,
        /// Receive window advertised to the peer, in bytes.
        pub receive_window: u64,
        /// Lower bound on the retransmission timeout.
        pub min_rto: SimDuration,
        /// Upper bound on the retransmission timeout.
        pub max_rto: SimDuration,
        /// RTO used before the first RTT measurement.
        pub initial_rto: SimDuration,
        /// Delay before a lone unacknowledged segment is acknowledged.
        pub delayed_ack: SimDuration,
    }
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: MSS_BYTES,
            initial_cwnd_segments: 2,
            initial_ssthresh: 64 * 1024,
            receive_window: 64 * 1024,
            min_rto: SimDuration::from_millis(200),
            max_rto: SimDuration::from_secs(60),
            initial_rto: SimDuration::from_secs(1),
            delayed_ack: SimDuration::from_millis(40),
        }
    }
}

/// Connection establishment state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// Passive endpoint waiting for a SYN.
    Listen,
    /// Active endpoint that has sent its SYN.
    SynSent,
    /// Passive endpoint that has answered with SYN-ACK.
    SynReceived,
    /// Data may flow.
    Established,
}

/// One tag byte, in declaration order.
impl Codec for TcpState {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut ByteWriter) {
        w.put_u8(*self as u8);
    }

    fn get(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            0 => Ok(TcpState::Listen),
            1 => Ok(TcpState::SynSent),
            2 => Ok(TcpState::SynReceived),
            3 => Ok(TcpState::Established),
            _ => Err(CodecError::Invalid("TCP state tag")),
        }
    }
}

/// A segment the endpoint wants transmitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentToSend {
    /// Sequence number of the first payload byte.
    pub seq: u64,
    /// Payload length (0 for pure ACKs and SYNs).
    pub payload_len: u32,
    /// Cumulative acknowledgement number.
    pub ack: u64,
    /// Header flags.
    pub flags: TcpFlags,
    /// Advertised receive window.
    pub window: u32,
    /// `true` when this is a retransmission.
    pub is_retransmission: bool,
}

/// What a received segment did to the endpoint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpEvent {
    /// Bytes newly acknowledged by the peer (sender-side progress).
    pub newly_acked: u64,
    /// Total in-order bytes now available to the receiving application
    /// (cumulative, i.e. the new `rcv_nxt`).
    pub delivered_upto: u64,
    /// The connection became established as a result of this segment.
    pub connected: bool,
}

mn_util::codec_record! {
    /// One TCP endpoint of a (full-duplex) connection. Its checkpoint is
    /// every field — configuration, handshake state, both window machineries,
    /// timers and counters — in declaration order.
    #[derive(Debug, Clone)]
    pub struct TcpConnection {
        config: TcpConfig,
        state: TcpState,

        // --- Send side ---
        /// Oldest unacknowledged byte.
        snd_una: u64,
        /// Next byte to send.
        snd_nxt: u64,
        /// Total bytes the application has made available for sending.
        app_limit: u64,
        /// Congestion window, in bytes.
        cwnd: f64,
        /// Slow-start threshold, in bytes.
        ssthresh: f64,
        /// Peer's advertised receive window.
        peer_window: u64,
        dup_acks: u32,
        in_fast_recovery: bool,
        recovery_point: u64,
        /// Sequence to retransmit at the next poll (fast retransmit / RTO).
        pending_retransmit: Option<u64>,
        /// RTT measurement in progress: (sequence that must be acked, send time).
        rtt_probe: Option<(u64, SimTime)>,
        srtt: Option<SimDuration>,
        rttvar: SimDuration,
        rto: SimDuration,
        rto_deadline: Option<SimTime>,
        syn_pending: bool,

        // --- Receive side ---
        rcv_nxt: u64,
        /// Out-of-order segments received: (start, end) byte ranges.
        ooo: Vec<(u64, u64)>,
        /// Pure ACKs owed to the peer. Out-of-order arrivals each add one (these
        /// are the duplicate ACKs fast retransmit depends on); in-order arrivals
        /// add one per two segments (delayed ACK).
        pending_acks: u32,
        unacked_segments: u32,
        delayed_ack_deadline: Option<SimTime>,

        // --- Counters ---
        retransmissions: u64,
        timeouts: u64,
        segments_sent: u64,
        segments_received: u64,
    }
}

impl TcpConnection {
    /// Creates the active (connecting) endpoint. The first
    /// [`TcpConnection::poll_send`] emits the SYN.
    pub fn client(config: TcpConfig) -> Self {
        let mut c = Self::new(config, TcpState::SynSent);
        c.syn_pending = true;
        c
    }

    /// Creates the passive (listening) endpoint.
    pub fn server(config: TcpConfig) -> Self {
        Self::new(config, TcpState::Listen)
    }

    fn new(config: TcpConfig, state: TcpState) -> Self {
        TcpConnection {
            config,
            state,
            snd_una: 0,
            snd_nxt: 0,
            app_limit: 0,
            cwnd: (config.initial_cwnd_segments * config.mss) as f64,
            ssthresh: config.initial_ssthresh as f64,
            peer_window: config.receive_window,
            dup_acks: 0,
            in_fast_recovery: false,
            recovery_point: 0,
            pending_retransmit: None,
            rtt_probe: None,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: config.initial_rto,
            rto_deadline: None,
            syn_pending: false,
            rcv_nxt: 0,
            ooo: Vec::new(),
            pending_acks: 0,
            unacked_segments: 0,
            delayed_ack_deadline: None,
            retransmissions: 0,
            timeouts: 0,
            segments_sent: 0,
            segments_received: 0,
        }
    }

    /// Connection state.
    pub fn state(&self) -> TcpState {
        self.state
    }

    /// Returns `true` once the handshake has completed.
    pub fn is_established(&self) -> bool {
        self.state == TcpState::Established
    }

    /// Current congestion window in bytes.
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// Current slow-start threshold in bytes.
    pub fn ssthresh(&self) -> u64 {
        self.ssthresh as u64
    }

    /// Current retransmission timeout.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }

    /// Smoothed RTT estimate, if one exists.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Total retransmitted segments.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Total retransmission timeouts.
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Segments emitted (including retransmissions and pure ACKs).
    pub fn segments_sent(&self) -> u64 {
        self.segments_sent
    }

    /// Segments received.
    pub fn segments_received(&self) -> u64 {
        self.segments_received
    }

    /// Bytes acknowledged by the peer so far.
    pub fn bytes_acked(&self) -> u64 {
        self.snd_una
    }

    /// Bytes the application has queued that are not yet acknowledged.
    pub fn unacked_backlog(&self) -> u64 {
        self.app_limit - self.snd_una
    }

    /// In-order bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        self.rcv_nxt
    }

    /// Makes `bytes` more application data available for sending.
    pub fn write(&mut self, bytes: u64) {
        self.app_limit += bytes;
    }

    /// The earliest time at which [`TcpConnection::on_timer`] must be called,
    /// if any timer is armed.
    pub fn next_timer(&self) -> Option<SimTime> {
        [self.rto_deadline, self.delayed_ack_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    fn flight_size(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    fn send_window(&self) -> u64 {
        (self.cwnd as u64).min(self.peer_window)
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rto);
    }

    /// Handles an expired timer. The caller should follow up with
    /// [`TcpConnection::poll_send`].
    pub fn on_timer(&mut self, now: SimTime) {
        if let Some(d) = self.delayed_ack_deadline {
            if now >= d {
                self.delayed_ack_deadline = None;
                if self.unacked_segments > 0 {
                    self.pending_acks = self.pending_acks.max(1);
                    self.unacked_segments = 0;
                }
            }
        }
        if let Some(d) = self.rto_deadline {
            if now >= d {
                self.rto_deadline = None;
                self.handle_rto(now);
            }
        }
    }

    fn handle_rto(&mut self, now: SimTime) {
        self.timeouts += 1;
        if self.state == TcpState::SynSent || self.state == TcpState::SynReceived {
            // Retransmit the handshake segment.
            self.syn_pending = true;
            self.rto = (self.rto * 2).min(self.config.max_rto);
            self.arm_rto(now);
            return;
        }
        if self.flight_size() == 0 {
            return;
        }
        // Classic Reno timeout response.
        let flight = self.flight_size() as f64;
        self.ssthresh = (flight / 2.0).max((2 * self.config.mss) as f64);
        self.cwnd = self.config.mss as f64;
        self.in_fast_recovery = false;
        self.dup_acks = 0;
        self.pending_retransmit = Some(self.snd_una);
        self.rtt_probe = None; // Karn: no RTT samples across retransmission.
        self.rto = (self.rto * 2).min(self.config.max_rto);
        self.arm_rto(now);
    }

    /// Processes a received segment.
    pub fn on_segment(
        &mut self,
        now: SimTime,
        seq: u64,
        payload_len: u32,
        ack: u64,
        flags: TcpFlags,
        window: u32,
    ) -> TcpEvent {
        self.segments_received += 1;
        let mut event = TcpEvent {
            delivered_upto: self.rcv_nxt,
            ..TcpEvent::default()
        };
        self.peer_window = window as u64;

        // --- Handshake transitions ---
        match self.state {
            TcpState::Listen => {
                if flags.syn && !flags.ack {
                    self.state = TcpState::SynReceived;
                    self.syn_pending = true; // emit SYN-ACK
                    self.arm_rto(now);
                }
                return event;
            }
            TcpState::SynSent => {
                if flags.syn && flags.ack {
                    self.state = TcpState::Established;
                    self.rto_deadline = None;
                    self.pending_acks = self.pending_acks.max(1);
                    event.connected = true;
                }
                // Fall through: the SYN-ACK may carry a window update.
            }
            TcpState::SynReceived => {
                if flags.ack && !flags.syn {
                    self.state = TcpState::Established;
                    self.rto_deadline = None;
                    event.connected = true;
                }
            }
            TcpState::Established => {}
        }

        // --- ACK processing (sender side) ---
        if flags.ack && self.state == TcpState::Established {
            if ack > self.snd_una {
                let newly = ack - self.snd_una;
                event.newly_acked = newly;
                self.snd_una = ack;
                self.dup_acks = 0;
                // RTT sample.
                if let Some((probe_seq, sent_at)) = self.rtt_probe {
                    if ack >= probe_seq {
                        let sample = now - sent_at;
                        self.update_rtt(sample);
                        self.rtt_probe = None;
                    }
                }
                if self.in_fast_recovery {
                    if ack >= self.recovery_point {
                        // Full recovery: deflate to ssthresh.
                        self.in_fast_recovery = false;
                        self.cwnd = self.ssthresh;
                    } else {
                        // Partial ACK (NewReno): retransmit next hole.
                        self.pending_retransmit = Some(self.snd_una);
                        self.cwnd = (self.cwnd - newly as f64 + self.config.mss as f64)
                            .max(self.config.mss as f64);
                    }
                } else if self.cwnd < self.ssthresh {
                    // Slow start: one MSS per ACK (bounded by bytes acked).
                    self.cwnd += (newly.min(self.config.mss as u64)) as f64;
                } else {
                    // Congestion avoidance: one MSS per RTT.
                    self.cwnd += (self.config.mss as f64 * self.config.mss as f64) / self.cwnd;
                }
                // Restart or disarm the RTO.
                if self.flight_size() > 0 {
                    self.arm_rto(now);
                } else {
                    self.rto_deadline = None;
                }
            } else if ack == self.snd_una && payload_len == 0 && self.flight_size() > 0 {
                self.dup_acks += 1;
                if self.dup_acks == 3 && !self.in_fast_recovery {
                    // Fast retransmit.
                    let flight = self.flight_size() as f64;
                    self.ssthresh = (flight / 2.0).max((2 * self.config.mss) as f64);
                    self.cwnd = self.ssthresh + 3.0 * self.config.mss as f64;
                    self.in_fast_recovery = true;
                    self.recovery_point = self.snd_nxt;
                    self.pending_retransmit = Some(self.snd_una);
                    self.rtt_probe = None;
                } else if self.in_fast_recovery {
                    // Window inflation for each further dup ACK.
                    self.cwnd += self.config.mss as f64;
                }
            }
        }

        // --- Data processing (receiver side) ---
        if payload_len > 0 && self.state == TcpState::Established {
            let start = seq;
            let end = seq + payload_len as u64;
            if start <= self.rcv_nxt {
                if end > self.rcv_nxt {
                    self.rcv_nxt = end;
                    self.absorb_ooo();
                }
                self.unacked_segments += 1;
                if self.unacked_segments >= 2 || !self.ooo.is_empty() {
                    self.pending_acks += 1;
                    self.unacked_segments = 0;
                    self.delayed_ack_deadline = None;
                } else {
                    self.delayed_ack_deadline = Some(now + self.config.delayed_ack);
                }
            } else {
                // Out of order: buffer and send an immediate duplicate ACK for
                // every such arrival (the dup-ACK stream fast retransmit
                // depends on).
                self.ooo.push((start, end));
                self.pending_acks += 1;
                self.delayed_ack_deadline = None;
            }
            event.delivered_upto = self.rcv_nxt;
        }
        event
    }

    fn absorb_ooo(&mut self) {
        loop {
            let mut advanced = false;
            self.ooo.retain(|&(start, end)| {
                if start <= self.rcv_nxt {
                    if end > self.rcv_nxt {
                        self.rcv_nxt = end;
                    }
                    advanced = true;
                    false
                } else {
                    true
                }
            });
            if !advanced {
                break;
            }
        }
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                self.rttvar =
                    SimDuration::from_nanos((3 * self.rttvar.as_nanos() + diff.as_nanos()) / 4);
                self.srtt = Some(SimDuration::from_nanos(
                    (7 * srtt.as_nanos() + sample.as_nanos()) / 8,
                ));
            }
        }
        let rto = self.srtt.expect("just set") + self.rttvar * 4;
        self.rto = rto.max(self.config.min_rto).min(self.config.max_rto);
    }

    /// Collects every segment the endpoint wants to transmit right now:
    /// handshake segments, pending retransmissions, new data allowed by the
    /// congestion and receive windows, and pure ACKs.
    pub fn poll_send(&mut self, now: SimTime) -> Vec<SegmentToSend> {
        let mut out = Vec::new();
        self.poll_send_into(now, &mut out);
        out
    }

    /// [`TcpConnection::poll_send`] appending to a caller-owned buffer, so a
    /// driver polling on every delivery reuses one allocation.
    pub fn poll_send_into(&mut self, now: SimTime, out: &mut Vec<SegmentToSend>) {
        let already = out.len();
        let window = self.config.receive_window.min(u32::MAX as u64) as u32;

        // Handshake.
        if self.syn_pending {
            self.syn_pending = false;
            let flags = match self.state {
                TcpState::SynSent => TcpFlags::SYN,
                TcpState::SynReceived => TcpFlags::SYN_ACK,
                _ => TcpFlags::SYN,
            };
            out.push(SegmentToSend {
                seq: 0,
                payload_len: 0,
                ack: self.rcv_nxt,
                flags,
                window,
                is_retransmission: false,
            });
            if self.rto_deadline.is_none() {
                self.arm_rto(now);
            }
        }

        if self.state == TcpState::Established {
            // Retransmission first.
            if let Some(seq) = self.pending_retransmit.take() {
                if seq < self.snd_nxt {
                    let len = (self.config.mss as u64).min(self.snd_nxt - seq) as u32;
                    self.retransmissions += 1;
                    out.push(SegmentToSend {
                        seq,
                        payload_len: len,
                        ack: self.rcv_nxt,
                        flags: TcpFlags::ACK,
                        window,
                        is_retransmission: true,
                    });
                    self.arm_rto(now);
                }
            }
            // New data within the window.
            loop {
                let in_flight = self.flight_size();
                let budget = self.send_window().saturating_sub(in_flight);
                let available = self.app_limit.saturating_sub(self.snd_nxt);
                let len = budget.min(available).min(self.config.mss as u64);
                if len == 0 {
                    break;
                }
                let seq = self.snd_nxt;
                self.snd_nxt += len;
                if self.rtt_probe.is_none() {
                    self.rtt_probe = Some((self.snd_nxt, now));
                }
                if self.rto_deadline.is_none() {
                    self.arm_rto(now);
                }
                // Data segments carry the cumulative ACK for free.
                self.pending_acks = 0;
                self.unacked_segments = 0;
                self.delayed_ack_deadline = None;
                out.push(SegmentToSend {
                    seq,
                    payload_len: len as u32,
                    ack: self.rcv_nxt,
                    flags: TcpFlags::ACK,
                    window,
                    is_retransmission: false,
                });
            }
        }

        // Pure ACKs if nothing else carried them. Each owed ACK is emitted
        // separately so duplicate ACKs reach the peer as distinct segments.
        if self.state == TcpState::Established {
            for _ in 0..self.pending_acks {
                out.push(SegmentToSend {
                    seq: self.snd_nxt,
                    payload_len: 0,
                    ack: self.rcv_nxt,
                    flags: TcpFlags::ACK,
                    window,
                    is_retransmission: false,
                });
            }
            self.pending_acks = 0;
        }
        self.segments_sent += (out.len() - already) as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    /// Exchange segments between two endpoints over a perfect link with the
    /// given one-way delay until neither wants to send, returning the number
    /// of exchanges performed.
    fn converse(
        a: &mut TcpConnection,
        b: &mut TcpConnection,
        start: SimTime,
        one_way: SimDuration,
        max_rounds: usize,
    ) -> SimTime {
        let mut now = start;
        for _ in 0..max_rounds {
            let from_a = a.poll_send(now);
            let from_b = b.poll_send(now);
            if from_a.is_empty() && from_b.is_empty() {
                break;
            }
            now += one_way;
            for s in from_a {
                b.on_segment(now, s.seq, s.payload_len, s.ack, s.flags, s.window);
            }
            for s in from_b {
                a.on_segment(now, s.seq, s.payload_len, s.ack, s.flags, s.window);
            }
        }
        now
    }

    #[test]
    fn handshake_establishes_both_ends() {
        let mut client = TcpConnection::client(cfg());
        let mut server = TcpConnection::server(cfg());
        converse(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimDuration::from_millis(10),
            10,
        );
        assert!(client.is_established());
        assert!(server.is_established());
    }

    #[test]
    fn syn_is_retransmitted_on_timeout() {
        let mut client = TcpConnection::client(cfg());
        let first = client.poll_send(SimTime::ZERO);
        assert_eq!(first.len(), 1);
        assert!(first[0].flags.syn);
        // No answer: the RTO fires and the SYN goes out again.
        let deadline = client.next_timer().unwrap();
        client.on_timer(deadline);
        let again = client.poll_send(deadline);
        assert_eq!(again.len(), 1);
        assert!(again[0].flags.syn);
        assert_eq!(client.timeouts(), 1);
    }

    #[test]
    fn bulk_transfer_delivers_all_bytes_in_order() {
        let mut client = TcpConnection::client(cfg());
        let mut server = TcpConnection::server(cfg());
        client.write(1_000_000);
        let end = converse(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimDuration::from_millis(5),
            10_000,
        );
        assert_eq!(server.bytes_received(), 1_000_000);
        assert_eq!(client.bytes_acked(), 1_000_000);
        assert!(end > SimTime::ZERO);
        assert_eq!(client.retransmissions(), 0);
    }

    #[test]
    fn slow_start_doubles_cwnd_each_rtt() {
        let mut client = TcpConnection::client(cfg());
        let mut server = TcpConnection::server(cfg());
        converse(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimDuration::from_millis(10),
            6,
        );
        let initial = client.cwnd();
        client.write(10_000_000);
        // One round trip: client sends its window, server acks.
        let mut now = SimTime::from_millis(100);
        let segs = client.poll_send(now);
        assert!(!segs.is_empty());
        now += SimDuration::from_millis(10);
        for s in &segs {
            server.on_segment(now, s.seq, s.payload_len, s.ack, s.flags, s.window);
        }
        let acks = server.poll_send(now);
        now += SimDuration::from_millis(10);
        for s in &acks {
            client.on_segment(now, s.seq, s.payload_len, s.ack, s.flags, s.window);
        }
        assert!(
            client.cwnd() >= initial + (segs.len() as u64 / 2) * 1460,
            "cwnd {} should have grown from {}",
            client.cwnd(),
            initial
        );
        assert!(client.srtt().is_some());
    }

    #[test]
    fn three_dup_acks_trigger_fast_retransmit() {
        let mut client = TcpConnection::client(TcpConfig {
            initial_cwnd_segments: 8,
            ..cfg()
        });
        let mut server = TcpConnection::server(cfg());
        converse(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            6,
        );
        client.write(100_000);
        let now = SimTime::from_millis(50);
        let segs = client.poll_send(now);
        assert!(
            segs.len() >= 5,
            "an 8-segment initial window should emit several segments"
        );
        // Drop the first segment; deliver the rest. Every out-of-order
        // arrival makes the server owe one duplicate ACK.
        let t = now + SimDuration::from_millis(5);
        for s in &segs[1..] {
            server.on_segment(t, s.seq, s.payload_len, s.ack, s.flags, s.window);
        }
        let acks = server.poll_send(t);
        assert!(
            acks.len() >= 3,
            "expected a duplicate ACK per out-of-order segment"
        );
        assert!(acks.iter().all(|a| a.ack == 0 && a.payload_len == 0));
        for s in &acks {
            client.on_segment(t, s.seq, s.payload_len, s.ack, s.flags, s.window);
        }
        // Three duplicate ACKs trigger fast retransmit of the missing segment.
        let retx = client.poll_send(t);
        assert!(retx.iter().any(|s| s.is_retransmission && s.seq == 0));
        assert!(client.retransmissions() >= 1);
        assert_eq!(client.timeouts(), 0, "loss recovered without an RTO");
        // Delivering the retransmission acks the whole burst cumulatively.
        let r = retx.iter().find(|s| s.is_retransmission).unwrap();
        let e = server.on_segment(t, r.seq, r.payload_len, r.ack, r.flags, r.window);
        assert_eq!(
            e.delivered_upto,
            segs.iter().map(|s| s.payload_len as u64).sum::<u64>()
        );
    }

    #[test]
    fn rto_recovers_when_every_ack_is_lost() {
        let mut client = TcpConnection::client(cfg());
        let mut server = TcpConnection::server(cfg());
        converse(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            6,
        );
        client.write(1460);
        let now = SimTime::from_millis(10);
        let segs = client.poll_send(now);
        assert_eq!(segs.len(), 1);
        // The segment is lost entirely. Fire the RTO.
        let cwnd_before = client.cwnd();
        let deadline = client.next_timer().unwrap();
        assert!(deadline > now);
        client.on_timer(deadline);
        assert_eq!(client.timeouts(), 1);
        assert!(client.cwnd() <= cwnd_before);
        assert_eq!(client.cwnd(), 1460, "cwnd collapses to one MSS after RTO");
        let retx = client.poll_send(deadline);
        assert_eq!(retx.len(), 1);
        assert!(retx[0].is_retransmission);
        // Deliver it; the transfer completes.
        let t = deadline + SimDuration::from_millis(1);
        server.on_segment(
            t,
            retx[0].seq,
            retx[0].payload_len,
            retx[0].ack,
            retx[0].flags,
            retx[0].window,
        );
        assert_eq!(server.bytes_received(), 1460);
    }

    #[test]
    fn out_of_order_segments_are_reassembled() {
        let mut server = TcpConnection::server(cfg());
        // Establish by hand.
        server.on_segment(SimTime::ZERO, 0, 0, 0, TcpFlags::SYN, 65535);
        let _ = server.poll_send(SimTime::ZERO);
        server.on_segment(SimTime::ZERO, 0, 0, 0, TcpFlags::ACK, 65535);
        assert!(server.is_established());
        // Deliver bytes 1460..2920 before 0..1460.
        let e1 = server.on_segment(SimTime::from_millis(1), 1460, 1460, 0, TcpFlags::ACK, 65535);
        assert_eq!(e1.delivered_upto, 0);
        let e2 = server.on_segment(SimTime::from_millis(2), 0, 1460, 0, TcpFlags::ACK, 65535);
        assert_eq!(e2.delivered_upto, 2920);
        assert_eq!(server.bytes_received(), 2920);
    }

    #[test]
    fn delayed_ack_covers_two_segments() {
        let mut server = TcpConnection::server(cfg());
        server.on_segment(SimTime::ZERO, 0, 0, 0, TcpFlags::SYN, 65535);
        let _ = server.poll_send(SimTime::ZERO);
        server.on_segment(SimTime::ZERO, 0, 0, 0, TcpFlags::ACK, 65535);
        // One segment: the ACK is delayed.
        server.on_segment(SimTime::from_millis(1), 0, 1460, 0, TcpFlags::ACK, 65535);
        assert!(server.poll_send(SimTime::from_millis(1)).is_empty());
        assert!(server.next_timer().is_some());
        // Second segment: the ACK goes out immediately.
        server.on_segment(SimTime::from_millis(2), 1460, 1460, 0, TcpFlags::ACK, 65535);
        let acks = server.poll_send(SimTime::from_millis(2));
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 2920);
        assert_eq!(acks[0].payload_len, 0);
    }

    #[test]
    fn delayed_ack_timer_eventually_acks_a_lone_segment() {
        let mut server = TcpConnection::server(cfg());
        server.on_segment(SimTime::ZERO, 0, 0, 0, TcpFlags::SYN, 65535);
        let _ = server.poll_send(SimTime::ZERO);
        server.on_segment(SimTime::ZERO, 0, 0, 0, TcpFlags::ACK, 65535);
        server.on_segment(SimTime::from_millis(1), 0, 1460, 0, TcpFlags::ACK, 65535);
        let deadline = server.next_timer().unwrap();
        server.on_timer(deadline);
        let acks = server.poll_send(deadline);
        assert_eq!(acks.len(), 1);
        assert_eq!(acks[0].ack, 1460);
    }

    #[test]
    fn congestion_window_respects_peer_window() {
        let mut client = TcpConnection::client(cfg());
        let mut server = TcpConnection::server(TcpConfig {
            receive_window: 4096,
            ..cfg()
        });
        converse(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimDuration::from_millis(1),
            6,
        );
        client.write(1_000_000);
        let segs = client.poll_send(SimTime::from_millis(20));
        let outstanding: u64 = segs.iter().map(|s| s.payload_len as u64).sum();
        assert!(
            outstanding <= 4096,
            "flight {outstanding} exceeds the peer window"
        );
    }

    #[test]
    fn snapshot_round_trip_is_byte_stable_mid_flight() {
        let mut client = TcpConnection::client(cfg());
        let mut server = TcpConnection::server(cfg());
        converse(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimDuration::from_millis(5),
            6,
        );
        client.write(100_000);
        let now = SimTime::from_millis(50);
        let segs = client.poll_send(now);
        // Drop the first segment so the server holds out-of-order state and
        // owes duplicate ACKs — the messiest snapshot point available.
        let t = now + SimDuration::from_millis(5);
        for s in &segs[1..] {
            server.on_segment(t, s.seq, s.payload_len, s.ack, s.flags, s.window);
        }
        for conn in [&client, &server] {
            mn_util::codec::record_contract(conn.clone());
        }
        // The restored sender continues exactly like the original.
        let mut restored = {
            let mut w = ByteWriter::new();
            client.put(&mut w);
            let bytes = w.into_bytes();
            TcpConnection::get(&mut ByteReader::new(&bytes)).expect("decodes")
        };
        let next = SimTime::from_millis(80);
        assert_eq!(client.next_timer(), restored.next_timer());
        assert_eq!(client.poll_send(next), restored.poll_send(next));
    }

    #[test]
    fn poll_send_into_emits_the_same_segments_as_poll_send() {
        // Two identical conversations, one polled through the allocating
        // wrapper and one through a reused buffer; every 11th data segment
        // is dropped so retransmissions, dup ACKs and pure ACKs all appear.
        let pair = || {
            let mut client = TcpConnection::client(cfg());
            client.write(400_000);
            (client, TcpConnection::server(cfg()))
        };
        let (mut c1, mut s1) = pair();
        let (mut c2, mut s2) = pair();
        let mut buf = Vec::new();
        let mut now = SimTime::ZERO;
        let mut data_seen = 0u32;
        let mut total = 0usize;
        for round in 0..2_000 {
            now += SimDuration::from_millis(5);
            for conn in [&mut c1, &mut s1, &mut c2, &mut s2] {
                if conn.next_timer().is_some_and(|t| t <= now) {
                    conn.on_timer(now);
                }
            }
            let (from, into, to, to_into) = if round % 2 == 0 {
                (&mut c1, &mut c2, &mut s1, &mut s2)
            } else {
                (&mut s1, &mut s2, &mut c1, &mut c2)
            };
            let segs = from.poll_send(now);
            buf.clear();
            into.poll_send_into(now, &mut buf);
            assert_eq!(segs, buf, "round {round}");
            total += segs.len();
            for s in segs {
                if s.payload_len > 0 {
                    data_seen += 1;
                    if data_seen.is_multiple_of(11) {
                        continue;
                    }
                }
                to.on_segment(now, s.seq, s.payload_len, s.ack, s.flags, s.window);
                to_into.on_segment(now, s.seq, s.payload_len, s.ack, s.flags, s.window);
            }
        }
        assert!(
            c1.retransmissions() > 5 && total > 300,
            "{} retransmissions in {total} segments",
            c1.retransmissions()
        );
        assert_eq!(c1.segments_sent(), c2.segments_sent());
        assert_eq!(s1.segments_sent(), s2.segments_sent());
        // Appending leaves what the buffer already held alone, and counts
        // only what this call emitted.
        let before = c2.segments_sent();
        c2.write(10_000);
        let kept = buf.len();
        c2.poll_send_into(now, &mut buf);
        assert_eq!(c2.segments_sent() - before, (buf.len() - kept) as u64);
    }

    #[test]
    fn cwnd_growth_switches_to_congestion_avoidance() {
        let mut client = TcpConnection::client(TcpConfig {
            initial_ssthresh: 8 * 1460,
            ..cfg()
        });
        let mut server = TcpConnection::server(cfg());
        client.write(50_000_000);
        converse(
            &mut client,
            &mut server,
            SimTime::ZERO,
            SimDuration::from_millis(5),
            400,
        );
        // After many RTTs cwnd should be far above ssthresh but growth is now
        // linear; just confirm it exceeded the threshold without loss.
        assert!(client.cwnd() > 8 * 1460);
        assert_eq!(client.retransmissions(), 0);
    }
}
