//! UDP datagram sources.
//!
//! UDP traffic in the paper appears in two roles: the VN-multiplexing
//! experiment exchanges 1500-byte UDP packets between netperf/netserver
//! pairs, and §2.3 discusses how unresponsive UDP senders interact with the
//! emulated first-hop pipes. [`UdpStream`] models a constant-bit-rate (or
//! paced) datagram source with per-datagram sequence numbers; the runner
//! counts what arrives.

use mn_util::{ByteSize, DataRate, SimDuration, SimTime};

mn_util::codec_record! {
    /// Configuration of a UDP sending stream.
    #[derive(Debug, Clone, Copy)]
    pub struct UdpStreamConfig {
        /// Payload bytes per datagram.
        pub payload: u32,
        /// Target sending rate (payload bits per second).
        pub rate: DataRate,
        /// Optional hard limit on the number of datagrams to send.
        pub max_datagrams: Option<u64>,
    }
}

impl Default for UdpStreamConfig {
    fn default() -> Self {
        UdpStreamConfig {
            payload: 1472,
            rate: DataRate::from_mbps(10),
            max_datagrams: None,
        }
    }
}

mn_util::codec_record! {
    /// A paced, unreliable datagram source. Its checkpoint is its
    /// configuration and pacing position; one with no interval between
    /// datagrams — which `poll` would never leave — is refused.
    #[derive(Debug, Clone)]
    pub struct UdpStream {
        config: UdpStreamConfig,
        next_seq: u64,
        next_send: SimTime,
        interval: SimDuration,
    }
    refuse stream if stream.interval.is_zero() => "UDP stream with no interval";
}

impl UdpStream {
    /// Creates a stream that starts sending at `start`. Datagrams are at
    /// least a nanosecond apart, however small the payload or fast the rate:
    /// one virtual instant emits at most one. A zero rate sends at `start`
    /// and not again before [`SimTime::MAX`].
    pub fn new(config: UdpStreamConfig, start: SimTime) -> Self {
        let interval = if config.rate.is_zero() {
            SimDuration::MAX
        } else {
            let payload = ByteSize::from_bytes(config.payload as u64);
            config
                .rate
                .transmission_time(payload)
                .max(SimDuration::from_nanos(1))
        };
        UdpStream {
            config,
            next_seq: 0,
            next_send: start,
            interval,
        }
    }

    /// The configured payload size.
    pub fn payload(&self) -> u32 {
        self.config.payload
    }

    /// Sequence number of the next datagram.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Datagrams emitted so far.
    pub fn sent(&self) -> u64 {
        self.next_seq
    }

    /// Returns `true` once the configured datagram budget is exhausted.
    pub fn is_finished(&self) -> bool {
        match self.config.max_datagrams {
            Some(max) => self.next_seq >= max,
            None => false,
        }
    }

    /// The time of the next transmission, or `None` when finished.
    pub fn next_send_time(&self) -> Option<SimTime> {
        if self.is_finished() {
            None
        } else {
            Some(self.next_send)
        }
    }

    /// Emits every datagram due at or before `now`. Each entry is the
    /// datagram's sequence number; the caller builds the packet.
    pub fn poll(&mut self, now: SimTime) -> Vec<u64> {
        let mut out = Vec::new();
        self.poll_into(now, &mut out);
        out
    }

    /// [`UdpStream::poll`] appending to a caller-owned buffer. A send time
    /// past [`SimTime::MAX`] ends the stream at what it has sent.
    pub fn poll_into(&mut self, now: SimTime, out: &mut Vec<u64>) {
        while !self.is_finished() && self.next_send <= now {
            out.push(self.next_seq);
            self.next_seq += 1;
            match self
                .next_send
                .as_nanos()
                .checked_add(self.interval.as_nanos())
            {
                Some(next) => self.next_send = SimTime::from_nanos(next),
                None => self.config.max_datagrams = Some(self.next_seq),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_util::{ByteReader, ByteWriter, Codec, CodecError};

    #[test]
    fn cbr_pacing_matches_rate() {
        // 1472-byte payloads at 10 Mb/s ≈ 849 datagrams/second.
        let mut s = UdpStream::new(UdpStreamConfig::default(), SimTime::ZERO);
        let sent = s.poll(SimTime::from_secs(1));
        assert!(
            (845..=855).contains(&sent.len()),
            "sent {} datagrams in 1 s",
            sent.len()
        );
        // Sequence numbers are consecutive from zero.
        assert_eq!(sent[0], 0);
        assert_eq!(*sent.last().unwrap(), sent.len() as u64 - 1);
    }

    #[test]
    fn max_datagrams_bounds_the_stream() {
        let mut s = UdpStream::new(
            UdpStreamConfig {
                max_datagrams: Some(10),
                ..UdpStreamConfig::default()
            },
            SimTime::ZERO,
        );
        let sent = s.poll(SimTime::from_secs(10));
        assert_eq!(sent.len(), 10);
        assert!(s.is_finished());
        assert_eq!(s.next_send_time(), None);
        assert!(s.poll(SimTime::from_secs(20)).is_empty());
    }

    /// A zero rate leaves no interval: after the datagram at its start the
    /// stream's next send time is past [`SimTime::MAX`] (from a start of
    /// zero, `SimTime::MAX` itself), and the stream ends there — it neither
    /// wraps round to its start nor spins at the end of time.
    #[test]
    fn zero_rate_never_sends() {
        let config = UdpStreamConfig {
            rate: DataRate::ZERO,
            ..UdpStreamConfig::default()
        };
        for (start, at_the_end) in [(SimTime::ZERO, 1), (SimTime::from_millis(1), 0)] {
            let mut s = UdpStream::new(config, start);
            assert_eq!(s.poll(SimTime::from_secs(100)), [0], "from {start:?}");
            assert_eq!(s.poll(SimTime::MAX).len(), at_the_end);
            assert_eq!(s.next_send_time(), None);
            assert!(s.poll(SimTime::MAX).is_empty());
        }
    }

    #[test]
    fn poll_is_incremental() {
        let mut s = UdpStream::new(UdpStreamConfig::default(), SimTime::ZERO);
        let first = s.poll(SimTime::from_millis(500)).len();
        let second = s.poll(SimTime::from_secs(1)).len();
        assert!(first > 0 && second > 0);
        let total = first + second;
        assert!((845..=855).contains(&total));
    }

    #[test]
    fn poll_into_emits_the_same_sequence_as_poll() {
        let config = UdpStreamConfig {
            max_datagrams: Some(700),
            ..UdpStreamConfig::default()
        };
        let mut a = UdpStream::new(config, SimTime::ZERO);
        let mut b = a.clone();
        let mut buf = Vec::new();
        for ms in (0..1_000).step_by(7) {
            let now = SimTime::from_millis(ms);
            buf.clear();
            b.poll_into(now, &mut buf);
            assert_eq!(a.poll(now), buf);
            assert_eq!(a.next_send_time(), b.next_send_time());
        }
        assert!(a.is_finished() && b.is_finished());
    }

    #[test]
    fn stream_snapshot_round_trip_resumes_pacing_exactly() {
        let mut s = UdpStream::new(UdpStreamConfig::default(), SimTime::ZERO);
        s.poll(SimTime::from_millis(500));
        mn_util::codec::record_contract(s.clone());
        let mut w = ByteWriter::new();
        s.put(&mut w);
        let bytes = w.into_bytes();
        let mut restored = UdpStream::get(&mut ByteReader::new(&bytes)).expect("decodes");
        assert_eq!(restored.next_seq(), s.next_seq());
        assert_eq!(restored.next_send_time(), s.next_send_time());
        assert_eq!(
            restored.poll(SimTime::from_secs(1)),
            s.poll(SimTime::from_secs(1))
        );
    }

    #[test]
    fn a_stream_emits_at_most_one_datagram_per_instant() {
        // Zero-byte payloads, and one-byte ones at 8 Gb/s, take no time on
        // the wire: the stream still paces them a nanosecond apart instead
        // of emitting its whole budget (or, unbounded, spinning) at once.
        let configs = [
            (0, DataRate::from_mbps(10)),
            (1, DataRate::from_gbps(8)),
            (1, DataRate::from_gbps(400)),
        ];
        for (payload, rate) in configs {
            let config = UdpStreamConfig {
                payload,
                rate,
                max_datagrams: Some(5),
            };
            let mut s = UdpStream::new(config, SimTime::ZERO);
            assert_eq!(s.poll(SimTime::ZERO), [0], "{payload} B at {rate:?}");
            assert_eq!(s.poll(SimTime::from_nanos(3)), [1, 2, 3]);
            assert_eq!(s.next_send_time(), Some(SimTime::from_nanos(4)));
        }
    }

    #[test]
    fn a_stream_with_no_interval_is_refused() {
        let mut s = UdpStream::new(UdpStreamConfig::default(), SimTime::ZERO);
        s.interval = SimDuration::ZERO;
        let mut w = ByteWriter::new();
        s.put(&mut w);
        assert_eq!(
            UdpStream::get(&mut ByteReader::new(w.as_slice())).unwrap_err(),
            CodecError::Invalid("UDP stream with no interval")
        );
    }
}
