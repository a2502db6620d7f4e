//! The accuracy log — the reproduction of the paper's kernel logging package
//! (§3.1).
//!
//! The paper instruments the core to record, per packet, the expected and
//! actual delay so that emulation error can be analysed off-line. The claim
//! it substantiates: with the scheduler at the highest priority, each
//! packet-hop is emulated to within the hardware timer granularity (100 µs),
//! so a 10-hop path sees at most ~1 ms of error, and accuracy is maintained
//! up to and including 100% CPU utilisation (beyond which packets are dropped
//! physically rather than emulated late).

use mn_util::{RunningStats, SimDuration};

use crate::descriptor::Delivery;

mn_util::codec_record! {
    /// Aggregated per-packet emulation-error statistics; a core's checkpoint
    /// carries the raw accumulators.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct AccuracyLog {
        error: RunningStats,
        per_hop_error: RunningStats,
        delivered: u64,
        max_hops: usize,
    }
}

impl AccuracyLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        AccuracyLog::default()
    }

    /// Records one delivered packet.
    pub fn record(&mut self, delivery: &Delivery) {
        let err_us = delivery.emulation_error.as_micros_f64();
        self.error.add(err_us);
        if delivery.hops > 0 {
            self.per_hop_error.add(err_us / delivery.hops as f64);
        }
        self.delivered += 1;
        self.max_hops = self.max_hops.max(delivery.hops);
    }

    /// Number of deliveries recorded.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Mean end-to-end emulation error in microseconds.
    pub fn mean_error_us(&self) -> f64 {
        self.error.mean()
    }

    /// Worst observed end-to-end emulation error.
    pub fn max_error(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.error.max().unwrap_or(0.0))
    }

    /// Worst observed per-hop error.
    pub fn max_per_hop_error(&self) -> SimDuration {
        SimDuration::from_micros_f64(self.per_hop_error.max().unwrap_or(0.0))
    }

    /// The longest route observed, in hops.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// Checks the paper's accuracy bound: every per-hop error within the
    /// scheduler tick, every end-to-end error within `max_hops * tick`.
    pub fn within_bound(&self, tick: SimDuration) -> bool {
        if self.delivered == 0 {
            return true;
        }
        self.max_per_hop_error() <= tick && self.max_error() <= tick * self.max_hops.max(1) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_packet::{FlowKey, Packet, PacketId, Protocol, TransportHeader, VnId};
    use mn_util::SimTime;

    fn delivery(hops: usize, error_us: u64) -> Delivery {
        Delivery {
            packet: Packet::new(
                PacketId(0),
                FlowKey {
                    src: VnId(0),
                    dst: VnId(1),
                    src_port: 0,
                    dst_port: 0,
                    protocol: Protocol::Udp,
                },
                TransportHeader::Udp {
                    payload_len: 100,
                    seq: 0,
                },
                SimTime::ZERO,
            ),
            delivered_at: SimTime::from_millis(1),
            entered_at: SimTime::ZERO,
            hops,
            emulation_error: SimDuration::from_micros(error_us),
        }
    }

    #[test]
    fn records_and_aggregates() {
        let mut log = AccuracyLog::new();
        log.record(&delivery(2, 100));
        log.record(&delivery(4, 200));
        assert_eq!(log.delivered(), 2);
        assert!((log.mean_error_us() - 150.0).abs() < 1e-9);
        assert_eq!(log.max_error(), SimDuration::from_micros(200));
        assert_eq!(log.max_hops(), 4);
        assert_eq!(log.max_per_hop_error(), SimDuration::from_micros(50));
    }

    #[test]
    fn bound_check_matches_paper_claim() {
        let tick = SimDuration::from_micros(100);
        let mut log = AccuracyLog::new();
        // 10 hops, 1 ms total error: exactly the paper's worst case.
        log.record(&delivery(10, 1000));
        assert!(log.within_bound(tick));
        // A single hop late by 150 µs violates the per-hop bound.
        let mut bad = AccuracyLog::new();
        bad.record(&delivery(1, 150));
        assert!(!bad.within_bound(tick));
    }

    #[test]
    fn logs_keep_the_record_contract() {
        let mut log = AccuracyLog::new();
        mn_util::codec::record_contract(log);
        log.record(&delivery(3, 250));
        log.record(&delivery(0, 7));
        mn_util::codec::record_contract(log);
    }

    #[test]
    fn empty_log_is_within_bound() {
        let log = AccuracyLog::new();
        assert!(log.within_bound(SimDuration::from_micros(1)));
        assert_eq!(log.delivered(), 0);
        assert_eq!(log.max_error(), SimDuration::ZERO);
    }
}
