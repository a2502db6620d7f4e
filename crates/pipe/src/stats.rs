//! Per-pipe counters.
//!
//! The distinction the paper draws between *virtual* drops (imposed by the
//! emulated network: queue overflow, configured loss) and *physical*
//! drops (an overloaded core failing to service its NIC) is central to its
//! accuracy argument, so the counters keep the virtual-drop causes separate;
//! physical drops are counted by the core, not by pipes.

use serde::{Deserialize, Serialize};

mn_util::codec_record! {
    /// Counters maintained by each pipe.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct PipeStats {
        /// Packets that entered the bandwidth queue.
        pub enqueued: u64,
        /// Packets that exited the pipe (completed bandwidth + delay emulation).
        pub dequeued: u64,
        /// Packets dropped because the bandwidth queue was full.
        pub dropped_overflow: u64,
        /// Packets dropped by the configured random loss rate.
        pub dropped_loss: u64,
        /// Payload + header bytes that exited the pipe.
        pub bytes_out: u64,
    }
}

impl PipeStats {
    /// Total virtual drops of any cause.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_overflow + self.dropped_loss
    }

    /// Packets currently accounted for inside the pipe
    /// (entered but neither exited nor dropped).
    pub fn in_flight(&self) -> u64 {
        self.enqueued - self.dequeued
    }

    /// Conservation check: every packet offered to the pipe is either still
    /// inside, delivered, or counted in exactly one drop bucket.
    pub fn is_conserved(&self, offered: u64) -> bool {
        offered == self.enqueued + self.dropped_total() && self.enqueued >= self.dequeued
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = PipeStats {
            enqueued: 100,
            dequeued: 90,
            dropped_overflow: 5,
            dropped_loss: 5,
            bytes_out: 90_000,
        };
        assert_eq!(s.dropped_total(), 10);
        assert_eq!(s.in_flight(), 10);
        assert!(s.is_conserved(110));
        assert!(!s.is_conserved(111));
    }

    #[test]
    fn default_is_zeroed() {
        let s = PipeStats::default();
        assert_eq!(s.dropped_total(), 0);
        assert_eq!(s.in_flight(), 0);
        assert!(s.is_conserved(0));
    }
}
