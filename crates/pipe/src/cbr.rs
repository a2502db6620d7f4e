//! Constant-bit-rate background traffic configuration.
//!
//! ModelNet compensates for distilled-away hops by placing background cross
//! traffic on the collapsed pipes (§4.1/§4.3 of the paper): a flow crossing
//! such a pipe then competes for bandwidth and queue slots exactly as it
//! would have competed with real traffic on the removed links. A
//! [`CbrConfig`] describes one such episode — packets of a fixed wire size
//! offered to one pipe at a constant rate. The emulator carries it as a
//! fixed-rate fluid demand on the pipe; this type only carries the
//! parameters.

use serde::{Deserialize, Serialize};

use mn_util::{ByteSize, DataRate, SimDuration};

/// Parameters of one constant-bit-rate background injector on a pipe.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CbrConfig {
    /// Offered background load in bits per second of wire size.
    pub rate: DataRate,
    /// Wire size of each background packet.
    pub packet_size: ByteSize,
}

impl CbrConfig {
    /// A CBR injector offering `rate` of background load in packets of
    /// `packet_size`.
    pub fn new(rate: DataRate, packet_size: ByteSize) -> Self {
        CbrConfig { rate, packet_size }
    }

    /// Inter-packet gap that realises the configured rate, or `None` for a
    /// degenerate configuration that injects nothing — zero rate, zero
    /// size, or a gap that truncates to zero nanoseconds (which would make
    /// an injector spin forever without advancing virtual time).
    pub fn interval(&self) -> Option<SimDuration> {
        if self.rate.is_zero() || self.packet_size.as_bytes() == 0 {
            return None;
        }
        let gap = self.rate.transmission_time(self.packet_size);
        (gap > SimDuration::ZERO).then_some(gap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_realises_the_rate() {
        // 1000-byte packets at 2 Mb/s: one packet every 4 ms.
        let cbr = CbrConfig::new(DataRate::from_mbps(2), ByteSize::from_bytes(1000));
        assert_eq!(cbr.interval(), Some(SimDuration::from_millis(4)));
    }

    #[test]
    fn degenerate_configs_inject_nothing() {
        assert_eq!(
            CbrConfig::new(DataRate::ZERO, ByteSize::from_bytes(1000)).interval(),
            None
        );
        assert_eq!(
            CbrConfig::new(DataRate::from_mbps(1), ByteSize::from_bytes(0)).interval(),
            None
        );
        // A gap that truncates to 0 ns (tiny packet on an enormous rate)
        // must also be rejected, or the injector would never advance.
        assert_eq!(
            CbrConfig::new(DataRate::from_gbps(10), ByteSize::from_bytes(1)).interval(),
            None
        );
    }
}
