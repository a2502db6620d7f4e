//! The hardware capacity model.
//!
//! The paper's evaluation runs on 1.4 GHz Pentium III core routers with
//! gigabit NICs; its scalability results (Figure 4, Table 1) are consequences
//! of two ceilings: the NIC/link rate and the CPU cost of emulation
//! (measured there as a fixed 8.3 µs per packet plus 0.5 µs per emulated
//! hop, against a plain-forwarding capacity of ~250 k small packets/s).
//! [`HardwareProfile`] captures those ceilings so the same saturation
//! behaviour emerges in the virtual-time reproduction. The default constants
//! are calibrated so that the Figure 4 knees land where the paper reports
//! them: NIC-bound at ≈120 kpkt/s for short routes, CPU-bound at ≈90 kpkt/s
//! for 8-hop routes (`fig4_capacity`, README "Experiment binaries", prints
//! the curve). The `tick` only delays when a deadline is noticed: every pipe
//! and tunnel is entered at its ideal time (the paper's "packet debt
//! handling"), so a packet's error is its last hop's lateness alone.

use mn_util::{ByteSize, DataRate, SimDuration};

mn_util::codec_record! {
    /// Capacity model of one core node and its network attachment. A snapshot
    /// carries it once, as the emulator's first record.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub struct HardwareProfile {
        /// Line rate of the core's NIC (each direction).
        pub nic_rate: DataRate,
        /// Receive buffering available before the NIC starts dropping packets
        /// when the link or CPU is oversubscribed.
        pub nic_buffer: ByteSize,
        /// Fixed CPU cost charged for every packet that crosses the core
        /// (interrupt handling, ipfw match, route lookup, ip_output).
        pub per_packet_cpu: SimDuration,
        /// CPU cost charged for every emulated hop a descriptor traverses.
        pub per_hop_cpu: SimDuration,
        /// CPU cost charged on each side when a descriptor is tunnelled to a
        /// peer core.
        pub tunnel_cpu: SimDuration,
        /// One-way latency of the physical switch between cores (descriptor
        /// tunnelling delay).
        pub tunnel_latency: SimDuration,
        /// Scheduler tick interval (the paper's 10 kHz clock = 100 µs).
        pub tick: SimDuration,
        /// How much CPU work may be backlogged before the core is considered
        /// saturated and starts dropping arrivals physically.
        pub saturation_backlog: SimDuration,
        /// When `true`, descriptor tunnels carry only descriptor-sized payloads
        /// (the paper's payload-caching option, which leaves packet contents on
        /// the entry core); otherwise the full packet crosses the inter-core
        /// link.
        pub payload_caching: bool,
    }
}

impl HardwareProfile {
    /// Size of a tunnelled descriptor when payload caching is enabled.
    pub const DESCRIPTOR_BYTES: u64 = 64;

    /// The profile modelling the paper's testbed core node.
    pub fn paper_core() -> Self {
        HardwareProfile {
            nic_rate: DataRate::from_gbps(1),
            nic_buffer: ByteSize::from_kb(512),
            per_packet_cpu: SimDuration::from_nanos(4_900),
            per_hop_cpu: SimDuration::from_nanos(800),
            tunnel_cpu: SimDuration::from_nanos(3_500),
            tunnel_latency: SimDuration::from_micros(20),
            tick: SimDuration::from_micros(100),
            saturation_backlog: SimDuration::from_micros(300),
            payload_caching: false,
        }
    }

    /// A deliberately unconstrained profile for functional tests and for
    /// experiments that want ideal emulation (no resource ceilings).
    pub fn unconstrained() -> Self {
        HardwareProfile {
            nic_rate: DataRate::from_gbps(1_000),
            nic_buffer: ByteSize::from_mb(1_000),
            per_packet_cpu: SimDuration::ZERO,
            per_hop_cpu: SimDuration::ZERO,
            tunnel_cpu: SimDuration::ZERO,
            tunnel_latency: SimDuration::ZERO,
            tick: SimDuration::from_micros(100),
            saturation_backlog: SimDuration::from_secs(1),
            payload_caching: false,
        }
    }

    /// CPU time needed to emulate one packet that traverses `hops` pipes on
    /// this core (excluding tunnelling).
    pub fn packet_cpu_cost(&self, hops: usize) -> SimDuration {
        self.per_packet_cpu + self.per_hop_cpu * hops as u64
    }

    /// Rounds `t` up to the next scheduler tick boundary; past the last
    /// whole tick the `u64` nanosecond range holds, that last tick.
    pub fn next_tick_at(&self, t: mn_util::SimTime) -> mn_util::SimTime {
        let tick = self.tick.as_nanos().max(1);
        let rounded = t.as_nanos().div_ceil(tick).checked_mul(tick);
        mn_util::SimTime::from_nanos(rounded.unwrap_or(u64::MAX / tick * tick))
    }
}

impl Default for HardwareProfile {
    fn default() -> Self {
        Self::paper_core()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mn_util::SimTime;

    #[test]
    fn paper_profile_matches_figure4_knees() {
        let p = HardwareProfile::paper_core();
        // Average emulated packet in the capacity experiment is ~1 KB
        // (two 1500-byte data packets per 40-byte ACK).
        let avg = ByteSize::from_bytes(1013);
        let nic = p.nic_rate.as_bps() as f64 / avg.as_bits() as f64;
        assert!(
            (115_000.0..135_000.0).contains(&nic),
            "NIC ceiling {nic} should be ~123 kpps"
        );
        let cpu = |hops| 1.0 / p.packet_cpu_cost(hops).as_secs_f64();
        // CPU ceiling for 1 and 4 hops sits above the NIC ceiling…
        assert!(cpu(1) > nic);
        assert!(cpu(4) > nic);
        // …and for 8 hops it falls to roughly 90 kpps.
        let cpu8 = cpu(8);
        assert!(
            (80_000.0..100_000.0).contains(&cpu8),
            "8-hop CPU ceiling {cpu8} should be ~90 kpps"
        );
        // 12 hops is lower still.
        assert!(cpu(12) < cpu8);
    }

    #[test]
    fn packet_cpu_cost_is_affine_in_hops() {
        let p = HardwareProfile::paper_core();
        let one = p.packet_cpu_cost(1);
        let two = p.packet_cpu_cost(2);
        let ten = p.packet_cpu_cost(10);
        assert_eq!(two - one, p.per_hop_cpu);
        assert_eq!(ten - one, p.per_hop_cpu * 9);
    }

    #[test]
    fn unconstrained_profile_has_no_ceilings() {
        let p = HardwareProfile::unconstrained();
        assert!(p.packet_cpu_cost(100).is_zero());
        assert!(p.nic_rate.as_bps() > 10_000_000 * 1500 * 8);
    }

    #[test]
    fn tick_rounding() {
        let p = HardwareProfile::paper_core();
        assert_eq!(
            p.next_tick_at(SimTime::from_micros(150)),
            SimTime::from_micros(200)
        );
        assert_eq!(
            p.next_tick_at(SimTime::from_micros(200)),
            SimTime::from_micros(200)
        );
        assert_eq!(p.next_tick_at(SimTime::ZERO), SimTime::ZERO);
    }

    #[test]
    fn tick_rounding_saturates_at_the_last_whole_tick() {
        let p = HardwareProfile::paper_core();
        let tick = p.tick.as_nanos();
        let last = SimTime::from_nanos(u64::MAX / tick * tick);
        assert_eq!(p.next_tick_at(SimTime::from_nanos(u64::MAX - 1)), last);
        assert_eq!(p.next_tick_at(SimTime::from_nanos(u64::MAX)), last);
        assert_eq!(p.next_tick_at(last), last);
    }
}
