//! The VN-multiplexing host model (§4.2, Figure 6).
//!
//! Mapping several VNs onto one physical edge node raises the question of
//! when the host itself — not the emulated network — becomes the bottleneck.
//! The paper quantifies this with netperf/netserver pairs exchanging
//! 1500-byte UDP packets while burning a configurable number of instructions
//! per byte after each transmission, for multiplexing degrees from 1 to 100:
//! with one process the full link rate is sustained up to ~76 instructions
//! per byte (the theoretical maximum being 80 on a 1 GHz CPU feeding a
//! 100 Mb/s link); with 100 processes the budget falls to ~65 because context
//! switches consume a growing share of the CPU.
//!
//! [`EdgeHostModel`] reproduces that experiment with a small round-robin
//! process scheduler simulation: each sender process alternates between
//! computing (its per-packet instruction budget) and handing a packet to the
//! shared link; switching between runnable processes costs a fixed number of
//! cycles.

use mn_util::{ByteSize, DataRate, SimDuration, SimTime};

/// Parameters of the edge host and the multiplexing workload.
#[derive(Debug, Clone, Copy)]
pub struct EdgeHostParams {
    /// CPU clock rate in cycles per second (instructions retire at one per
    /// cycle, the paper's CPI = 1.0 assumption).
    pub cpu_hz: f64,
    /// Physical link rate shared by every VN on the host.
    pub link_rate: DataRate,
    /// UDP payload per packet.
    pub packet_bytes: u32,
    /// Fixed per-packet kernel/syscall overhead, in CPU cycles.
    pub per_packet_overhead_cycles: f64,
    /// Cost of one context switch, in CPU cycles.
    pub context_switch_cycles: f64,
}

impl Default for EdgeHostParams {
    fn default() -> Self {
        EdgeHostParams {
            cpu_hz: 1e9,
            link_rate: DataRate::from_mbps(100),
            packet_bytes: 1500,
            per_packet_overhead_cycles: 6_000.0,
            context_switch_cycles: 8_000.0,
        }
    }
}

/// One measured point of the multiplexing experiment.
#[derive(Debug, Clone, Copy)]
pub struct MultiplexObservation {
    /// Number of netperf/netserver process pairs sharing the host.
    pub processes: usize,
    /// Instructions of application work per transmitted byte.
    pub instructions_per_byte: f64,
    /// Aggregate goodput across all processes, in kilobits per second.
    pub aggregate_kbps: f64,
    /// Fraction of CPU time spent context switching.
    pub switch_overhead_fraction: f64,
}

/// The edge host simulation.
#[derive(Debug, Clone)]
pub struct EdgeHostModel {
    params: EdgeHostParams,
}

impl EdgeHostModel {
    /// Creates a model with the given parameters.
    pub fn new(params: EdgeHostParams) -> Self {
        EdgeHostModel { params }
    }

    /// Simulates `processes` sender processes, each computing
    /// `instructions_per_byte` per transmitted byte, for `duration` of
    /// virtual time, and returns the aggregate throughput observed.
    ///
    /// The simulation alternates CPU bursts (compute + per-packet overhead,
    /// plus a context switch whenever a different process is scheduled) with
    /// transmissions serialised on the shared link; the CPU and the link
    /// operate concurrently, as they do in the real host.
    pub fn run(
        &self,
        processes: usize,
        instructions_per_byte: f64,
        duration: SimDuration,
    ) -> MultiplexObservation {
        let p = &self.params;
        let processes = processes.max(1);
        let packet = ByteSize::from_bytes(p.packet_bytes as u64);
        let tx_time = p.link_rate.transmission_time(packet);
        let compute_cycles =
            instructions_per_byte * p.packet_bytes as f64 + p.per_packet_overhead_cycles;
        let compute_time = SimDuration::from_secs_f64(compute_cycles / p.cpu_hz);
        let switch_time = SimDuration::from_secs_f64(p.context_switch_cycles / p.cpu_hz);

        // Round-robin over processes: the CPU prepares packets one at a time
        // (switching costs apply when the next runnable process differs from
        // the one that just ran), the link drains them in FIFO order.
        let end = SimTime::ZERO + duration;
        let mut cpu_free = SimTime::ZERO;
        let mut link_free = SimTime::ZERO;
        let mut current_process = 0usize;
        let mut packets_sent: u64 = 0;
        let mut switch_busy = SimDuration::ZERO;

        while cpu_free < end {
            // Context switch when more than one process shares the CPU.
            if processes > 1 {
                cpu_free += switch_time;
                switch_busy += switch_time;
            }
            cpu_free += compute_time;
            // The prepared packet queues for the link.
            let start_tx = cpu_free.max(link_free);
            link_free = start_tx + tx_time;
            if link_free <= end {
                packets_sent += 1;
            }
            // If the link is the bottleneck the sending process blocks until
            // the socket buffer drains; the CPU idles (or would run other,
            // unrelated work). Model: the CPU may run ahead by at most one
            // packet per process.
            let max_ahead = tx_time * processes as u64;
            if link_free > cpu_free + max_ahead {
                cpu_free = link_free - max_ahead;
            }
            current_process = (current_process + 1) % processes;
        }

        let secs = duration.as_secs_f64();
        let bits = packets_sent as f64 * p.packet_bytes as f64 * 8.0;
        MultiplexObservation {
            processes,
            instructions_per_byte,
            aggregate_kbps: bits / secs / 1e3,
            switch_overhead_fraction: (switch_busy.as_secs_f64() / secs).min(1.0),
        }
    }

    /// Sweeps instructions-per-byte for a fixed multiplexing degree,
    /// producing one curve of Figure 6.
    pub fn sweep(
        &self,
        processes: usize,
        instructions_per_byte: &[f64],
        duration: SimDuration,
    ) -> Vec<MultiplexObservation> {
        instructions_per_byte
            .iter()
            .map(|&ipb| self.run(processes, ipb, duration))
            .collect()
    }

    /// The largest instructions-per-byte budget (searched over `candidates`)
    /// at which the host still sustains at least `threshold_fraction` of its
    /// zero-work throughput — the "knee" the paper quotes per multiplexing
    /// degree.
    pub fn knee(
        &self,
        processes: usize,
        candidates: &[f64],
        duration: SimDuration,
        threshold_fraction: f64,
    ) -> f64 {
        let baseline = self.run(processes, 0.0, duration).aggregate_kbps;
        let mut best = 0.0;
        for &ipb in candidates {
            let obs = self.run(processes, ipb, duration);
            if obs.aggregate_kbps >= baseline * threshold_fraction && ipb > best {
                best = ipb;
            }
        }
        best
    }
}

impl Default for EdgeHostModel {
    fn default() -> Self {
        Self::new(EdgeHostParams::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> EdgeHostModel {
        EdgeHostModel::default()
    }

    #[test]
    fn zero_work_saturates_the_link() {
        let obs = model().run(1, 0.0, SimDuration::from_secs(2));
        // ~95 Mb/s of 1500-byte payloads on a 100 Mb/s link.
        assert!(
            obs.aggregate_kbps > 90_000.0 && obs.aggregate_kbps <= 100_000.0,
            "aggregate {} kbps",
            obs.aggregate_kbps
        );
    }

    #[test]
    fn single_process_knee_is_near_the_paper_value() {
        let candidates: Vec<f64> = (50..=90).map(|x| x as f64).collect();
        let knee = model().knee(1, &candidates, SimDuration::from_secs(1), 0.97);
        assert!(
            (70.0..=80.0).contains(&knee),
            "single-process knee {knee} should be close to the paper's 76"
        );
    }

    #[test]
    fn high_multiplexing_lowers_the_knee() {
        let candidates: Vec<f64> = (40..=90).map(|x| x as f64).collect();
        let d = SimDuration::from_secs(1);
        let knee_1 = model().knee(1, &candidates, d, 0.97);
        let knee_8 = model().knee(8, &candidates, d, 0.97);
        let knee_100 = model().knee(100, &candidates, d, 0.97);
        assert!(knee_8 <= knee_1);
        assert!(knee_100 < knee_1);
        assert!(
            knee_1 - knee_100 >= 5.0,
            "knee should drop by ~10 instructions/byte from 1 to 100 processes \
             (got {knee_1} -> {knee_100})"
        );
    }

    #[test]
    fn throughput_decreases_monotonically_with_work_beyond_knee() {
        let m = model();
        let d = SimDuration::from_secs(1);
        let t80 = m.run(4, 80.0, d).aggregate_kbps;
        let t90 = m.run(4, 90.0, d).aggregate_kbps;
        let t100 = m.run(4, 100.0, d).aggregate_kbps;
        assert!(t80 >= t90 && t90 >= t100);
        assert!(t100 < 95_000.0);
    }

    #[test]
    fn switch_overhead_grows_with_processes() {
        let m = model();
        let d = SimDuration::from_secs(1);
        let one = m.run(1, 60.0, d).switch_overhead_fraction;
        let many = m.run(60, 60.0, d).switch_overhead_fraction;
        assert_eq!(one, 0.0, "a single process never context switches");
        assert!(many > 0.0);
    }

    #[test]
    fn sweep_produces_one_point_per_candidate() {
        let pts = model().sweep(2, &[50.0, 70.0, 90.0], SimDuration::from_millis(500));
        assert_eq!(pts.len(), 3);
        assert!(pts[0].aggregate_kbps >= pts[2].aggregate_kbps);
    }
}
