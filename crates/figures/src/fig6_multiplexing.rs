//! Figure 6: effects of multiplexing processes on an edge node.
//!
//! netperf/netserver pairs exchange 1500-byte UDP packets while burning a
//! configurable number of instructions per transmitted byte; the figure plots
//! aggregate throughput against that per-byte work for multiplexing degrees
//! from 1 to 100. Expected shape: full link rate up to a knee near the
//! 80 instructions/byte theoretical budget, with the knee moving left (to
//! ~65) as context-switch overhead grows with the process count.

use mn_edge::{EdgeHostModel, EdgeHostParams, MultiplexObservation};
use mn_util::SimDuration;

use crate::Scale;

/// One curve of the figure.
#[derive(Debug, Clone)]
pub struct MultiplexCurve {
    /// Multiplexing degree (process pairs on the host).
    pub processes: usize,
    /// Observations across the instructions-per-byte sweep.
    pub points: Vec<MultiplexObservation>,
}

/// Runs the sweep.
pub fn run(scale: Scale) -> Vec<MultiplexCurve> {
    let (process_counts, ipb_values, secs): (Vec<usize>, Vec<f64>, u64) = match scale {
        Scale::Quick => (
            vec![1, 8, 32, 100],
            (50..=100).step_by(10).map(|x| x as f64).collect(),
            1,
        ),
        Scale::Paper => (
            vec![1, 4, 8, 16, 32, 60, 80, 100],
            (50..=100).step_by(5).map(|x| x as f64).collect(),
            2,
        ),
    };
    let model = EdgeHostModel::new(EdgeHostParams::default());
    process_counts
        .iter()
        .map(|&p| MultiplexCurve {
            processes: p,
            points: model.sweep(p, &ipb_values, SimDuration::from_secs(secs)),
        })
        .collect()
}

/// Renders the curves.
pub fn render(curves: &[MultiplexCurve]) -> String {
    let mut out = String::from(
        "# Figure 6: aggregate throughput vs instructions/byte per multiplexing degree\nprocesses\tinstr/byte\tkbit/s\tswitch_overhead\n",
    );
    for c in curves {
        for p in &c.points {
            out.push_str(&format!(
                "{}\t{:.0}\t{:.0}\t{:.4}\n",
                c.processes, p.instructions_per_byte, p.aggregate_kbps, p.switch_overhead_fraction
            ));
        }
    }
    out
}

/// Shape check: at low per-byte work every curve is near the link rate, and
/// the budget at which throughput starts to fall is lower for 100 processes
/// than for 1.
pub fn shape_holds(curves: &[MultiplexCurve]) -> bool {
    let knee = |c: &MultiplexCurve| -> f64 {
        let baseline = c
            .points
            .iter()
            .map(|p| p.aggregate_kbps)
            .fold(0.0, f64::max);
        c.points
            .iter()
            .filter(|p| p.aggregate_kbps >= baseline * 0.97)
            .map(|p| p.instructions_per_byte)
            .fold(0.0, f64::max)
    };
    let single = curves.iter().find(|c| c.processes == 1);
    let many = curves.iter().find(|c| c.processes == 100);
    match (single, many) {
        (Some(s), Some(m)) => {
            let peak = s
                .points
                .iter()
                .map(|p| p.aggregate_kbps)
                .fold(0.0, f64::max);
            peak > 90_000.0 && knee(m) <= knee(s)
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shape() {
        let curves = run(Scale::Quick);
        assert_eq!(curves.len(), 4);
        assert!(shape_holds(&curves));
    }
}
