//! Figures 7, 8 and 9: the CFS/RON reproduction.
//!
//! * Figure 7 — download speed of a 1 MB file striped over Chord as a
//!   function of the prefetch window.
//! * Figure 8 — the per-download CDF of the same experiment for 8, 24 and
//!   40 KB windows.
//! * Figure 9 — the CDF of plain TCP transfer speeds between the mesh nodes
//!   for 8 KB, 64 KB and 1164 KB files.
//!
//! The RON testbed's published pairwise characteristics are replaced by the
//! synthetic RON-like mesh (`mn_topology::ron`); see DESIGN.md for the
//! substitution rationale. Expected shapes: download speed grows with the
//! prefetch window and saturates in the low hundreds of KB/s; small TCP
//! transfers are RTT/slow-start bound while large transfers approach the
//! per-path available bandwidth.

use mn_apps::{CfsClient, CfsConfig, CfsServer, ChordRing};
use mn_distill::DistillationMode;
use mn_packet::VnId;
use mn_topology::ron::{ron_mesh, RonMeshParams};
use mn_util::{ByteSize, Cdf};
use modelnet::{Experiment, Runner, SimDuration, SimTime};

use crate::Scale;

/// One point of Figure 7.
#[derive(Debug, Clone, Copy)]
pub struct PrefetchPoint {
    /// Prefetch window in kilobytes.
    pub window_kb: u64,
    /// Download speed in kilobytes/second.
    pub speed_kbytes_per_sec: f64,
}

fn build_runner(seed: u64) -> (Runner, Vec<VnId>) {
    let mesh = ron_mesh(&RonMeshParams {
        seed,
        ..RonMeshParams::default()
    });
    let runner = Experiment::new(mesh.topology)
        .distillation(DistillationMode::HopByHop)
        .cores(1)
        .edge_nodes(12)
        .unconstrained_hardware()
        .seed(seed)
        .build()
        .expect("RON mesh experiment builds");
    let vns = runner.vn_ids();
    (runner, vns)
}

/// Runs one CFS download with the given prefetch window from `client_index`.
fn run_download(window_kb: u64, client_index: usize, seed: u64) -> f64 {
    let (mut runner, vns) = build_runner(seed);
    let ring = ChordRing::new(vns.iter().copied());
    let config = CfsConfig {
        prefetch_window: window_kb * 1024,
        ..CfsConfig::default()
    };
    for (i, &vn) in vns.iter().enumerate() {
        if i == client_index {
            runner.add_application(vn, Box::new(CfsClient::new(vn, ring.clone(), config)));
        } else {
            runner.add_application(vn, Box::new(CfsServer::new(vn, ring.clone())));
        }
    }
    runner.run_for(SimDuration::from_secs(120)).unwrap();
    let client = runner
        .app_as::<CfsClient>(vns[client_index])
        .expect("client app installed");
    client.download_speed_kbytes_per_sec().unwrap_or(0.0)
}

/// Figure 7: download speed vs prefetch window.
pub fn run_fig7(scale: Scale) -> Vec<PrefetchPoint> {
    let windows: Vec<u64> = match scale {
        Scale::Quick => vec![8, 24, 40, 96],
        Scale::Paper => vec![8, 16, 24, 32, 40, 56, 72, 96, 128, 192],
    };
    windows
        .iter()
        .map(|&w| PrefetchPoint {
            window_kb: w,
            speed_kbytes_per_sec: run_download(w, 0, 2002),
        })
        .collect()
}

/// Figure 8: CDF of download speeds across client sites for selected windows.
pub fn run_fig8(scale: Scale) -> Vec<(u64, Cdf)> {
    let clients: Vec<usize> = match scale {
        Scale::Quick => vec![0, 3, 6, 9],
        Scale::Paper => (0..12).collect(),
    };
    [8u64, 24, 40]
        .iter()
        .map(|&w| {
            let mut cdf = Cdf::new();
            for &c in &clients {
                cdf.add(run_download(w, c, 2002));
            }
            (w, cdf)
        })
        .collect()
}

/// Figure 9: CDF of raw TCP transfer speeds for three file sizes.
pub fn run_fig9(scale: Scale) -> Vec<(u64, Cdf)> {
    let pair_count = match scale {
        Scale::Quick => 12,
        Scale::Paper => 40,
    };
    [8u64, 64, 1164]
        .iter()
        .map(|&size_kb| {
            let mut cdf = Cdf::new();
            for p in 0..pair_count {
                let (mut runner, vns) = build_runner(2002);
                let src = vns[p % vns.len()];
                let dst = vns[(p * 5 + 1) % vns.len()];
                if src == dst {
                    continue;
                }
                let flow =
                    runner.add_bulk_flow(src, dst, Some(ByteSize::from_kb(size_kb)), SimTime::ZERO);
                runner.run_for(SimDuration::from_secs(90)).unwrap();
                if let Some(done) = runner.flow_completed_at(flow) {
                    let secs = done.as_secs_f64();
                    if secs > 0.0 {
                        cdf.add(size_kb as f64 / secs);
                    }
                }
            }
            (size_kb, cdf)
        })
        .collect()
}

/// Renders Figure 7.
pub fn render_fig7(points: &[PrefetchPoint]) -> String {
    let mut out =
        String::from("# Figure 7: CFS download speed vs prefetch window\nwindow_kb\tspeed_kB/s\n");
    for p in points {
        out.push_str(&format!("{}\t{:.1}\n", p.window_kb, p.speed_kbytes_per_sec));
    }
    out
}

/// Renders a set of labelled CDFs (Figures 8 and 9).
pub fn render_cdfs(title: &str, unit: &str, curves: &mut [(u64, Cdf)]) -> String {
    let mut out = format!("# {title} ({unit})\n");
    for (label, cdf) in curves {
        out.push_str(&crate::format_cdf(
            &format!("{label}KB"),
            &cdf.points_downsampled(16),
        ));
    }
    out
}

/// Figure 7 shape: a larger prefetch window never makes the download
/// dramatically slower, and the largest window beats the smallest.
pub fn fig7_shape_holds(points: &[PrefetchPoint]) -> bool {
    if points.len() < 2 {
        return false;
    }
    let first = points.first().unwrap().speed_kbytes_per_sec;
    let best = points
        .iter()
        .map(|p| p.speed_kbytes_per_sec)
        .fold(0.0, f64::max);
    first > 0.0 && best > first
}

/// Figure 8 shape, from the paper's claim as recalled (PAPER.md holds only
/// the abstract): the download-speed CDF moves right as the prefetch window
/// grows from 8 to 24 to 40 KB. So every download completes at a non-zero
/// speed, and each larger window's median is above the smaller one's.
pub fn fig8_shape_holds(curves: &mut [(u64, Cdf)]) -> bool {
    let mut medians = Vec::with_capacity(curves.len());
    for (_, cdf) in curves.iter_mut() {
        match (cdf.min(), cdf.median()) {
            (Some(min), Some(median)) if min > 0.0 => medians.push(median),
            _ => return false,
        }
    }
    medians.len() == 3 && medians.windows(2).all(|pair| pair[0] < pair[1])
}

/// Figure 9 shape: larger transfers achieve higher median speed (slow start
/// amortised), and every 8 KB transfer completes.
pub fn fig9_shape_holds(curves: &mut [(u64, Cdf)]) -> bool {
    let median = |curves: &mut [(u64, Cdf)], size: u64| -> f64 {
        curves
            .iter_mut()
            .find(|(s, _)| *s == size)
            .and_then(|(_, c)| c.median())
            .unwrap_or(0.0)
    };
    let small = median(curves, 8);
    let large = median(curves, 1164);
    small > 0.0 && large > small
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_shape_is_a_cdf_moving_right_with_the_window() {
        let curves = |speeds: [[f64; 2]; 3]| -> Vec<(u64, Cdf)> {
            let windows = [8, 24, 40].into_iter().zip(speeds);
            let cdf = |s: [f64; 2]| {
                let mut cdf = Cdf::new();
                cdf.extend(s);
                cdf
            };
            windows.map(|(w, s)| (w, cdf(s))).collect()
        };
        assert!(fig8_shape_holds(&mut curves([
            [40.0, 50.0],
            [120.0, 140.0],
            [200.0, 220.0]
        ])));
        // A stalled download, a window that does not move the median right.
        assert!(!fig8_shape_holds(&mut curves([
            [0.0, 50.0],
            [120.0, 140.0],
            [200.0, 220.0]
        ])));
        assert!(!fig8_shape_holds(&mut curves([
            [40.0, 50.0],
            [200.0, 220.0],
            [120.0, 140.0]
        ])));
    }

    #[test]
    fn single_download_completes_and_reports_speed() {
        let speed = run_download(24, 0, 7);
        assert!(
            speed > 20.0 && speed < 5_000.0,
            "download speed {speed} kB/s out of plausible range"
        );
    }

    #[test]
    fn bigger_windows_do_not_slow_the_download() {
        let small = run_download(8, 0, 7);
        let large = run_download(96, 0, 7);
        assert!(
            large >= small * 0.9,
            "96KB window ({large}) should not be slower than 8KB ({small})"
        );
    }
}
