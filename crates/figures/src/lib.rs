//! Regenerators for every table and figure of the paper.
//!
//! Each submodule corresponds to one experiment in the evaluation; its `run`
//! function executes the workload at a configurable scale and returns the
//! rows/series the paper reports, its `shape_holds` states the shape the
//! paper's curve has, and `mn-figures <name>` (`src/main.rs`) prints both.
//! `Scale::Quick` keeps default invocations to seconds of wall time;
//! `Scale::Paper` uses the paper's dimensions (README "Experiment binaries").

pub mod accuracy;
pub mod accuracy_sweep;
pub mod cfs_experiments;
pub mod fig11_web;
pub mod fig12_acdc;
pub mod fig4_capacity;
pub mod fig5_distillation;
pub mod fig6_multiplexing;
pub mod gnutella_scale;
pub mod table1_multicore;

/// How large to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced dimensions so the binary finishes in seconds.
    Quick,
    /// The paper's dimensions.
    Paper,
}

/// Formats a `(value, cumulative fraction)` CDF as plain-text rows.
pub fn format_cdf(label: &str, points: &[(f64, f64)]) -> String {
    let mut out = String::new();
    for (value, frac) in points {
        out.push_str(&format!("{label}\t{value:.3}\t{frac:.4}\n"));
    }
    out
}
