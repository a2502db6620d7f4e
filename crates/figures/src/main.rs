//! `mn-figures <name> [--paper|--full]`: regenerates one of the paper's
//! tables or figures, prints it, then (where the paper states one) whether
//! the run has the shape of the paper's curve. Quick scale by default;
//! `--paper` (alias `--full`) runs the paper's dimensions. An unknown name
//! or flag prints the list of experiments and exits 2.

use std::process::ExitCode;

use mn_figures::cfs_experiments::{self as cfs, render_cdfs};
use mn_figures::*;

/// An experiment's name and its run, which returns the table it prints and
/// whether its shape holds.
type Experiment = (&'static str, fn(Scale) -> (String, Option<bool>));

/// Runs `$module::run` at `$scale`, then its `render` and `shape_holds`.
macro_rules! report {
    ($module:ident, $scale:expr) => {{
        let mut out = $module::run($scale);
        (
            $module::render(&mut out),
            Some($module::shape_holds(&mut out)),
        )
    }};
}

/// Every experiment, by the name `mn-figures` takes.
const EXPERIMENTS: [Experiment; 12] = [
    ("fig4_capacity", |s| report!(fig4_capacity, s)),
    ("fig5_distillation", |s| report!(fig5_distillation, s)),
    ("fig6_multiplexing", |s| report!(fig6_multiplexing, s)),
    ("fig7_cfs_prefetch", |s| {
        let points = cfs::run_fig7(s);
        (
            cfs::render_fig7(&points),
            Some(cfs::fig7_shape_holds(&points)),
        )
    }),
    ("fig8_cfs_cdf", |s| {
        let mut curves = cfs::run_fig8(s);
        let title = "Figure 8: CFS download speed CDFs";
        let table = render_cdfs(title, "kB/s", &mut curves);
        (table, Some(cfs::fig8_shape_holds(&mut curves)))
    }),
    ("fig9_tcp_transfers", |s| {
        let mut curves = cfs::run_fig9(s);
        let table = render_cdfs("Figure 9: TCP transfer speed CDFs", "kB/s", &mut curves);
        (table, Some(cfs::fig9_shape_holds(&mut curves)))
    }),
    ("fig11_web_replicas", |s| report!(fig11_web, s)),
    ("fig12_acdc", |s| report!(fig12_acdc, s)),
    ("table1_multicore", |s| report!(table1_multicore, s)),
    ("gnutella_scale", |s| report!(gnutella_scale, s)),
    ("baseline_accuracy", |s| report!(accuracy, s)),
    ("accuracy_sweep", |s| report!(accuracy_sweep, s)),
];

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut name = None;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--paper" | "--full" => scale = Scale::Paper,
            _ if name.is_none() && !arg.starts_with('-') => name = Some(arg),
            _ => return usage(),
        }
    }
    let Some((_, run)) = EXPERIMENTS.iter().find(|e| Some(e.0) == name.as_deref()) else {
        return usage();
    };
    let (table, holds) = run(scale);
    print!("{table}");
    if let Some(holds) = holds {
        println!("# shape_holds: {holds}");
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.0).collect();
    eprintln!("usage: mn-figures <name> [--paper|--full]");
    eprintln!("names: {}", names.join(", "));
    ExitCode::from(2)
}
