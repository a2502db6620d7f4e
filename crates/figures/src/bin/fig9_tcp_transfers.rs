//! Regenerates Figure 9 (TCP transfer speed CDFs on the RON-like mesh). `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let mut curves = mn_figures::cfs_experiments::run_fig9(scale);
    print!(
        "{}",
        mn_figures::cfs_experiments::render_cdfs(
            "Figure 9: TCP transfer speed CDFs",
            "kB/s",
            &mut curves
        )
    );
    println!(
        "# shape_holds: {}",
        mn_figures::cfs_experiments::fig9_shape_holds(&mut curves)
    );
}
