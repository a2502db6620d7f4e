//! Regenerates Figure 8 (CDF of CFS download speed per prefetch window). `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let mut curves = mn_figures::cfs_experiments::run_fig8(scale);
    print!(
        "{}",
        mn_figures::cfs_experiments::render_cdfs(
            "Figure 8: CFS download speed CDFs",
            "kB/s",
            &mut curves
        )
    );
}
