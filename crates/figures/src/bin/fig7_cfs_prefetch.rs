//! Regenerates Figure 7 (CFS download speed vs prefetch window). `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let points = mn_figures::cfs_experiments::run_fig7(scale);
    print!("{}", mn_figures::cfs_experiments::render_fig7(&points));
    println!(
        "# shape_holds: {}",
        mn_figures::cfs_experiments::fig7_shape_holds(&points)
    );
}
