//! Regenerates the §3.1 baseline-accuracy table. `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let points = mn_figures::accuracy::run(scale);
    print!("{}", mn_figures::accuracy::render(&points));
    println!(
        "# shape_holds: {}",
        mn_figures::accuracy::shape_holds(&points)
    );
}
