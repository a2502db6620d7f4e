//! Regenerates Figure 4 (single-core capacity). Pass `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let points = mn_figures::fig4_capacity::run(scale);
    print!("{}", mn_figures::fig4_capacity::render(&points));
    println!(
        "# shape_holds: {}",
        mn_figures::fig4_capacity::shape_holds(&points)
    );
}
