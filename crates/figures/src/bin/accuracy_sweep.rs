//! Regenerates the accuracy–scalability continuum. Pass `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let sweep = mn_figures::accuracy_sweep::run(scale);
    print!("{}", mn_figures::accuracy_sweep::render(&sweep));
    println!(
        "# shape_holds: {}",
        mn_figures::accuracy_sweep::shape_holds(&sweep)
    );
}
