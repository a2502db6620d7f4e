//! Regenerates Figure 12 (ACDC cost and delay over time). `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let samples = mn_figures::fig12_acdc::run(scale);
    print!("{}", mn_figures::fig12_acdc::render(&samples));
    println!(
        "# shape_holds: {}",
        mn_figures::fig12_acdc::shape_holds(&samples)
    );
}
