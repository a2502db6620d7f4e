//! Regenerates Figure 6 (VN multiplexing on an edge host). `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let curves = mn_figures::fig6_multiplexing::run(scale);
    print!("{}", mn_figures::fig6_multiplexing::render(&curves));
    println!(
        "# shape_holds: {}",
        mn_figures::fig6_multiplexing::shape_holds(&curves)
    );
}
