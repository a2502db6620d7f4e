//! Regenerates Figure 5 (distillation vs flow-bandwidth CDFs). `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let mut curves = mn_figures::fig5_distillation::run(scale);
    print!("{}", mn_figures::fig5_distillation::render(&mut curves));
    println!(
        "# shape_holds: {}",
        mn_figures::fig5_distillation::shape_holds(&mut curves)
    );
}
