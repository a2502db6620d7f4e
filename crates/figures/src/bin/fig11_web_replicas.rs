//! Regenerates Figure 11 (client latency CDF vs number of web replicas). `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let mut curves = mn_figures::fig11_web::run(scale);
    print!("{}", mn_figures::fig11_web::render(&mut curves));
    println!(
        "# shape_holds: {}",
        mn_figures::fig11_web::shape_holds(&mut curves)
    );
}
