//! Regenerates the §5 gnutella connectivity run. `--full` for larger scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let summary = mn_figures::gnutella_scale::run(scale);
    print!("{}", mn_figures::gnutella_scale::render(&summary));
    println!(
        "# shape_holds: {}",
        mn_figures::gnutella_scale::shape_holds(&summary)
    );
}
