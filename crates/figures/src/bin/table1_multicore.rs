//! Regenerates Table 1 (4-core scaling vs cross-core traffic). `--full` for paper scale.
fn main() {
    let scale = mn_figures::Scale::from_args();
    let rows = mn_figures::table1_multicore::run(scale);
    print!("{}", mn_figures::table1_multicore::render(&rows));
    println!(
        "# shape_holds: {}",
        mn_figures::table1_multicore::shape_holds(&rows)
    );
}
