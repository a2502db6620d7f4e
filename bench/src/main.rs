//! `mn-benchmark`: end-to-end and per-layer benchmark of the ModelNet-RS
//! emulator. See `bench/README.md`.
//!
//! ```text
//! mn-benchmark --workload NAME --seed N --seconds S --trace 0|1   one workload, one JSON result line
//! mn-benchmark run [--seed N] [--quick] [--out FILE]                every workload, both passes, one results file
//! mn-benchmark compare A.json B.json                                two results files, metric by metric
//! mn-benchmark manifest                                              BENCHMARK.json, from the metric and workload tables
//! ```

mod compare;
mod kernels;
mod rep;
mod report;
mod stats;
mod sut;
mod trace;
mod workload;

use std::process::ExitCode;

/// Exact memory and allocation counts, process-wide and per thread.
#[global_allocator]
static ALLOC: mn_util::alloc::CountingAlloc = mn_util::alloc::CountingAlloc;

/// Where traces and results go unless `--out` says otherwise: inside the
/// checkout, ignored by git.
const OUT_DIR: &str = "bench/out";

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("{name} {v}: not a valid value")),
    }
}

fn write_trace(run: &report::WorkloadRun) -> Result<(), String> {
    let path = format!("{OUT_DIR}/trace-{}.jsonl", run.workload);
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        trace::write_jsonl(&run.spans, &mut file)
    };
    write().map_err(|e| format!("cannot write {path}: {e}"))
}

/// The driver's contract: one workload, one pass, the result as the last line.
fn one_workload(args: &[String]) -> Result<(), String> {
    let name = flag(args, "--workload").ok_or("--workload NAME is required")?;
    let w = workload::find(name).ok_or_else(|| {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;
    let seed: u64 = parse(args, "--seed", 1)?;
    let seconds: f64 = parse(args, "--seconds", workload::RUN_SECONDS as f64)?;
    let pass = match parse(args, "--trace", 0u8)? {
        0 => report::Pass::EndToEnd,
        1 => report::Pass::PerLayer,
        other => return Err(format!("--trace {other}: 0 or 1")),
    };
    let run = report::run_workload(w, seed, seconds, pass)?.remove(0);
    report::print_table(&run);
    if run.traced {
        write_trace(&run)?;
    }
    println!("{}", report::result_line(&run));
    Ok(())
}

/// Every workload, both kinds of reading, into one results file.
fn run_all(args: &[String]) -> Result<(), String> {
    let seed: u64 = parse(args, "--seed", 1)?;
    let quick = args.iter().any(|a| a == "--quick");
    let default_out = format!("{OUT_DIR}/results.json");
    let out = flag(args, "--out").unwrap_or(&default_out);
    let mut runs = Vec::new();
    for w in &workload::WORKLOADS {
        let w = if quick { w.quick() } else { *w };
        let seconds = workload::RUN_SECONDS as f64;
        for run in report::run_workload(&w, seed, seconds, report::Pass::Both)? {
            report::print_table(&run);
            if run.traced {
                write_trace(&run)?;
                if w.name == kernels::LEDGER_WORKLOAD {
                    kernels::check_hop_ledger(&run)?;
                }
            }
            runs.push(run);
        }
    }
    let host = compare::Host::detect(stats::median(
        &runs.iter().map(|r| r.calib_s).collect::<Vec<_>>(),
    ));
    let json = report::results_json(&runs, &host);
    if let Some(dir) = std::path::Path::new(out).parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("# results written to {out} (host class {})", host.slug());
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} operations failed"));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare::main(&args[1..]),
        Some("manifest") => {
            print!("{}", report::manifest_json());
            Ok(())
        }
        _ => one_workload(&args),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("mn-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
