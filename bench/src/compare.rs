//! `mn-benchmark compare A.json B.json`: two results files of `run`, one row
//! per workload × end-to-end metric, and the host fingerprint that decides
//! whether the two may be compared at all.

use serde_json::Value;

use crate::report::{Better, Follows, MetricDef, END_TO_END};

/// What kind of machine produced a results file. Timings are only compared
/// between files whose hosts are of one class.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    pub cpus: usize,
    pub cpu_model: String,
    /// Median calibration-kernel time over the run.
    pub calib_s: f64,
}

/// Two hosts whose calibration kernels differ by more than this factor are
/// not of one class, whatever `/proc/cpuinfo` calls them.
const CALIB_CLASS_FACTOR: f64 = 1.5;

impl Host {
    pub fn detect(calib_s: f64) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cpus: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            calib_s,
        }
    }

    /// `<cpus>cpu-<model-slug>`, the name a committed baseline is filed under.
    pub fn slug(&self) -> String {
        let mut slug = String::new();
        for c in self.cpu_model.chars() {
            if c.is_ascii_alphanumeric() {
                slug.push(c.to_ascii_lowercase());
            } else if !slug.ends_with('-') && !slug.is_empty() {
                slug.push('-');
            }
        }
        format!("{}cpu-{}", self.cpus, slug.trim_end_matches('-'))
    }

    /// Why `other` is not of this host's class, if it is not.
    pub fn class_difference(&self, other: &Host) -> Option<String> {
        if self.cpus != other.cpus {
            return Some(format!("{} CPUs against {}", self.cpus, other.cpus));
        }
        if self.cpu_model != other.cpu_model {
            return Some(format!(
                "CPU model '{}' against '{}'",
                self.cpu_model, other.cpu_model
            ));
        }
        let ratio = self.calib_s.max(other.calib_s) / self.calib_s.min(other.calib_s);
        if ratio > CALIB_CLASS_FACTOR {
            return Some(format!(
                "calibration kernel {:.4} s against {:.4} s (more than {CALIB_CLASS_FACTOR}x apart)",
                self.calib_s, other.calib_s
            ));
        }
        None
    }
}

/// One side of a row: the best rep's value and the quartiles of all reps,
/// all four at the reference host speed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Side {
    pub best: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Within,
    Worse,
    /// The two sides' own spread is wider than the bound: the medians' order
    /// says nothing yet.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Within => "within",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges side `b` against base `a`. The change is B's best rep against A's,
/// as a share of A's, signed so that positive is worse. `host_gap` is how far
/// apart the two runs' host probes were, as a share: the probe scaling takes
/// out a host that was slower for a whole run only to first order, so a
/// timing has to differ by the bound *plus* that gap to count as better or
/// worse, and what lies between is unresolved. It is also *unresolved* when
/// either side's interquartile range over its reps, or the stretch the two
/// ranges share, is wider than the bound (as a share of A's best) — unless
/// the ranges do not touch at all, in which case every typical rep of one
/// side beats every typical rep of the other and the order is believed.
pub fn judge(def: &MetricDef, a: Side, b: Side, host_gap: f64) -> (f64, Verdict) {
    let base = a.best.abs().max(f64::MIN_POSITIVE);
    let worse_by = match def.better {
        Better::Lower => (b.best - a.best) / base,
        Better::Higher => (a.best - b.best) / base,
    };
    let resolved_beyond = match def.follows {
        Follows::Nothing => def.bound,
        Follows::Time | Follows::Rate => def.bound + host_gap,
    };
    let shared = (a.q3.min(b.q3) - a.q1.max(b.q1)).max(0.0) / base;
    let widest = (a.q3 - a.q1).max(b.q3 - b.q1) / base;
    let disjoint = a.q3 < b.q1 || b.q3 < a.q1;
    let noisy = !disjoint && (shared > def.bound || widest > def.bound);
    let verdict = if noisy {
        Verdict::Unresolved
    } else if worse_by > resolved_beyond {
        Verdict::Worse
    } else if worse_by < -resolved_beyond {
        Verdict::Better
    } else if worse_by.abs() <= def.bound {
        Verdict::Within
    } else {
        Verdict::Unresolved
    };
    (worse_by, verdict)
}

/// The host probes of one workload's run: fastest and median.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Probes {
    best_s: f64,
    median_s: f64,
}

impl Probes {
    /// How far apart two runs' hosts were: the larger of the two probe
    /// figures' ratios, less one.
    fn gap(self, other: Probes) -> f64 {
        let ratio = |x: f64, y: f64| x.max(y) / x.min(y);
        ratio(self.best_s, other.best_s).max(ratio(self.median_s, other.median_s)) - 1.0
    }
}

struct Results {
    host: Host,
    /// `(workload, metric) → quartiles`, untraced entries only.
    rows: Vec<(String, String, Side)>,
    digests: Vec<(String, u64, String)>,
    /// `workload → host probes` of its untraced run.
    probes: Vec<(String, Probes)>,
}

fn number(v: &Value, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("missing number '{key}'"))
}

fn text<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string '{key}'"))
}

fn load(path: &str) -> Result<Results, String> {
    let raw = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&raw).map_err(|e| format!("{path}: {e}"))
}

fn parse(raw: &str) -> Result<Results, String> {
    let doc = serde_json::from_str(raw).map_err(|e| e.to_string())?;
    let host = doc.get("host").ok_or("missing 'host'")?;
    let host = Host {
        cpus: number(host, "cpus")? as usize,
        cpu_model: text(host, "cpu_model")?.to_string(),
        calib_s: number(host, "calib_s")?,
    };
    let mut rows = Vec::new();
    let mut digests = Vec::new();
    let mut probes = Vec::new();
    for w in doc
        .get("workloads")
        .and_then(Value::as_array)
        .ok_or("missing 'workloads'")?
    {
        if w.get("traced").and_then(Value::as_bool) != Some(false) {
            continue;
        }
        let name = text(w, "name")?;
        digests.push((
            name.to_string(),
            number(w, "seed")? as u64,
            text(w, "digest")?.to_string(),
        ));
        probes.push((
            name.to_string(),
            Probes {
                best_s: number(w, "probe_best_s")?,
                median_s: number(w, "calib_s")?,
            },
        ));
        for m in w
            .get("metrics")
            .and_then(Value::as_array)
            .ok_or("missing 'metrics'")?
        {
            // The file keeps the quartiles as measured; the value was
            // scaled by the run's host probe, so they are too before anything
            // is judged. A rate's scale is below 1 on a fast host and never
            // negative, so the order of the quartiles stands.
            let scale = number(m, "scale")?;
            rows.push((
                name.to_string(),
                text(m, "name")?.to_string(),
                Side {
                    best: number(m, "value")?,
                    q1: number(m, "q1")? * scale,
                    median: number(m, "median")? * scale,
                    q3: number(m, "q3")? * scale,
                },
            ));
        }
    }
    Ok(Results {
        host,
        rows,
        digests,
        probes,
    })
}

/// Prints one line per workload × end-to-end metric and per digest that does
/// not match, and returns how many rows are worse (a differing digest counts)
/// and how many rows or digests one file has and the other lacks: a results
/// file that lost a workload or a metric must not compare clean.
fn compare(a: &Results, b: &Results) -> (usize, usize) {
    let (mut worse, mut missing) = (0usize, 0usize);
    let e2e = |metric: &str| END_TO_END.iter().find(|d| d.name == metric);
    for (workload, metric, qa) in &a.rows {
        let Some(def) = e2e(metric) else {
            continue;
        };
        let Some((_, _, qb)) = b.rows.iter().find(|(w, m, _)| w == workload && m == metric) else {
            println!("{workload:<14} {metric:<14} only in A");
            missing += 1;
            continue;
        };
        let probes = |r: &Results| r.probes.iter().find(|(w, _)| w == workload).map(|p| p.1);
        let host_gap = probes(a).zip(probes(b)).map_or(0.0, |(pa, pb)| pa.gap(pb));
        let (_, verdict) = judge(def, *qa, *qb, host_gap);
        worse += usize::from(verdict == Verdict::Worse);
        println!(
            "{:<14} {:<14} {:>14.4} {:>32} {:>14.4} {:>32} {:>24} {:>5.0}% {:>7.0}%  {}",
            workload,
            metric,
            qa.best,
            format!("[{:.4}, {:.4}, {:.4}]", qa.q1, qa.median, qa.q3),
            qb.best,
            format!("[{:.4}, {:.4}, {:.4}]", qb.q1, qb.median, qb.q3),
            format!("{:.3} ({:.4} {})", qb.best / qa.best, qa.best, def.unit),
            def.bound * 100.0,
            host_gap * 100.0,
            verdict.as_str()
        );
    }
    for (workload, metric, _) in &b.rows {
        if e2e(metric).is_some() && !a.rows.iter().any(|(w, m, _)| w == workload && m == metric) {
            println!("{workload:<14} {metric:<14} only in B");
            missing += 1;
        }
    }
    for (workload, seed, digest) in &a.digests {
        match b
            .digests
            .iter()
            .find(|(w, s, _)| w == workload && s == seed)
        {
            None => {
                println!("{workload:<14} result_digest at seed {seed} only in A");
                missing += 1;
            }
            Some((_, _, other)) if other != digest => {
                println!(
                    "{workload:<14} result_digest differs at seed {seed}: {digest} against {other}"
                );
                worse += 1;
            }
            Some(_) => {}
        }
    }
    for (workload, seed, _) in &b.digests {
        if !a.digests.iter().any(|(w, s, _)| w == workload && s == seed) {
            println!("{workload:<14} result_digest at seed {seed} only in B");
            missing += 1;
        }
    }
    (worse, missing)
}

pub fn main(args: &[String]) -> Result<(), String> {
    let [a_path, b_path] = args else {
        return Err("usage: mn-benchmark compare A.json B.json".into());
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    if let Some(difference) = a.host.class_difference(&b.host) {
        return Err(format!(
            "refusing to compare results from different host classes: {difference}"
        ));
    }
    println!(
        "# A = {a_path}, B = {b_path}; host {} ({})",
        a.host.slug(),
        a.host.cpu_model
    );
    println!(
        "{:<14} {:<14} {:>14} {:>32} {:>14} {:>32} {:>24} {:>6} {:>8}  verdict",
        "workload",
        "metric",
        "A best",
        "A reps [q1, median, q3]",
        "B best",
        "B reps [q1, median, q3]",
        "B/A (base A)",
        "bound",
        "host gap"
    );
    let (worse, missing) = compare(&a, &b);
    if worse + missing > 0 {
        return Err(format!(
            "{worse} rows are worse, {missing} rows or digests are in one file only"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A side whose best rep sits at its first quartile.
    fn q(q1: f64, median: f64, q3: f64) -> Side {
        Side {
            best: q1,
            q1,
            median,
            q3,
        }
    }

    /// A metric with a 15 % bound.
    fn def(better: Better) -> MetricDef {
        MetricDef {
            name: "m",
            unit: "ms",
            better,
            follows: Follows::Nothing,
            bound: 0.15,
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let lower = &def(Better::Lower);
        let a = q(100.0, 102.0, 104.0);
        assert_eq!(
            judge(lower, a, q(101.0, 103.0, 105.0), 0.0).1,
            Verdict::Within
        );
        assert_eq!(
            judge(lower, a, q(120.0, 122.0, 124.0), 0.0).1,
            Verdict::Worse
        );
        assert_eq!(judge(lower, a, q(80.0, 82.0, 84.0), 0.0).1, Verdict::Better);
        // Ranges wider than the bound that overlap decide nothing.
        assert_eq!(
            judge(lower, q(80.0, 100.0, 120.0), q(85.0, 110.0, 130.0), 0.0).1,
            Verdict::Unresolved
        );
        // Wide but not touching: every B reading is beyond every A reading.
        assert_eq!(
            judge(lower, q(80.0, 100.0, 120.0), q(150.0, 170.0, 190.0), 0.0).1,
            Verdict::Worse
        );
        // A timing that is 20 % worse is worse between runs whose hosts
        // probed alike, and unresolved between runs whose probes were 10 %
        // apart; a count does not care.
        let timing = MetricDef {
            follows: Follows::Time,
            ..def(Better::Lower)
        };
        let slower = q(120.0, 122.0, 124.0);
        assert_eq!(judge(&timing, a, slower, 0.02).1, Verdict::Worse);
        assert_eq!(judge(&timing, a, slower, 0.10).1, Verdict::Unresolved);
        assert_eq!(judge(lower, a, slower, 0.10).1, Verdict::Worse);
        let higher = &def(Better::Higher);
        let rate = |best: f64| Side {
            best,
            q1: best * 0.97,
            median: best * 0.98,
            q3: best * 0.99,
        };
        let (by, verdict) = judge(higher, rate(1.0e7), rate(8.0e6), 0.0);
        assert!((by - 0.2).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Worse);
        assert_eq!(
            judge(higher, rate(1.0e7), rate(1.3e7), 0.0).1,
            Verdict::Better
        );
    }

    #[test]
    fn hosts_of_another_class_are_refused() {
        let host = Host {
            cpus: 2,
            cpu_model: "Intel(R) Xeon(R) Platinum 8375C CPU @ 2.90GHz".into(),
            calib_s: 0.02,
        };
        assert_eq!(
            host.slug(),
            "2cpu-intel-r-xeon-r-platinum-8375c-cpu-2-90ghz"
        );
        assert!(host.class_difference(&host).is_none());
        assert!(host
            .class_difference(&Host {
                cpus: 4,
                ..host.clone()
            })
            .is_some());
        assert!(host
            .class_difference(&Host {
                cpu_model: "other".into(),
                ..host.clone()
            })
            .is_some());
        assert!(host
            .class_difference(&Host {
                calib_s: 0.029,
                ..host.clone()
            })
            .is_none());
        assert!(host
            .class_difference(&Host {
                calib_s: 0.031,
                ..host.clone()
            })
            .is_some());
    }

    #[test]
    fn results_files_round_trip_through_the_parser() {
        use crate::report::{results_json, Reading, WorkloadRun};
        let run = |traced| WorkloadRun {
            workload: "fwd_chain8",
            seed: 3,
            traced,
            readings: vec![Reading {
                name: "setup_s",
                unit: "s",
                value: 0.35,
                q1: 0.8,
                median: 1.0,
                q3: 1.2,
                scale: 0.5,
                samples: 4,
            }],
            digest: 0xABCD,
            attempted: 9,
            failed: 0,
            reps: 2,
            probe_best_s: 0.018,
            calib_s: 0.02,
            spans: Vec::new(),
        };
        let host = Host {
            cpus: 2,
            cpu_model: "m \"quoted\"".into(),
            calib_s: 0.02,
        };
        let parsed = parse(&results_json(&[run(false), run(true)], &host)).expect("parses");
        assert_eq!(parsed.host.cpus, 2);
        let side = Side {
            best: 0.35,
            q1: 0.4,
            median: 0.5,
            q3: 0.6,
        };
        assert_eq!(
            parsed.rows,
            vec![("fwd_chain8".to_string(), "setup_s".to_string(), side)]
        );
        assert_eq!(
            parsed.digests,
            vec![("fwd_chain8".to_string(), 3, "000000000000abcd".to_string())]
        );

        // The file compares clean with itself; with a file that lost the
        // metric, the workload or the digest it does not, from either side.
        assert_eq!(compare(&parsed, &parsed), (0, 0));
        let mut lost_metric = parse(&results_json(&[run(false)], &host)).unwrap();
        lost_metric.rows.clear();
        assert_eq!(compare(&parsed, &lost_metric), (0, 1));
        assert_eq!(compare(&lost_metric, &parsed), (0, 1));
        let lost_workload = parse(&results_json(&[run(true)], &host)).unwrap();
        assert_eq!(compare(&parsed, &lost_workload), (0, 2));
        assert_eq!(compare(&lost_workload, &parsed), (0, 2));
        let mut other_digest = parsed.digests.clone();
        other_digest[0].2 = "0".repeat(16);
        let differs = Results {
            digests: other_digest,
            ..parse(&results_json(&[run(false)], &host)).unwrap()
        };
        assert_eq!(compare(&parsed, &differs), (1, 0));
    }
}
