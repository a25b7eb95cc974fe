//! `compare A.json B.json` and `spread --runs N`: the rules a later change
//! is judged by, in the benchmark's own terms.

use std::collections::BTreeMap;

use crate::json::Json;
use crate::manifest::{Better, END_TO_END, WORKLOADS};
use crate::run::{out_dir, run_child};
use crate::stats;

/// One end-to-end metric of one workload, from a result file (a single
/// run: no spread) or a spread file (median of several runs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Entry {
    pub value: f64,
    /// Inter-quartile distance over the median, where the file has runs
    /// to take it from.
    pub spread: Option<f64>,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub struct WorkloadSummary {
    pub attempted: f64,
    pub failed: f64,
    pub metrics: BTreeMap<String, Entry>,
}

/// Workload name → its end-to-end summary.
pub type Summary = BTreeMap<String, WorkloadSummary>;

/// Read the end-to-end side of a `run` result file or a `spread` file.
pub fn summarize(doc: &Json) -> Result<Summary, String> {
    let kind = doc
        .get("kind")
        .and_then(Json::as_str)
        .ok_or("no \"kind\" in file")?;
    let workloads = doc
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("no \"workloads\" in file")?;
    let mut out = Summary::new();
    for (name, w) in workloads {
        // A run file nests the contract's result object under the pass.
        let w = match kind {
            "run" => w
                .get("end_to_end")
                .ok_or_else(|| format!("{name}: no untraced pass"))?,
            "spread" => w,
            other => return Err(format!("unknown file kind {other:?}")),
        };
        let num = |key: &str| {
            w.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no \"{key}\""))
        };
        let mut summary = WorkloadSummary {
            attempted: num("attempted")?,
            failed: num("failed")?,
            metrics: BTreeMap::new(),
        };
        let metrics = w
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{name}: no \"metrics\""))?;
        for (metric, m) in metrics {
            let field = |key: &str| m.get(key).and_then(Json::as_f64);
            let entry = match kind {
                "run" => Entry {
                    value: field("value").ok_or_else(|| format!("{name}/{metric}: no value"))?,
                    spread: None,
                },
                _ => Entry {
                    value: field("median").ok_or_else(|| format!("{name}/{metric}: no median"))?,
                    spread: field("spread"),
                },
            };
            summary.metrics.insert(metric.clone(), entry);
        }
        out.insert(name.clone(), summary);
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Worse than the bound allows.
    Regression,
    /// Better by more than the bound.
    Improved,
    /// Within the bound, and the runs agree well enough to say so.
    Unchanged,
    /// Within the bound, but the run-to-run spread is wider than the
    /// bound: the files cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `a` is the parent, `b` the change.
pub fn judge(a: Entry, b: Entry, better: Better, bound: f64) -> (f64, Verdict) {
    let worse = stats::worsening(a.value, b.value, better == Better::Lower);
    let spread = a.spread.unwrap_or(0.0).max(b.spread.unwrap_or(0.0));
    let verdict = if worse > bound {
        Verdict::Regression
    } else if spread > bound {
        Verdict::Unresolved
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (worse, verdict)
}

/// Compare two summaries; prints one row per workload and metric. Returns
/// whether `b` regressed: a metric worsened beyond its bound, or a
/// workload's failed share grew.
pub fn compare(a: &Summary, b: &Summary, print: bool) -> bool {
    let mut regressed = false;
    for w in WORKLOADS.iter().map(|w| w.name) {
        let (Some(wa), Some(wb)) = (a.get(w), b.get(w)) else {
            continue;
        };
        let share = |s: &WorkloadSummary| s.failed / s.attempted.max(1.0);
        if share(wb) > share(wa) {
            regressed = true;
            if print {
                println!(
                    "{w:<20} failed share grew: {} -> {}  REGRESSION",
                    share(wa),
                    share(wb)
                );
            }
        }
        for m in &END_TO_END {
            let (Some(&ea), Some(&eb)) = (wa.metrics.get(m.name), wb.metrics.get(m.name)) else {
                continue;
            };
            let (worse, verdict) = judge(ea, eb, m.better, m.bound);
            regressed |= verdict == Verdict::Regression;
            if print {
                println!(
                    "{w:<20} {:<20} {:>14.6} -> {:>14.6} {:<8} {:>+7.2}% (bound {:.1}%)  {}",
                    m.name,
                    ea.value,
                    eb.value,
                    m.unit,
                    worse * 100.0,
                    m.bound * 100.0,
                    verdict.as_str()
                );
            }
        }
    }
    regressed
}

fn load(path: &str) -> Result<Summary, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    summarize(&Json::parse(&text).map_err(|e| format!("{path}: {e}"))?)
        .map_err(|e| format!("{path}: {e}"))
}

/// The `compare` command. Exit code 1 on a regression, 2 on a bad file.
pub fn compare_cmd(a: &str, b: &str) -> i32 {
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            println!("worsening is positive when the second file is worse");
            i32::from(compare(&a, &b, true))
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            2
        }
    }
}

/// The `spread` command: `runs` untraced runs of every workload (or one),
/// each with another seed, as the acceptance rule makes them. Prints
/// median, quartiles and relative spread per workload and metric, writes
/// `out/spread.json`, and returns 1 when a spread exceeds its bound
/// (`setup_s` excepted, as in the rule) or an operation failed.
pub fn spread_cmd(
    runs: usize,
    first_seed: u64,
    seconds: f64,
    only: Option<&str>,
    smoke: bool,
) -> i32 {
    if runs < 2 {
        eprintln!("error: a spread needs at least two runs");
        return 2;
    }
    let names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    let seeds: Vec<u64> = (0..runs as u64).map(|r| first_seed + r).collect();
    let mut exit = 0;
    let mut by_workload = Vec::new();
    for name in names {
        let mut values: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        let (mut attempted, mut failed) = (0.0, 0.0);
        for &seed in &seeds {
            let result = match run_child(name, seed, seconds, false, smoke) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return 2;
                }
            };
            attempted += result
                .get("attempted")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            failed += result.get("failed").and_then(Json::as_f64).unwrap_or(0.0);
            for m in &END_TO_END {
                let v = result
                    .get("metrics")
                    .and_then(|ms| ms.get(m.name))
                    .and_then(|e| e.get("value"))
                    .and_then(Json::as_f64);
                match v {
                    Some(v) => values.entry(m.name).or_default().push(v),
                    None => {
                        eprintln!("error: {name} seed {seed}: no {}", m.name);
                        return 2;
                    }
                }
            }
        }
        if failed > 0.0 {
            exit = 1;
        }
        let mut metrics = Vec::new();
        for m in &END_TO_END {
            let v = &values[m.name];
            let (q1, q2, q3) = stats::quartiles(v);
            let spread = stats::spread(v);
            let over = spread > m.bound && m.name != "setup_s";
            if over {
                exit = 1;
            }
            println!(
                "{name:<20} {:<20} median {q2:>14.6} {:<8} q1 {q1:>14.6} q3 {q3:>14.6} spread {:>6.2}% (bound {:.1}%){}",
                m.name,
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
                if over {
                    "  OVER"
                } else if spread > m.bound / 3.0 && m.name != "setup_s" {
                    "  above a third"
                } else {
                    ""
                }
            );
            metrics.push((
                m.name,
                Json::obj([
                    ("median", Json::Num(q2)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(spread)),
                    ("unit", Json::str(m.unit)),
                    (
                        "values",
                        Json::Arr(v.iter().map(|x| Json::Num(*x)).collect()),
                    ),
                ]),
            ));
        }
        by_workload.push((
            name,
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("metrics", Json::obj(metrics)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("kind", Json::str("spread")),
        ("runs", Json::Num(runs as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "seeds",
            Json::Arr(seeds.iter().map(|s| Json::Num(*s as f64)).collect()),
        ),
        ("host_cores", Json::Num(neon_sys::host_cores() as f64)),
        ("workloads", Json::obj(by_workload)),
    ]);
    let path = out_dir().join("spread.json");
    match std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.pretty())) {
        Ok(()) => eprintln!("spread written to {}", path.display()),
        Err(e) => {
            eprintln!("error: writing {}: {e}", path.display());
            return 2;
        }
    }
    exit
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(value: f64, spread: Option<f64>) -> Entry {
        Entry { value, spread }
    }

    #[test]
    fn verdicts_on_hand_made_inputs() {
        // Lower is better, bound 10 %.
        let j = |a, b, sa, sb| judge(entry(a, sa), entry(b, sb), Better::Lower, 0.10).1;
        assert_eq!(j(100.0, 111.0, None, None), Verdict::Regression);
        assert_eq!(j(100.0, 109.0, None, None), Verdict::Unchanged);
        assert_eq!(j(100.0, 85.0, None, None), Verdict::Improved);
        // Within the bound, but one side's runs scatter by 12 %.
        assert_eq!(j(100.0, 104.0, Some(0.12), Some(0.02)), Verdict::Unresolved);
        assert_eq!(j(100.0, 104.0, Some(0.03), Some(0.02)), Verdict::Unchanged);
        // Beyond the bound is a regression however wide the spread.
        assert_eq!(j(100.0, 120.0, Some(0.12), None), Verdict::Regression);
        // Higher is better: a drop is the worsening.
        let (worse, verdict) = judge(entry(0.80, None), entry(0.70, None), Better::Higher, 0.03);
        assert!((worse - 0.125).abs() < 1e-12);
        assert_eq!(verdict, Verdict::Regression);
    }

    fn result_file(wall: f64, failed: f64) -> Json {
        let metric =
            |v: f64, unit: &str| Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]);
        let pass = Json::obj([
            ("correct", Json::Bool(failed == 0.0)),
            ("attempted", Json::Num(200.0)),
            ("failed", Json::Num(failed)),
            (
                "metrics",
                Json::obj([
                    ("wall_ms_per_iter", metric(wall, "ms")),
                    ("virt_parallel_eff", metric(0.9, "frac")),
                ]),
            ),
        ]);
        Json::obj([
            ("kind", Json::str("run")),
            ("seed", Json::Num(1.0)),
            (
                "workloads",
                Json::obj([("cg64_d2", Json::obj([("end_to_end", pass)]))]),
            ),
        ])
    }

    #[test]
    fn result_file_round_trips_and_compares() {
        let doc = result_file(8.25, 0.0);
        let reparsed = Json::parse(&doc.pretty()).expect("written file parses");
        assert_eq!(reparsed, doc);
        let a = summarize(&reparsed).expect("a run file");
        assert_eq!(a["cg64_d2"].metrics["wall_ms_per_iter"], entry(8.25, None));
        assert_eq!(a["cg64_d2"].attempted, 200.0);

        let bound = crate::manifest::end_to_end("wall_ms_per_iter")
            .unwrap()
            .bound;
        let within = summarize(&result_file(8.25 * (1.0 + 0.5 * bound), 0.0)).unwrap();
        let beyond = summarize(&result_file(8.25 * (1.0 + 1.5 * bound), 0.0)).unwrap();
        let failing = summarize(&result_file(8.25, 3.0)).unwrap();
        assert!(!compare(&a, &within, false));
        assert!(compare(&a, &beyond, false));
        assert!(
            compare(&a, &failing, false),
            "a grown failed share is a regression"
        );
        assert!(!compare(&failing, &a, false));
    }

    #[test]
    fn spread_file_carries_its_spread_into_the_verdict() {
        let doc = Json::parse(
            r#"{"kind":"spread","runs":3,"workloads":{"lbm64_d2":{"attempted":600,"failed":0,
               "metrics":{"wall_ms_per_iter":{"median":60.0,"q1":51.0,"q3":69.0,"spread":0.3,"unit":"ms"}}}}}"#,
        )
        .unwrap();
        let s = summarize(&doc).unwrap();
        assert_eq!(
            s["lbm64_d2"].metrics["wall_ms_per_iter"],
            entry(60.0, Some(0.3))
        );
        let m = crate::manifest::end_to_end("wall_ms_per_iter").unwrap();
        let (_, verdict) = judge(
            s["lbm64_d2"].metrics["wall_ms_per_iter"],
            entry(61.0, Some(0.01)),
            m.better,
            m.bound,
        );
        assert_eq!(verdict, Verdict::Unresolved);
    }

    #[test]
    fn malformed_files_are_refused() {
        assert!(summarize(&Json::parse("{}").unwrap()).is_err());
        assert!(
            summarize(&Json::parse(r#"{"kind":"other","workloads":{"x":{}}}"#).unwrap()).is_err()
        );
    }
}
