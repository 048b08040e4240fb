//! Result files, the history line each one appends, and
//! `compare A.json B.json`.

use crate::json::{self, f, get, obj, s, u};
use crate::outcome::{Better, Bound, Outcome, Spec, CATALOGUE};
use crate::stats::{median, quartiles};
use serde::Value;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Writes `result-<commit>-seed<seed>.json` and appends one line to
/// `history.jsonl` (commit, date, cores, seed, metric → median).
pub fn write_result(
    out: &Path,
    host: &Value,
    seed: u64,
    seconds: u64,
    runs: &[Outcome],
) -> Result<PathBuf, String> {
    let mut workloads: Vec<(String, Vec<&Outcome>)> = Vec::new();
    for run in runs {
        match workloads.iter_mut().find(|(w, _)| *w == run.workload) {
            Some((_, v)) => v.push(run),
            None => workloads.push((run.workload.clone(), vec![run])),
        }
    }
    let mut medians = Vec::new();
    let body: Vec<(String, Value)> = workloads
        .iter()
        .map(|(name, runs)| {
            for spec in &CATALOGUE {
                let xs: Vec<f64> = runs
                    .iter()
                    .filter(|r| !r.void)
                    .filter_map(|r| r.get(spec.name))
                    .collect();
                if !xs.is_empty() {
                    medians.push((format!("{name}/{}", spec.name), f(median(&xs))));
                }
            }
            let entry = obj([
                ("workload_fingerprint", s(&runs[0].fingerprint)),
                (
                    "runs",
                    Value::Seq(runs.iter().map(|r| r.to_json()).collect()),
                ),
            ]);
            (name.clone(), entry)
        })
        .collect();
    let result = obj([
        ("host", host.clone()),
        ("seed", u(seed)),
        ("run_seconds", u(seconds)),
        ("workloads", Value::Map(body)),
    ]);
    let commit = get(host, "commit").as_str().unwrap_or("unknown");
    let path = out.join(format!("result-{commit}-seed{seed}.json"));
    std::fs::write(&path, json::pretty(&result)).map_err(|e| format!("{}: {e}", path.display()))?;

    let line = obj([
        ("commit", get(host, "commit").clone()),
        ("date", get(host, "date").clone()),
        ("nproc", get(host, "nproc").clone()),
        ("noisy", get(host, "noisy").clone()),
        ("seed", u(seed)),
        ("metrics", Value::Map(medians)),
    ]);
    let history = out.join("history.jsonl");
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut file| writeln!(file, "{}", json::line(&line)))
        .map_err(|e| format!("{}: {e}", history.display()))?;
    Ok(path)
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Every new run reads better than every base run.
    Better,
    /// Worse than the bound allows, and the runs can tell.
    Regression,
    /// Run-to-run spread is wider than the bound: the runs cannot tell.
    Unresolved,
}

pub struct Row {
    pub base: f64,
    pub new: f64,
    /// Widest quartile distance of the two sides, in the metric's unit.
    pub spread: f64,
    pub limit: f64,
    pub verdict: Verdict,
}

/// Judges one (metric, workload) pair from the runs of both sides.
pub fn judge(spec: &Spec, base_runs: &[f64], new_runs: &[f64]) -> Row {
    let (base, new) = (median(base_runs), median(new_runs));
    let iqr = |xs: &[f64]| {
        if xs.len() < 2 {
            0.0
        } else {
            quartiles(xs).1 - quartiles(xs).0
        }
    };
    let spread = iqr(base_runs).max(iqr(new_runs));
    let limit = match spec.bound {
        Bound::Relative(share) => share * base.abs(),
        Bound::Absolute(amount) => amount,
    };
    // Positive when the new side is worse.
    let worse = |b: f64, n: f64| match spec.better {
        Better::Lower => n - b,
        Better::Higher => b - n,
    };
    let every_pair = |holds: &dyn Fn(f64) -> bool| {
        base_runs
            .iter()
            .all(|&b| new_runs.iter().all(|&n| holds(worse(b, n))))
    };
    let verdict = if every_pair(&|w| w < 0.0) {
        Verdict::Better
    } else if spread > limit {
        if every_pair(&|w| w > limit) {
            Verdict::Regression
        } else {
            Verdict::Unresolved
        }
    } else if worse(base, new) > limit {
        Verdict::Regression
    } else {
        Verdict::Ok
    };
    Row {
        base,
        new,
        spread,
        limit,
        verdict,
    }
}

fn runs_of(workload: &Value, metric: &str) -> Vec<f64> {
    get(workload, "runs")
        .as_seq()
        .unwrap_or(&[])
        .iter()
        .filter(|r| json::boolean(get(r, "void")) != Some(true))
        .filter_map(|r| json::num(json::at(r, &["metrics", metric])))
        .collect()
}

/// Prints one row per (metric, workload) present in both files, every
/// ratio with its base. Exit code: 0 clean, 1 a regression, 2 the files
/// are not comparable.
pub fn compare(a: &Path, b: &Path) -> Result<i32, String> {
    let (base, new) = (json::read_file(a)?, json::read_file(b)?);
    let commit = |v: &Value| {
        json::at(v, &["host", "commit"])
            .as_str()
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "base {} ({})  new {} ({})",
        a.display(),
        commit(&base),
        b.display(),
        commit(&new)
    );
    for (side, v) in [("base", &base), ("new", &new)] {
        if json::boolean(json::at(v, &["host", "noisy"])) == Some(true) {
            println!("note: the {side} result was measured on a loaded machine (noisy)");
        }
    }
    let workloads = get(&base, "workloads")
        .as_map()
        .ok_or("base file has no workloads")?;
    let mut regressions = 0;
    let mut rows = 0;
    for (name, base_w) in workloads {
        let new_w = json::at(&new, &["workloads", name]);
        if new_w.as_map().is_none() {
            continue;
        }
        let print = |w: &Value| {
            get(w, "workload_fingerprint")
                .as_str()
                .unwrap_or("")
                .to_string()
        };
        if print(base_w) != print(new_w) {
            eprintln!(
                "{name}: workload_fingerprint differs ({} vs {}): the two results did not run the same inputs",
                print(base_w),
                print(new_w)
            );
            return Ok(2);
        }
        for spec in &CATALOGUE {
            let (xs, ys) = (runs_of(base_w, spec.name), runs_of(new_w, spec.name));
            if xs.is_empty() || ys.is_empty() {
                continue;
            }
            let row = judge(spec, &xs, &ys);
            let change = if row.base != 0.0 {
                format!(
                    "{:+.2}% of {:.4}",
                    100.0 * (row.new - row.base) / row.base,
                    row.base
                )
            } else {
                format!("{:+.4} from 0", row.new - row.base)
            };
            println!(
                "{name:<14} {:<15} {:>12.4} -> {:>12.4} {:<6} {change:<24} spread {:.4} bound {:.4}  {:?}",
                spec.name, row.base, row.new, spec.unit, row.spread, row.limit, row.verdict
            );
            rows += 1;
            regressions += usize::from(row.verdict == Verdict::Regression);
        }
    }
    if rows == 0 {
        return Err("the two files share no (metric, workload) pair".to_string());
    }
    println!("{rows} rows, {regressions} regressions");
    Ok(i32::from(regressions > 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outcome::spec_of;

    fn verdict(metric: &str, base: &[f64], new: &[f64]) -> Verdict {
        judge(spec_of(metric).unwrap(), base, new).verdict
    }

    #[test]
    fn bounds_are_applied_in_each_metrics_direction() {
        // wall_s: lower is better, 10 % of the base median.
        assert_eq!(
            verdict("wall_s", &[10.0, 10.1, 9.9], &[10.8, 10.9, 10.7]),
            Verdict::Ok
        );
        assert_eq!(
            verdict("wall_s", &[10.0, 10.1, 9.9], &[11.2, 11.3, 11.1]),
            Verdict::Regression
        );
        assert_eq!(
            verdict("wall_s", &[10.0, 10.1, 9.9], &[9.0, 9.1, 8.9]),
            Verdict::Better
        );
        // events_per_s: higher is better.
        assert_eq!(
            verdict("events_per_s", &[100.0, 101.0, 99.0], &[85.0, 86.0, 84.0]),
            Verdict::Regression
        );
        assert_eq!(
            verdict(
                "events_per_s",
                &[100.0, 101.0, 99.0],
                &[120.0, 121.0, 119.0]
            ),
            Verdict::Better
        );
        // solution_cost: 0.1 %.
        assert_eq!(
            verdict("solution_cost", &[1000.0; 3], &[1000.5; 3]),
            Verdict::Ok
        );
        assert_eq!(
            verdict("solution_cost", &[1000.0; 3], &[1002.0; 3]),
            Verdict::Regression
        );
    }

    #[test]
    fn ratios_that_are_zero_when_healthy_have_absolute_bounds() {
        // slo_miss_ratio may rise by 0.02, fail_ratio not at all.
        assert_eq!(
            verdict("slo_miss_ratio", &[0.0; 3], &[0.015; 3]),
            Verdict::Ok
        );
        assert_eq!(
            verdict("slo_miss_ratio", &[0.0; 3], &[0.03; 3]),
            Verdict::Regression
        );
        assert_eq!(verdict("fail_ratio", &[0.0; 3], &[0.0; 3]), Verdict::Ok);
        assert_eq!(
            verdict("fail_ratio", &[0.0; 3], &[0.001; 3]),
            Verdict::Regression
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_pair_agrees() {
        // Quartile distance 4 > bound 1: the medians prove nothing …
        assert_eq!(
            verdict("wall_s", &[8.0, 10.0, 12.0], &[9.0, 11.5, 13.0]),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict("wall_s", &[8.0, 10.0, 12.0], &[8.5, 10.0, 11.0]),
            Verdict::Unresolved
        );
        // … unless every new run beats every base run, or loses by more
        // than the bound.
        assert_eq!(
            verdict("wall_s", &[8.0, 10.0, 12.0], &[5.0, 6.0, 7.0]),
            Verdict::Better
        );
        assert_eq!(
            verdict("wall_s", &[8.0, 10.0, 12.0], &[14.0, 15.0, 19.0]),
            Verdict::Regression
        );
    }

    #[test]
    fn a_single_run_per_side_still_compares() {
        assert_eq!(verdict("suite_s", &[2.0], &[2.1]), Verdict::Ok);
        assert_eq!(verdict("suite_s", &[2.0], &[2.3]), Verdict::Regression);
    }
}
