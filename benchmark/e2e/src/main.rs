//! `dtr-bench`: the repository's end-to-end benchmark.
//!
//! ```text
//! dtr-bench --workload NAME --seed N --seconds S --trace 0|1   one run, result as the last line
//! dtr-bench [--seed N] [--seconds S] [--runs R] [--trace]      a run set over every workload
//! dtr-bench --smoke                                            every code path on 12-node inputs
//! dtr-bench compare A.json B.json                              two result files, bound by bound
//! ```
//!
//! Run it from the repository root; it builds `dtrctl` and `dtrd` in
//! release mode first. See `benchmark/README.md`.

mod compare;
mod corpus;
mod daemon;
mod host;
mod inputs;
mod json;
mod outcome;
mod proc;
mod stats;
mod trace;

use host::Checkout;
use inputs::WORKLOADS;
use outcome::{Outcome, Run};
use serde::Value;
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 11;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;
const SMOKE_SECONDS: f64 = 0.5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: usize,
    smoke: bool,
}

fn parse_args(tokens: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        runs: 3,
        smoke: false,
    };
    let mut it = tokens.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w:?} (one of {WORKLOADS:?})"));
                }
                args.workload = Some(w.clone());
            }
            "--seed" => args.seed = value("a number")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|_| "bad --seconds")?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--runs" => {
                args.runs = value("a count")?.parse().map_err(|_| "bad --runs")?;
                if args.runs == 0 {
                    return Err("--runs must be at least 1".to_string());
                }
            }
            // The driver passes `--trace 0|1`; by hand a bare `--trace` reads as 1.
            "--trace" => match it.clone().next().map(String::as_str) {
                Some("0") | Some("1") => args.trace = it.next().map(String::as_str) == Some("1"),
                _ => args.trace = true,
            },
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run_workload(co: &Checkout, workload: &str, args: &Args, capture: bool) -> Result<Run, String> {
    let seconds = if args.smoke {
        SMOKE_SECONDS
    } else {
        args.seconds
    };
    if workload.starts_with("daemon-") {
        daemon::run(co, workload, args.seed, seconds, args.smoke, capture)
    } else {
        corpus::run(co, workload, args.seed, seconds, args.smoke, capture)
    }
}

/// The result line the driver reads: exactly these four keys.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, String)>,
) -> String {
    let metrics = metrics
        .into_iter()
        .map(|(name, value, unit)| {
            (
                name,
                json::obj([("value", json::f(value)), ("unit", json::s(&unit))]),
            )
        })
        .collect();
    json::line(&json::obj([
        ("correct", Value::Bool(correct)),
        ("attempted", json::u(attempted)),
        ("failed", json::u(failed)),
        ("metrics", Value::Map(metrics)),
    ]))
}

/// One run of one workload, as `BENCHMARK.json` promises it.
fn driver_run(co: &Checkout, workload: &str, args: &Args) -> Result<bool, String> {
    let run = run_workload(co, workload, args, args.trace)?;
    run.outcome.print();
    let out = &run.outcome;
    if !args.trace {
        let metrics = out
            .driver_metrics()?
            .into_iter()
            .map(|(n, v, u)| (n.to_string(), v, u.to_string()));
        println!(
            "{}",
            result_line(out.correct(), out.attempted, out.failed, metrics.collect())
        );
        return Ok(out.correct());
    }
    let layers = trace::replay(co, &run, args.smoke)?;
    let (attempted, failed) = (out.attempted + layers.attempted, out.failed + layers.failed);
    let correct = failed == 0;
    println!(
        "{}",
        result_line(correct, attempted, failed, layers.metrics)
    );
    Ok(correct)
}

/// A run set: every workload `--runs` times, one result file.
fn run_set(co: &Checkout, args: &Args) -> Result<bool, String> {
    let host = host::describe();
    println!("host {}", json::line(&host));
    let mut outcomes: Vec<Outcome> = Vec::new();
    let mut clean = true;
    for workload in WORKLOADS {
        let mut valid = 0;
        for _ in 0..args.runs {
            let run = run_workload(co, workload, args, false)?;
            run.outcome.print();
            clean &= run.outcome.correct();
            valid += usize::from(!run.outcome.void);
            outcomes.push(run.outcome);
        }
        if valid == 0 {
            eprintln!("{workload}: every run was void");
            clean = false;
        }
        if args.trace {
            let run = run_workload(co, workload, args, true)?;
            let layers = trace::replay(co, &run, args.smoke)?;
            for (name, value, unit) in &layers.metrics {
                println!("  {name:<40} {value:>14.4} {unit}");
            }
            clean &= run.outcome.correct() && layers.failed == 0;
        }
    }
    if !args.smoke {
        let path =
            compare::write_result(&co.out, &host, args.seed, args.seconds as u64, &outcomes)?;
        println!("wrote {}", path.display());
    }
    Ok(clean)
}

fn main() -> ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    if tokens.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = tokens.as_slice() else {
            eprintln!("usage: dtr-bench compare A.json B.json");
            return ExitCode::from(2);
        };
        return match compare::compare(a.as_ref(), b.as_ref()) {
            Ok(code) => ExitCode::from(code as u8),
            Err(e) => {
                eprintln!("dtr-bench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let outcome = parse_args(&tokens).and_then(|mut args| {
        if args.smoke {
            (args.trace, args.runs) = (true, 1);
        }
        let co = Checkout::build()?;
        match args.workload.clone() {
            Some(workload) => driver_run(&co, &workload, &args),
            None => run_set(&co, &args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // A result was printed, but an output check failed.
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dtr-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse_args(
            &line
                .split_whitespace()
                .map(str::to_string)
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload daemon-burst --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_deref(), a.seed, a.seconds, a.trace),
            (Some("daemon-burst"), 7, 12.0, true)
        );
        assert!(
            !args("--workload search-scale --seed 7 --seconds 12 --trace 0")
                .unwrap()
                .trace
        );
        assert!(args("--trace --seed 3").unwrap().trace);
        assert!(args("--workload nope").is_err());
        assert!(args("--seconds 0").is_err());
    }

    /// `BENCHMARK.json` and the code agree on workloads, metric names,
    /// units and the run length.
    #[test]
    fn benchmark_json_matches_the_code() {
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let spec = json::read_file(manifest.as_ref()).unwrap();
        let names = |key: &str| -> Vec<String> {
            json::get(&spec, key)
                .as_seq()
                .unwrap()
                .iter()
                .map(|e| json::get(e, "name").as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), WORKLOADS);
        assert_eq!(
            json::num(json::get(&spec, "run_seconds")),
            Some(DEFAULT_SECONDS)
        );

        let mut out = Outcome::new("daemon-steady", 1);
        for name in [
            "setup_s",
            "wall_s",
            "events_per_s",
            "event_p50_ms",
            "event_p95_ms",
            "peak_rss_mb",
            "solution_cost",
        ] {
            out.put(name, 1.0);
        }
        let ours = out.driver_metrics().unwrap();
        assert_eq!(
            names("end_to_end"),
            ours.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (entry, (_, _, unit)) in json::get(&spec, "end_to_end")
            .as_seq()
            .unwrap()
            .iter()
            .zip(&ours)
        {
            assert_eq!(json::get(entry, "unit").as_str(), Some(*unit));
        }
    }
}
