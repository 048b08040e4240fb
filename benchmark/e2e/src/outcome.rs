//! The metric catalogue and what one run of one workload produced.

use crate::json::{f, obj, s, u};
use serde::Value;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Better {
    Lower,
    Higher,
}

/// How far a metric may worsen before `compare` calls it a regression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// A share of the base median.
    Relative(f64),
    /// An absolute amount, for ratios that are 0 on a healthy system.
    Absolute(f64),
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Bound,
}

const fn spec(name: &'static str, unit: &'static str, better: Better, bound: Bound) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

use Better::{Higher, Lower};
use Bound::{Absolute, Relative};

/// The fifteen end-to-end metrics. A workload reports the ones its
/// front end has; `benchmark/README.md` says which and why.
pub const CATALOGUE: [Spec; 15] = [
    spec("setup_s", "s", Lower, Relative(0.25)),
    spec("wall_s", "s", Lower, Relative(0.10)),
    spec("suite_s", "s", Lower, Relative(0.10)),
    spec("validate_s", "s", Lower, Relative(0.10)),
    spec("upgrade_s", "s", Lower, Relative(0.10)),
    spec("evals_per_s", "1/s", Higher, Relative(0.10)),
    spec("events_per_s", "1/s", Higher, Relative(0.10)),
    spec("event_p50_ms", "ms", Lower, Relative(0.10)),
    spec("event_p95_ms", "ms", Lower, Relative(0.10)),
    spec("probe_p50_ms", "ms", Lower, Relative(0.10)),
    spec("probe_p95_ms", "ms", Lower, Relative(0.10)),
    spec("slo_miss_ratio", "ratio", Lower, Absolute(0.02)),
    spec("fail_ratio", "ratio", Lower, Absolute(0.0)),
    spec("peak_rss_mb", "MB", Lower, Relative(0.10)),
    spec("solution_cost", "phi/Mbps", Lower, Relative(0.001)),
];

pub fn spec_of(name: &str) -> Option<&'static Spec> {
    CATALOGUE.iter().find(|s| s.name == name)
}

/// A finished run and the directory its inputs and artifacts are in
/// (what trace mode hands to the in-process replay).
pub struct Run {
    pub dir: std::path::PathBuf,
    pub outcome: Outcome,
}

/// One run of one workload.
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub fingerprint: String,
    pub attempted: u64,
    pub failed: u64,
    /// What failed, first few only.
    pub failures: Vec<String>,
    /// The load generator ran late: probe latencies are not to be trusted.
    pub void: bool,
    /// Catalogue metrics, by name.
    pub metrics: Vec<(&'static str, f64)>,
    /// Counts and flags that are printed but never compared.
    pub notes: Vec<(String, Value)>,
}

impl Outcome {
    pub fn new(workload: &str, seed: u64) -> Outcome {
        Outcome {
            workload: workload.to_string(),
            seed,
            fingerprint: String::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            void: false,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Counts one attempted operation; `Err` counts it as failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    pub fn put(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec_of(name).is_some(), "{name} is not in the catalogue");
        self.metrics.push((name, value));
    }

    pub fn note(&mut self, key: &str, value: Value) {
        self.notes.push((key.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }

    /// Fills in `fail_ratio` once every operation was counted.
    pub fn seal(&mut self) {
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        self.put("fail_ratio", ratio);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Every metric by name with its unit, then the notes.
    pub fn print(&self) {
        println!(
            "workload {}  seed {}  workload_fingerprint {}",
            self.workload, self.seed, self.fingerprint
        );
        for (name, value) in &self.metrics {
            let unit = spec_of(name).map_or("", |s| s.unit);
            println!("  {name:<16} {value:>14.4} {unit}");
        }
        for (key, value) in &self.notes {
            println!("  # {key}: {}", crate::json::line(value));
        }
        for why in &self.failures {
            println!("  ! failed: {why}");
        }
        if self.void {
            println!("  ! void: the probe generator ran late (lateness p95 > 5 ms)");
        }
    }

    pub fn to_json(&self) -> Value {
        obj([
            ("workload", s(&self.workload)),
            ("seed", u(self.seed)),
            ("workload_fingerprint", s(&self.fingerprint)),
            ("attempted", u(self.attempted)),
            ("failed", u(self.failed)),
            ("void", Value::Bool(self.void)),
            (
                "metrics",
                Value::Map(
                    self.metrics
                        .iter()
                        .map(|&(n, v)| (n.to_string(), f(v)))
                        .collect(),
                ),
            ),
            ("notes", Value::Map(self.notes.clone())),
        ])
    }

    /// The seven metrics `BENCHMARK.json` lists: the ones every workload
    /// has, under names that do not depend on the front end.
    /// `throughput` is candidate evaluations per second where `dtrctl`
    /// searches and answered writer lines per second where `dtrd`
    /// serves; the latencies are per command and per writer line.
    pub fn driver_metrics(&self) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
        let pick = |names: &[&str]| {
            names
                .iter()
                .find_map(|n| self.get(n))
                .ok_or_else(|| format!("{}: none of {names:?} was measured", self.workload))
        };
        // Where dtrctl is the front end a request is a command: the
        // suite command every corpus workload runs and the slowest
        // command stand in for p50 and p95.
        let (p50, p95) = match (self.get("event_p50_ms"), self.get("event_p95_ms")) {
            (Some(p50), Some(p95)) => (p50, p95),
            _ => {
                let commands = ["suite_s", "validate_s", "upgrade_s"]
                    .iter()
                    .filter_map(|n| self.get(n));
                (
                    pick(&["suite_s"])? * 1e3,
                    commands.fold(0.0, f64::max) * 1e3,
                )
            }
        };
        Ok(vec![
            ("setup_s", pick(&["setup_s"])?, "s"),
            ("wall_s", pick(&["wall_s"])?, "s"),
            ("throughput", pick(&["evals_per_s", "events_per_s"])?, "1/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p95_ms", p95, "ms"),
            ("peak_rss_mb", pick(&["peak_rss_mb"])?, "MB"),
            ("solution_cost", pick(&["solution_cost"])?, "phi/Mbps"),
        ])
    }
}
