//! Perf-regression gate over the regenerated `BENCH_*.json` artifacts.
//!
//! CI regenerates the bench artifacts on every run; this binary compares
//! them against the checked-in `bench_baselines.json` and exits non-zero
//! on regression instead of merely checking that files exist. Three
//! classes of check:
//!
//! - **timings** — per-candidate mean seconds per bench id, gated at
//!   `baseline_mean_s × max_slowdown`. Slowdown bounds are deliberately
//!   loose (CI runners differ from the machine that recorded the
//!   baseline); they catch order-of-magnitude regressions, not noise.
//! - **speedup floors** — the incremental-vs-full speedup ratios are
//!   *relative* on the same machine, so they transfer across hardware
//!   of the same core count (the full backend fans out with rayon).
//!   Most floors sit at roughly half the recorded values; the engine's
//!   50- and 100-node and search floors sit between what the engine
//!   measured before and after its repairs were made O(touched), so
//!   giving that back fails here even though the ×4 timing bound
//!   would not notice.
//! - **correctness flags** — every `same_incumbent` recorded by a bench
//!   must be `true`: a speedup that changes results is a bug, not a win.
//!
//! Usage: `cargo run --release -p dtr-bench --bin bench_gate`
//! (expects the `BENCH_*.json` files and `bench_baselines.json` in the
//! current directory, i.e. the repository root).

use serde::Deserialize;

/// One `{ id, mean_s }` row of a bench file's `benches` array.
#[derive(Debug, Deserialize)]
struct BenchEntry {
    id: String,
    mean_s: f64,
}

/// One speedup row (`speedups` in the engine file, `sweeps` in the
/// robust file, `speedup` in the portfolio file).
#[derive(Debug, Deserialize)]
struct SpeedupEntry {
    topology: Option<String>,
    move_model: Option<String>,
    speedup: f64,
    same_incumbent: Option<bool>,
}

/// The end-to-end `search` comparison of the engine/robust files.
#[derive(Debug, Deserialize)]
struct SearchEntry {
    speedup: f64,
    same_incumbent: Option<bool>,
}

/// The union shape of every `BENCH_*.json` the workspace emits; absent
/// sections deserialize to `None`.
#[derive(Debug, Deserialize)]
struct BenchFile {
    benches: Option<Vec<BenchEntry>>,
    speedups: Option<Vec<SpeedupEntry>>,
    sweeps: Option<Vec<SpeedupEntry>>,
    speedup: Option<Vec<SpeedupEntry>>,
    search: Option<SearchEntry>,
}

impl BenchFile {
    fn speedup_rows(&self) -> impl Iterator<Item = &SpeedupEntry> {
        self.speedups
            .iter()
            .chain(self.sweeps.iter())
            .chain(self.speedup.iter())
            .flatten()
    }
}

/// A gated timing: observed `id` in `file` must stay within
/// `baseline_mean_s × max_slowdown`.
#[derive(Debug, Deserialize)]
struct TimingBaseline {
    file: String,
    id: String,
    baseline_mean_s: f64,
    max_slowdown: Option<f64>,
}

/// A gated speedup ratio: `topology/move_model` (or `search`) in `file`
/// must stay at or above `min_speedup`.
#[derive(Debug, Deserialize)]
struct SpeedupFloor {
    file: String,
    id: String,
    min_speedup: f64,
}

/// The checked-in `bench_baselines.json`.
#[derive(Debug, Deserialize)]
struct Baselines {
    default_max_slowdown: f64,
    timings: Vec<TimingBaseline>,
    speedup_floors: Vec<SpeedupFloor>,
    /// Artifacts with no timing/speedup baselines whose
    /// `same_incumbent` flags must still be checked (e.g. the portfolio
    /// bench, whose parallel speedup is hardware-dependent).
    correctness_files: Option<Vec<String>>,
}

fn load_bench_file(path: &str) -> BenchFile {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("{path}: {e} (run the benches first)"));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("{path}: unparseable: {e}"))
}

fn speedup_id(e: &SpeedupEntry) -> String {
    match (&e.topology, &e.move_model) {
        (Some(t), Some(m)) => format!("{t}/{m}"),
        (Some(t), None) => t.clone(),
        _ => "unnamed".to_string(),
    }
}

fn main() {
    let baselines: Baselines = serde_json::from_str(
        &std::fs::read_to_string("bench_baselines.json")
            .expect("bench_baselines.json must be checked in at the repository root"),
    )
    .expect("bench_baselines.json unparseable");
    assert!(
        baselines.default_max_slowdown > 1.0,
        "default_max_slowdown must exceed 1"
    );

    let mut files: std::collections::BTreeMap<String, BenchFile> = Default::default();
    for name in baselines
        .timings
        .iter()
        .map(|t| &t.file)
        .chain(baselines.speedup_floors.iter().map(|f| &f.file))
        .chain(baselines.correctness_files.iter().flatten())
    {
        files
            .entry(name.clone())
            .or_insert_with(|| load_bench_file(name));
    }

    let mut failures: Vec<String> = Vec::new();
    let mut checked = 0usize;

    for t in &baselines.timings {
        let file = &files[&t.file];
        let Some(entry) = file.benches.iter().flatten().find(|b| b.id == t.id) else {
            failures.push(format!(
                "{}: bench id {:?} missing from artifact",
                t.file, t.id
            ));
            continue;
        };
        let bound = t.baseline_mean_s * t.max_slowdown.unwrap_or(baselines.default_max_slowdown);
        let verdict = if entry.mean_s > bound {
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "timing  {:<48} {:>12.6}s (baseline {:>12.6}s, bound {:>12.6}s) {verdict}",
            t.id, entry.mean_s, t.baseline_mean_s, bound
        );
        if entry.mean_s > bound {
            failures.push(format!(
                "{}: {} took {:.6}s > bound {:.6}s ({}× baseline)",
                t.file,
                t.id,
                entry.mean_s,
                bound,
                entry.mean_s / t.baseline_mean_s
            ));
        }
        checked += 1;
    }

    for f in &baselines.speedup_floors {
        let file = &files[&f.file];
        let found = if f.id == "search" {
            file.search.as_ref().map(|s| s.speedup)
        } else {
            file.speedup_rows()
                .find(|e| speedup_id(e) == f.id)
                .map(|e| e.speedup)
        };
        let Some(speedup) = found else {
            failures.push(format!(
                "{}: speedup id {:?} missing from artifact",
                f.file, f.id
            ));
            continue;
        };
        let verdict = if speedup < f.min_speedup {
            "REGRESSION"
        } else {
            "ok"
        };
        println!(
            "speedup {:<48} {speedup:>6.2}× (floor {:>5.2}×) {verdict}",
            format!("{}:{}", f.file, f.id),
            f.min_speedup
        );
        if speedup < f.min_speedup {
            failures.push(format!(
                "{}: speedup {} fell to {speedup:.2}× (floor {:.2}×)",
                f.file, f.id, f.min_speedup
            ));
        }
        checked += 1;
    }

    // Correctness flags: any recorded same_incumbent must be true.
    for (name, file) in &files {
        for row in file.speedup_rows() {
            if row.same_incumbent == Some(false) {
                failures.push(format!(
                    "{name}: {} changed the incumbent — speedup is incorrect",
                    speedup_id(row)
                ));
            }
        }
        if let Some(s) = &file.search {
            if s.same_incumbent == Some(false) {
                failures.push(format!("{name}: search comparison changed the incumbent"));
            }
        }
    }

    if failures.is_empty() {
        println!("bench gate: {checked} checks passed");
    } else {
        for f in &failures {
            eprintln!("::error::bench gate: {f}");
        }
        eprintln!("bench gate: {} of {checked} checks FAILED", failures.len());
        std::process::exit(1);
    }
}
