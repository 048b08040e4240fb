//! Portfolio-orchestrator benchmark: wall-clock speedup of `--workers N`
//! over serial execution, plus incumbent-quality-vs-restarts curves.
//!
//! Two claims are measured on the 50- and 100-node acceptance
//! instances:
//!
//! 1. **Worker-count invariance** (asserted, not just recorded): the
//!    portfolio's reduced incumbent is byte-identical between
//!    `workers = 1` and `workers = 4` for the same seed — parallelism
//!    is an execution knob only.
//! 2. **Wall-clock speedup**: with ≥ 2 cores the 4-worker run must beat
//!    the serial run on both instances. On a single hardware thread
//!    there is nothing to win, so there the speedup is recorded with
//!    `"parallel_speedup_expected": false` instead of asserted.
//!
//! The quality section runs a 4-wave portfolio under each routing
//! scheme and records the deterministic incumbent cost after every wave
//! barrier — the diminishing-returns curve an operator uses to pick a
//! restart budget — together with the strategy arm whose task supplied
//! that incumbent (the per-arm contribution ROADMAP item 3 wants
//! measured before any arm is kept or deleted). Both schemes, because
//! the answer can differ: the STR incumbent is the denominator of the
//! paper's `R_H`, `R_L`.
//!
//! Emits `BENCH_portfolio.json` at the repository root. Schema:
//! `{ "cores": N,
//!    "speedup": [ { topology, arms, serial_s, parallel_s, workers,
//!                   speedup, same_incumbent,
//!                   parallel_speedup_expected } … ],
//!    "quality": [ { topology, scheme, arms_per_wave, restarts,
//!                   wave_costs: [[primary, secondary] …],
//!                   wave_arms: [strategy name …] } … ] }`

use criterion::{criterion_group, criterion_main, Criterion};
use dtr_core::{
    Objective, PortfolioMode, PortfolioParams, PortfolioResult, PortfolioSearch, Scheme,
    SearchParams, StrategyKind,
};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::{waxman_topology, Topology, WaxmanCfg};
use dtr_traffic::{DemandSet, TrafficCfg};
use std::time::Instant;

/// The acceptance topologies: the 50- and 100-node generated instances
/// (same seeds as the engine and robust benches).
fn topologies() -> Vec<(&'static str, Topology)> {
    vec![
        (
            "random_50n_200l",
            random_topology(&RandomTopologyCfg {
                nodes: 50,
                directed_links: 200,
                seed: 7,
            }),
        ),
        (
            "waxman_100n_400l",
            waxman_topology(&WaxmanCfg {
                nodes: 100,
                directed_links: 400,
                beta: 0.6,
                seed: 7,
            }),
        ),
    ]
}

fn run_portfolio(
    topo: &Topology,
    demands: &DemandSet,
    scheme: Scheme,
    strategies: &[StrategyKind],
    workers: usize,
    restarts: usize,
) -> (PortfolioResult, f64) {
    let search = PortfolioSearch::new(
        topo,
        demands,
        Objective::LoadBased,
        SearchParams::tiny().with_seed(7),
        PortfolioMode::Nominal(scheme),
        PortfolioParams {
            strategies: strategies.to_vec(),
            restarts,
            workers,
            prune_margin: f64::INFINITY,
        },
    );
    let start = Instant::now();
    let res = search.run();
    (res, start.elapsed().as_secs_f64())
}

struct SpeedupRow {
    topology: String,
    arms: usize,
    workers: usize,
    serial_s: f64,
    parallel_s: f64,
    same_incumbent: bool,
    expected: bool,
}

struct QualityRow {
    topology: String,
    scheme: Scheme,
    arms_per_wave: usize,
    restarts: usize,
    wave_costs: Vec<(f64, f64)>,
    wave_arms: Vec<&'static str>,
}

/// The strategy of the task holding the incumbent after each wave: the
/// portfolio's own reduction (lowest cost, then lexicographically
/// smallest weights, then lowest task index) replayed over
/// [`PortfolioResult::tasks`].
fn incumbent_arms(res: &PortfolioResult) -> Vec<&'static str> {
    let key = |t: &dtr_core::TaskOutcome| {
        (
            t.cost,
            t.weights.high.as_slice().to_vec(),
            t.weights.low.as_slice().to_vec(),
        )
    };
    (0..res.wave_bests.len())
        .map(|wave| {
            let best = res
                .tasks
                .iter()
                .filter(|t| t.wave <= wave)
                .min_by_key(|t| key(t))
                .expect("every wave runs a task");
            assert_eq!(best.cost, res.wave_bests[wave]);
            best.strategy.name()
        })
        .collect()
}

fn bench_portfolio(_c: &mut Criterion) {
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workers = 4usize;
    let mut speedups: Vec<SpeedupRow> = Vec::new();
    let mut quality: Vec<QualityRow> = Vec::new();

    for (name, topo) in topologies() {
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 7,
                ..Default::default()
            },
        )
        .scaled(3.0);

        // Every strategy twice: one long arm bounds a wave's speedup
        // whatever the pool does, and two of each lets two cores split
        // the wave evenly (one descent and one annealing task each)
        // however the two arms' costs compare.
        let arms = [StrategyKind::ALL, StrategyKind::ALL].concat();
        let (serial, serial_s) = run_portfolio(&topo, &demands, Scheme::Dtr, &arms, 1, 1);
        let (parallel, parallel_s) = run_portfolio(&topo, &demands, Scheme::Dtr, &arms, workers, 1);
        let same = serial.fingerprint() == parallel.fingerprint();
        assert!(same, "worker count changed the incumbent on {name}");
        // With real parallelism available the 4-worker run must win
        // clearly — these 4 tasks on 2 cores gave 1.73–2.20× over five
        // recordings on a shared 2-core VM, so a 1.25× floor separates
        // "parallelism broke" from timing noise. A single hardware
        // thread has nothing to parallelize onto.
        let expected = cores >= 2;
        if expected {
            assert!(
                parallel_s < 0.8 * serial_s,
                "no portfolio speedup on {name}: serial {serial_s:.2}s vs parallel {parallel_s:.2}s on {cores} cores"
            );
        }
        println!(
            "portfolio {name}: serial {serial_s:.2}s, {workers} workers {parallel_s:.2}s \
             ({:.2}x, {cores} cores), same incumbent: {same}",
            serial_s / parallel_s.max(1e-12)
        );
        speedups.push(SpeedupRow {
            topology: name.to_string(),
            arms: serial.tasks.len(),
            workers,
            serial_s,
            parallel_s,
            same_incumbent: same,
            expected,
        });

        let restarts = 4;
        for scheme in [Scheme::Dtr, Scheme::Str] {
            let (multi, _) = run_portfolio(
                &topo,
                &demands,
                scheme,
                &StrategyKind::ALL,
                workers,
                restarts,
            );
            let wave_arms = incumbent_arms(&multi);
            println!(
                "portfolio {name} ({}): quality over {restarts} waves: {}",
                scheme.name(),
                multi
                    .wave_bests
                    .iter()
                    .zip(&wave_arms)
                    .map(|(c, arm)| format!("{c} ({arm})"))
                    .collect::<Vec<_>>()
                    .join(" → ")
            );
            quality.push(QualityRow {
                topology: name.to_string(),
                scheme,
                arms_per_wave: StrategyKind::ALL.len(),
                restarts,
                wave_costs: multi
                    .wave_bests
                    .iter()
                    .map(|c| (c.primary, c.secondary))
                    .collect(),
                wave_arms,
            });
        }
    }

    write_json(cores, &speedups, &quality);
}

fn write_json(cores: usize, speedups: &[SpeedupRow], quality: &[QualityRow]) {
    let mut out = format!("{{\n  \"cores\": {cores},\n  \"speedup\": [\n");
    for (i, s) in speedups.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"arms\": {}, \"workers\": {}, \"serial_s\": {:.3}, \"parallel_s\": {:.3}, \"speedup\": {:.2}, \"same_incumbent\": {}, \"parallel_speedup_expected\": {} }}{}\n",
            s.topology,
            s.arms,
            s.workers,
            s.serial_s,
            s.parallel_s,
            s.serial_s / s.parallel_s.max(1e-12),
            s.same_incumbent,
            s.expected,
            if i + 1 < speedups.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"quality\": [\n");
    for (i, q) in quality.iter().enumerate() {
        let costs: Vec<String> = q
            .wave_costs
            .iter()
            .map(|(p, s)| format!("[{p:?}, {s:?}]"))
            .collect();
        out.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"scheme\": \"{}\", \"arms_per_wave\": {}, \"restarts\": {}, \"wave_costs\": [{}], \"wave_arms\": {:?} }}{}\n",
            q.topology,
            q.scheme.name(),
            q.arms_per_wave,
            q.restarts,
            costs.join(", "),
            q.wave_arms,
            if i + 1 < quality.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    // benches/ lives two levels below the repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_portfolio.json");
    std::fs::write(path, out).expect("write BENCH_portfolio.json");
    println!("[wrote] BENCH_portfolio.json");
}

criterion_group!(benches, bench_portfolio);
criterion_main!(benches);
