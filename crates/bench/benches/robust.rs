//! Failure-sweep benchmark: `Full` vs `Incremental` backends on the
//! robust-search hot path — evaluating **all** survivable single
//! duplex-pair failures of one candidate — plus an end-to-end seeded
//! `RobustSearch` comparison.
//!
//! The full backend pays one masked SPF evaluation per scenario; the
//! incremental backend applies and reverts each scenario's two
//! link-mask deltas against one intact SPF state, so most destinations
//! contribute cached load vectors. Both are asserted bit-identical
//! before timing starts.
//!
//! Emits `BENCH_robust.json` at the repository root. Schema:
//! `{ "benches": [ { id, mean_s } … ],
//!    "sweeps": [ { topology, move_model, scenarios,
//!                  full_s_per_candidate, incremental_s_per_candidate,
//!                  speedup } … ],
//!    "search": { scenario, full_s, incremental_s, speedup,
//!                same_incumbent } }`

use criterion::{criterion_group, criterion_main, Criterion};
use dtr_core::robust::{RobustSearch, ScenarioCombine};
use dtr_core::SearchParams;
use dtr_engine::{make_backend, BackendKind};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::{waxman_topology, LinkId, Topology, WaxmanCfg, WeightVector};
use dtr_routing::{survivable_duplex_failures, FailureScenario};
use dtr_traffic::{DemandSet, TrafficCfg};
use std::time::Instant;

/// The acceptance topologies: the 50- and 100-node generated instances.
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

/// One robust-search-shaped candidate: `step` nudges one link by ±1..=3,
/// `redraw` re-assigns one link a uniform weight in 1..=30 (the robust
/// search draws `redraw`-style moves).
fn candidate(topo: &Topology, base: &WeightVector, model: &str, salt: u64) -> WeightVector {
    let mut lcg: u64 = 0x2545_f491_4f6c_dd1d ^ salt;
    lcg = lcg
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let lid = LinkId(((lcg >> 33) % topo.link_count() as u64) as u32);
    let mut cand = base.clone();
    match model {
        "step" => {
            let step = 1 + ((lcg >> 17) % 3) as i64;
            cand.nudge(lid, step, 1, 30);
            if cand.get(lid) == base.get(lid) {
                cand.nudge(lid, -step, 1, 30);
            }
        }
        _ => {
            let w = 1 + ((lcg >> 17) % 30) as u32;
            cand.set(lid, if w == base.get(lid) { (w % 30) + 1 } else { w });
        }
    }
    cand
}

#[derive(Clone)]
struct Sweep {
    topology: String,
    model: String,
    scenarios: usize,
    full_s: f64,
    incremental_s: f64,
}

fn bench_sweeps(c: &mut Criterion, sweeps: &mut Vec<Sweep>) {
    for (name, topo) in topologies() {
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 7,
                ..Default::default()
            },
        )
        .scaled(3.0);
        let scenarios: Vec<FailureScenario> = survivable_duplex_failures(&topo);
        let base = WeightVector::delay_proportional(&topo, 30);
        for model in ["step", "redraw"] {
            let cand = candidate(&topo, &base, model, 11);

            // Correctness gate before timing: the sweep loads must be
            // byte-identical across backends on the acceptance
            // topologies themselves.
            {
                let mut full =
                    make_backend(BackendKind::Full, &topo, vec![&demands.high], base.clone());
                let mut incr = make_backend(
                    BackendKind::Incremental,
                    &topo,
                    vec![&demands.high],
                    base.clone(),
                );
                let a = full.eval_scenarios(&cand, &scenarios);
                let b = incr.eval_scenarios(&cand, &scenarios);
                assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(&b) {
                    assert_eq!(x.loads, y.loads, "sweep loads diverged on {name}");
                }
            }

            let mut pair = [0.0f64; 2];
            for (slot, kind) in [(0usize, BackendKind::Full), (1, BackendKind::Incremental)] {
                let mut backend = make_backend(kind, &topo, vec![&demands.high], base.clone());
                let label = match kind {
                    BackendKind::Full => "full",
                    BackendKind::Incremental => "incremental",
                };
                let mut g = c.benchmark_group("robust");
                g.sample_size(10);
                g.bench_function(format!("{label}/{model}/{name}"), |b| {
                    b.iter(|| backend.eval_scenarios(&cand, &scenarios))
                });
                g.finish();
                let m = c
                    .measurements
                    .last()
                    .expect("bench_function records a measurement");
                pair[slot] = m.mean_s;
            }
            sweeps.push(Sweep {
                topology: name.to_string(),
                model: model.to_string(),
                scenarios: scenarios.len(),
                full_s: pair[0],
                incremental_s: pair[1],
            });
        }
    }
}

/// End-to-end seeded robust search under both backends: wall-clock and
/// incumbent equality (the sweep's correctness contract lifted to the
/// whole search).
fn search_comparison() -> (f64, f64, bool) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 16,
        directed_links: 64,
        seed: 3,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 3,
            ..Default::default()
        },
    )
    .scaled(3.0);
    let run = |kind: BackendKind| {
        let start = Instant::now();
        let res = RobustSearch::new(
            &topo,
            &demands,
            ScenarioCombine::Blend { beta: 0.5 },
            SearchParams::tiny().with_seed(5).with_backend(kind),
            dtr_core::Scheme::Dtr,
        )
        .run();
        (start.elapsed().as_secs_f64(), res)
    };
    let (full_s, full_res) = run(BackendKind::Full);
    let (incr_s, incr_res) = run(BackendKind::Incremental);
    let same = full_res.cost == incr_res.cost && full_res.weights == incr_res.weights;
    println!(
        "robust_search_16n: full {full_s:.2}s, incremental {incr_s:.2}s ({:.1}x), same incumbent: {same}",
        full_s / incr_s.max(1e-12)
    );
    (full_s, incr_s, same)
}

fn write_json(measurements: &[criterion::Measurement], sweeps: &[Sweep], search: (f64, f64, bool)) {
    let mut out = String::from("{\n  \"benches\": [\n");
    for (i, m) in measurements.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"id\": \"{}\", \"mean_s\": {:?} }}{}\n",
            m.id,
            m.mean_s,
            if i + 1 < measurements.len() { "," } else { "" }
        ));
    }
    out.push_str("  ],\n  \"sweeps\": [\n");
    for (i, s) in sweeps.iter().enumerate() {
        out.push_str(&format!(
            "    {{ \"topology\": \"{}\", \"move_model\": \"{}\", \"scenarios\": {}, \"full_s_per_candidate\": {:?}, \"incremental_s_per_candidate\": {:?}, \"speedup\": {:.2} }}{}\n",
            s.topology,
            s.model,
            s.scenarios,
            s.full_s,
            s.incremental_s,
            s.full_s / s.incremental_s.max(1e-12),
            if i + 1 < sweeps.len() { "," } else { "" }
        ));
    }
    let (full_s, incr_s, same) = search;
    out.push_str(&format!(
        "  ],\n  \"search\": {{ \"scenario\": \"robust_dtr_tiny_16n_seed5\", \"full_s\": {full_s:.3}, \"incremental_s\": {incr_s:.3}, \"speedup\": {:.2}, \"same_incumbent\": {same} }}\n}}\n",
        full_s / incr_s.max(1e-12)
    ));
    // benches/ lives two levels below the repository root.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_robust.json");
    std::fs::write(path, out).expect("write BENCH_robust.json");
    println!("[wrote] BENCH_robust.json");
}

fn bench_robust(c: &mut Criterion) {
    let mut sweeps = Vec::new();
    bench_sweeps(c, &mut sweeps);
    for s in &sweeps {
        println!(
            "sweep speedup {} [{}] ({} scenarios): {:.1}x (full {:.1} ms/cand, incremental {:.1} ms/cand)",
            s.topology,
            s.model,
            s.scenarios,
            s.full_s / s.incremental_s.max(1e-12),
            s.full_s * 1e3,
            s.incremental_s * 1e3
        );
    }
    let search = search_comparison();
    assert!(
        search.2,
        "backends must agree on the seeded robust incumbent"
    );
    write_json(&c.measurements, &sweeps, search);
}

criterion_group!(benches, bench_robust);
criterion_main!(benches);
