//! Ablation: search strategy — the paper's iterated local search versus
//! the other classic heuristic families for OSPF weight setting, all at
//! an identical evaluation budget:
//!
//! - single-weight-change local search (the STR baseline, Fortz–Thorup [2]),
//! - genetic algorithm (Ericsson et al. [3]),
//! - memetic algorithm (Buriol et al. [4]: GA + offspring hill-climb),
//! - simulated annealing (STR mode).
//!
//! The printed objective values compare solution quality; the timed runs
//! compare wall cost per evaluation. All four cost candidates on the
//! engine, so what differs is how far a candidate is from the last one:
//! the local search, the annealing walk and the memetic hill-climb move
//! one weight (an incremental repair), a GA individual is a fresh vector
//! (a full evaluation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtr_core::{run_strategy, Objective, Scheme, SearchParams, StrategyKind};
use dtr_experiments::paper_random;
use dtr_traffic::{DemandSet, TrafficCfg};
use std::hint::black_box;

/// `(bench id, printed label, strategy)`, all on one shared vector.
const ARMS: [(&str, &str, StrategyKind); 4] = [
    ("local_search", "local search", StrategyKind::Descent),
    ("genetic", "genetic alg ", StrategyKind::Ga),
    ("memetic", "memetic alg ", StrategyKind::Memetic),
    ("annealing", "annealing   ", StrategyKind::Anneal),
];

fn bench_strategy(c: &mut Criterion) {
    let topo = paper_random(1);
    let demands = DemandSet::generate(&topo, &TrafficCfg::default()).scaled(6.0);
    let params = SearchParams::tiny();
    let run = |strategy, params| {
        run_strategy(
            (strategy, Scheme::Str),
            &topo,
            &demands,
            Objective::LoadBased,
            params,
            None,
            None,
        )
    };

    for (_, label, strategy) in ARMS {
        let r = run(strategy, params);
        let t = &r.trace;
        println!(
            "[ablation_search_strategy] {label}: ⟨{:.1}, {:.1}⟩ in {} evals \
             ({} generations, {} local improvements, {} uphill moves)",
            r.best_cost.primary,
            r.best_cost.secondary,
            t.evaluations,
            t.generations,
            t.local_improvements,
            t.uphill_accepted
        );
    }

    let mut g = c.benchmark_group("ablation_search_strategy");
    g.sample_size(10);
    for (id, _, strategy) in ARMS {
        g.bench_with_input(BenchmarkId::from_parameter(id), &params, |b, p| {
            b.iter(|| black_box(run(strategy, *p)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_strategy);
criterion_main!(benches);
