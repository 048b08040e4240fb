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
//! compare wall cost per evaluation (population/temperature bookkeeping
//! is cheap next to routing evaluations, so times should be close).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtr_core::{AnnealSearch, GaSearch, MemeticSearch, Objective, Scheme, SearchParams, StrSearch};
use dtr_experiments::paper_random;
use dtr_traffic::{DemandSet, TrafficCfg};
use std::hint::black_box;

fn bench_strategy(c: &mut Criterion) {
    let topo = paper_random(1);
    let demands = DemandSet::generate(&topo, &TrafficCfg::default()).scaled(6.0);
    let params = SearchParams::tiny();

    let ls = StrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
    let ga = GaSearch::new(&topo, &demands, Objective::LoadBased, params).run();
    let mem = MemeticSearch::new(&topo, &demands, Objective::LoadBased, params).run();
    let sa = AnnealSearch::new(&topo, &demands, Objective::LoadBased, params, Scheme::Str).run();
    println!(
        "[ablation_search_strategy] local search: ⟨{:.1}, {:.1}⟩ in {} evals",
        ls.best_cost.primary, ls.best_cost.secondary, ls.trace.evaluations
    );
    println!(
        "[ablation_search_strategy] genetic alg : ⟨{:.1}, {:.1}⟩ in {} evals ({} generations)",
        ga.best_cost.primary, ga.best_cost.secondary, ga.trace.evaluations, ga.generations
    );
    println!(
        "[ablation_search_strategy] memetic alg : ⟨{:.1}, {:.1}⟩ in {} evals ({} generations, {} local improvements)",
        mem.best_cost.primary,
        mem.best_cost.secondary,
        mem.trace.evaluations,
        mem.generations,
        mem.local_improvements
    );
    println!(
        "[ablation_search_strategy] annealing   : ⟨{:.1}, {:.1}⟩ in {} evals ({} uphill moves)",
        sa.best_cost.primary, sa.best_cost.secondary, sa.trace.evaluations, sa.uphill_accepted
    );

    let mut g = c.benchmark_group("ablation_search_strategy");
    g.sample_size(10);
    g.bench_with_input(
        BenchmarkId::from_parameter("local_search"),
        &params,
        |b, p| {
            b.iter(|| black_box(StrSearch::new(&topo, &demands, Objective::LoadBased, *p).run()))
        },
    );
    g.bench_with_input(BenchmarkId::from_parameter("genetic"), &params, |b, p| {
        b.iter(|| black_box(GaSearch::new(&topo, &demands, Objective::LoadBased, *p).run()))
    });
    g.bench_with_input(BenchmarkId::from_parameter("memetic"), &params, |b, p| {
        b.iter(|| black_box(MemeticSearch::new(&topo, &demands, Objective::LoadBased, *p).run()))
    });
    g.bench_with_input(BenchmarkId::from_parameter("annealing"), &params, |b, p| {
        b.iter(|| {
            black_box(
                AnnealSearch::new(&topo, &demands, Objective::LoadBased, *p, Scheme::Str).run(),
            )
        })
    });
    g.finish();
}

criterion_group!(benches, bench_strategy);
criterion_main!(benches);
