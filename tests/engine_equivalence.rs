//! Tier-1 guard of the incremental engine: a seeded search must follow
//! the same trajectory under either evaluation backend, and what it
//! reports must be what the plain evaluator says of the incumbent.

use dtr::core::{run_strategy, Objective, Scheme, SearchParams, SearchResult, StrategyKind};
use dtr::engine::{BackendKind, BatchEvaluator};
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::graph::{LinkId, Topology};
use dtr::routing::Evaluator;
use dtr::traffic::{DemandSet, TrafficCfg};

fn instance() -> (Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 20,
        directed_links: 80,
        seed: 17,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 17,
            ..Default::default()
        },
    )
    .scaled(3.0);
    (topo, demands)
}

fn params(backend: BackendKind) -> SearchParams {
    SearchParams {
        backend,
        ..SearchParams::tiny().with_seed(17)
    }
}

/// Runs one strategy-table row under both backends: same trajectory,
/// and the reported incumbent is what the plain evaluator says of it.
fn backend_invariant(strategy: StrategyKind, scheme: Scheme) -> SearchResult {
    let (topo, demands) = instance();
    let run = |kind| {
        run_strategy(
            (strategy, scheme),
            &topo,
            &demands,
            Objective::LoadBased,
            params(kind),
            None,
            None,
        )
    };
    let full = run(BackendKind::Full);
    let incr = run(BackendKind::Incremental);
    assert_eq!(full.weights, incr.weights, "{strategy:?}");
    assert_eq!(full.best_cost, incr.best_cost, "{strategy:?}");
    assert_eq!(full.trace, incr.trace, "{strategy:?}");

    // `best_cost` was assembled from engine evaluations along the walk.
    let reference = Evaluator::new(&topo, &demands, Objective::LoadBased).eval_dual(&incr.weights);
    assert_eq!(incr.eval.high_loads, reference.high_loads, "{strategy:?}");
    assert_eq!(incr.eval.low_loads, reference.low_loads, "{strategy:?}");
    assert_eq!(incr.best_cost, reference.cost, "{strategy:?}");
    incr
}

#[test]
fn str_search_is_backend_invariant_and_matches_the_evaluator() {
    let descent = backend_invariant(StrategyKind::Descent, Scheme::Str);
    assert!(descent.trace.moves_accepted > 0, "the walk must rebase");
    let anneal = backend_invariant(StrategyKind::Anneal, Scheme::Str);
    assert!(anneal.trace.moves_accepted > 0, "the walk must rebase");
}

#[test]
fn dtr_search_is_backend_invariant_and_matches_the_evaluator() {
    let anneal = backend_invariant(StrategyKind::Anneal, Scheme::Dtr);
    assert!(anneal.trace.moves_accepted > 0, "the walk must rebase");
    let incr = backend_invariant(StrategyKind::Descent, Scheme::Dtr);
    assert!(incr.trace.moves_accepted > 0, "the walk must rebase");
    let (topo, demands) = instance();
    let reference = Evaluator::new(&topo, &demands, Objective::LoadBased).eval_dual(&incr.weights);

    // The incumbent as a two-link neighbor of the engine's base: the
    // repaired loads are the evaluator's, bit for bit.
    let mut near = incr.weights.clone();
    for l in [LinkId(3), LinkId(41)] {
        near.high.set(l, incr.weights.high.get(l) % 30 + 1);
        near.low.set(l, incr.weights.low.get(l) % 30 + 1);
    }
    let mut engine = BatchEvaluator::new(
        &topo,
        &demands,
        Objective::LoadBased,
        BackendKind::Incremental,
    );
    engine.rebase_high(&near.high);
    engine.rebase_low(&near.low);
    assert_eq!(
        engine.eval_high(&incr.weights.high).loads,
        reference.high_loads
    );
    assert_eq!(engine.eval_low(&incr.weights.low), reference.low_loads);
    let work = engine.work_stats();
    assert_eq!(work.full_fallbacks, 0);
    assert!(work.rebranched + work.repaired > 0, "{work:?}");
}
