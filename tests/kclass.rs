//! Tier-1 coverage of the k ≥ 3 path: `dtr::multi::MultiSearch` on the
//! engine's k-class kernel, under both evaluation backends.

use dtr::core::SearchParams;
use dtr::cost::{ObjectiveSpec, SlaParams};
use dtr::engine::{BackendKind, KClassBatchEvaluator};
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::multi::{MultiDemand, MultiSearch, MultiTrafficCfg};

#[test]
fn three_class_search_is_backend_invariant_and_never_regresses_class_0() {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 10,
        directed_links: 40,
        seed: 13,
    });
    let demands = MultiDemand::generate(
        &topo,
        &MultiTrafficCfg {
            fractions: vec![0.2, 0.15],
            densities: vec![0.3, 0.3],
            seed: 13,
        },
    )
    .scaled(4.0);
    let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
    let search = |backend, seed| {
        let params = SearchParams {
            backend,
            ..SearchParams::tiny().with_seed(seed)
        };
        MultiSearch::with_spec(&topo, &demands, &spec, params).unwrap()
    };

    let full = search(BackendKind::Full, 13).run();
    let incr = search(BackendKind::Incremental, 13).run();
    assert_eq!(full.weights, incr.weights);
    assert_eq!(full.best_cost, incr.best_cost);
    assert_eq!(full.trace.evaluations, incr.trace.evaluations);

    // The reported cost is what a fresh kernel says of the weights.
    for kind in [BackendKind::Full, BackendKind::Incremental] {
        let mut kernel =
            KClassBatchEvaluator::new(&topo, demands.classes.iter().collect(), &spec, kind)
                .unwrap();
        assert_eq!(kernel.eval(&incr.weights).cost, incr.best_cost);
    }

    // A warm start only accepts lexicographic improvements.
    let warm = search(BackendKind::Incremental, 31)
        .with_initial(incr.weights.clone())
        .run();
    assert!(warm.best_cost <= incr.best_cost);
    assert!(warm.best_cost.get(0) <= incr.best_cost.get(0));
}
