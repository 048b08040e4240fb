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

#[test]
fn an_all_zero_extra_class_changes_nothing() {
    // The metamorphic law behind "class count is data": appending a
    // class that offers no traffic (on any weight vector) leaves every
    // layer's view of the classes above it bit-identical.
    use dtr::graph::WeightVector;
    use dtr::sim::{FluidSim, SimConfig, Simulation};
    use dtr::traffic::TrafficMatrix;

    let topo = random_topology(&RandomTopologyCfg {
        nodes: 10,
        directed_links: 40,
        seed: 17,
    });
    let demands = MultiDemand::generate(
        &topo,
        &MultiTrafficCfg {
            fractions: vec![0.3],
            densities: vec![0.3],
            seed: 17,
        },
    )
    .scaled(4.0);
    let zero = TrafficMatrix::zeros(topo.node_count());
    let two: Vec<&TrafficMatrix> = demands.classes.iter().collect();
    let three = [two[0], two[1], &zero];
    let weights = [
        WeightVector::uniform(&topo, 1),
        WeightVector::delay_proportional(&topo, 30),
        WeightVector::uniform(&topo, 3),
    ];

    // The cost kernel, load spec, both backends.
    for kind in [BackendKind::Full, BackendKind::Incremental] {
        let a = KClassBatchEvaluator::new(&topo, two.clone(), &ObjectiveSpec::load(2), kind)
            .unwrap()
            .eval(&weights[..2]);
        let b = KClassBatchEvaluator::new(&topo, three.to_vec(), &ObjectiveSpec::load(3), kind)
            .unwrap()
            .eval(&weights);
        assert_eq!(a.loads[..], b.loads[..2], "{kind:?} loads");
        assert_eq!(a.cost.as_slice(), &b.cost.as_slice()[..2], "{kind:?} cost");
        assert_eq!(b.cost.get(2), 0.0, "{kind:?}: an empty class costs nothing");
    }

    // The fluid backend: loads, closed-form waits, pair delays.
    let a = FluidSim::new().run_classes(&topo, &two, &weights[..2]);
    let b = FluidSim::new().run_classes(&topo, &three, &weights);
    assert_eq!(a.class_loads[..], b.class_loads[..2]);
    assert_eq!(a.link_wait_s[..], b.link_wait_s[..2]);
    assert_eq!(a.pair_delays, b.pair_delays);
    assert_eq!(a.hot_pairs, b.hot_pairs);

    // The packet engine: an empty class creates no flow, so the RNG
    // stream — and with it every measurement — is the same.
    let cfg = SimConfig {
        warmup_s: 0.02,
        duration_s: 0.1,
        seed: 17,
        ..Default::default()
    };
    let a = Simulation::with_classes(&topo, &two, &weights[..2], cfg).run();
    let b = Simulation::with_classes(&topo, &three, &weights, cfg).run();
    assert!(a.generated > 1_000);
    assert_eq!(
        (a.generated, a.delivered, a.inflight_at_end),
        (b.generated, b.delivered, b.inflight_at_end)
    );
    for (la, lb) in a.link_stats.iter().zip(&b.link_stats) {
        assert_eq!(la.per_class[..], lb.per_class[..2]);
        assert_eq!(la.busy_s, lb.busy_s);
        assert_eq!(lb.per_class[2], Default::default());
    }
    assert_eq!(a.pair_delays, b.pair_delays);
}
