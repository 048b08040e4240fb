//! Cross-crate integration tests for the two extension searches a
//! front end reaches: change-limited reoptimization (`dtrctl reopt`,
//! `dtrd`) deployed onto the MT-OSPF control plane, and failure-aware
//! optimization (`dtrctl robust`).

use dtr::core::{
    DtrSearch, Objective, ReoptSearch, RobustEvaluator, RobustSearch, ScenarioCombine, Scheme,
    SearchParams,
};
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::mtr::{deployment_cost, MtrNetwork, TopologyId};
use dtr::traffic::{DemandSet, TrafficCfg};

fn instance() -> (dtr::graph::Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 12,
        directed_links: 48,
        seed: 33,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 33,
            ..Default::default()
        },
    )
    .scaled(4.0);
    (topo, demands)
}

#[test]
fn reoptimized_weights_deploy_and_forward() {
    // Reopt under a change budget of 8, then push the result into the
    // MT-OSPF control plane and check every pair still forwards on both
    // topologies.
    let (topo, demands) = instance();
    let params = SearchParams::tiny().with_seed(7);
    let base = DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
    let drifted = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 34,
            ..Default::default()
        },
    )
    .scaled(4.0);

    let res = ReoptSearch::new(
        &topo,
        &drifted,
        Objective::LoadBased,
        params,
        Scheme::Dtr,
        base.weights.clone(),
        8,
    )
    .run();
    assert!(res.best_cost <= res.start_eval.cost);
    assert!(res.changes_used <= 8);
    // The control plane counts the same changed metrics the search did.
    let churn = deployment_cost(&topo, &base.weights, &res.weights);
    assert_eq!(churn.changed_metrics, res.changes_used);

    let mut net = MtrNetwork::new(&topo, res.weights.clone());
    net.converge();
    assert!(net.databases_synchronized());
    for s in topo.nodes() {
        for d in topo.nodes() {
            if s == d {
                continue;
            }
            for t in [TopologyId::DEFAULT, TopologyId::LOW] {
                let path = net.forward_path(t, s, d).expect("forwardable");
                assert_eq!(topo.link(*path.last().unwrap()).dst, d);
            }
        }
    }
}

#[test]
fn robust_optimization_does_not_sacrifice_validity() {
    let (topo, demands) = instance();
    let params = SearchParams::tiny().with_seed(5);
    let nominal = DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
    let combine = ScenarioCombine::Blend { beta: 0.5 };
    let res = RobustSearch::new(&topo, &demands, combine, params, Scheme::Dtr)
        .with_initial(nominal.weights.clone())
        .run();
    // The robust combined cost can only improve on the incumbent's.
    let mut ev = RobustEvaluator::new(&topo, &demands, combine);
    let incumbent_cost = ev.eval(&nominal.weights);
    assert!(res.cost.combined <= incumbent_cost.combined);
    // Weight bounds respected.
    for (lid, _) in topo.links() {
        for v in [res.weights.high.get(lid), res.weights.low.get(lid)] {
            assert!((1..=30).contains(&v));
        }
    }
}
