//! Cross-crate integration tests for the extension features:
//! tomogravity estimation feeding weight search, change-limited
//! reoptimization deployed onto the MT-OSPF control plane, robust
//! optimization, and the per-flow ECMP simulator mode against the
//! analytic load model.

use dtr::core::reopt::frontier;
use dtr::core::{
    DtrSearch, Objective, RobustEvaluator, RobustSearch, ScenarioCombine, Scheme, SearchParams,
};
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::graph::weights::DualWeights;
use dtr::graph::{LinkId, WeightVector};
use dtr::mtr::{measure_overhead, DeployMode, MtrNetwork, TopologyId};
use dtr::routing::{
    gravity_prior, l1_error, tomogravity, Evaluator, LoadCalculator, RoutingMatrix, TomoCfg,
};
use dtr::sim::{EcmpMode, SimConfig, Simulation};
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
fn estimated_matrices_drive_a_usable_optimization() {
    // Estimate both matrices from link loads, optimize DTR on the
    // estimate, and verify the weights are competitive on the truth.
    let (topo, truth) = instance();
    let measure_w = WeightVector::uniform(&topo, 1);
    let rm = RoutingMatrix::compute(&topo, &measure_w);

    let estimate = |m: &dtr::traffic::TrafficMatrix| {
        let y = LoadCalculator::new().class_loads(&topo, &measure_w, m);
        let out: Vec<f64> = (0..m.len()).map(|s| m.row_total(s)).collect();
        let in_: Vec<f64> = (0..m.len()).map(|t| m.col_total(t)).collect();
        let cfg = TomoCfg {
            max_iters: 1000,
            tol: 1e-6,
        };
        let fit = tomogravity(&gravity_prior(&out, &in_), &rm, &y, &cfg);
        assert!(fit.residual < 2e-2, "link residual {}", fit.residual);
        fit.matrix
    };
    let estimated = DemandSet {
        high: estimate(&truth.high),
        low: estimate(&truth.low),
    };
    // The gravity-model low class is recovered nearly exactly.
    assert!(l1_error(&estimated.low, &truth.low) < 0.05);

    let params = SearchParams::tiny().with_seed(33);
    let on_est = DtrSearch::new(&topo, &estimated, Objective::LoadBased, params).run();
    let on_truth = DtrSearch::new(&topo, &truth, Objective::LoadBased, params).run();
    let mut ev = Evaluator::new(&topo, &truth, Objective::LoadBased);
    let est_on_truth = ev.eval_dual(&on_est.weights);
    // Same ballpark: optimizing on the estimate must not be catastrophic
    // (allow generous slack — tiny budgets are noisy).
    assert!(
        est_on_truth.phi_l < 5.0 * on_truth.eval.phi_l.max(1.0),
        "estimate-driven weights collapsed: {} vs {}",
        est_on_truth.phi_l,
        on_truth.eval.phi_l
    );
}

#[test]
fn reoptimized_weights_deploy_and_forward() {
    // Reopt under a small change budget, then push the result into the
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

    let results = frontier(
        &topo,
        &drifted,
        Objective::LoadBased,
        params,
        Scheme::Dtr,
        &base.weights,
        &[2, 8],
    );
    assert!(results[1].best_cost <= results[0].best_cost);

    let mut net = MtrNetwork::new(&topo, results[1].weights.clone());
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

#[test]
fn overhead_factors_hold_with_optimized_weights() {
    let (topo, demands) = instance();
    let params = SearchParams::tiny().with_seed(9);
    let dtr = DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
    let single = measure_overhead(&topo, &dtr.weights, DeployMode::SingleTopology);
    let dual = measure_overhead(&topo, &dtr.weights, DeployMode::DualTopology);
    assert_eq!(dual.boot_spf_runs, 2 * single.boot_spf_runs);
    assert_eq!(dual.config_lines, 2 * single.config_lines);
    assert_eq!(dual.boot_messages, single.boot_messages);
    assert!(dual.boot_bytes > single.boot_bytes);
}

#[test]
fn per_flow_ecmp_preserves_totals_but_skews_links() {
    // The per-flow hash must deliver the same volume as per-packet
    // splitting while loading individual links differently when ECMP
    // splits exist.
    let (topo, demands) = instance();
    let weights = DualWeights::replicated(WeightVector::uniform(&topo, 1));
    let run = |ecmp| {
        Simulation::new(
            &topo,
            &demands,
            &weights,
            SimConfig {
                warmup_s: 0.2,
                duration_s: 1.0,
                seed: 11,
                ecmp,
                ..Default::default()
            },
        )
        .run()
    };
    let pp = run(EcmpMode::PerPacket);
    let pf = run(EcmpMode::PerFlow);
    let total = |r: &dtr::sim::SimReport| -> f64 {
        topo.links()
            .map(|(lid, _)| r.throughput_mbps(lid, 0) + r.throughput_mbps(lid, 1))
            .sum()
    };
    let (tp, tf) = (total(&pp), total(&pf));
    assert!((tp - tf).abs() < 0.05 * tp, "totals diverged: {tp} vs {tf}");
    // At least one link must differ materially (ECMP splits exist on a
    // 12-node random graph with uniform weights).
    let max_diff = topo
        .links()
        .map(|(lid, _)| {
            let a = pp.throughput_mbps(lid, 1);
            let b = pf.throughput_mbps(lid, 1);
            (a - b).abs()
        })
        .fold(0.0f64, f64::max);
    assert!(
        max_diff > 1.0,
        "per-flow hashing changed nothing: {max_diff}"
    );
    let _ = LinkId(0);
}
