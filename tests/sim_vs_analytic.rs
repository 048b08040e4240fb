//! The packet-level simulator must reproduce the analytic evaluator's
//! load model, and the priority-queueing assumption (§3) must hold in
//! the packet world: the high class is isolated from low-class routing
//! *and* low-class volume.
//!
//! These single-instance claims are generalized to every corpus regime
//! by `dtrctl validate` (see `dtr-scenario::validate` and the
//! `validate-smoke` CI job); the tests here remain as the fast, zero-
//! search sanity layer.

use dtr::core::{DualWeights, Objective};
use dtr::graph::gen::{random_topology, RandomTopologyCfg};
use dtr::graph::WeightVector;
use dtr::routing::Evaluator;
use dtr::sim::{FluidSim, SimBackend, SimConfig, Simulation};
use dtr::traffic::{DemandSet, TrafficCfg};

fn instance() -> (dtr::graph::Topology, DemandSet, DualWeights) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 12,
        directed_links: 48,
        seed: 21,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 21,
            ..Default::default()
        },
    )
    .scaled(2.0);
    let mut wl = WeightVector::delay_proportional(&topo, 30);
    // Make the low topology genuinely different.
    wl.set(dtr::graph::LinkId(0), 30);
    wl.set(dtr::graph::LinkId(7), 30);
    let weights = DualWeights {
        high: WeightVector::uniform(&topo, 1),
        low: wl,
    };
    (topo, demands, weights)
}

#[test]
fn simulated_utilization_matches_analytic_loads() {
    let (topo, demands, weights) = instance();
    let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
    let analytic = ev.eval_dual(&weights);
    let report = Simulation::new(
        &topo,
        &demands,
        &weights,
        SimConfig {
            warmup_s: 0.5,
            duration_s: 2.0,
            seed: 21,
            ..Default::default()
        },
    )
    .run();

    for (lid, link) in topo.links() {
        let au =
            (analytic.high_loads[lid.index()] + analytic.low_loads[lid.index()]) / link.capacity;
        let su = report.utilization(lid);
        assert!(
            (au - su).abs() < 0.04,
            "link {lid}: analytic {au:.3} vs simulated {su:.3}"
        );
    }
}

#[test]
fn per_class_throughput_matches_class_loads() {
    let (topo, demands, weights) = instance();
    let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
    let analytic = ev.eval_dual(&weights);
    let report = Simulation::new(
        &topo,
        &demands,
        &weights,
        SimConfig {
            warmup_s: 0.5,
            duration_s: 2.0,
            seed: 22,
            ..Default::default()
        },
    )
    .run();
    for (lid, _) in topo.links() {
        let ah = analytic.high_loads[lid.index()];
        let sh = report.throughput_mbps(lid, 0);
        assert!(
            (ah - sh).abs() < 0.05 * ah.max(20.0),
            "link {lid} high: analytic {ah:.1} vs sim {sh:.1} Mbit/s"
        );
        let al = analytic.low_loads[lid.index()];
        let sl = report.throughput_mbps(lid, 1);
        assert!(
            (al - sl).abs() < 0.05 * al.max(20.0),
            "link {lid} low: analytic {al:.1} vs sim {sl:.1} Mbit/s"
        );
    }
}

#[test]
fn fluid_backend_is_bit_identical_to_analytic_loads() {
    // The structural-agreement contract `dtrctl validate` gates at
    // 1e-9: the fluid backend's loads ARE the evaluator's loads — same
    // DAGs, same pushing primitive, same accumulation order.
    let (topo, demands, weights) = instance();
    let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
    let analytic = ev.eval_dual(&weights);
    let fluid = FluidSim::new().run(&topo, &demands, &weights);
    for (lid, _) in topo.links() {
        assert_eq!(
            analytic.high_loads[lid.index()],
            fluid.class_loads[0][lid.index()],
            "high link {lid}"
        );
        assert_eq!(
            analytic.low_loads[lid.index()],
            fluid.class_loads[1][lid.index()],
            "low link {lid}"
        );
    }
    // And the closed-form delays respect strict priority on every
    // link both classes use.
    for (lid, _) in topo.links() {
        let i = lid.index();
        if fluid.class_loads[0][i] > 0.0 && fluid.class_loads[1][i] > 0.0 {
            assert!(
                fluid.link_wait_s[0][i] <= fluid.link_wait_s[1][i],
                "link {lid}: high waits longer than low"
            );
        }
    }
}

#[test]
fn des_mean_delays_track_fluid_predictions() {
    // The per-class delay envelope, instance-scale: a budgeted DES run
    // must land near the fluid closed-form means. (The corpus-scale
    // version with the documented envelope lives in `dtrctl validate`.)
    let (topo, demands, weights) = instance();
    let fluid = FluidSim::new().run(&topo, &demands, &weights);
    let des = dtr::sim::DesBackend::budgeted(&demands, 150_000, 21).run(&topo, &demands, &weights);
    for (class, matrix) in [&demands.high, &demands.low].into_iter().enumerate() {
        let f = fluid.mean_class_delay(class, matrix).unwrap();
        let d = des.mean_class_delay(class, matrix).unwrap();
        assert!(
            (d - f).abs() / f < 0.25,
            "class {class}: des {d} vs fluid {f}"
        );
    }
}

#[test]
fn priority_isolation_holds_in_packet_world() {
    // Double the low-priority volume; high-class end-to-end delays must
    // barely move (non-preemptive residual only).
    let (topo, demands, weights) = instance();
    let cfg = SimConfig {
        warmup_s: 0.5,
        duration_s: 2.0,
        seed: 23,
        ..Default::default()
    };
    let base = Simulation::new(&topo, &demands, &weights, cfg).run();
    let heavy_demands = DemandSet {
        high: demands.high.clone(),
        low: demands.low.scaled(2.0),
    };
    let heavy = Simulation::new(&topo, &heavy_demands, &weights, cfg).run();

    let mean_high = |r: &dtr::sim::SimReport| {
        let mut sum = 0.0;
        let mut n = 0.0;
        for (k, acc) in &r.pair_delays {
            if k.class == 0 && acc.count > 0 {
                sum += acc.mean();
                n += 1.0;
            }
        }
        sum / n
    };
    let d0 = mean_high(&base);
    let d1 = mean_high(&heavy);
    assert!(
        d1 < 1.35 * d0,
        "high-class delay moved too much: {d0} → {d1}"
    );
}
