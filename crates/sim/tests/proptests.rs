//! Property tests for the discrete-event simulator: conservation laws
//! and agreement with the analytic model across random instances.

use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::WeightVector;
use dtr_sim::{DesBackend, FluidSim, SimBackend, SimConfig, SimReport, Simulation};
use dtr_traffic::{
    family_demands, DemandSet, FamilyTrafficCfg, HighPriModel, TrafficCfg, TrafficFamily,
    TrafficMatrix,
};
use proptest::prelude::*;

/// Mean measured high-class end-to-end delay over all measured pairs.
fn mean_high_delay(r: &SimReport) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for (k, acc) in &r.pair_delays {
        if k.class == 0 && acc.count > 0 {
            sum += acc.sum;
            n += acc.count;
        }
    }
    assert!(n > 0, "no high-class packet measured");
    sum / n as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn packet_conservation_holds(seed in 0u64..200, scale in 0.5f64..3.0) {
        let topo = random_topology(&RandomTopologyCfg { nodes: 8, directed_links: 32, seed: 5 });
        let demands = DemandSet::generate(&topo, &TrafficCfg { seed, ..Default::default() })
            .scaled(scale);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let cfg = SimConfig { warmup_s: 0.0, duration_s: 0.2, seed, ..Default::default() };
        let r = Simulation::new(&topo, &demands, &w, cfg).run();
        prop_assert_eq!(r.generated, r.delivered + r.inflight_at_end);
        prop_assert!(r.generated > 0);
    }

    #[test]
    fn utilization_within_unit_interval_per_link(seed in 0u64..100) {
        let topo = random_topology(&RandomTopologyCfg { nodes: 8, directed_links: 32, seed: 6 });
        let demands = DemandSet::generate(&topo, &TrafficCfg { seed, ..Default::default() })
            .scaled(2.0);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let cfg = SimConfig { warmup_s: 0.05, duration_s: 0.3, seed, ..Default::default() };
        let r = Simulation::new(&topo, &demands, &w, cfg).run();
        for (lid, _) in topo.links() {
            let u = r.utilization(lid);
            prop_assert!((0.0..=1.0 + 1e-9).contains(&u), "util {u}");
        }
    }

    #[test]
    fn delays_bounded_below_by_path_propagation(seed in 0u64..50) {
        // Every measured pair delay must exceed the shortest possible
        // propagation+transmission along ANY path: use the 1-hop bound.
        let topo = random_topology(&RandomTopologyCfg { nodes: 8, directed_links: 32, seed: 7 });
        let demands = DemandSet::generate(&topo, &TrafficCfg { seed, ..Default::default() });
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let cfg = SimConfig { warmup_s: 0.05, duration_s: 0.3, seed, ..Default::default() };
        let r = Simulation::new(&topo, &demands, &w, cfg).run();
        let min_prop = topo.links().map(|(_, l)| l.prop_delay).fold(f64::MAX, f64::min);
        for (key, acc) in &r.pair_delays {
            if acc.count > 0 {
                prop_assert!(acc.mean() >= min_prop, "pair {key:?} mean {}", acc.mean());
            }
        }
    }

    #[test]
    fn class_throughput_tracks_offered_load(seed in 0u64..50) {
        // On an uncongested single link the delivered bits must match the
        // offered volume within statistical noise.
        let mut b = dtr_graph::TopologyBuilder::new();
        b.add_nodes(2);
        b.add_duplex(dtr_graph::NodeId(0), dtr_graph::NodeId(1), 100.0, 0.001);
        let topo = b.build().unwrap();
        let mut high = TrafficMatrix::zeros(2);
        high.set(0, 1, 20.0);
        let mut low = TrafficMatrix::zeros(2);
        low.set(0, 1, 30.0);
        let demands = DemandSet { high, low };
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let cfg = SimConfig { warmup_s: 0.5, duration_s: 4.0, seed, ..Default::default() };
        let r = Simulation::new(&topo, &demands, &w, cfg).run();
        let link = topo.find_link(dtr_graph::NodeId(0), dtr_graph::NodeId(1)).unwrap();
        let th = r.throughput_mbps(link, 0);
        let tl = r.throughput_mbps(link, 1);
        prop_assert!((th - 20.0).abs() < 2.0, "high throughput {th}");
        prop_assert!((tl - 30.0).abs() < 2.5, "low throughput {tl}");
    }

    #[test]
    fn cobham_is_monotone_and_prioritized(cap in 5.0f64..50.0, h in 0.0f64..20.0, l in 0.0f64..20.0, bump in 0.1f64..5.0) {
        // For any stable operating point: the high class waits no longer
        // than the low class, and adding load to either class never
        // shortens anyone's wait.
        use dtr_sim::{cobham, PriorityLink};
        prop_assume!(h + l < 0.95 * cap);
        let link = PriorityLink { capacity_mbps: cap, mean_packet_bits: 8000.0, deterministic: false };
        let (wh, wl) = cobham(&link, h, l);
        prop_assert!(wh.wait_s <= wl.wait_s + 1e-15);
        prop_assert!(wh.wait_s.is_finite() && wl.wait_s.is_finite());

        let (wh2, wl2) = cobham(&link, h + bump, l);
        prop_assert!(wh2.wait_s >= wh.wait_s - 1e-15);
        prop_assert!(wl2.wait_s >= wl.wait_s - 1e-15 || !wl2.wait_s.is_finite());
        let (wh3, wl3) = cobham(&link, h, l + bump);
        // Low-class load raises both waits (residual work grows) but
        // raises the low class far more.
        prop_assert!(wh3.wait_s >= wh.wait_s - 1e-15);
        prop_assert!(wl3.wait_s >= wl.wait_s - 1e-15 || !wl3.wait_s.is_finite());
    }

    #[test]
    fn residual_surrogate_never_overestimates(cap in 5.0f64..50.0, h in 0.0f64..20.0, l in 0.0f64..20.0) {
        // The paper's low-class model (M/M/1 over residual capacity) is
        // exact at ρ_H = 0 and an underestimate otherwise — for every
        // stable operating point.
        use dtr_sim::{cobham, residual_low_sojourn, PriorityLink};
        prop_assume!(h + l < 0.95 * cap);
        let link = PriorityLink { capacity_mbps: cap, mean_packet_bits: 8000.0, deterministic: false };
        let exact = cobham(&link, h, l).1.sojourn_s;
        let approx = residual_low_sojourn(&link, h, l);
        prop_assert!(approx <= exact + 1e-12, "approx {approx} > exact {exact}");
    }

    #[test]
    fn priority_isolation_across_topologies_and_families(
        topo_seed in 0u64..40,
        traffic_seed in 0u64..1000,
        family_idx in 0usize..4,
    ) {
        // The §3 claim, packet-world, corpus-style: on a random seeded
        // topology with a random seeded traffic family, scaling the
        // LOW-priority volume 2.5× must leave high-class end-to-end
        // delays essentially unmoved (non-preemptive residual only) —
        // not just on the single hand-built graph the unit tests use.
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 9, directed_links: 36, seed: 11 + topo_seed,
        });
        let family = [
            TrafficFamily::Gravity,
            TrafficFamily::SkewedGravity { alpha: 1.5 },
            TrafficFamily::Hotspot { hotspots: 2, hot_share: 0.6 },
            TrafficFamily::Stride { stride: 4, volume: 30.0 },
        ][family_idx];
        let demands = family_demands(&topo, &FamilyTrafficCfg {
            family,
            f: 0.3,
            k: 0.2,
            model: HighPriModel::Random,
            seed: traffic_seed,
        });
        // Scale so the base instance is comfortably stable (the claim
        // is about stable operating points; saturation starves the low
        // class by design).
        let total = demands.total_volume();
        prop_assume!(total > 0.0);
        let demands = demands.scaled(120.0 / total);
        let cfg = SimConfig {
            warmup_s: 0.2,
            duration_s: 1.5,
            seed: traffic_seed,
            ..Default::default()
        };
        let base = Simulation::new(&topo, &demands, &DualWeights::replicated(
            WeightVector::uniform(&topo, 1)), cfg).run();
        let heavy_demands = DemandSet {
            high: demands.high.clone(),
            low: demands.low.scaled(2.5),
        };
        let heavy = Simulation::new(&topo, &heavy_demands, &DualWeights::replicated(
            WeightVector::uniform(&topo, 1)), cfg).run();
        let (d0, d1) = (mean_high_delay(&base), mean_high_delay(&heavy));
        prop_assert!(
            d1 < 1.5 * d0 + 2e-4,
            "high-class delay moved under low load: {d0} → {d1} \
             (topo {topo_seed}, traffic {traffic_seed}, family {family_idx})"
        );
    }

    #[test]
    fn fluid_backend_loads_match_evaluator_bit_for_bit(
        topo_seed in 0u64..60,
        traffic_seed in 0u64..1000,
    ) {
        // The structural-agreement claim behind `dtrctl validate`'s
        // 1e-9 gate: the fluid backend routes with the evaluator's own
        // primitive over equal DAGs, so the loads are IDENTICAL — on
        // random topologies, traffic and genuinely dual weights.
        use dtr_cost::Objective;
        use dtr_routing::Evaluator;
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10, directed_links: 40, seed: 100 + topo_seed,
        });
        let demands = DemandSet::generate(&topo, &TrafficCfg {
            seed: traffic_seed, k: 0.3, ..Default::default()
        }).scaled(2.0);
        let mut wl = WeightVector::delay_proportional(&topo, 30);
        wl.set(dtr_graph::LinkId((topo_seed % 40) as u32), 27);
        let weights = DualWeights { high: WeightVector::uniform(&topo, 1), low: wl };
        let analytic = Evaluator::new(&topo, &demands, Objective::LoadBased)
            .eval_dual(&weights);
        let fluid = FluidSim::new().run(&topo, &demands, &weights);
        for i in 0..topo.link_count() {
            prop_assert_eq!(analytic.high_loads[i], fluid.class_loads[0][i], "high link {}", i);
            prop_assert_eq!(analytic.low_loads[i], fluid.class_loads[1][i], "low link {}", i);
        }
    }

    #[test]
    fn des_backend_report_is_seed_deterministic(seed in 0u64..30) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8, directed_links: 32, seed: 17,
        });
        let demands = DemandSet::generate(&topo, &TrafficCfg { seed, ..Default::default() })
            .scaled(2.0);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let des = DesBackend::budgeted(&demands, 5_000, seed);
        let a = des.run(&topo, &demands, &w);
        let b = des.run(&topo, &demands, &w);
        prop_assert_eq!(a, b);
    }
}
