//! Property tests for the k-class generalization: the cascade invariants
//! that must hold for any class count, demand draw and weight setting,
//! on both evaluation backends of the kernel.

use dtr_cost::ObjectiveSpec;
use dtr_engine::{BackendKind, KClassBatchEvaluator, KClassEvaluation};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::WeightVector;
use dtr_multi::{MultiDemand, MultiTrafficCfg};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};

const KINDS: [BackendKind; 2] = [BackendKind::Full, BackendKind::Incremental];

/// All-load evaluations of `settings` (in order) on one kernel of `kind`.
fn eval_on(
    kind: BackendKind,
    topo: &dtr_graph::Topology,
    demands: &MultiDemand,
    settings: &[&[WeightVector]],
) -> Vec<KClassEvaluation> {
    let mut kernel = KClassBatchEvaluator::new(
        topo,
        demands.classes.iter().collect(),
        &ObjectiveSpec::load(demands.class_count()),
        kind,
    )
    .unwrap();
    settings.iter().map(|w| kernel.eval(w)).collect()
}

fn instance(k_extra: usize, seed: u64) -> (dtr_graph::Topology, MultiDemand) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 10,
        directed_links: 40,
        seed: 1 + seed % 4,
    });
    let demands = MultiDemand::generate(
        &topo,
        &MultiTrafficCfg {
            fractions: vec![0.6 / (k_extra as f64 + 1.0); k_extra],
            densities: vec![0.15; k_extra],
            seed,
        },
    )
    .scaled(3.0);
    (topo, demands)
}

fn rand_weights(topo: &dtr_graph::Topology, seed: u64, k: usize) -> Vec<WeightVector> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    (0..k)
        .map(|_| {
            WeightVector::from_vec(
                (0..topo.link_count())
                    .map(|_| rng.random_range(1..=30))
                    .collect(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn residuals_are_monotone_down_the_priority_order(
        k_extra in 1usize..4, seed in 0u64..200, wseed in 0u64..200,
    ) {
        let (topo, demands) = instance(k_extra, seed);
        let k = demands.class_count();
        let w = rand_weights(&topo, wseed, k);
        for kind in KINDS {
            let e = &eval_on(kind, &topo, &demands, &[&w])[0];
            for c in 1..k {
                let above = e.residuals(&topo, c - 1);
                let below = e.residuals(&topo, c);
                for (hi, lo) in above.iter().zip(&below) {
                    prop_assert!(lo <= hi, "residuals must shrink with priority");
                    prop_assert!(*lo >= 0.0);
                }
            }
        }
    }

    #[test]
    fn phi_components_finite_and_cost_matches(
        k_extra in 1usize..4, seed in 0u64..200, wseed in 0u64..200,
    ) {
        let (topo, demands) = instance(k_extra, seed);
        let k = demands.class_count();
        let w = rand_weights(&topo, wseed, k);
        for kind in KINDS {
            let e = &eval_on(kind, &topo, &demands, &[&w])[0];
            prop_assert_eq!(e.cost.len(), k);
            for c in 0..k {
                prop_assert!(e.phis[c].is_finite() && e.phis[c] >= 0.0);
                let per_link: f64 = e.phi_per_link[c].iter().sum();
                prop_assert!((per_link - e.phis[c]).abs() < 1e-6);
                prop_assert_eq!(e.cost.get(c), e.phis[c]);
            }
        }
    }

    #[test]
    fn class_c_cost_independent_of_lower_class_weights(
        k_extra in 1usize..3, seed in 0u64..100, w1 in 0u64..100, w2 in 0u64..100,
    ) {
        let (topo, demands) = instance(k_extra, seed);
        let k = demands.class_count();
        let base = rand_weights(&topo, w1, k);
        let mut tweaked = base.clone();
        // Change only the lowest class's weights.
        tweaked[k - 1] = rand_weights(&topo, w2, 1).pop().unwrap();
        for kind in KINDS {
            let e = eval_on(kind, &topo, &demands, &[&base, &tweaked]);
            for c in 0..k - 1 {
                prop_assert_eq!(e[0].phis[c], e[1].phis[c], "class {} leaked", c);
            }
        }
    }
}
