//! Partial-deployment equivalence: under a bound deployment, every
//! `Evaluation` the engine hands out — `eval_dual`, and each candidate
//! of `eval_class_batch` on either class, through any sequence of
//! rebases — equals `Evaluator::eval_dual` of the same setting with the
//! deployment bound, bit for bit, on both backends. The engine keeps
//! each destination's hybrid low loads at its lanes' base pair and
//! rebuilds only what a candidate or a rebase changed; these walks
//! mix every way a base moves (accepted moves on both classes, jumps
//! past `MAX_DELTAS` that rebuild every destination, and an
//! `eval_dual` away from the lanes' bases).

use dtr_cost::Objective;
use dtr_engine::{BackendKind, BatchEvaluator, Class};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, Topology, WeightVector, MAX_WEIGHT, MIN_WEIGHT};
use dtr_routing::{DeploymentSet, Evaluator};
use dtr_traffic::{DemandSet, TrafficCfg};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn instance(seed: u64, nodes: usize) -> (Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes,
        directed_links: nodes * 4,
        seed,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed,
            ..Default::default()
        },
    )
    .scaled(3.0);
    (topo, demands)
}

fn rand_weights(topo: &Topology, rng: &mut StdRng) -> WeightVector {
    let w = (0..topo.link_count()).map(|_| rng.random_range(MIN_WEIGHT..=MAX_WEIGHT));
    WeightVector::from_vec(w.collect())
}

/// `w` with `deltas` random links redrawn.
fn neighbor(topo: &Topology, w: &WeightVector, deltas: usize, rng: &mut StdRng) -> WeightVector {
    let mut c = w.clone();
    for _ in 0..deltas {
        let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
        c.set(lid, rng.random_range(MIN_WEIGHT..=MAX_WEIGHT));
    }
    c
}

/// A setting and deployment that trap low demand in a cross-topology
/// loop: legacy `a` forwards every destination's traffic to `b` on the
/// high topology, upgraded `b` sends it back to `a` on the low one.
fn looping(topo: &Topology) -> (DualWeights, DeploymentSet) {
    let ab = topo.links().map(|(l, _)| l).next().unwrap();
    let (a, b) = (topo.link(ab).src, topo.link(ab).dst);
    let ba = topo.find_link(b, a).expect("duplex topology");
    let mut w = DualWeights::replicated(WeightVector::uniform(topo, 1));
    for &l in topo.out_links(a) {
        w.high.set(l, if l == ab { MIN_WEIGHT } else { MAX_WEIGHT });
    }
    for &l in topo.out_links(b) {
        w.low.set(l, if l == ba { MIN_WEIGHT } else { MAX_WEIGHT });
    }
    (w, DeploymentSet::from_upgraded(topo.node_count(), &[b.0]))
}

/// One walk on `kind`: every evaluation against the evaluator.
fn walk(
    topo: &Topology,
    demands: &DemandSet,
    dep: &DeploymentSet,
    w0: &DualWeights,
    kind: BackendKind,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut reference = Evaluator::new(topo, demands, Objective::LoadBased);
    reference.set_deployment(Some(dep.clone())).unwrap();
    let mut engine = BatchEvaluator::new(topo, demands, Objective::LoadBased, kind);
    engine.set_deployment(Some(dep.clone())).unwrap();
    let mut w = w0.clone();
    for class in [Class::High, Class::Low] {
        engine.rebase(class, class.of(&w));
    }
    let mut base = engine.eval_dual(&w);
    prop_assert_eq!(&base, &reference.eval_dual(&w));
    for step in 0..10 {
        let class = if rng.random_bool(0.5) {
            Class::High
        } else {
            Class::Low
        };
        let mut cands: Vec<WeightVector> = (0..rng.random_range(1..=4usize))
            .map(|_| neighbor(topo, class.of(&w), rng.random_range(1..=2), &mut rng))
            .collect();
        if step % 4 == 3 {
            cands.push(neighbor(topo, class.of(&w), 12, &mut rng));
        }
        cands.push(cands[0].clone());
        let evals = engine.eval_class_batch(class, &cands, &w, &base);
        for (c, ev) in cands.iter().zip(&evals) {
            let mut moved = w.clone();
            *class.of_mut(&mut moved) = c.clone();
            prop_assert_eq!(
                ev,
                &reference.eval_dual(&moved),
                "step {} {:?}",
                step,
                class
            );
        }
        match step % 5 {
            // Accept a candidate, as the searches do.
            0..=2 => {
                let i = rng.random_range(0..cands.len());
                engine.rebase(class, &cands[i]);
                *class.of_mut(&mut w) = cands[i].clone();
                base = evals[i].clone();
            }
            // Jump far on one class, then settle.
            3 => {
                *class.of_mut(&mut w) = rand_weights(topo, &mut rng);
                engine.rebase(class, class.of(&w));
                base = engine.eval_dual(&w);
                prop_assert_eq!(&base, &reference.eval_dual(&w));
            }
            // Evaluate away from the lanes' bases, then come back.
            _ => {
                let away = DualWeights {
                    high: neighbor(topo, &w.high, 3, &mut rng),
                    low: neighbor(topo, &w.low, 3, &mut rng),
                };
                prop_assert_eq!(engine.eval_dual(&away), reference.eval_dual(&away));
                base = engine.eval_dual(&w);
                prop_assert_eq!(&base, &reference.eval_dual(&w));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Empty, one-node, half and loop-trapping deployments on 8–30-node
    /// instances, on both backends.
    #[test]
    fn deployed_evaluations_match_the_evaluator(seed in 0u64..500, nodes in 8usize..=30, shape in 0usize..4) {
        let (topo, demands) = instance(seed, nodes);
        let n = topo.node_count();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xd3);
        let mut w0 = DualWeights {
            high: rand_weights(&topo, &mut rng),
            low: rand_weights(&topo, &mut rng),
        };
        let dep = match shape {
            0 => DeploymentSet::empty(n),
            1 => DeploymentSet::from_upgraded(n, &[rng.random_range(0..n as u32)]),
            2 => DeploymentSet::from_upgraded(n, &(0..n as u32).step_by(2).collect::<Vec<_>>()),
            _ => {
                let (w, dep) = looping(&topo);
                let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
                let (_, trapped) = ev.low_loads_deployed(&dep, &w.high, &w.low);
                prop_assert!(trapped > 0.0, "the loop traps demand");
                w0 = w;
                dep
            }
        };
        for kind in [BackendKind::Full, BackendKind::Incremental] {
            walk(&topo, &demands, &dep, &w0, kind, seed)?;
        }
    }
}

/// The loop-trapping fixture traps demand on every instance size the
/// property draws, and the engine charges it like the evaluator.
#[test]
fn the_looping_fixture_traps_low_demand() {
    for nodes in 8..=30 {
        let (topo, demands) = instance(nodes as u64, nodes);
        let (w, dep) = looping(&topo);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let (_, trapped) = ev.low_loads_deployed(&dep, &w.high, &w.low);
        assert!(trapped > 0.0, "{nodes} nodes");
        ev.set_deployment(Some(dep.clone())).unwrap();
        let mut engine = BatchEvaluator::new(
            &topo,
            &demands,
            Objective::LoadBased,
            BackendKind::Incremental,
        );
        engine.set_deployment(Some(dep)).unwrap();
        assert_eq!(engine.eval_dual(&w), ev.eval_dual(&w));
    }
}
