//! Equivalence property tests for the failure-sweep backend.
//!
//! The sweep's contract extends the engine's: for any topology, demand
//! set, candidate weight setting and survivable single-duplex-pair
//! failure scenario, both backends' `eval_scenarios` return loads
//! **bit-identical** to [`LoadCalculator::class_loads_masked`] full
//! evaluation of the candidate on the scenario's link-up mask — and the
//! sweep leaves the incremental backend's base state untouched, so
//! sweeps stay exact across rebases. Equality below is `PartialEq` over
//! `Vec<f64>`, which compares every load exactly (no tolerances).

use dtr_cost::Objective;
use dtr_engine::{make_backend, BackendKind, BatchEvaluator, IncrementalBackend};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::{LinkId, Topology, WeightVector, MAX_WEIGHT, MIN_WEIGHT};
use dtr_routing::{
    strongly_connected_under, survivable_duplex_failures, FailureScenario, LoadCalculator,
};
use dtr_traffic::TrafficMatrix;
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

fn rand_weights(topo: &Topology, seed: u64) -> WeightVector {
    let mut rng = StdRng::seed_from_u64(seed);
    WeightVector::from_vec(
        (0..topo.link_count())
            .map(|_| rng.random_range(MIN_WEIGHT..=MAX_WEIGHT))
            .collect(),
    )
}

/// A candidate differing from `base` by `deltas` weight changes (the
/// robust search's neighborhood-move shape).
fn neighbor(topo: &Topology, base: &WeightVector, deltas: usize, seed: u64) -> WeightVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = base.clone();
    for _ in 0..deltas {
        let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
        w.set(lid, rng.random_range(MIN_WEIGHT..=MAX_WEIGHT));
    }
    w
}

/// A candidate differing from `base` on exactly `count` distinct links.
fn spread(topo: &Topology, base: &WeightVector, count: usize, seed: u64) -> WeightVector {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = base.clone();
    let mut changed = 0;
    while changed < count {
        let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
        if w.get(lid) == base.get(lid) {
            w.set(lid, base.get(lid) % MAX_WEIGHT + 1);
            changed += 1;
        }
    }
    w
}

/// Masks with two duplex pairs and one further directed link down that
/// leave the topology strongly connected — the compound state a daemon
/// reaches after a `LinkDown` and a `DirectedLinkDown` — built from
/// pairs of single-pair scenarios.
fn compound_masks(topo: &Topology, pairs: &[FailureScenario], seed: u64) -> Vec<FailureScenario> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for _ in 0..200 {
        if out.len() == 6 {
            break;
        }
        let a = &pairs[rng.random_range(0..pairs.len())];
        let b = &pairs[rng.random_range(0..pairs.len())];
        let extra = rng.random_range(0..topo.link_count());
        let link_up: Vec<bool> = (0..topo.link_count())
            .map(|l| a.link_up[l] && b.link_up[l] && l != extra)
            .collect();
        let down = link_up.iter().filter(|&&up| !up).count();
        if down == 5 && strongly_connected_under(topo, &link_up) {
            let pair_id = out.len() as u32;
            out.push(FailureScenario { pair_id, link_up });
        }
    }
    out
}

/// Sweeps `cand` over `scenarios`, and over each scenario alone, on
/// both backends bound at `base`; checks every scenario against the
/// masked calculator, and that the sweeps left the base and the rebase
/// count alone. Returns the incremental backend's full fallbacks for
/// the whole sweep.
fn sweep_both(
    topo: &Topology,
    m: &TrafficMatrix,
    base: &WeightVector,
    cand: &WeightVector,
    scenarios: &[FailureScenario],
) -> Result<u64, TestCaseError> {
    let mut calc = LoadCalculator::new();
    let mut fallbacks = 0;
    for kind in [BackendKind::Full, BackendKind::Incremental] {
        let mut backend = make_backend(kind, topo, vec![m], base.clone());
        let before = backend.work_stats();
        let evs = backend.eval_scenarios(cand, scenarios);
        fallbacks = backend.work_stats().full_fallbacks - before.full_fallbacks;
        prop_assert_eq!(evs.len(), scenarios.len());
        for (i, (sc, ev)) in scenarios.iter().zip(&evs).enumerate() {
            let full = calc.class_loads_masked(topo, cand, &sc.link_up, m);
            prop_assert_eq!(&ev.loads[0], &full, "{:?}, scenario {}", kind, sc.pair_id);
            let alone = backend.eval_scenarios(cand, &scenarios[i..=i]);
            prop_assert_eq!(
                &alone[0].loads[0],
                &full,
                "{:?} alone, {}",
                kind,
                sc.pair_id
            );
        }
        prop_assert_eq!(backend.base(), base);
        prop_assert_eq!(backend.work_stats().rebases, before.rebases);
    }
    Ok(fallbacks)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// A candidate up to `MAX_DELTAS` links away is repaired on scratch;
    /// one link further it falls back to full masked evaluations. Both
    /// are exact, and neither moves the base.
    #[test]
    fn far_candidates_fall_back_exactly(seed in 0u64..300, wseed in 0u64..300) {
        let (topo, demands) = instance(seed, 12);
        let scenarios = survivable_duplex_failures(&topo);
        prop_assume!(!scenarios.is_empty());
        let base = rand_weights(&topo, wseed);
        let max = IncrementalBackend::MAX_DELTAS;
        for (count, fallbacks) in [(max, 0), (max + 1, 1), (topo.link_count(), 1)] {
            let cand = spread(&topo, &base, count, seed ^ count as u64);
            prop_assert_eq!(sweep_both(&topo, &demands.low, &base, &cand, &scenarios)?, fallbacks);
        }
    }

    /// Several links down at once — two duplex pairs and a directed
    /// link — for candidates at neighborhood distance and beyond.
    #[test]
    fn compound_masks_match_masked_calculator(seed in 0u64..300, wseed in 0u64..300) {
        let (topo, demands) = instance(seed, 12);
        let pairs = survivable_duplex_failures(&topo);
        prop_assume!(pairs.len() >= 2);
        let masks = compound_masks(&topo, &pairs, seed ^ wseed);
        prop_assume!(!masks.is_empty());
        let base = rand_weights(&topo, wseed);
        for deltas in [0, 1, 2] {
            let cand = neighbor(&topo, &base, deltas, seed.wrapping_mul(13) ^ deltas as u64);
            sweep_both(&topo, &demands.high, &base, &cand, &masks)?;
        }
        let far = rand_weights(&topo, wseed ^ 0xfa4);
        prop_assert_eq!(sweep_both(&topo, &demands.high, &base, &far, &masks)?, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Both backends' failure sweeps are bit-identical to the masked
    /// full calculator on every survivable scenario, for candidates at
    /// neighborhood distance from the base.
    #[test]
    fn sweep_matches_masked_calculator(seed in 0u64..400, wseed in 0u64..400, deltas in 0usize..=2) {
        let (topo, demands) = instance(seed, 12);
        let scenarios = survivable_duplex_failures(&topo);
        prop_assume!(!scenarios.is_empty());
        let base = rand_weights(&topo, wseed);
        let cand = neighbor(&topo, &base, deltas, seed ^ (wseed << 1));

        let mut calc = LoadCalculator::new();
        for kind in [BackendKind::Full, BackendKind::Incremental] {
            let mut backend = make_backend(kind, &topo, vec![&demands.high], base.clone());
            let evs = backend.eval_scenarios(&cand, &scenarios);
            prop_assert_eq!(evs.len(), scenarios.len());
            for (sc, ev) in scenarios.iter().zip(&evs) {
                let full = calc.class_loads_masked(&topo, &cand, &sc.link_up, &demands.high);
                prop_assert_eq!(&ev.loads[0], &full);
            }
            // The sweep must not disturb the base: nominal evaluation of
            // the base afterwards still matches the plain calculator.
            let mut nominal = backend.eval_batch(std::slice::from_ref(&base), false);
            let loads = nominal.pop().unwrap().loads.swap_remove(0);
            prop_assert_eq!(loads, calc.class_loads(&topo, &base, &demands.high));
        }
    }

    /// Sweeps stay exact after the backend rebases (accepted moves and
    /// diversification jumps both exercise the repair and rebuild
    /// rebase paths).
    #[test]
    fn sweep_matches_after_rebase(seed in 0u64..300, wseed in 0u64..300, jump in 0u8..2) {
        let big_jump = jump == 1;
        let (topo, demands) = instance(seed, 10);
        let scenarios = survivable_duplex_failures(&topo);
        prop_assume!(!scenarios.is_empty());
        let w0 = rand_weights(&topo, wseed);
        // Small rebases repair in place; large ones rebuild from scratch.
        let w1 = neighbor(&topo, &w0, if big_jump { 12 } else { 2 }, seed.wrapping_mul(17) ^ wseed);
        let cand = neighbor(&topo, &w1, 1, seed.wrapping_mul(29) ^ wseed);

        let mut calc = LoadCalculator::new();
        for kind in [BackendKind::Full, BackendKind::Incremental] {
            let mut backend = make_backend(kind, &topo, vec![&demands.low], w0.clone());
            backend.rebase(&w1);
            let evs = backend.eval_scenarios(&cand, &scenarios);
            for (sc, ev) in scenarios.iter().zip(&evs) {
                let full = calc.class_loads_masked(&topo, &cand, &sc.link_up, &demands.low);
                prop_assert_eq!(&ev.loads[0], &full);
            }
        }
    }

    /// The `BatchEvaluator` facade the robust search drives: per-class
    /// sweeps agree bitwise across backends and with the masked
    /// calculator, under both objectives (sweeps are load-only, so the
    /// objective must not leak into them).
    #[test]
    fn facade_sweeps_agree_across_backends(seed in 0u64..300, wseed in 0u64..300) {
        let (topo, demands) = instance(seed, 10);
        let scenarios = survivable_duplex_failures(&topo);
        prop_assume!(!scenarios.is_empty());
        let base = rand_weights(&topo, wseed);
        let cand = neighbor(&topo, &base, 2, seed.rotate_left(7) ^ wseed);

        let mut calc = LoadCalculator::new();
        for objective in [Objective::LoadBased, Objective::sla_default()] {
            let mut full = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Full);
            let mut incr = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Incremental);
            full.rebase_high(&base);
            full.rebase_low(&base);
            incr.rebase_high(&base);
            incr.rebase_low(&base);

            let fh = full.sweep_high(&cand, &scenarios);
            let ih = incr.sweep_high(&cand, &scenarios);
            let fl = full.sweep_low(&cand, &scenarios);
            let il = incr.sweep_low(&cand, &scenarios);
            prop_assert_eq!(&fh, &ih);
            prop_assert_eq!(&fl, &il);
            for (i, sc) in scenarios.iter().enumerate() {
                let h = calc.class_loads_masked(&topo, &cand, &sc.link_up, &demands.high);
                let l = calc.class_loads_masked(&topo, &cand, &sc.link_up, &demands.low);
                prop_assert_eq!(&fh[i], &h);
                prop_assert_eq!(&fl[i], &l);
            }
        }
    }
}
