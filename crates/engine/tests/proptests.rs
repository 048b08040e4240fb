//! Equivalence property tests for the evaluation engine.
//!
//! The engine's contract is that backend choice never changes results:
//! for any topology, demand set, objective and candidate weight setting,
//! [`BackendKind::Incremental`] returns **bit-identical** `Evaluation`s
//! (and `HighSide`s / `ClassLoads`) to [`BackendKind::Full`] — and both
//! match the plain [`Evaluator`]. Equality below is `PartialEq` over the
//! full structures, which compares every `f64` exactly (no tolerance).

use dtr_cost::{Objective, ObjectiveSpec, SlaParams};
use dtr_engine::{
    BackendKind, BatchEvaluator, CandidateEval, EvalBackend, IncrementalBackend,
    KClassBatchEvaluator, KClassEvaluation, WorkStats, PAR_MIN_WORK,
};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::spf::Dist;
use dtr_graph::weights::DualWeights;
use dtr_graph::{
    FlatTopo, LinkId, NodeId, ShortestPathDag, Topology, WeightVector, MAX_WEIGHT, MIN_WEIGHT,
};
use dtr_routing::{survivable_duplex_failures, Evaluation, Evaluator, HighSide};
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

/// A base plus a walk of candidates, each differing from the base by
/// `deltas` weight changes (the neighborhood-move shape).
fn neighbor_walk(
    topo: &Topology,
    base: &WeightVector,
    deltas: usize,
    count: usize,
    seed: u64,
) -> Vec<WeightVector> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut w = base.clone();
            for _ in 0..deltas {
                let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
                w.set(lid, rng.random_range(MIN_WEIGHT..=MAX_WEIGHT));
            }
            w
        })
        .collect()
}

/// Runs `op` with parallel maps capped at `threads` (1: the calling
/// thread alone).
fn with_threads<R>(threads: usize, op: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    pool.unwrap().install(op)
}

/// A batch of every shape the searches send: 1- and 2-delta neighbors,
/// a jump past `MAX_DELTAS` (a full fallback) and in-batch duplicates.
fn mixed_batch(topo: &Topology, base: &WeightVector, seed: u64) -> Vec<WeightVector> {
    let mut cands = neighbor_walk(topo, base, 1, 3, seed);
    cands.extend(neighbor_walk(topo, base, 2, 3, seed ^ 1));
    cands.push(rand_weights(topo, seed ^ 2));
    cands.push(cands[0].clone());
    cands.push(cands[4].clone());
    cands
}

/// The base walk after the first batch: one- and two-link moves, and
/// every third step a jump that rebuilds every destination.
fn rebase_walk(topo: &Topology, base: &WeightVector, seed: u64) -> Vec<WeightVector> {
    let mut at = base.clone();
    (0..6u64)
        .map(|step| {
            at = match step % 3 {
                2 => rand_weights(topo, seed ^ step),
                k => neighbor_walk(topo, &at, k as usize + 1, 1, seed ^ step).remove(0),
            };
            at.clone()
        })
        .collect()
}

/// Everything a [`CandidateEval`] says, loads as bit patterns and each
/// DAG as its distances, every node's full branch list and its order.
type Fingerprint = (
    Vec<Vec<u64>>,
    Vec<(NodeId, Vec<Dist>, Vec<Vec<u32>>, Vec<u32>)>,
);

fn fingerprint(flat: &FlatTopo, ev: &CandidateEval) -> Fingerprint {
    let loads = ev
        .loads
        .iter()
        .map(|l| l.iter().map(|x| x.to_bits()).collect())
        .collect();
    let branches = |d: &ShortestPathDag| {
        let n = flat.node_count() as u32;
        (0..n).map(|v| d.branches(flat, v).to_vec()).collect()
    };
    let dags = ev
        .dags
        .iter()
        .map(|(t, d)| (*t, d.dist.clone(), branches(d), d.order.clone()))
        .collect();
    (loads, dags)
}

/// The joint incremental backend through a mixed batch at `base`, then
/// a mixed batch after every step of [`rebase_walk`].
fn backend_run(
    topo: &Topology,
    demands: &DemandSet,
    base: &WeightVector,
    seed: u64,
    want_dags: bool,
) -> (Vec<Fingerprint>, WorkStats) {
    let mut backend =
        IncrementalBackend::new(topo, vec![&demands.high, &demands.low], base.clone(), false);
    let mut seen: Vec<Fingerprint> = Vec::new();
    let flat = FlatTopo::new(topo);
    let mut eval = |backend: &mut IncrementalBackend, at: &WeightVector, salt: u64| {
        let batch = mixed_batch(topo, at, seed ^ salt);
        let evals = backend.eval_batch(&batch, want_dags);
        seen.extend(evals.iter().map(|ev| fingerprint(&flat, ev)));
    };
    eval(&mut backend, base, 0);
    for (i, at) in rebase_walk(topo, base, seed).iter().enumerate() {
        backend.rebase(at);
        eval(&mut backend, at, 1 + i as u64);
    }
    (seen, backend.work_stats())
}

/// Every survivable duplex cut swept by the joint incremental backend:
/// at the base, after a rebase (for the new base and one of its
/// neighbors), and for a candidate beyond `MAX_DELTAS` (the full
/// fallback).
fn sweep_run(
    topo: &Topology,
    demands: &DemandSet,
    base: &WeightVector,
    seed: u64,
) -> (Vec<Fingerprint>, WorkStats) {
    let scenarios = survivable_duplex_failures(topo);
    let mut backend =
        IncrementalBackend::new(topo, vec![&demands.high, &demands.low], base.clone(), false);
    let flat = FlatTopo::new(topo);
    let mut seen: Vec<Fingerprint> = Vec::new();
    let mut sweep = |backend: &mut IncrementalBackend, cand: &WeightVector| {
        let evals = backend.eval_scenarios(cand, &scenarios);
        seen.extend(evals.iter().map(|ev| fingerprint(&flat, ev)));
    };
    sweep(&mut backend, base);
    let moved = neighbor_walk(topo, base, 2, 1, seed).remove(0);
    backend.rebase(&moved);
    sweep(&mut backend, &moved);
    sweep(
        &mut backend,
        &neighbor_walk(topo, &moved, 1, 1, seed ^ 1).remove(0),
    );
    let far = moved.as_slice().iter().map(|&w| w % MAX_WEIGHT + 1);
    sweep(&mut backend, &WeightVector::from_vec(far.collect()));
    (seen, backend.work_stats())
}

/// Costs through the facade, with its caches in the way: per-class
/// batches (cached lanes) and joint batches (uncached), around the
/// same walk.
type FacadeRun = (
    Vec<HighSide>,
    Vec<Vec<f64>>,
    Vec<Evaluation>,
    WorkStats,
    (u64, u64),
);

fn facade_run(
    topo: &Topology,
    demands: &DemandSet,
    objective: Objective,
    base: &WeightVector,
    seed: u64,
) -> FacadeRun {
    let mut engine = BatchEvaluator::new(topo, demands, objective, BackendKind::Incremental);
    let (mut highs, mut lows, mut joints) = (Vec::new(), Vec::new(), Vec::new());
    let walk = rebase_walk(topo, base, seed);
    for (i, at) in std::iter::once(base).chain(&walk).enumerate() {
        engine.rebase_high(at);
        engine.rebase_low(at);
        engine.rebase_joint(at);
        // Twice: the second pass is all cache hits on the class lanes.
        for _ in 0..2 {
            let batch = mixed_batch(topo, at, seed ^ i as u64);
            highs.extend(engine.eval_high_batch(&batch));
            lows.extend(engine.eval_low_batch(&batch));
            joints.extend(engine.eval_joint_batch(&batch));
        }
    }
    (
        highs,
        lows,
        joints,
        engine.work_stats(),
        engine.cache_stats(),
    )
}

/// A three-class SLA kernel stepping every class in turn: a mixed batch
/// per class, then a rebase onto that batch's second candidate (an
/// accepted move) and the step after it. Every evaluation, with the work
/// and cache counters at the end.
type KClassRun = (Vec<KClassEvaluation>, WorkStats, (u64, u64));

fn kclass_run(topo: &Topology, demands: &DemandSet, base: &WeightVector, seed: u64) -> KClassRun {
    let matrices = vec![&demands.high, &demands.low, &demands.high];
    let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
    let kind = BackendKind::Incremental;
    let mut kc = KClassBatchEvaluator::new(topo, matrices, &spec, kind).unwrap();
    let mut weights = vec![base.clone(); 3];
    for (c, w) in weights.iter().enumerate() {
        kc.rebase(c, w);
    }
    let mut seen = vec![kc.eval(&weights)];
    for class in 0..3 {
        let batch = mixed_batch(topo, &weights[class], seed ^ class as u64);
        seen.extend(kc.eval_class_batch(class, &batch, &weights));
        weights[class] = batch[1].clone();
        kc.rebase(class, &weights[class]);
        let next = neighbor_walk(topo, &weights[class], 1, 4, seed ^ 0x5eed);
        seen.extend(kc.eval_class_batch(class, &next, &weights));
    }
    (seen, kc.work_stats(), kc.cache_stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The thread count is invisible: on states above the fan-out
    /// threshold, every candidate evaluation (loads bit for bit, DAGs
    /// structurally), the work counters and the cache counters are the
    /// same under 1, 2 and 3 threads — for mixed batches at the start
    /// and after every step of a rebase walk that includes rebuilds.
    #[test]
    fn thread_count_is_invisible(seed in 0u64..200, wseed in 0u64..200, nodes in 40usize..=48) {
        let (topo, demands) = instance(seed, nodes);
        let base = rand_weights(&topo, wseed);
        let dests = (0..nodes).filter(|&t| demands.low.demands_to(t).next().is_some()).count();
        prop_assert!(dests * nodes >= PAR_MIN_WORK, "{dests} × {nodes}");
        for want_dags in [false, true] {
            let one = with_threads(1, || backend_run(&topo, &demands, &base, seed, want_dags));
            prop_assert!(one.1.full_fallbacks > 0 && one.1.repaired > 0 && one.1.rebases > 0);
            for k in [2, 3] {
                let many = with_threads(k, || backend_run(&topo, &demands, &base, seed, want_dags));
                prop_assert!(one == many, "{k} threads, want_dags {want_dags}");
            }
        }
        let objective = Objective::sla_default();
        let one = with_threads(1, || facade_run(&topo, &demands, objective, &base, seed));
        prop_assert!(one.4 .0 > 0, "the class lanes were hit");
        for k in [2, 3] {
            let many = with_threads(k, || facade_run(&topo, &demands, objective, &base, seed));
            prop_assert!(one == many, "facade, {k} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Failure sweeps fan their scenarios out above the threshold: every
    /// scenario's loads, bit for bit, and the work counters are the same
    /// under 1, 2 and 3 threads, at the base, after a rebase and for a
    /// full fallback.
    #[test]
    fn sweep_thread_count_is_invisible(seed in 0u64..200, wseed in 0u64..200, nodes in 40usize..=48) {
        let (topo, demands) = instance(seed, nodes);
        let base = rand_weights(&topo, wseed);
        let dests = (0..nodes).filter(|&t| demands.low.demands_to(t).next().is_some()).count();
        prop_assert!(dests * nodes >= PAR_MIN_WORK, "{dests} × {nodes}");
        let one = with_threads(1, || sweep_run(&topo, &demands, &base, seed));
        prop_assert!(one.1.full_fallbacks == 1 && one.1.repaired > 0 && one.1.rebases == 1, "{:?}", one.1);
        for k in [2, 3] {
            let many = with_threads(k, || sweep_run(&topo, &demands, &base, seed));
            prop_assert!(one == many, "sweeps, {k} threads");
        }
    }

    /// The k-class kernel fans its batches out above the threshold too:
    /// on a 40-node three-class SLA instance every evaluation (loads,
    /// costs and SLA walks bit for bit), the work counters and the cache
    /// counters are the same under 1, 2 and 3 threads.
    #[test]
    fn kclass_thread_count_is_invisible(seed in 0u64..200, wseed in 0u64..200) {
        let nodes = 40;
        let (topo, demands) = instance(seed, nodes);
        let base = rand_weights(&topo, wseed);
        for m in [&demands.high, &demands.low] {
            let dests = (0..nodes).filter(|&t| m.demands_to(t).next().is_some()).count();
            prop_assert!(dests * nodes >= PAR_MIN_WORK, "{dests} × {nodes}");
        }
        let one = with_threads(1, || kclass_run(&topo, &demands, &base, seed));
        prop_assert!(one.1.full_fallbacks > 0 && one.1.repaired > 0 && one.1.rebases > 0);
        prop_assert!(one.2 .0 > 0, "the side caches were hit");
        for k in [2, 3] {
            let many = with_threads(k, || kclass_run(&topo, &demands, &base, seed));
            prop_assert!(one == many, "k-class, {k} threads");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Single- and two-weight deltas, load-based objective: joint
    /// (STR-shaped) evaluations agree bitwise across backends and with
    /// the plain evaluator.
    #[test]
    fn joint_eval_equivalence_load(seed in 0u64..500, wseed in 0u64..500, deltas in 1usize..=2) {
        let (topo, demands) = instance(seed, 12);
        let base = rand_weights(&topo, wseed);
        let cands = neighbor_walk(&topo, &base, deltas, 6, seed ^ wseed);

        let mut full = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, BackendKind::Full);
        let mut incr = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, BackendKind::Incremental);
        full.rebase_joint(&base);
        incr.rebase_joint(&base);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);

        let a = full.eval_joint_batch(&cands);
        let b = incr.eval_joint_batch(&cands);
        for ((x, y), w) in a.iter().zip(&b).zip(&cands) {
            prop_assert_eq!(x, y);
            prop_assert_eq!(x, &ev.eval_str(w));
        }
    }

    /// The same equivalence under the SLA objective, where the
    /// incremental backend reuses its repaired DAGs for the delay walk.
    #[test]
    fn joint_eval_equivalence_sla(seed in 0u64..300, wseed in 0u64..300, deltas in 1usize..=2) {
        let (topo, demands) = instance(seed, 10);
        let base = rand_weights(&topo, wseed);
        let cands = neighbor_walk(&topo, &base, deltas, 4, seed.wrapping_mul(31) ^ wseed);
        let objective = Objective::sla_default();

        let mut full = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Full);
        let mut incr = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Incremental);
        full.rebase_joint(&base);
        incr.rebase_joint(&base);
        let mut ev = Evaluator::new(&topo, &demands, objective);

        let a = full.eval_joint_batch(&cands);
        let b = incr.eval_joint_batch(&cands);
        for ((x, y), w) in a.iter().zip(&b).zip(&cands) {
            prop_assert_eq!(x, y);
            prop_assert_eq!(x, &ev.eval_str(w));
        }
    }

    /// Per-class (DTR-shaped) evaluation: high sides and low loads agree
    /// bitwise across backends, under both objectives.
    #[test]
    fn per_class_eval_equivalence(seed in 0u64..300, wseed in 0u64..300, deltas in 1usize..=2) {
        let (topo, demands) = instance(seed, 12);
        let base = rand_weights(&topo, wseed);
        let cands = neighbor_walk(&topo, &base, deltas, 5, seed ^ (wseed << 1));

        for objective in [Objective::LoadBased, Objective::sla_default()] {
            let mut full = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Full);
            let mut incr = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Incremental);
            full.rebase_high(&base);
            incr.rebase_high(&base);
            full.rebase_low(&base);
            incr.rebase_low(&base);
            let mut ev = Evaluator::new(&topo, &demands, objective);

            let ha = full.eval_high_batch(&cands);
            let hb = incr.eval_high_batch(&cands);
            let la = full.eval_low_batch(&cands);
            let lb = incr.eval_low_batch(&cands);
            for i in 0..cands.len() {
                prop_assert_eq!(&ha[i], &hb[i]);
                prop_assert_eq!(&la[i], &lb[i]);
                prop_assert_eq!(&ha[i], &ev.eval_high_side(&cands[i]));
                prop_assert_eq!(&la[i], &ev.low_loads(&cands[i]));
            }
        }
    }

    /// Rebase walks (accepted moves) followed by candidate evaluation:
    /// the incremental state stays exact across arbitrary move
    /// sequences, including diversification-sized jumps that trigger the
    /// internal full-rebuild fallback.
    #[test]
    fn rebase_walks_stay_exact(seed in 0u64..200, wseed in 0u64..200) {
        let (topo, demands) = instance(seed, 12);
        let mut base = rand_weights(&topo, wseed);
        let mut incr = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, BackendKind::Incremental);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37) ^ wseed);
        incr.rebase_joint(&base);

        for step in 0..8 {
            // Alternate small moves with an occasional large jump.
            let deltas = if step % 4 == 3 { 12 } else { 2 };
            let mut next = base.clone();
            for _ in 0..deltas {
                let lid = LinkId(rng.random_range(0..topo.link_count() as u32));
                next.set(lid, rng.random_range(MIN_WEIGHT..=MAX_WEIGHT));
            }
            incr.rebase_joint(&next);
            base = next;
            let cand = neighbor_walk(&topo, &base, 1, 1, rng.random::<u64>()).pop().unwrap();
            prop_assert_eq!(incr.eval_joint(&cand), ev.eval_str(&cand));
        }
    }

    /// The unified-spec k-class path with `k = 2` LoadBased is
    /// bit-identical to the legacy two-class evaluator, under both
    /// backends: same Φ components, same per-link terms, same loads.
    #[test]
    fn kclass_two_class_load_spec_bit_identical(seed in 0u64..300, wseed in 0u64..300, deltas in 1usize..=2) {
        let (topo, demands) = instance(seed, 12);
        let base = rand_weights(&topo, wseed);
        let cands = neighbor_walk(&topo, &base, deltas, 4, seed ^ (wseed << 2));
        let spec = ObjectiveSpec::two_class_load();

        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        for kind in [BackendKind::Full, BackendKind::Incremental] {
            let mut kc = KClassBatchEvaluator::new(
                &topo, vec![&demands.high, &demands.low], &spec, kind).unwrap();
            for wh in &cands {
                let e = kc.eval(&[wh.clone(), base.clone()]);
                let r = ev.eval_dual(&DualWeights { high: wh.clone(), low: base.clone() });
                prop_assert_eq!(e.phis[0], r.phi_h);
                prop_assert_eq!(e.phis[1], r.phi_l);
                prop_assert_eq!(&e.phi_per_link[0], &r.phi_h_per_link);
                prop_assert_eq!(&e.phi_per_link[1], &r.phi_l_per_link);
                prop_assert_eq!(&e.loads[0], &r.high_loads);
                prop_assert_eq!(&e.loads[1], &r.low_loads);
            }
        }
    }

    /// k-class SLA evaluation agrees bitwise between the Full and
    /// Incremental backends, including the per-class delay walks and
    /// candidate stepping on a middle class.
    #[test]
    fn kclass_sla_full_vs_incremental(seed in 0u64..200, wseed in 0u64..200) {
        let (topo, demands) = instance(seed, 10);
        // Three classes: reuse the two generated matrices at different
        // priorities — the cascade treats every class independently.
        let matrices = vec![&demands.high, &demands.low, &demands.high];
        let spec = ObjectiveSpec::uniform_sla(3, SlaParams::default());
        let base = rand_weights(&topo, wseed);
        let weights = vec![base.clone(), rand_weights(&topo, wseed ^ 0xabcd), base.clone()];
        let cands = neighbor_walk(&topo, &weights[1], 2, 3, seed.wrapping_mul(17) ^ wseed);

        let mut full = KClassBatchEvaluator::new(&topo, matrices.clone(), &spec, BackendKind::Full).unwrap();
        let mut incr = KClassBatchEvaluator::new(&topo, matrices, &spec, BackendKind::Incremental).unwrap();
        prop_assert_eq!(full.eval(&weights), incr.eval(&weights));
        let a = full.eval_class_batch(1, &cands, &weights);
        let b = incr.eval_class_batch(1, &cands, &weights);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x, y);
        }
    }
}

/// Acceptance-criteria check: a seeded `DtrSearch` produces the same
/// incumbent cost (and weights) under both backends.
#[test]
fn seeded_dtr_search_same_incumbent_under_both_backends() {
    use dtr_core::{DtrSearch, SearchParams};
    let (topo, demands) = instance(42, 14);
    let run = |kind: BackendKind| {
        DtrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(7).with_backend(kind),
        )
        .run()
    };
    let full = run(BackendKind::Full);
    let incr = run(BackendKind::Incremental);
    assert_eq!(full.best_cost, incr.best_cost);
    assert_eq!(full.weights, incr.weights);
    assert_eq!(full.eval, incr.eval);
    assert_eq!(full.trace.evaluations, incr.trace.evaluations);
}

/// Same for the STR baseline, under the SLA objective for coverage.
#[test]
fn seeded_str_search_same_incumbent_under_both_backends() {
    use dtr_core::{SearchParams, StrSearch};
    let (topo, demands) = instance(43, 14);
    let run = |kind: BackendKind| {
        StrSearch::new(
            &topo,
            &demands,
            Objective::sla_default(),
            SearchParams::tiny().with_seed(9).with_backend(kind),
        )
        .run()
    };
    let full = run(BackendKind::Full);
    let incr = run(BackendKind::Incremental);
    assert_eq!(full.best_cost, incr.best_cost);
    assert_eq!(full.weights, incr.weights);
}

/// Seeded searches on a 50-node instance — above the fan-out threshold,
/// unlike every golden instance — find the same weights along the same
/// trace on one thread and on two.
#[test]
fn seeded_searches_are_the_same_on_one_thread_and_two() {
    use dtr_core::{DtrSearch, SearchParams, StrSearch};
    let (topo, demands) = instance(44, 50);
    let params = SearchParams::tiny().with_seed(3);
    let run = |threads| {
        with_threads(threads, || {
            let dtr = DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
            let str_ = StrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
            [
                (dtr.weights, dtr.eval, dtr.trace),
                (DualWeights::replicated(str_.weights), str_.eval, str_.trace),
            ]
        })
    };
    assert_eq!(run(1), run(2));
}
