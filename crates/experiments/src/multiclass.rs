//! Extension experiment: does the DTR benefit compound beyond two
//! classes?
//!
//! The paper stops at two topologies ("we limit ourselves to two", §1)
//! while RFC 4915 supports many. Using `dtr-multi`'s k-class
//! generalization (cascading residual capacities, lexicographic
//! k-tuples), this experiment pits k-topology MTR against a
//! single-topology baseline carrying the same k strictly ordered classes
//! for k = 2, 3, 4, and reports the per-class cost ratio — the k-class
//! analogue of Fig. 2's `R_L`.
//!
//! Expected shape: class 0 is insensitive (both schemes optimize it
//! first, `R ≈ 1`), and the ratio grows toward the *bottom* of the
//! priority ladder: the lowest class inherits everyone's leftovers under
//! a shared routing but can sidestep them with its own topology.

use crate::report::{fmt, Table};
use crate::runner::{cost_ratio, ExperimentCtx, TopologyKind};
use dtr_core::SearchParams;
use dtr_cost::ObjectiveSpec;
use dtr_engine::{KClassBatchEvaluator, KClassEvaluation};
use dtr_graph::{LinkId, Topology, WeightVector};
use dtr_multi::{MultiDemand, MultiSearch, MultiTrafficCfg};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Outcome for one class count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KOutcome {
    /// Number of classes (and MTR topologies).
    pub k: usize,
    /// Per-class Φ under the single-topology baseline.
    pub str_phis: Vec<f64>,
    /// Per-class Φ under k-topology MTR.
    pub mtr_phis: Vec<f64>,
    /// Per-class ratio `Φ_str / Φ_mtr`.
    pub ratios: Vec<f64>,
    /// Average link utilization (MTR routing).
    pub avg_util: f64,
}

/// The all-load kernel `⟨Φ_0, …, Φ_{k−1}⟩` over `demands`.
fn load_kernel<'a>(
    topo: &'a Topology,
    demands: &'a MultiDemand,
    params: &SearchParams,
) -> KClassBatchEvaluator<'a> {
    KClassBatchEvaluator::new(
        topo,
        demands.classes.iter().collect(),
        &ObjectiveSpec::load(demands.class_count()),
        params.backend,
    )
    .expect("workloads carry 2..=4 classes")
}

/// Single-topology baseline for a k-class workload: one shared weight
/// vector, same lexicographic objective, single-weight-change local
/// search at the same candidate budget as the staged MTR search.
fn str_baseline(topo: &Topology, demands: &MultiDemand, params: SearchParams) -> Vec<f64> {
    let k = demands.class_count();
    let mut ev = load_kernel(topo, demands, &params);
    let mut rng = StdRng::seed_from_u64(params.seed ^ 0x5f5f);
    let n_links = topo.link_count();

    let replicate = |w: &WeightVector| vec![w.clone(); k];
    let mut cur_w = WeightVector::uniform(topo, 1);
    let mut cur = ev.eval(&replicate(&cur_w));
    let mut best = (cur.cost.clone(), cur.phis.clone());
    let mut stall = 0usize;

    // Budget parity with MultiSearch: k stages of n_iters plus k_iters.
    let iters = k * params.n_iters + params.k_iters;
    for _ in 0..iters {
        let mut best_cand: Option<(KClassEvaluation, WeightVector)> = None;
        for _ in 0..params.neighbors {
            let lid = LinkId(rng.random_range(0..n_links as u32));
            let old = cur_w.get(lid);
            let mut v = rng.random_range(params.min_weight..=params.max_weight);
            if v == old {
                v = if v == params.max_weight {
                    params.min_weight
                } else {
                    v + 1
                };
            }
            let mut w = cur_w.clone();
            w.set(lid, v);
            let e = ev.eval(&replicate(&w));
            if best_cand.as_ref().is_none_or(|(b, _)| e.cost < b.cost) {
                best_cand = Some((e, w));
            }
        }
        match best_cand {
            Some((e, w)) if e.cost < cur.cost => {
                cur = e;
                cur_w = w;
                rebase_all(&mut ev, &cur_w);
                if cur.cost < best.0 {
                    best = (cur.cost.clone(), cur.phis.clone());
                    stall = 0;
                } else {
                    stall += 1;
                }
            }
            _ => stall += 1,
        }
        if stall >= params.diversify_after {
            dtr_core::neighborhood::perturb_weights(&mut cur_w, params.g1, &params, &mut rng);
            rebase_all(&mut ev, &cur_w);
            cur = ev.eval(&replicate(&cur_w));
            stall = 0;
        }
    }
    best.1
}

/// Every class rides the shared vector, so every class's base follows it.
fn rebase_all(ev: &mut KClassBatchEvaluator<'_>, w: &WeightVector) {
    for c in 0..ev.class_count() {
        ev.rebase(c, w);
    }
}

/// Builds the k-class workload: the priority classes split 30 % of the
/// volume evenly, each with 10 % pair density — so total priority volume
/// matches the paper's `f = 30 %` at every k.
pub fn workload(k: usize, seed: u64) -> MultiTrafficCfg {
    assert!(k >= 2);
    let extra = k - 1;
    MultiTrafficCfg {
        fractions: vec![0.30 / extra as f64; extra],
        densities: vec![0.10; extra],
        seed,
    }
}

/// Runs the study for k = 2, 3, 4 on the paper's random topology.
pub fn run(ctx: &ExperimentCtx) -> Vec<KOutcome> {
    let topo = TopologyKind::Random.build(ctx.seed);
    let params = ctx.params.with_seed(ctx.seed);

    (2..=4usize)
        .map(|k| {
            let base = MultiDemand::generate(&topo, &workload(k, ctx.seed));
            // Scale to AD ≈ 0.6 under uniform shared weights.
            let uniform = vec![WeightVector::uniform(&topo, 1); k];
            let probe = load_kernel(&topo, &base, &params)
                .eval(&uniform)
                .avg_utilization(&topo);
            let demands = base.scaled(0.6 / probe);

            let mtr = MultiSearch::with_spec(&topo, &demands, &ObjectiveSpec::load(k), params)
                .expect("workloads carry 2..=4 classes")
                .run();
            let str_phis = str_baseline(&topo, &demands, params);
            let ratios: Vec<f64> = str_phis
                .iter()
                .zip(&mtr.eval.phis)
                .map(|(&s, &m)| cost_ratio(s, m))
                .collect();
            KOutcome {
                k,
                avg_util: mtr.eval.avg_utilization(&topo),
                str_phis,
                mtr_phis: mtr.eval.phis.clone(),
                ratios,
            }
        })
        .collect()
}

/// Renders one row per (k, class).
pub fn table(outcomes: &[KOutcome]) -> Table {
    let mut t = Table::new(
        "k-class MTR vs single-topology routing (random topology, 30% priority volume, AD≈0.6)",
        &["k", "class", "str_phi", "mtr_phi", "ratio"],
    );
    for o in outcomes {
        for c in 0..o.k {
            t.row(vec![
                o.k.to_string(),
                if c == o.k - 1 {
                    format!("{c} (base)")
                } else {
                    c.to_string()
                },
                fmt(o.str_phis[c], 1),
                fmt(o.mtr_phis[c], 1),
                fmt(o.ratios[c], 2),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_favor_lower_classes() {
        let mut ctx = ExperimentCtx::smoke();
        ctx.params = SearchParams::tiny();
        let outcomes = run(&ctx);
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert_eq!(o.str_phis.len(), o.k);
            assert_eq!(o.mtr_phis.len(), o.k);
            // The top class is optimized first by both schemes: near-par.
            assert!(o.ratios[0] < 3.0, "k={}: top ratio {}", o.k, o.ratios[0]);
            // The base class must not be *worse* under MTR.
            assert!(
                *o.ratios.last().unwrap() >= 0.95,
                "k={}: base ratio {:?}",
                o.k,
                o.ratios
            );
            assert!(o.avg_util > 0.0);
        }
        let t = table(&outcomes);
        assert_eq!(t.rows.len(), 2 + 3 + 4);
    }

    #[test]
    fn workload_preserves_total_priority_volume() {
        for k in 2..=4 {
            let cfg = workload(k, 1);
            assert_eq!(cfg.class_count(), k);
            let f: f64 = cfg.fractions.iter().sum();
            assert!((f - 0.30).abs() < 1e-12);
        }
    }
}
