//! The k-class weight search: Algorithm 1 generalized.
//!
//! `k + 1` stages on `dtr-core`'s shared descent driver:
//!
//! | stage | iterations | a step moves | a diversification |
//! |---|---|---|---|
//! | `c = 0 … k−1` | `N` | class `c` | perturbs `g1` of class `c`'s current vector |
//! | refinement | `K` | class `it mod k` | restarts `g3` of every vector away from the incumbent |
//!
//! Every stage but the first starts from the incumbent, so stage `c`
//! runs with all higher classes frozen at their optimized settings —
//! priority isolation guarantees the frozen classes' costs cannot
//! change. Neighborhoods are Algorithm 2's, reusing `dtr-core`'s
//! sampler; a step ranks links by the moved class's per-link cost (the
//! classes below `c` cannot influence class `c`, mirroring the paper's
//! FindH/FindL split).
//!
//! Every cost comes from [`dtr_engine::KClassBatchEvaluator`] on the
//! backend [`SearchParams::backend`] names: a step's candidates are one
//! `eval_class_batch` call (the moved class repairs incrementally, the
//! other classes' sides stay cached) and an accepted move is a `rebase`.
//! The trace logs the full k-component cost of every improvement.

use crate::demand::MultiDemand;
use dtr_core::descent::{best_improving, Descent, Step, Walk};
use dtr_core::neighborhood::{perturb_weights, NeighborhoodSampler, RankTable};
use dtr_core::telemetry::Phase;
use dtr_core::{SearchParams, SearchTrace};
use dtr_cost::{LexCost, ObjectiveError, ObjectiveSpec};
use dtr_engine::{KClassBatchEvaluator, KClassEvaluation};
use dtr_graph::{Topology, WeightVector};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of a k-class search.
#[derive(Debug, Clone)]
pub struct MultiResult {
    /// One weight vector per class, highest priority first.
    pub weights: Vec<WeightVector>,
    /// Evaluation of the returned setting.
    pub eval: KClassEvaluation,
    /// The lexicographic objective value.
    pub best_cost: LexCost,
    /// Telemetry.
    pub trace: SearchTrace,
}

/// The k-class search.
pub struct MultiSearch<'a> {
    kernel: KClassBatchEvaluator<'a>,
    params: SearchParams,
    initial: Option<Vec<WeightVector>>,
}

impl<'a> MultiSearch<'a> {
    /// Prepares a search starting from uniform weights for every class
    /// under `spec` — per-class load or SLA cost components over the
    /// strict-priority residual cascade. The spec's class count must
    /// match the demand set's.
    pub fn with_spec(
        topo: &'a Topology,
        demands: &'a MultiDemand,
        spec: &ObjectiveSpec,
        params: SearchParams,
    ) -> Result<Self, ObjectiveError> {
        params.validate();
        Ok(MultiSearch {
            kernel: KClassBatchEvaluator::new(
                topo,
                demands.classes.iter().collect(),
                spec,
                params.backend,
            )?,
            params,
            initial: None,
        })
    }

    /// Warm-starts the search from `weights` (one vector per class)
    /// instead of the uniform setting. The search only ever replaces its
    /// incumbent with lexicographic improvements, so the result's
    /// leading cost components can never end worse than the start's —
    /// the same never-regress contract the two-class suite relies on.
    pub fn with_initial(mut self, weights: Vec<WeightVector>) -> Self {
        assert_eq!(
            weights.len(),
            self.kernel.class_count(),
            "one initial weight vector per class"
        );
        self.initial = Some(weights);
        self
    }

    /// Runs the staged search.
    pub fn run(mut self) -> MultiResult {
        let params = self.params;
        let k = self.kernel.class_count();
        let topo = self.kernel.topo();
        let weights = self
            .initial
            .take()
            .unwrap_or_else(|| vec![WeightVector::uniform(topo, 1); k]);
        let mut walk = MultiWalk {
            eval: settle_at(&mut self.kernel, &weights),
            kernel: self.kernel,
            params,
            sampler: NeighborhoodSampler::new(topo.link_count(), &params),
            rng: StdRng::seed_from_u64(params.seed),
            class: Some(0),
            weights,
        };
        let mut descent = Descent::start(&walk, params.diversify_after, Phase::OptimizeHigh, 0);

        let stages = (0..k)
            .map(|c| (Some(c), params.n_iters, Phase::OptimizeHigh))
            .chain([(None, params.k_iters, Phase::Refine)]);
        for (i, (class, iters, phase)) in stages.enumerate() {
            if i > 0 {
                // Freeze the finished class at its best before the next.
                walk.weights = descent.best().clone();
                walk.eval = settle_at(&mut walk.kernel, &walk.weights);
            }
            walk.class = class;
            descent.stage(&mut walk, iters, phase);
        }

        let (best_cost, weights, trace) = descent.finish();
        let eval = walk.kernel.eval(&weights);
        debug_assert_eq!(eval.cost, best_cost);
        MultiResult {
            best_cost,
            eval,
            weights,
            trace,
        }
    }
}

/// Rebases every class onto `weights` and evaluates the setting — how
/// the search moves by something other than an accepted step (start,
/// diversification, return to the incumbent).
fn settle_at(kernel: &mut KClassBatchEvaluator<'_>, weights: &[WeightVector]) -> KClassEvaluation {
    for (c, w) in weights.iter().enumerate() {
        kernel.rebase(c, w);
    }
    kernel.eval(weights)
}

/// The working setting and what a step needs to move it.
struct MultiWalk<'a> {
    kernel: KClassBatchEvaluator<'a>,
    params: SearchParams,
    sampler: NeighborhoodSampler,
    rng: StdRng,
    /// The class the running stage optimizes; `None` in refinement,
    /// which rotates across classes.
    class: Option<usize>,
    weights: Vec<WeightVector>,
    eval: KClassEvaluation,
}

impl Walk for MultiWalk<'_> {
    type Cost = LexCost;
    type Point = Vec<WeightVector>;

    fn cost(&self) -> &LexCost {
        &self.eval.cost
    }

    fn snapshot(&self) -> Vec<WeightVector> {
        self.weights.clone()
    }

    /// One Algorithm 2 pass over one class's weights. Only that class is
    /// re-routed; every other class's side is reused.
    fn step(&mut self, it: usize) -> Step {
        let c = self.class.unwrap_or(it % self.weights.len());
        // Rank links by class c's per-link cost.
        let table = RankTable::new(&self.eval.phi_per_link[c]);
        let cands = self
            .sampler
            .neighbors(&table, &self.weights[c], &self.params, &mut self.rng);
        let evaluated = cands.len();
        let evals = self.kernel.eval_class_batch(c, &cands, &self.weights);
        let best = best_improving(evals.into_iter().zip(cands), self.cost(), |(e, _)| &e.cost);
        let moved = best.is_some();
        if let Some((eval, w)) = best {
            self.kernel.rebase(c, &w);
            self.weights[c] = w;
            self.eval = eval;
        }
        Step::of(evaluated, moved)
    }

    fn diversify(&mut self, best: &Vec<WeightVector>) -> usize {
        let p = self.params;
        match self.class {
            Some(c) => perturb_weights(&mut self.weights[c], p.g1, &p, &mut self.rng),
            None => {
                self.weights = best.clone();
                for w in self.weights.iter_mut() {
                    perturb_weights(w, p.g3, &p, &mut self.rng);
                }
            }
        }
        self.eval = settle_at(&mut self.kernel, &self.weights);
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::MultiTrafficCfg;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};

    fn instance(k_extra: usize, seed: u64) -> (Topology, MultiDemand) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed,
        });
        let demands = MultiDemand::generate(
            &topo,
            &MultiTrafficCfg {
                fractions: vec![0.15; k_extra],
                densities: vec![0.1; k_extra],
                seed,
            },
        )
        .scaled(4.0);
        (topo, demands)
    }

    /// The all-load search `⟨Φ_0, …, Φ_{k−1}⟩` over `demands`.
    fn load_search<'a>(
        topo: &'a Topology,
        demands: &'a MultiDemand,
        params: SearchParams,
    ) -> MultiSearch<'a> {
        let spec = ObjectiveSpec::load(demands.class_count());
        MultiSearch::with_spec(topo, demands, &spec, params).unwrap()
    }

    #[test]
    fn three_class_search_improves_all_levels() {
        let (topo, demands) = instance(2, 5);
        let params = SearchParams::tiny().with_seed(5);
        let mut kernel = KClassBatchEvaluator::new(
            &topo,
            demands.classes.iter().collect(),
            &ObjectiveSpec::load(3),
            params.backend,
        )
        .unwrap();
        let initial = kernel.eval(&vec![WeightVector::uniform(&topo, 1); 3]);
        let res = load_search(&topo, &demands, params).run();
        assert_eq!(res.weights.len(), 3);
        assert!(res.best_cost <= initial.cost);
        // Reported cost matches a fresh evaluation of the weights.
        let re = kernel.eval(&res.weights);
        assert_eq!(re.cost, res.best_cost);
        // The trace logs the full cost, not a two-class view of it.
        assert!(res.trace.improvements.iter().all(|i| i.cost.len() == 3));
        assert_eq!(res.trace.final_cost(), Some(&res.best_cost));
    }

    #[test]
    fn single_class_is_a_structured_error() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 6,
        });
        let demands = MultiDemand {
            classes: vec![dtr_traffic::gravity_matrix(10, 6)],
        };
        let err = MultiSearch::with_spec(
            &topo,
            &demands,
            &ObjectiveSpec::load(1),
            SearchParams::tiny(),
        );
        assert!(matches!(
            err.err(),
            Some(ObjectiveError::TooFewClasses { got: 1 })
        ));
    }

    #[test]
    fn deterministic_in_seed() {
        let (topo, demands) = instance(1, 7);
        let run = || load_search(&topo, &demands, SearchParams::tiny().with_seed(11)).run();
        let (a, b) = (run(), run());
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn two_class_quality_comparable_to_dtr_core() {
        // Not bit-identical (different RNG streams / stage structure),
        // but the achieved lexicographic cost must land in the same
        // ballpark as DtrSearch on the identical instance and budget.
        let (topo, demands) = instance(1, 8);
        let ds = dtr_traffic::DemandSet {
            high: demands.classes[0].clone(),
            low: demands.classes[1].clone(),
        };
        let params = SearchParams::quick().with_seed(8);
        let multi = load_search(&topo, &demands, params).run();
        let dtr =
            dtr_core::DtrSearch::new(&topo, &ds, dtr_core::Objective::LoadBased, params).run();
        let (m0, d0) = (multi.best_cost.get(0), dtr.eval.phi_h);
        assert!(
            (m0 - d0).abs() <= 0.25 * d0.max(1.0),
            "primary components diverge: multi {m0} vs dtr {d0}"
        );
    }

    #[test]
    fn sla_spec_search_runs_and_reports_lambda_components() {
        let (topo, demands) = instance(2, 12);
        let spec = ObjectiveSpec::uniform_sla(3, dtr_cost::SlaParams::default());
        let res =
            MultiSearch::with_spec(&topo, &demands, &spec, SearchParams::tiny().with_seed(12))
                .unwrap()
                .run();
        assert_eq!(res.weights.len(), 3);
        assert_eq!(res.best_cost.len(), 3);
        // SLA classes carry their walks; the load class does not.
        assert!(res.eval.sla[0].is_some());
        assert!(res.eval.sla[1].is_some());
        assert!(res.eval.sla[2].is_none());
        // The λ components are the SLA walks' totals, Φ the load class's.
        assert_eq!(
            res.best_cost.get(0),
            res.eval.sla[0].as_ref().unwrap().lambda
        );
        assert_eq!(res.best_cost.get(2), res.eval.phis[2]);
    }

    #[test]
    fn warm_start_never_regresses_from_its_initial_point() {
        let (topo, demands) = instance(2, 4);
        let base = load_search(&topo, &demands, SearchParams::tiny().with_seed(4)).run();
        let warm = load_search(&topo, &demands, SearchParams::tiny().with_seed(40))
            .with_initial(base.weights.clone())
            .run();
        assert!(warm.best_cost <= base.best_cost);
        assert!(warm.best_cost.get(0) <= base.best_cost.get(0));
    }

    #[test]
    fn more_classes_never_improve_higher_levels() {
        // Adding a third class must not change what the first stage can
        // achieve for class 0 (same demand matrix, same budget & seed).
        let (topo, demands3) = instance(2, 9);
        let demands2 = MultiDemand {
            classes: vec![
                demands3.classes[0].clone(),
                // Merge classes 1 and 2 into a single low class.
                {
                    let mut m = demands3.classes[1].clone();
                    for (s, t) in demands3.classes[2].positive_pairs() {
                        m.add(s, t, demands3.classes[2].get(s, t));
                    }
                    m
                },
            ],
        };
        let params = SearchParams::tiny().with_seed(9);
        let r3 = load_search(&topo, &demands3, params).run();
        let r2 = load_search(&topo, &demands2, params).run();
        // Class 0 sees the identical subproblem in both runs.
        let rel = (r3.best_cost.get(0) - r2.best_cost.get(0)).abs() / r2.best_cost.get(0).max(1.0);
        assert!(rel < 0.30, "class-0 outcomes diverged by {rel}");
    }
}
