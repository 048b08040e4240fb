//! The k-class weight search: Algorithm 1 generalized.
//!
//! Stage `c` (for `c = 0 … k−1`) optimizes class `c`'s weight vector
//! with all higher classes frozen at their optimized settings — priority
//! isolation guarantees the frozen classes' costs cannot change. A final
//! refinement stage rotates moves across all classes. Neighborhoods are
//! Algorithm 2's, reusing `dtr-core`'s sampler; each stage ranks links by
//! the *remaining* lexicographic link cost `⟨Φ_c,l, …, Φ_{k−1},l⟩`
//! projected onto its leading component (the classes below `c` cannot
//! influence class `c`, mirroring the paper's FindH/FindL split).
//!
//! Every cost comes from [`dtr_engine::KClassBatchEvaluator`] on the
//! backend [`SearchParams::backend`] names: a step's candidates are one
//! `eval_class_batch` call (the moved class repairs incrementally, the
//! other classes' sides stay cached) and an accepted move is a `rebase`.

use crate::demand::MultiDemand;
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
        let mut rng = StdRng::seed_from_u64(params.seed);
        let sampler = NeighborhoodSampler::new(topo.link_count(), &params);
        let mut trace = SearchTrace::default();

        let mut weights = self
            .initial
            .take()
            .unwrap_or_else(|| vec![WeightVector::uniform(topo, 1); k]);
        let mut eval = self.jump_to(&weights);
        let mut best = (eval.cost.clone(), weights.clone());
        trace.improved(0, Phase::OptimizeHigh, eval.cost.two_view());

        // Stage per class: optimize class c with classes < c frozen at
        // their best and classes > c at their current settings.
        for c in 0..k {
            let mut stall = 0usize;
            for _ in 0..params.n_iters {
                trace.iterations += 1;
                let moved =
                    self.step_class(c, &sampler, &mut weights, &mut eval, &mut rng, &mut trace);
                if moved && eval.cost < best.0 {
                    best = (eval.cost.clone(), weights.clone());
                    trace.improved(trace.iterations, Phase::OptimizeHigh, eval.cost.two_view());
                    stall = 0;
                } else {
                    stall += 1;
                }
                if stall >= params.diversify_after {
                    perturb_weights(&mut weights[c], params.g1, &params, &mut rng);
                    eval = self.jump_to(&weights);
                    trace.diversifications += 1;
                    stall = 0;
                }
            }
            // Freeze this class at its best before optimizing the next.
            weights = best.1.clone();
            eval = self.jump_to(&weights);
        }

        // Refinement: rotate across classes.
        let mut stall = 0usize;
        for it in 0..params.k_iters {
            trace.iterations += 1;
            let c = it % k;
            let moved = self.step_class(c, &sampler, &mut weights, &mut eval, &mut rng, &mut trace);
            if moved && eval.cost < best.0 {
                best = (eval.cost.clone(), weights.clone());
                trace.improved(trace.iterations, Phase::Refine, eval.cost.two_view());
                stall = 0;
            } else {
                stall += 1;
            }
            if stall >= params.diversify_after {
                weights = best.1.clone();
                for w in weights.iter_mut() {
                    perturb_weights(w, params.g3, &params, &mut rng);
                }
                eval = self.jump_to(&weights);
                trace.diversifications += 1;
                stall = 0;
            }
        }

        let weights = best.1;
        let eval = self.kernel.eval(&weights);
        debug_assert_eq!(eval.cost, best.0);
        MultiResult {
            best_cost: eval.cost.clone(),
            eval,
            weights,
            trace,
        }
    }

    /// Moves the search to `weights` by something other than an
    /// accepted step (start, diversification, return to the incumbent):
    /// rebases every class there and evaluates the setting.
    fn jump_to(&mut self, weights: &[WeightVector]) -> KClassEvaluation {
        for (c, w) in weights.iter().enumerate() {
            self.kernel.rebase(c, w);
        }
        self.kernel.eval(weights)
    }

    /// One Algorithm 2 pass over class `c`'s weights. Only class `c` is
    /// re-routed; every other class's side is reused.
    fn step_class(
        &mut self,
        c: usize,
        sampler: &NeighborhoodSampler,
        weights: &mut [WeightVector],
        eval: &mut KClassEvaluation,
        rng: &mut StdRng,
        trace: &mut SearchTrace,
    ) -> bool {
        // Rank links by class c's per-link cost.
        let table = RankTable::new(&eval.phi_per_link[c]);
        let cands: Vec<WeightVector> = sampler
            .moves(&table, &self.params, rng)
            .into_iter()
            .filter_map(|mv| {
                let mut w = weights[c].clone();
                mv.apply(&mut w, &self.params);
                (w != weights[c]).then_some(w)
            })
            .collect();
        let evals = self.kernel.eval_class_batch(c, &cands, weights);
        trace.evaluations += cands.len();

        let mut best_cand: Option<(KClassEvaluation, WeightVector)> = None;
        for (cand, w) in evals.into_iter().zip(cands) {
            if best_cand.as_ref().is_none_or(|(b, _)| cand.cost < b.cost) {
                best_cand = Some((cand, w));
            }
        }
        match best_cand {
            Some((cand, w)) if cand.cost < eval.cost => {
                self.kernel.rebase(c, &w);
                weights[c] = w;
                *eval = cand;
                trace.moves_accepted += 1;
                true
            }
            _ => false,
        }
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
    }

    #[test]
    fn single_class_is_a_structured_error() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 6,
        });
        let demands = MultiDemand {
            classes: vec![dtr_traffic::gravity_matrix(
                10,
                &dtr_traffic::GravityCfg::default(),
                6,
            )],
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
