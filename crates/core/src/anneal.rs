//! Simulated-annealing weight search — a search-strategy ablation.
//!
//! Fortz–Thorup-style local search (our STR baseline) and genetic
//! algorithms (\[3\], [`crate::ga`]) are two of the classic heuristic
//! families for the OSPF weight-setting problem; simulated annealing is
//! the third. [`AnnealSearch`] implements it for both routing schemes —
//! [`Scheme::Str`] anneals a single weight vector, [`Scheme::Dtr`]
//! anneals the dual vector `{W^H, W^L}`, costing a move through the same
//! [`BatchEvaluator::eval_class_batch`] call as Algorithm 1's passes
//! (partial deployment included) — so all three strategies can be
//! compared at an identical evaluation budget
//! ([`SearchParams::dtr_eval_budget`]).
//!
//! ## Annealing a lexicographic objective
//!
//! The Metropolis rule needs a scalar degradation `δ ≥ 0` to compute the
//! acceptance probability `exp(−δ/T)`, but the paper's objectives are
//! lexicographic tuples. We bridge the two as follows:
//!
//! - an improving move (`cost' < cost` in the lexicographic order) is
//!   always accepted;
//! - a degrading move is accepted with probability `exp(−δ/T)` where
//!   `δ = PRIMARY_EMPHASIS · relΔ(primary) + relΔ(secondary)` and
//!   `relΔ(x) = max(0, (x' − x)/max(x, δ₀))` is the *relative* component
//!   degradation (scale-free, so one temperature schedule works across
//!   topologies and load levels).
//!
//! The scalarization steers only the *exploration*; the reported result
//! is the lexicographically best solution ever evaluated, so the answer
//! is exact with respect to the paper's objective even though the walk
//! uses a surrogate. `PRIMARY_EMPHASIS` plays the role §3.3.1's `α`
//! plays for the joint cost function — but here a poor choice merely
//! slows the walk; it cannot produce a priority inversion in the
//! reported solution.
//!
//! The temperature starts at a value calibrated so the *median* sampled
//! degradation is accepted with probability ≈ 0.8 (standard practice)
//! and decays geometrically to a floor over the evaluation budget.

use crate::descent::SingleChange;
use crate::params::SearchParams;
use crate::scheme::Scheme;
use crate::telemetry::{Phase, SearchResult, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_engine::{BatchEvaluator, Class};
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_routing::Evaluation;
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Annealing-specific knobs; the evaluation budget and weight range come
/// from [`SearchParams`] so runs are comparable with the other searches.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnealParams {
    /// Acceptance probability targeted for the median degradation when
    /// calibrating the initial temperature (0.8 is standard).
    pub initial_acceptance: f64,
    /// Fraction of the initial temperature reached at the end of the
    /// budget (the geometric decay rate follows from this and the
    /// budget).
    pub final_temp_frac: f64,
    /// Weight of the primary (high-priority) component in the scalar
    /// degradation surrogate.
    pub primary_emphasis: f64,
    /// Moves sampled up-front to calibrate the temperature (spent from
    /// the same evaluation budget).
    pub calibration_samples: usize,
}

impl Default for AnnealParams {
    fn default() -> Self {
        AnnealParams {
            initial_acceptance: 0.8,
            final_temp_frac: 1e-3,
            primary_emphasis: 10.0,
            calibration_samples: 30,
        }
    }
}

/// Simulated annealing over link weights. Under [`Scheme::Str`] the
/// result's two vectors are identical replicas;
/// [`SearchTrace::uphill_accepted`] counts the degrading moves the walk
/// took.
pub struct AnnealSearch<'a> {
    engine: BatchEvaluator<'a>,
    params: SearchParams,
    anneal: AnnealParams,
    mode: Scheme,
}

/// Floor used when normalizing relative degradations of near-zero costs.
const DELTA_FLOOR: f64 = 1e-9;

impl<'a> AnnealSearch<'a> {
    /// Prepares an annealer with default [`AnnealParams`].
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
        mode: Scheme,
    ) -> Self {
        params.validate();
        AnnealSearch {
            engine: BatchEvaluator::new(topo, demands, objective, params.backend),
            params,
            anneal: AnnealParams::default(),
            mode,
        }
    }

    /// Binds a partial-deployment model (DTR mode, load-based objective
    /// only): candidate evaluations route the low class down the hybrid
    /// DAGs with trapped demand penalized, so the walk optimizes the
    /// mixed network it will actually run on. A full set is a no-op.
    pub fn with_deployment(mut self, dep: dtr_routing::DeploymentSet) -> Self {
        assert!(
            matches!(self.mode, Scheme::Dtr) || dep.is_full(),
            "partial deployment requires DTR mode (STR is deployment-invariant)"
        );
        self.engine
            .set_deployment(Some(dep))
            .expect("anneal deployment: load-based objective and matching node count required");
        self
    }

    /// Overrides the annealing knobs.
    pub fn with_anneal_params(mut self, anneal: AnnealParams) -> Self {
        assert!(
            (0.0..1.0).contains(&anneal.initial_acceptance) && anneal.initial_acceptance > 0.0,
            "initial acceptance must be in (0,1)"
        );
        assert!(
            anneal.final_temp_frac > 0.0 && anneal.final_temp_frac < 1.0,
            "final temperature fraction must be in (0,1)"
        );
        assert!(
            anneal.primary_emphasis >= 1.0,
            "primary emphasis must be ≥ 1"
        );
        assert!(anneal.calibration_samples >= 1, "need calibration samples");
        self.anneal = anneal;
        self
    }

    /// Scalar degradation surrogate `δ` for a move from `from` to `to`
    /// (0 when the move improves lexicographically).
    fn degradation(&self, from: Lex2, to: Lex2) -> f64 {
        if to < from {
            return 0.0;
        }
        let rel = |new: f64, old: f64| ((new - old) / old.max(DELTA_FLOOR)).max(0.0);
        self.anneal.primary_emphasis * rel(to.primary, from.primary)
            + rel(to.secondary, from.secondary)
    }

    /// Proposes a single-weight-change move away from `w` (evaluated as
    /// `at`, the engine's base) — one class in DTR mode, one link, one
    /// fresh weight value guaranteed to differ from the old one — and
    /// costs it: only the moved class is re-routed.
    fn probe(&mut self, w: &DualWeights, at: &Evaluation, rng: &mut StdRng) -> Probe {
        let change = SingleChange::draw(self.mode, w, &self.params, rng);
        let mut weights = w.clone();
        change.apply(self.mode, &mut weights);
        let class = if change.high { Class::High } else { Class::Low };
        let eval = match self.mode {
            Scheme::Str => self.engine.eval_joint(&weights.high),
            Scheme::Dtr => {
                let moved = std::slice::from_ref(class.of(&weights));
                let mut evals = self.engine.eval_class_batch(class, moved, w, at);
                evals.pop().expect("one candidate in, one evaluation out")
            }
        };
        Probe {
            weights,
            class,
            eval,
        }
    }

    /// Runs the annealer until the evaluation budget
    /// ([`SearchParams::dtr_eval_budget`]) is spent.
    pub fn run(mut self) -> SearchResult {
        let params = self.params;
        let anneal = self.anneal;
        let budget = params.dtr_eval_budget();
        // Salted so strategy ablations with a shared `seed` explore
        // independent candidate streams (see DESIGN.md fair-budget notes).
        let mut rng = StdRng::seed_from_u64(params.seed ^ 0x616e_6e65_616c_0001);
        let mut trace = SearchTrace::default();

        // The engine's lanes start based at uniform weight 1.
        let mut cur_w = DualWeights::replicated(WeightVector::uniform(self.engine.topo(), 1));
        let mut cur = match self.mode {
            Scheme::Str => self.engine.eval_joint(&cur_w.high),
            Scheme::Dtr => self.engine.eval_dual(&cur_w),
        };
        trace.evaluations += 1;
        let mut best_w = cur_w.clone();
        let mut best = cur.clone();
        trace.improved(0, Phase::Str, best.cost);

        // --- Temperature calibration: sample random moves, set T₀ so the
        // median degradation is accepted with the target probability. ---
        let mut degradations = Vec::with_capacity(anneal.calibration_samples);
        while degradations.len() < anneal.calibration_samples && trace.evaluations < budget {
            let cand = self.probe(&cur_w, &cur, &mut rng);
            trace.evaluations += 1;
            let d = self.degradation(cur.cost, cand.eval.cost);
            if d > 0.0 {
                degradations.push(d);
            }
            if cand.eval.cost < best.cost {
                best = cand.eval;
                best_w = cand.weights;
                trace.improved(trace.evaluations, Phase::Str, best.cost);
            }
        }
        degradations.sort_by(f64::total_cmp);
        let median = degradations
            .get(degradations.len() / 2)
            .copied()
            .unwrap_or(1.0);
        // exp(−median/T₀) = initial_acceptance  ⇒  T₀ = −median/ln(p₀).
        let t0 = (-median / anneal.initial_acceptance.ln()).max(DELTA_FLOOR);
        let remaining = budget.saturating_sub(trace.evaluations).max(1);
        // Geometric decay hitting `final_temp_frac·T₀` on the last move.
        let decay = anneal.final_temp_frac.powf(1.0 / remaining as f64);

        // --- The walk. ---
        let mut temp = t0;
        while trace.evaluations < budget {
            trace.iterations += 1;
            let cand = self.probe(&cur_w, &cur, &mut rng);
            trace.evaluations += 1;

            let d = self.degradation(cur.cost, cand.eval.cost);
            let accept = if d == 0.0 {
                true
            } else {
                rng.random_bool(((-d / temp).exp()).clamp(0.0, 1.0))
            };
            if accept {
                if d > 0.0 {
                    trace.uphill_accepted += 1;
                }
                match self.mode {
                    Scheme::Str => self.engine.rebase_joint(&cand.weights.high),
                    Scheme::Dtr => self.engine.rebase(cand.class, cand.class.of(&cand.weights)),
                }
                cur = cand.eval;
                cur_w = cand.weights;
                trace.moves_accepted += 1;
                if cur.cost < best.cost {
                    best = cur.clone();
                    best_w = cur_w.clone();
                    trace.improved(trace.evaluations, Phase::Str, best.cost);
                }
            }
            temp = (temp * decay).max(t0 * anneal.final_temp_frac);
        }

        SearchResult {
            best_cost: best.cost,
            eval: best,
            weights: best_w,
            trace,
        }
    }
}

/// A proposed move, costed.
struct Probe {
    /// The setting after the move.
    weights: DualWeights,
    /// The class whose vector moved (under STR the other follows it).
    class: Class,
    eval: Evaluation,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_routing::Evaluator;
    use dtr_traffic::{TrafficCfg, TrafficMatrix};

    fn triangle_instance() -> (Topology, DemandSet) {
        let topo = triangle_topology(1.0);
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0 / 3.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0 / 3.0);
        (topo, DemandSet { high, low })
    }

    #[test]
    fn str_mode_finds_triangle_optimum() {
        let (topo, demands) = triangle_instance();
        let res = AnnealSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(4),
            Scheme::Str,
        )
        .run();
        assert!(
            (res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9,
            "phi_h={}",
            res.eval.phi_h
        );
        assert!(
            (res.eval.phi_l - 64.0 / 9.0).abs() < 1e-9,
            "phi_l={}",
            res.eval.phi_l
        );
        // STR mode keeps the replicas in lock-step.
        assert_eq!(res.weights.high, res.weights.low);
    }

    #[test]
    fn dtr_mode_beats_str_mode_on_triangle() {
        // The dual annealer must discover that the low class can detour:
        // its Φ_L strictly beats the STR optimum's 64/9 while Φ_H stays
        // at the direct-routing optimum.
        let (topo, demands) = triangle_instance();
        let dtr = AnnealSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(4),
            Scheme::Dtr,
        )
        .run();
        assert!((dtr.eval.phi_h - 1.0 / 3.0).abs() < 1e-9);
        assert!(
            dtr.eval.phi_l < 64.0 / 9.0 - 1e-9,
            "phi_l={}",
            dtr.eval.phi_l
        );
    }

    #[test]
    fn respects_eval_budget() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 2,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 2,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let params = SearchParams::tiny().with_seed(2);
        for mode in [Scheme::Str, Scheme::Dtr] {
            let res = AnnealSearch::new(&topo, &demands, Objective::LoadBased, params, mode).run();
            assert!(res.trace.evaluations <= params.dtr_eval_budget());
        }
    }

    #[test]
    fn never_worse_than_uniform_start() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 7,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 7,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let uniform = ev.eval_str(&WeightVector::uniform(&topo, 1)).cost;
        let res = AnnealSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(7),
            Scheme::Str,
        )
        .run();
        assert!(res.best_cost <= uniform);
    }

    #[test]
    fn deterministic_in_seed() {
        let (topo, demands) = triangle_instance();
        let run = || {
            AnnealSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(13),
                Scheme::Dtr,
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.trace.uphill_accepted, b.trace.uphill_accepted);
    }

    #[test]
    fn degradation_is_zero_for_improving_moves() {
        let (topo, demands) = triangle_instance();
        let s = AnnealSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            Scheme::Str,
        );
        assert_eq!(s.degradation(Lex2::new(2.0, 2.0), Lex2::new(1.0, 5.0)), 0.0);
        assert_eq!(s.degradation(Lex2::new(2.0, 2.0), Lex2::new(2.0, 1.0)), 0.0);
        // Pure secondary degradation: relΔ = (3−2)/2 = 0.5.
        assert!((s.degradation(Lex2::new(2.0, 2.0), Lex2::new(2.0, 3.0)) - 0.5).abs() < 1e-12);
        // Primary degradation is weighted by the emphasis factor.
        let d = s.degradation(Lex2::new(2.0, 2.0), Lex2::new(3.0, 2.0));
        assert!((d - 10.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn works_under_sla_objective() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 3,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 3,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let res = AnnealSearch::new(
            &topo,
            &demands,
            Objective::sla_default(),
            SearchParams::tiny().with_seed(1),
            Scheme::Dtr,
        )
        .run();
        assert!(res.eval.sla.is_some());
    }

    #[test]
    #[should_panic(expected = "primary emphasis")]
    fn rejects_bad_anneal_params() {
        let (topo, demands) = triangle_instance();
        let _ = AnnealSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            Scheme::Str,
        )
        .with_anneal_params(AnnealParams {
            primary_emphasis: 0.5,
            ..Default::default()
        });
    }
}
