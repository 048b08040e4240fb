//! Failure-aware weight optimization (in the spirit of Nucci et al. \[5\]).
//!
//! The DTR/STR searches of this crate optimize for the *intact* network;
//! the corpus's failure-policy instances show what a link failure does
//! to such weights. This module closes the loop: it searches for
//! weights that are good *both* intact and after any single duplex-pair
//! failure, the robustness model of \[5\] (OSPF reroutes around the cut
//! with unchanged weights, so the weight setting itself must leave
//! headroom).
//!
//! For a candidate setting `W`, the robust cost blends the intact
//! lexicographic cost with the worst post-failure cost, component-wise:
//!
//! ```text
//! robust(W) = ⟨ (1−β)·Φ_H + β·max_s Φ_H^s ,  (1−β)·Φ_L + β·max_s Φ_L^s ⟩
//! ```
//!
//! where `s` ranges over the survivable single duplex-pair failures of
//! the topology and `β ∈ [0, 1]` sets the operator's risk posture
//! ([`ScenarioCombine`] also offers pure `Worst` and `Average`
//! combinations). `β = 0` recovers the nominal objective; `β = 1` is pure
//! worst-case planning. The lexicographic precedence of the high class is
//! preserved in every combination.
//!
//! The search is one stage of [`SearchParams::str_iters`] iterations on
//! the shared [`descent`](crate::descent) driver: a step proposes `m`
//! single-weight changes under the [`Scheme`], a diversification
//! perturbs `g1` of `W^H` and `g2` of `W^L` (STR: the shared vector).
//! A candidate costs `1 + |scenarios|` routing evaluations through
//! [`dtr_engine::BatchEvaluator`], whose **failure-sweep backend**
//! ([`SearchParams::backend`] `= Incremental`, the default) evaluates
//! all scenarios of one candidate against a single intact SPF state — a
//! failed duplex pair is two link-mask deltas repaired and reverted in
//! place. Both backends produce bit-identical costs, so backend choice
//! never changes the incumbent, only wall-clock time.
//!
//! [`RobustSearch::with_scenario_cap`] trades fidelity for speed by
//! optimizing against only the `cap` worst scenarios of the *initial*
//! solution — beware that this is a real approximation: a move can
//! improve every capped scenario while degrading an uncapped one, and
//! the search will not notice. The dropped pair ids are recorded in
//! [`SearchTrace::dropped_scenarios`] so the blind spots are at least
//! observable. With the incremental sweep backend the full set is
//! affordable far more often; prefer it whenever it is.
//!
//! Only the load-based objective is supported: a post-failure SLA
//! evaluation would need per-scenario delay DAGs, and §5's robustness
//! question is about load headroom.

use crate::descent::{best_improving, Descent, SingleChange, Step, Walk};
use crate::neighborhood::perturb_weights;
use crate::params::SearchParams;
use crate::scheme::Scheme;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{phi, Lex2, Objective};
use dtr_engine::{BackendKind, BatchEvaluator};
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_routing::{survivable_duplex_failures, FailureScenario};
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// How per-scenario costs are folded into one robust cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScenarioCombine {
    /// Ignore the intact cost; minimize the worst post-failure cost.
    Worst,
    /// Minimize the mean over intact + all failure scenarios.
    Average,
    /// `(1−β)·intact + β·worst` per component (β ∈ [0, 1]).
    Blend {
        /// Weight of the worst-case component.
        beta: f64,
    },
}

/// Cost breakdown of one weight setting under the robust objective.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustCost {
    /// Intact-topology `⟨Φ_H, Φ_L⟩`.
    pub intact: Lex2,
    /// Worst per-component post-failure cost (component-wise maximum, so
    /// the two components may come from different scenarios).
    pub worst: Lex2,
    /// Mean per-component cost over intact + failures.
    pub average: Lex2,
    /// The combined cost the search minimizes.
    pub combined: Lex2,
}

/// Outcome of a robust search.
#[derive(Debug, Clone)]
pub struct RobustResult {
    /// Best dual setting found (replicated vectors in STR mode).
    pub weights: DualWeights,
    /// Cost breakdown of the best setting over the *optimization*
    /// scenario set (the capped set if a cap was requested).
    pub cost: RobustCost,
    /// Scenarios the search optimized against.
    pub scenarios_used: usize,
    /// Telemetry; `evaluations` counts candidate settings (each costing
    /// `1 + scenarios_used` routing evaluations).
    pub trace: SearchTrace,
}

/// Evaluates weight settings against a failure-scenario set.
///
/// Evaluation is driven through [`BatchEvaluator`]: the intact loads
/// come from the nominal candidate path and the per-scenario loads from
/// the failure-sweep path ([`BatchEvaluator::sweep_high`] /
/// [`BatchEvaluator::sweep_low`]), both bit-identical to
/// `LoadCalculator::class_loads_masked` full evaluation regardless of
/// backend. Cost assembly stays here: the robust cost needs masked
/// loads folded per scenario, which the nominal
/// [`dtr_routing::Evaluator`] does not model.
pub struct RobustEvaluator<'a> {
    topo: &'a Topology,
    scenarios: Vec<FailureScenario>,
    combine: ScenarioCombine,
    engine: BatchEvaluator<'a>,
}

impl<'a> RobustEvaluator<'a> {
    /// Binds the instance and enumerates all survivable duplex failures,
    /// evaluating through the default (incremental) backend.
    pub fn new(topo: &'a Topology, demands: &'a DemandSet, combine: ScenarioCombine) -> Self {
        Self::with_backend(topo, demands, combine, BackendKind::default())
    }

    /// [`Self::new`] with an explicit evaluation backend.
    pub fn with_backend(
        topo: &'a Topology,
        demands: &'a DemandSet,
        combine: ScenarioCombine,
        backend: BackendKind,
    ) -> Self {
        if let ScenarioCombine::Blend { beta } = combine {
            assert!((0.0..=1.0).contains(&beta), "β must be in [0,1]");
        }
        RobustEvaluator {
            topo,
            scenarios: survivable_duplex_failures(topo),
            combine,
            engine: BatchEvaluator::new(topo, demands, Objective::LoadBased, backend),
        }
    }

    /// Number of failure scenarios currently evaluated.
    pub fn scenario_count(&self) -> usize {
        self.scenarios.len()
    }

    /// Pair ids of the scenarios currently evaluated (ascending).
    pub fn pair_ids(&self) -> Vec<u32> {
        self.scenarios.iter().map(|s| s.pair_id).collect()
    }

    /// Moves the engine's base onto `w` (the search accepted a move or
    /// diversified), keeping the incremental backend's repairs small.
    pub fn rebase(&mut self, w: &DualWeights) {
        self.engine.rebase_high(&w.high);
        self.engine.rebase_low(&w.low);
    }

    /// Restricts the scenario set to the `cap` scenarios with the worst
    /// low-priority cost under `w` (plus ties broken by pair id). Returns
    /// the retained pair ids.
    pub fn cap_to_worst(&mut self, w: &DualWeights, cap: usize) -> Vec<u32> {
        if cap >= self.scenarios.len() {
            return self.pair_ids();
        }
        let costs = self.scenario_costs(w);
        let mut scored: Vec<(f64, usize)> = costs
            .iter()
            .enumerate()
            .map(|(i, c)| (c.secondary, i))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut keep: Vec<usize> = scored[..cap].iter().map(|&(_, i)| i).collect();
        keep.sort_unstable();
        let scenarios = std::mem::take(&mut self.scenarios);
        let mut kept = Vec::with_capacity(cap);
        let mut next = Vec::with_capacity(cap);
        for i in keep {
            kept.push(scenarios[i].pair_id);
            next.push(scenarios[i].clone());
        }
        self.scenarios = next;
        kept
    }

    /// Restricts the scenario set to the given pair ids (unknown ids are
    /// ignored). The cheap sibling of [`Self::cap_to_worst`] for callers
    /// that already know which pairs to keep — e.g. the portfolio's
    /// canonical evaluator, which derives the capped set once from the
    /// shared initial setting and reuses it across every arm instead of
    /// re-paying the `1 + |scenarios|` evaluations per arm.
    pub fn retain_pairs(&mut self, keep: &[u32]) {
        self.scenarios.retain(|s| keep.contains(&s.pair_id));
    }

    /// Per-scenario costs of `w`, in scenario order: one class sweep per
    /// side, folded link-wise into `⟨Φ_H, Φ_L⟩` with the low class
    /// charged against the post-failure residual capacity.
    fn scenario_costs(&mut self, w: &DualWeights) -> Vec<Lex2> {
        let h = self.engine.sweep_high(&w.high, &self.scenarios);
        let l = self.engine.sweep_low(&w.low, &self.scenarios);
        h.iter()
            .zip(&l)
            .map(|(h, l)| cost_from_loads(self.topo, h, l))
            .collect()
    }

    /// Full robust evaluation of one setting.
    pub fn eval(&mut self, w: &DualWeights) -> RobustCost {
        let h = self.engine.high_loads(&w.high);
        let l = self.engine.low_loads(&w.low);
        let intact = cost_from_loads(self.topo, &h, &l);

        let mut worst_h = intact.primary;
        let mut worst_l = intact.secondary;
        let mut sum_h = intact.primary;
        let mut sum_l = intact.secondary;
        for c in self.scenario_costs(w) {
            worst_h = worst_h.max(c.primary);
            worst_l = worst_l.max(c.secondary);
            sum_h += c.primary;
            sum_l += c.secondary;
        }
        let count = (self.scenarios.len() + 1) as f64;

        let worst = Lex2::new(worst_h, worst_l);
        let average = Lex2::new(sum_h / count, sum_l / count);
        let combined = match self.combine {
            ScenarioCombine::Worst => worst,
            ScenarioCombine::Average => average,
            ScenarioCombine::Blend { beta } => Lex2::new(
                (1.0 - beta) * intact.primary + beta * worst.primary,
                (1.0 - beta) * intact.secondary + beta * worst.secondary,
            ),
        };
        RobustCost {
            intact,
            worst,
            average,
            combined,
        }
    }
}

/// `⟨Φ_H, Φ_L⟩` of one scenario's class loads, with the low class
/// charged against the residual capacity the high class leaves (§3's
/// priority-queueing model) — the same link iteration order for every
/// scenario and backend, so costs are bit-identical whenever loads are.
fn cost_from_loads(topo: &Topology, h: &[f64], l: &[f64]) -> Lex2 {
    let mut phi_h = 0.0;
    let mut phi_l = 0.0;
    for (lid, link) in topo.links() {
        let i = lid.index();
        phi_h += phi(h[i], link.capacity);
        phi_l += phi(l[i], (link.capacity - h[i]).max(0.0));
    }
    Lex2::new(phi_h, phi_l)
}

/// The failure-aware local search.
pub struct RobustSearch<'a> {
    evaluator: RobustEvaluator<'a>,
    params: SearchParams,
    mode: Scheme,
    scenario_cap: Option<usize>,
    initial: Option<DualWeights>,
}

impl<'a> RobustSearch<'a> {
    /// Prepares a robust search with the full scenario set, evaluating
    /// through [`SearchParams::backend`].
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        combine: ScenarioCombine,
        params: SearchParams,
        mode: Scheme,
    ) -> Self {
        params.validate();
        RobustSearch {
            evaluator: RobustEvaluator::with_backend(topo, demands, combine, params.backend),
            params,
            mode,
            scenario_cap: None,
            initial: None,
        }
    }

    /// Optimizes against only the `cap` worst scenarios of the initial
    /// solution (see the module docs for the rationale).
    pub fn with_scenario_cap(mut self, cap: usize) -> Self {
        assert!(cap >= 1, "need at least one scenario");
        self.scenario_cap = Some(cap);
        self
    }

    /// Warm-starts from `w0` instead of uniform weights — the usual
    /// deployment pattern: robustify the incumbent (e.g. the nominal
    /// optimum) rather than search from scratch. In STR mode `w0` must
    /// have replicated vectors.
    pub fn with_initial(mut self, w0: DualWeights) -> Self {
        assert_eq!(w0.high.len(), self.evaluator.topo.link_count());
        assert_eq!(w0.low.len(), self.evaluator.topo.link_count());
        if self.mode == Scheme::Str {
            assert_eq!(
                w0.high, w0.low,
                "STR warm starts must have replicated vectors"
            );
        }
        self.initial = Some(w0);
        self
    }

    /// Runs the search. The iteration budget is
    /// [`SearchParams::str_iters`] *candidate* evaluations regardless of
    /// scenario count, so callers should scale `SearchParams` down
    /// relative to nominal runs.
    pub fn run(mut self) -> RobustResult {
        let params = self.params;
        let w = self.initial.take().unwrap_or_else(|| {
            DualWeights::replicated(WeightVector::uniform(self.evaluator.topo, 1))
        });
        self.evaluator.rebase(&w);
        let mut dropped_scenarios = Vec::new();
        if let Some(cap) = self.scenario_cap {
            let before = self.evaluator.pair_ids();
            let kept = self.evaluator.cap_to_worst(&w, cap);
            dropped_scenarios = before.into_iter().filter(|id| !kept.contains(id)).collect();
        }
        let mut walk = RobustWalk {
            cost: self.evaluator.eval(&w),
            evaluator: self.evaluator,
            params,
            mode: self.mode,
            rng: StdRng::seed_from_u64(params.seed),
            w,
        };
        let mut descent = Descent::start(&walk, params.diversify_after, Phase::Str, 1);
        descent.stage(&mut walk, params.str_iters(), Phase::Str);

        let (_, (weights, cost), trace) = descent.finish();
        RobustResult {
            weights,
            cost,
            scenarios_used: walk.evaluator.scenario_count(),
            trace: SearchTrace {
                dropped_scenarios,
                ..trace
            },
        }
    }
}

/// The current setting with its robust cost breakdown.
struct RobustWalk<'a> {
    evaluator: RobustEvaluator<'a>,
    params: SearchParams,
    mode: Scheme,
    rng: StdRng,
    w: DualWeights,
    cost: RobustCost,
}

impl Walk for RobustWalk<'_> {
    /// The combined cost steers; the breakdown rides along.
    type Cost = Lex2;
    type Point = (DualWeights, RobustCost);

    fn cost(&self) -> &Lex2 {
        &self.cost.combined
    }

    fn snapshot(&self) -> Self::Point {
        (self.w.clone(), self.cost)
    }

    /// `m` single-weight changes, each costing `1 + |scenarios|` routing
    /// evaluations.
    fn step(&mut self, _it: usize) -> Step {
        let cands: Vec<(RobustCost, DualWeights)> = (0..self.params.neighbors)
            .map(|_| {
                let mv = SingleChange::draw(self.mode, &self.w, &self.params, &mut self.rng);
                let mut w = self.w.clone();
                mv.apply(self.mode, &mut w);
                (self.evaluator.eval(&w), w)
            })
            .collect();
        let evaluated = cands.len();
        let best = best_improving(cands, self.cost(), |(c, _)| &c.combined);
        let moved = best.is_some();
        if let Some((cost, w)) = best {
            self.evaluator.rebase(&w);
            self.cost = cost;
            self.w = w;
        }
        Step::of(evaluated, moved)
    }

    fn diversify(&mut self, _best: &Self::Point) -> usize {
        let p = self.params;
        perturb_weights(&mut self.w.high, p.g1, &p, &mut self.rng);
        if self.mode == Scheme::Str {
            self.w.low = self.w.high.clone();
        } else {
            perturb_weights(&mut self.w.low, p.g2, &p, &mut self.rng);
        }
        self.evaluator.rebase(&self.w);
        self.cost = self.evaluator.eval(&self.w);
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_graph::topology::TopologyBuilder;
    use dtr_graph::NodeId;
    use dtr_traffic::{DemandSet, TrafficCfg, TrafficMatrix};

    /// 4-node ring: every duplex cut is survivable (the other direction
    /// around the ring remains).
    fn ring4() -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_nodes(4);
        for (x, y) in [(0, 1), (1, 2), (2, 3), (3, 0)] {
            b.add_duplex(NodeId(x), NodeId(y), 1.0, 0.001);
        }
        b.build().unwrap()
    }

    fn small_instance() -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 11,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 11,
                ..Default::default()
            },
        )
        .scaled(3.0);
        (topo, demands)
    }

    #[test]
    fn evaluator_reports_coherent_components() {
        let (topo, demands) = small_instance();
        let mut ev = RobustEvaluator::new(&topo, &demands, ScenarioCombine::Blend { beta: 0.5 });
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let c = ev.eval(&w);
        // Worst dominates intact and average component-wise.
        assert!(c.worst.primary >= c.intact.primary - 1e-9);
        assert!(c.worst.secondary >= c.intact.secondary - 1e-9);
        assert!(c.worst.primary >= c.average.primary - 1e-9);
        assert!(c.worst.secondary >= c.average.secondary - 1e-9);
        // The blend sits between intact and worst.
        assert!(c.combined.primary <= c.worst.primary + 1e-9);
        assert!(c.combined.primary >= c.intact.primary - 1e-9);
    }

    #[test]
    fn beta_zero_is_nominal_and_one_is_worst() {
        let (topo, demands) = small_instance();
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mut ev0 = RobustEvaluator::new(&topo, &demands, ScenarioCombine::Blend { beta: 0.0 });
        let c0 = ev0.eval(&w);
        assert_eq!(c0.combined, c0.intact);
        let mut ev1 = RobustEvaluator::new(&topo, &demands, ScenarioCombine::Blend { beta: 1.0 });
        let c1 = ev1.eval(&w);
        assert_eq!(c1.combined, c1.worst);
    }

    #[test]
    fn intact_cost_matches_nominal_evaluator() {
        let (topo, demands) = small_instance();
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mut rob = RobustEvaluator::new(&topo, &demands, ScenarioCombine::Average);
        let mut nom = dtr_routing::Evaluator::new(&topo, &demands, dtr_cost::Objective::LoadBased);
        let rc = rob.eval(&w);
        let ne = nom.eval_dual(&w);
        assert!((rc.intact.primary - ne.phi_h).abs() < 1e-9);
        assert!((rc.intact.secondary - ne.phi_l).abs() < 1e-9);
    }

    #[test]
    fn ring_worst_case_reflects_reroute_concentration() {
        // On a unit ring with demand 0→2 split over both directions,
        // cutting either path forces everything onto the survivor: the
        // worst-case Φ must be strictly above the intact Φ.
        let topo = ring4();
        let mut high = TrafficMatrix::zeros(4);
        high.set(0, 2, 0.4);
        let low = TrafficMatrix::zeros(4);
        let demands = DemandSet { high, low };
        let mut ev = RobustEvaluator::new(&topo, &demands, ScenarioCombine::Worst);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let c = ev.eval(&w);
        assert!(c.worst.primary > c.intact.primary + 1e-9);
        assert_eq!(ev.scenario_count(), 4);
    }

    #[test]
    fn search_reduces_worst_case_versus_uniform() {
        let (topo, demands) = small_instance();
        let mut ev = RobustEvaluator::new(&topo, &demands, ScenarioCombine::Worst);
        let uniform = ev.eval(&DualWeights::replicated(WeightVector::uniform(&topo, 1)));
        let res = RobustSearch::new(
            &topo,
            &demands,
            ScenarioCombine::Worst,
            SearchParams::tiny().with_seed(3),
            Scheme::Dtr,
        )
        .run();
        assert!(res.cost.combined <= uniform.combined);
        assert!(res.scenarios_used > 0);
    }

    #[test]
    fn scenario_cap_restricts_and_keeps_worst() {
        let (topo, demands) = small_instance();
        let mut ev = RobustEvaluator::new(&topo, &demands, ScenarioCombine::Worst);
        let total = ev.scenario_count();
        assert!(total > 4);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        // Find the true worst scenario first.
        let full = ev.eval(&w);
        let kept = ev.cap_to_worst(&w, 4);
        assert_eq!(kept.len(), 4);
        assert_eq!(ev.scenario_count(), 4);
        // The capped worst equals the full worst on the Φ_L component
        // (the cap keeps the worst-Φ_L scenarios by construction).
        let capped = ev.eval(&w);
        assert!((capped.worst.secondary - full.worst.secondary).abs() < 1e-9);
    }

    #[test]
    fn str_mode_keeps_vectors_replicated() {
        let (topo, demands) = small_instance();
        let res = RobustSearch::new(
            &topo,
            &demands,
            ScenarioCombine::Blend { beta: 0.5 },
            SearchParams::tiny().with_seed(4),
            Scheme::Str,
        )
        .with_scenario_cap(5)
        .run();
        assert_eq!(res.weights.high, res.weights.low);
        assert_eq!(res.scenarios_used, 5);
    }

    #[test]
    fn deterministic_in_seed() {
        let (topo, demands) = small_instance();
        let run = || {
            RobustSearch::new(
                &topo,
                &demands,
                ScenarioCombine::Blend { beta: 0.5 },
                SearchParams::tiny().with_seed(17),
                Scheme::Dtr,
            )
            .with_scenario_cap(5)
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.cost.combined, b.cost.combined);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    #[should_panic(expected = "β must be in")]
    fn rejects_bad_beta() {
        let (topo, demands) = small_instance();
        let _ = RobustEvaluator::new(&topo, &demands, ScenarioCombine::Blend { beta: 1.5 });
    }

    #[test]
    fn warm_start_never_ends_worse_than_it_began() {
        let (topo, demands) = small_instance();
        let combine = ScenarioCombine::Blend { beta: 0.5 };
        // A deliberately non-uniform incumbent.
        let mut w0 = DualWeights::replicated(WeightVector::uniform(&topo, 3));
        w0.low.set(dtr_graph::LinkId(1), 11);
        let mut ev = RobustEvaluator::new(&topo, &demands, combine);
        let initial_cost = ev.eval(&w0);
        let res = RobustSearch::new(
            &topo,
            &demands,
            combine,
            SearchParams::tiny().with_seed(8),
            Scheme::Dtr,
        )
        .with_initial(w0)
        .run();
        assert!(res.cost.combined <= initial_cost.combined);
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn warm_start_rejects_a_short_low_vector() {
        // Only the high vector used to be checked; a short low one
        // indexed out of bounds deep inside the first evaluation.
        let (topo, demands) = small_instance();
        let w0 = DualWeights {
            high: WeightVector::uniform(&topo, 1),
            low: WeightVector::from_vec(vec![1; 3]),
        };
        let _ = RobustSearch::new(
            &topo,
            &demands,
            ScenarioCombine::Worst,
            SearchParams::tiny(),
            Scheme::Dtr,
        )
        .with_initial(w0);
    }

    #[test]
    #[should_panic(expected = "replicated")]
    fn str_warm_start_rejects_diverged_vectors() {
        let (topo, demands) = small_instance();
        let mut w0 = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        w0.low.set(dtr_graph::LinkId(0), 9);
        let _ = RobustSearch::new(
            &topo,
            &demands,
            ScenarioCombine::Worst,
            SearchParams::tiny(),
            Scheme::Str,
        )
        .with_initial(w0);
    }
}
