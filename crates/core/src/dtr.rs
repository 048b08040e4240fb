//! Algorithm 1: the DTR weight search.
//!
//! An iterated local search over the dual weight vector `W = {W^H, W^L}`
//! in three routines (see the crate docs). The expensive step is candidate
//! evaluation; it is delegated to the `dtr-engine`
//! [`BatchEvaluator`], which combines three layers of reuse:
//!
//! - a `FindH` candidate re-routes **only the high class** (`W^L` and the
//!   cached low-class loads are untouched), and vice versa for `FindL` —
//!   the paper's per-class split;
//! - under the (default) incremental backend, re-routing a class repairs
//!   only the destinations whose shortest-path DAG the move's one-or-two
//!   weight deltas actually affect (dynamic Dijkstra);
//! - an LRU cache keyed by weight-vector hash short-circuits revisited
//!   candidates entirely.
//!
//! Backend choice never changes results — both produce bit-identical
//! evaluations — so seeded runs are reproducible across backends.

use crate::neighborhood::{perturb_weights, NeighborhoodSampler, RankTable};
use crate::params::SearchParams;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_engine::BatchEvaluator;
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_routing::{ClassLoads, Evaluation, HighSide};
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of a DTR search.
#[derive(Debug, Clone)]
pub struct DtrResult {
    /// Best dual weight setting found (`W*`).
    pub weights: DualWeights,
    /// Full evaluation of `W*`.
    pub eval: Evaluation,
    /// Objective value of `W*` (equals `eval.cost`).
    pub best_cost: Lex2,
    /// Search telemetry.
    pub trace: SearchTrace,
}

/// The working solution with its cached evaluation pieces.
struct State {
    w: DualWeights,
    high: HighSide,
    low_loads: ClassLoads,
    eval: Evaluation,
    /// `FindH`'s and `FindL`'s rank tables of `eval`, built on first
    /// use: a pass that accepts no move leaves `eval`, and so the
    /// ranking of every link, as it was.
    high_ranks: Option<RankTable>,
    low_ranks: Option<RankTable>,
}

impl State {
    fn new(w: DualWeights, high: HighSide, low_loads: ClassLoads, eval: Evaluation) -> State {
        State {
            w,
            high,
            low_loads,
            eval,
            high_ranks: None,
            low_ranks: None,
        }
    }

    /// Replaces the evaluation after an accepted move, dropping the
    /// rank tables built from the old one.
    fn set_eval(&mut self, eval: Evaluation) {
        self.eval = eval;
        self.high_ranks = None;
        self.low_ranks = None;
    }

    /// Evaluates `w` through the engine and rebases both class backends
    /// onto it, so subsequent candidate deltas are small. Under a bound
    /// partial deployment the low class rides the hybrid DAGs and
    /// trapped demand is penalized (see `dtr_routing::deploy`).
    fn build(engine: &mut BatchEvaluator<'_>, w: DualWeights) -> State {
        engine.rebase_high(&w.high);
        engine.rebase_low(&w.low);
        if engine.deployment().is_some() {
            let (high, low_loads, undeliverable) = engine
                .eval_deployed_high_batch(std::slice::from_ref(&w.high), &w.low)
                .pop()
                .unwrap();
            let eval = engine
                .evaluator()
                .finish_deployed(high.clone(), low_loads.clone(), undeliverable)
                .expect("engine high sides carry the SLA walk");
            return State::new(w, high, low_loads, eval);
        }
        let high = engine.eval_high(&w.high);
        let low_loads = engine.eval_low(&w.low);
        let eval = engine
            .evaluator()
            .finish(high.clone(), low_loads.clone())
            .expect("engine high sides carry the SLA walk");
        State::new(w, high, low_loads, eval)
    }
}

/// Algorithm 1, bound to one problem instance.
pub struct DtrSearch<'a> {
    engine: BatchEvaluator<'a>,
    params: SearchParams,
    initial: DualWeights,
}

impl<'a> DtrSearch<'a> {
    /// Prepares a search with uniform initial weights (`W0`), the usual
    /// starting point when no operator weights exist.
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
    ) -> Self {
        params.validate();
        let initial = DualWeights::replicated(WeightVector::uniform(topo, 1));
        DtrSearch {
            engine: BatchEvaluator::new(topo, demands, objective, params.backend),
            params,
            initial,
        }
    }

    /// Binds a partial-deployment model: legacy nodes forward the low
    /// class on the high topology, trapped demand is penalized, and
    /// `FindH` moves re-route the low class too (legacy next-hops follow
    /// the high DAGs). A full set is a no-op — the search stays
    /// bit-identical to the undeployed path. Load-based objective only.
    pub fn with_deployment(mut self, dep: dtr_routing::DeploymentSet) -> Self {
        self.engine
            .set_deployment(Some(dep))
            .expect("DtrSearch deployment: load-based objective and matching node count required");
        self
    }

    /// Overrides the initial weight setting `W0` (e.g. to warm-start from
    /// an STR solution).
    pub fn with_initial(mut self, w0: DualWeights) -> Self {
        assert_eq!(w0.high.len(), self.engine.topo().link_count());
        assert_eq!(w0.low.len(), self.engine.topo().link_count());
        self.initial = w0;
        self
    }

    /// Runs the three routines and returns the best setting found.
    pub fn run(mut self) -> DtrResult {
        let params = self.params;
        let mut rng = StdRng::seed_from_u64(params.seed);
        let sampler = NeighborhoodSampler::new(self.engine.topo().link_count(), &params);
        let mut trace = SearchTrace::default();

        let mut state = State::build(&mut self.engine, self.initial.clone());
        let mut best_w = state.w.clone();
        let mut best_cost = state.eval.cost;
        trace.improved(0, Phase::OptimizeHigh, best_cost);

        // --- Routine 1: optimize W^H, W^L fixed (lines 3–12). ---
        let mut stall = 0usize;
        for _ in 0..params.n_iters {
            trace.iterations += 1;
            let moved = self.find_h(&mut state, &sampler, &mut rng, &mut trace);
            if moved && state.eval.cost < best_cost {
                best_cost = state.eval.cost;
                best_w = state.w.clone();
                trace.improved(trace.iterations, Phase::OptimizeHigh, best_cost);
                stall = 0;
            } else {
                stall += 1;
            }
            if stall >= params.diversify_after {
                perturb_weights(&mut state.w.high, params.g1, &params, &mut rng);
                state = State::build(&mut self.engine, state.w);
                trace.diversifications += 1;
                stall = 0;
            }
        }

        // --- Routine 2: W^H frozen at W^H*, optimize W^L (lines 13–24).
        // Primary cost is now constant, so lexicographic comparison
        // reduces to Φ_L.
        state.w.high = best_w.high.clone();
        state = State::build(&mut self.engine, state.w);
        if state.eval.cost < best_cost {
            // W^L drifted only via diversification; refresh incumbents.
            best_cost = state.eval.cost;
            best_w = state.w.clone();
        }
        let mut stall = 0usize;
        for _ in 0..params.n_iters {
            trace.iterations += 1;
            let moved = self.find_l(&mut state, &sampler, &mut rng, &mut trace);
            if moved && state.eval.cost < best_cost {
                best_cost = state.eval.cost;
                best_w = state.w.clone();
                trace.improved(trace.iterations, Phase::OptimizeLow, best_cost);
                stall = 0;
            } else {
                stall += 1;
            }
            if stall >= params.diversify_after {
                perturb_weights(&mut state.w.low, params.g2, &params, &mut rng);
                state = State::build(&mut self.engine, state.w);
                trace.diversifications += 1;
                stall = 0;
            }
        }

        // --- Routine 3: joint refinement around W* (lines 25–38). ---
        state = State::build(&mut self.engine, best_w.clone());
        let mut stall = 0usize;
        for _ in 0..params.k_iters {
            trace.iterations += 1;
            let moved_h = self.find_h(&mut state, &sampler, &mut rng, &mut trace);
            let moved_l = self.find_l(&mut state, &sampler, &mut rng, &mut trace);
            if (moved_h || moved_l) && state.eval.cost < best_cost {
                best_cost = state.eval.cost;
                best_w = state.w.clone();
                trace.improved(trace.iterations, Phase::Refine, best_cost);
                stall = 0;
            } else {
                stall += 1;
            }
            if stall >= params.diversify_after {
                // Restart from the incumbent, slightly perturbed (lines
                // 33–36): g3 is smaller so the restart stays near W*.
                let mut w = best_w.clone();
                perturb_weights(&mut w.high, params.g3, &params, &mut rng);
                perturb_weights(&mut w.low, params.g3, &params, &mut rng);
                state = State::build(&mut self.engine, w);
                trace.diversifications += 1;
                stall = 0;
            }
        }

        let eval = self.engine.evaluator().eval_dual(&best_w);
        debug_assert_eq!(eval.cost, best_cost);
        DtrResult {
            weights: best_w,
            eval,
            best_cost,
            trace,
        }
    }

    /// One `FindH` pass (Algorithm 2): build the neighborhood from the
    /// current link ranks, evaluate the candidates, move if the best one
    /// improves on the current solution. Returns whether a move happened.
    fn find_h(
        &mut self,
        state: &mut State,
        sampler: &NeighborhoodSampler,
        rng: &mut StdRng,
        trace: &mut SearchTrace,
    ) -> bool {
        let table = state.high_ranks.get_or_insert_with(|| {
            let ranks = self.engine.evaluator().link_ranks(&state.eval);
            let keys: Vec<Lex2> = ranks.iter().map(|r| r.high).collect();
            RankTable::new(&keys)
        });
        let moves = sampler.moves(table, &self.params, rng);

        // Materialize the non-degenerate candidates, then evaluate them
        // as one engine batch (incremental repair or cache hit each).
        let cands: Vec<WeightVector> = moves
            .into_iter()
            .filter_map(|mv| {
                let mut wh = state.w.high.clone();
                mv.apply(&mut wh, &self.params);
                (wh != state.w.high).then_some(wh) // drop clamped no-ops
            })
            .collect();
        if self.engine.deployment().is_some() {
            // A high-side move re-routes the low class too (legacy nodes
            // forward it on the high DAGs), so candidates carry fresh
            // hybrid low loads alongside their high sides.
            let results = self.engine.eval_deployed_high_batch(&cands, &state.w.low);
            let mut best: Option<(Evaluation, HighSide, ClassLoads, WeightVector)> = None;
            for (wh, (high, low_loads, undeliverable)) in cands.into_iter().zip(results) {
                let eval = self
                    .engine
                    .evaluator()
                    .finish_deployed(high.clone(), low_loads.clone(), undeliverable)
                    .expect("engine high sides carry the SLA walk");
                trace.evaluations += 1;
                if best.as_ref().is_none_or(|(b, _, _, _)| eval.cost < b.cost) {
                    best = Some((eval, high, low_loads, wh));
                }
            }
            return match best {
                Some((eval, high, low_loads, wh)) if eval.cost < state.eval.cost => {
                    state.w.high = wh;
                    state.high = high;
                    state.low_loads = low_loads;
                    state.set_eval(eval);
                    self.engine.rebase_high(&state.w.high);
                    trace.moves_accepted += 1;
                    true
                }
                _ => false,
            };
        }
        let highs = self.engine.eval_high_batch(&cands);

        let mut best: Option<(Evaluation, HighSide, WeightVector)> = None;
        for (wh, high) in cands.into_iter().zip(highs) {
            let eval = self
                .engine
                .evaluator()
                .finish(high.clone(), state.low_loads.clone())
                .expect("engine high sides carry the SLA walk");
            trace.evaluations += 1;
            if best.as_ref().is_none_or(|(b, _, _)| eval.cost < b.cost) {
                best = Some((eval, high, wh));
            }
        }
        match best {
            Some((eval, high, wh)) if eval.cost < state.eval.cost => {
                state.w.high = wh;
                state.high = high;
                state.set_eval(eval);
                self.engine.rebase_high(&state.w.high);
                trace.moves_accepted += 1;
                true
            }
            _ => false,
        }
    }

    /// One `FindL` pass: identical structure, but candidates re-route only
    /// the low class and reuse the cached high side. Ranking uses
    /// `Φ_L,l` only, because `W^L` cannot affect the high class (§4).
    fn find_l(
        &mut self,
        state: &mut State,
        sampler: &NeighborhoodSampler,
        rng: &mut StdRng,
        trace: &mut SearchTrace,
    ) -> bool {
        let table = state.low_ranks.get_or_insert_with(|| {
            let ranks = self.engine.evaluator().link_ranks(&state.eval);
            let keys: Vec<f64> = ranks.iter().map(|r| r.low).collect();
            RankTable::new(&keys)
        });
        let moves = sampler.moves(table, &self.params, rng);

        let cands: Vec<WeightVector> = moves
            .into_iter()
            .filter_map(|mv| {
                let mut wl = state.w.low.clone();
                mv.apply(&mut wl, &self.params);
                (wl != state.w.low).then_some(wl)
            })
            .collect();
        if self.engine.deployment().is_some() {
            let results = self.engine.eval_deployed_low_batch(&state.w.high, &cands);
            let mut best: Option<(Evaluation, ClassLoads, WeightVector)> = None;
            for (wl, (low_loads, undeliverable)) in cands.into_iter().zip(results) {
                let eval = self
                    .engine
                    .evaluator()
                    .finish_deployed(state.high.clone(), low_loads.clone(), undeliverable)
                    .expect("engine high sides carry the SLA walk");
                trace.evaluations += 1;
                if best.as_ref().is_none_or(|(b, _, _)| eval.cost < b.cost) {
                    best = Some((eval, low_loads, wl));
                }
            }
            return match best {
                Some((eval, low_loads, wl)) if eval.cost < state.eval.cost => {
                    state.w.low = wl;
                    state.low_loads = low_loads;
                    state.set_eval(eval);
                    self.engine.rebase_low(&state.w.low);
                    trace.moves_accepted += 1;
                    true
                }
                _ => false,
            };
        }
        let loads = self.engine.eval_low_batch(&cands);

        let mut best: Option<(Evaluation, ClassLoads, WeightVector)> = None;
        for (wl, low_loads) in cands.into_iter().zip(loads) {
            let eval = self
                .engine
                .evaluator()
                .finish(state.high.clone(), low_loads.clone())
                .expect("engine high sides carry the SLA walk");
            trace.evaluations += 1;
            if best.as_ref().is_none_or(|(b, _, _)| eval.cost < b.cost) {
                best = Some((eval, low_loads, wl));
            }
        }
        match best {
            Some((eval, low_loads, wl)) if eval.cost < state.eval.cost => {
                state.w.low = wl;
                state.low_loads = low_loads;
                state.set_eval(eval);
                self.engine.rebase_low(&state.w.low);
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
    fn triangle_reaches_dtr_optimum() {
        // §3.3.1 contrasts DTR routing the low class *through B*
        // (Φ_L = 8/3) against STR's 64/9. The true DTR optimum is even
        // better: ECMP-split the low class over the direct link and the
        // detour (weights w_L(A−C) = 2, w_L(A−B) = w_L(B−C) = 1), giving
        // Φ_L = 5/9 + 1/3 + 1/3 = 11/9. The search must find it.
        let (topo, demands) = triangle_instance();
        let search = DtrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(3),
        );
        let res = search.run();
        assert!(
            (res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9,
            "phi_h={}",
            res.eval.phi_h
        );
        assert!(
            (res.eval.phi_l - 11.0 / 9.0).abs() < 1e-9,
            "phi_l={} (expected the ECMP-split optimum 11/9)",
            res.eval.phi_l
        );
    }

    #[test]
    fn search_never_returns_worse_than_initial() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 4,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 4,
                ..Default::default()
            },
        )
        .scaled(3.0);
        let w0 = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let initial_cost = ev.eval_dual(&w0).cost;
        let res = DtrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_initial(w0)
            .run();
        assert!(res.best_cost <= initial_cost);
        assert_eq!(res.best_cost, res.eval.cost);
    }

    #[test]
    fn deterministic_given_seed() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 5,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 5,
                ..Default::default()
            },
        );
        let run = |seed| {
            DtrSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(seed),
            )
            .run()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.trace.evaluations, b.trace.evaluations);
    }

    #[test]
    fn works_under_sla_objective() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 6,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 6,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let res = DtrSearch::new(
            &topo,
            &demands,
            Objective::sla_default(),
            SearchParams::tiny().with_seed(1),
        )
        .run();
        assert!(res.eval.sla.is_some());
        assert!(res.best_cost.primary >= 0.0);
        assert!(res.trace.evaluations > 0);
    }

    #[test]
    fn trace_counts_are_consistent() {
        let (topo, demands) = triangle_instance();
        let res = DtrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny()).run();
        let p = SearchParams::tiny();
        assert_eq!(res.trace.iterations, 2 * p.n_iters + p.k_iters);
        assert!(res.trace.evaluations <= p.dtr_eval_budget());
        assert!(res.trace.moves_accepted <= res.trace.evaluations);
        // First recorded improvement is the initial incumbent.
        assert_eq!(res.trace.improvements[0].iteration, 0);
    }

    #[test]
    fn warm_start_is_respected() {
        let (topo, demands) = triangle_instance();
        let mut w0 = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        // Start from the known optimum; the search must keep it.
        w0.low.set(
            topo.find_link(dtr_graph::NodeId(0), dtr_graph::NodeId(2))
                .unwrap(),
            30,
        );
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w0_cost = ev.eval_dual(&w0).cost;
        let res = DtrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_initial(w0)
            .run();
        assert!(res.best_cost <= w0_cost);
    }
}
