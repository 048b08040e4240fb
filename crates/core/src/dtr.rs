//! Algorithm 1: the DTR weight search.
//!
//! Three stages over the dual weight vector `W = {W^H, W^L}` on the
//! shared [`descent`](crate::descent) driver:
//!
//! | stage | iterations | a step is | a diversification |
//! |---|---|---|---|
//! | 1 (lines 3–12) | `N` | one `FindH` pass | perturbs `g1` of the current `W^H` |
//! | 2 (lines 13–24) | `N` | one `FindL` pass | perturbs `g2` of the current `W^L` |
//! | 3 (lines 25–38) | `K` | `FindH` then `FindL` | restarts `g3` of both vectors away from `W*` |
//!
//! Stages 2 and 3 start from the incumbent. A pass (Algorithm 2) ranks
//! the links by the moved class's cost — `⟨Φ_H,l, Φ_L,l⟩` (or link
//! delay) for `FindH`, `Φ_L,l` alone for `FindL`, because `W^L` cannot
//! affect the high class (§4) — and evaluates its neighborhood as one
//! [`BatchEvaluator::eval_class_batch`] call: only the moved class is
//! re-routed, incrementally under the default backend, and the other
//! class's side is reused. Backend choice never changes results, so
//! seeded runs are reproducible across backends.

use crate::descent::{best_improving, Descent, Step, Walk};
use crate::neighborhood::{perturb_weights, NeighborhoodSampler, RankTable};
use crate::params::SearchParams;
use crate::telemetry::{Phase, SearchResult};
use dtr_cost::{Lex2, Objective};
use dtr_engine::{BatchEvaluator, Class};
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_routing::Evaluation;
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What a step of the running stage does.
#[derive(Clone, Copy)]
enum Routine {
    /// One pass over one class's vector (`FindH` / `FindL`).
    Find(Class),
    /// `FindH` then `FindL`, restarting near the incumbent.
    Refine,
}

/// The working solution and everything a pass needs to move it.
struct DtrWalk<'a> {
    engine: BatchEvaluator<'a>,
    params: SearchParams,
    sampler: NeighborhoodSampler,
    rng: StdRng,
    routine: Routine,
    w: DualWeights,
    eval: Evaluation,
    /// `FindH`'s and `FindL`'s rank tables of `eval`, built on first
    /// use: a pass that accepts no move leaves `eval`, and so the
    /// ranking of every link, as it was.
    ranks: [Option<RankTable>; 2],
}

/// Rebases both class backends onto `w`, so subsequent candidate deltas
/// are small, and evaluates it.
fn settle_at(engine: &mut BatchEvaluator<'_>, w: &DualWeights) -> Evaluation {
    engine.rebase(Class::High, &w.high);
    engine.rebase(Class::Low, &w.low);
    engine.eval_dual(w)
}

impl DtrWalk<'_> {
    /// Re-bases and re-evaluates after `self.w` moved by something other
    /// than an accepted pass (diversification, return to the incumbent).
    fn settle(&mut self) {
        self.eval = settle_at(&mut self.engine, &self.w);
        self.ranks = [None, None];
    }

    /// One `FindH` / `FindL` pass (Algorithm 2): build the neighborhood
    /// from the current link ranks, evaluate the candidates as one
    /// engine batch, move if the best one improves on the current
    /// solution.
    fn pass(&mut self, class: Class) -> Step {
        let eval = &self.eval;
        let table = self.ranks[class as usize].get_or_insert_with(|| {
            let ranks = self.engine.evaluator().link_ranks(eval);
            match class {
                Class::High => RankTable::new(&ranks.iter().map(|r| r.high).collect::<Vec<_>>()),
                Class::Low => RankTable::new(&ranks.iter().map(|r| r.low).collect::<Vec<_>>()),
            }
        });
        let cands = self
            .sampler
            .neighbors(table, class.of(&self.w), &self.params, &mut self.rng);
        let evaluated = cands.len();
        let evals = self
            .engine
            .eval_class_batch(class, &cands, &self.w, &self.eval);
        let best = best_improving(evals.into_iter().zip(cands), self.cost(), |(e, _)| &e.cost);
        let moved = best.is_some();
        if let Some((eval, w)) = best {
            self.engine.rebase(class, &w);
            *class.of_mut(&mut self.w) = w;
            self.eval = eval;
            self.ranks = [None, None];
        }
        Step::of(evaluated, moved)
    }
}

impl Walk for DtrWalk<'_> {
    type Cost = Lex2;
    type Point = DualWeights;

    fn cost(&self) -> &Lex2 {
        &self.eval.cost
    }

    fn snapshot(&self) -> DualWeights {
        self.w.clone()
    }

    fn step(&mut self, _it: usize) -> Step {
        match self.routine {
            Routine::Find(class) => self.pass(class),
            Routine::Refine => {
                let (h, l) = (self.pass(Class::High), self.pass(Class::Low));
                Step {
                    evaluated: h.evaluated + l.evaluated,
                    accepted: h.accepted + l.accepted,
                }
            }
        }
    }

    fn diversify(&mut self, best: &DualWeights) -> usize {
        let (p, w, rng) = (self.params, &mut self.w, &mut self.rng);
        match self.routine {
            Routine::Find(Class::High) => perturb_weights(&mut w.high, p.g1, &p, rng),
            Routine::Find(Class::Low) => perturb_weights(&mut w.low, p.g2, &p, rng),
            Routine::Refine => {
                // Restart from the incumbent; g3 is smaller so the
                // restart stays near W*.
                *w = best.clone();
                perturb_weights(&mut w.high, p.g3, &p, rng);
                perturb_weights(&mut w.low, p.g3, &p, rng);
            }
        }
        self.settle();
        0
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

    /// Runs the three stages and returns the best setting found.
    pub fn run(mut self) -> SearchResult {
        let params = self.params;
        let mut walk = DtrWalk {
            eval: settle_at(&mut self.engine, &self.initial),
            sampler: NeighborhoodSampler::new(self.engine.topo().link_count(), &params),
            engine: self.engine,
            params,
            rng: StdRng::seed_from_u64(params.seed),
            routine: Routine::Find(Class::High),
            w: self.initial,
            ranks: [None, None],
        };
        let mut descent = Descent::start(&walk, params.diversify_after, Phase::OptimizeHigh, 0);

        let stages = [
            (
                Routine::Find(Class::High),
                params.n_iters,
                Phase::OptimizeHigh,
            ),
            (
                Routine::Find(Class::Low),
                params.n_iters,
                Phase::OptimizeLow,
            ),
            (Routine::Refine, params.k_iters, Phase::Refine),
        ];
        for (i, (routine, iters, phase)) in stages.into_iter().enumerate() {
            if i > 0 {
                walk.w = descent.best().clone();
                walk.settle();
            }
            walk.routine = routine;
            descent.stage(&mut walk, iters, phase);
        }

        let (best_cost, weights, trace) = descent.finish();
        let eval = walk.engine.evaluator().eval_dual(&weights);
        debug_assert_eq!(eval.cost, best_cost);
        SearchResult {
            weights,
            eval,
            best_cost,
            trace,
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
