//! The single-topology routing (STR) baseline and its relaxed variant.
//!
//! STR assigns **one** weight per link; both classes ride the same
//! shortest paths. Following §5.1.3, the baseline is the Fortz–Thorup
//! "single weight change" local search \[2\] under the same
//! lexicographic objectives as DTR — one stage on the shared
//! [`descent`](crate::descent) driver:
//!
//! | iterations | a step proposes | a diversification |
//! |---|---|---|
//! | [`SearchParams::str_iters`] | `m` links re-assigned a fresh weight | perturbs `g1` of the current vector |
//!
//! The iteration count makes STR and DTR consume the same number of
//! candidate evaluations — a fair comparison.
//!
//! **Relaxed STR** (§3.3.2, §5.3.1, Table 1): the search additionally
//! maintains the **Pareto front** of `(Φ_H, Φ_L)` pairs over every
//! evaluated candidate; at the end, each requested ε selects the
//! lowest-`Φ_L` front entry with `Φ_H ≤ (1+ε)·Φ*_H` against the *final*
//! best `Φ*_H`. (The paper phrases the rule online, against the running
//! incumbent; applying it against the final incumbent — per its footnote
//! 6, "pick the one achieving the lowest Φ_L" — avoids grandfathering
//! early candidates whose `Φ_H` only looked acceptable because the
//! incumbent was still poor.)

use crate::descent::{best_improving, Descent, SingleChange, Step, Walk};
use crate::neighborhood::perturb_weights;
use crate::params::SearchParams;
use crate::scheme::Scheme;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_engine::BatchEvaluator;
use dtr_graph::{Topology, WeightVector};
use dtr_routing::Evaluation;
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Best relaxed solution tracked for one ε (load-based objective only).
#[derive(Debug, Clone)]
pub struct RelaxedBest {
    /// The relaxation level ε.
    pub eps: f64,
    /// Best setting found under the relaxed acceptance rule, if any
    /// candidate ever qualified.
    pub weights: Option<WeightVector>,
    /// `Φ_H` of that setting.
    pub phi_h: f64,
    /// `Φ_L` of that setting (the minimized quantity).
    pub phi_l: f64,
}

/// Outcome of an STR search.
#[derive(Debug, Clone)]
pub struct StrResult {
    /// Best weight setting under the strict lexicographic objective.
    pub weights: WeightVector,
    /// Full evaluation of `weights`.
    pub eval: Evaluation,
    /// Objective value (equals `eval.cost`).
    pub best_cost: Lex2,
    /// Relaxed-rule bests, one per requested ε (same order).
    pub relaxed: Vec<RelaxedBest>,
    /// Search telemetry.
    pub trace: SearchTrace,
}

/// The Pareto front of `(Φ_H, Φ_L)` pairs over evaluated candidates,
/// used to answer the relaxed-STR queries exactly at the end of a run.
#[derive(Debug, Clone, Default)]
struct ParetoFront {
    /// Entries sorted by increasing `Φ_H`; `Φ_L` strictly decreasing.
    entries: Vec<(f64, f64, WeightVector)>,
}

impl ParetoFront {
    /// Offers a candidate; keeps the front minimal. `phi_h_cap` bounds
    /// how far above the running best `Φ_H` an entry may sit (entries
    /// beyond the largest requested ε can never be selected).
    fn offer(&mut self, phi_h: f64, phi_l: f64, w: &WeightVector, phi_h_cap: f64) {
        if phi_h > phi_h_cap {
            return;
        }
        // Dominated by an existing entry?
        if self
            .entries
            .iter()
            .any(|&(h, l, _)| h <= phi_h && l <= phi_l)
        {
            return;
        }
        self.entries
            .retain(|&(h, l, _)| !(phi_h <= h && phi_l <= l));
        let pos = self.entries.partition_point(|&(h, _, _)| h < phi_h);
        self.entries.insert(pos, (phi_h, phi_l, w.clone()));
    }

    /// Drops entries that can no longer qualify under any ε once the
    /// best `Φ_H` improves.
    fn prune(&mut self, phi_h_cap: f64) {
        self.entries.retain(|&(h, _, _)| h <= phi_h_cap);
    }

    /// Lowest-`Φ_L` entry with `Φ_H ≤ bound`.
    fn best_within(&self, bound: f64) -> Option<&(f64, f64, WeightVector)> {
        self.entries
            .iter()
            .filter(|&&(h, _, _)| h <= bound)
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }
}

/// Relaxed tracking state: the smallest `Φ_H` seen over all evaluated
/// candidates, and the Pareto front within the largest requested ε of
/// it.
struct Relaxation {
    /// The largest requested ε; `None` (nothing requested) tracks
    /// nothing.
    eps_max: Option<f64>,
    best_phi_h: f64,
    front: ParetoFront,
}

impl Relaxation {
    fn track(&mut self, w: &WeightVector, e: &Evaluation) {
        let Some(eps_max) = self.eps_max else { return };
        if e.phi_h < self.best_phi_h {
            self.best_phi_h = e.phi_h;
            self.front.prune((1.0 + eps_max) * self.best_phi_h);
        }
        self.front
            .offer(e.phi_h, e.phi_l, w, (1.0 + eps_max) * self.best_phi_h);
    }
}

/// The current setting and what a step needs to move it.
struct StrWalk<'a> {
    engine: BatchEvaluator<'a>,
    params: SearchParams,
    rng: StdRng,
    w: WeightVector,
    eval: Evaluation,
    relaxation: Relaxation,
}

impl Walk for StrWalk<'_> {
    type Cost = Lex2;
    type Point = WeightVector;

    fn cost(&self) -> &Lex2 {
        &self.eval.cost
    }

    fn snapshot(&self) -> WeightVector {
        self.w.clone()
    }

    /// `m` single-weight-change candidates, evaluated as one engine
    /// batch (incremental repair or cache hit each).
    fn step(&mut self, _it: usize) -> Step {
        let cands: Vec<WeightVector> = (0..self.params.neighbors)
            .map(|_| {
                let (link, _) =
                    SingleChange::draw_position(Scheme::Str, self.w.len(), &mut self.rng);
                let value = SingleChange::draw_value(self.w.get(link), &self.params, &mut self.rng);
                let mut cand = self.w.clone();
                cand.set(link, value);
                cand
            })
            .collect();
        let evals = self.engine.eval_joint_batch(&cands);
        for (w, e) in cands.iter().zip(&evals) {
            self.relaxation.track(w, e);
        }
        let evaluated = cands.len();
        let best = best_improving(evals.into_iter().zip(cands), self.cost(), |(e, _)| &e.cost);
        let moved = best.is_some();
        if let Some((eval, w)) = best {
            self.engine.rebase_joint(&w);
            self.eval = eval;
            self.w = w;
        }
        Step::of(evaluated, moved)
    }

    fn diversify(&mut self, _best: &WeightVector) -> usize {
        perturb_weights(&mut self.w, self.params.g1, &self.params, &mut self.rng);
        self.engine.rebase_joint(&self.w);
        self.eval = self.engine.eval_joint(&self.w);
        self.relaxation.track(&self.w, &self.eval);
        1
    }
}

/// The Fortz–Thorup-style single-weight-change search.
pub struct StrSearch<'a> {
    engine: BatchEvaluator<'a>,
    params: SearchParams,
    initial: WeightVector,
    relax_eps: Vec<f64>,
}

impl<'a> StrSearch<'a> {
    /// Prepares a search with uniform initial weights.
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
    ) -> Self {
        params.validate();
        let initial = WeightVector::uniform(topo, 1);
        StrSearch {
            engine: BatchEvaluator::new(topo, demands, objective, params.backend),
            params,
            initial,
            relax_eps: Vec::new(),
        }
    }

    /// Overrides the initial weights.
    pub fn with_initial(mut self, w0: WeightVector) -> Self {
        assert_eq!(w0.len(), self.engine.topo().link_count());
        self.initial = w0;
        self
    }

    /// Requests relaxed-best tracking for the given ε values (Table 1
    /// uses 5 % and 30 %). Only meaningful under the load-based
    /// objective; the SLA relaxation is expressed by loosening the bound
    /// in [`dtr_cost::SlaParams::relaxed`] instead.
    pub fn with_relaxations(mut self, eps: &[f64]) -> Self {
        assert!(eps.iter().all(|&e| e >= 0.0), "negative ε");
        self.relax_eps = eps.to_vec();
        self
    }

    /// Runs the search: one stage of [`SearchParams::str_iters`]
    /// iterations.
    pub fn run(mut self) -> StrResult {
        let params = self.params;
        self.engine.rebase_joint(&self.initial);
        let eval = self.engine.eval_joint(&self.initial);
        let mut walk = StrWalk {
            engine: self.engine,
            params,
            rng: StdRng::seed_from_u64(params.seed),
            relaxation: Relaxation {
                eps_max: self.relax_eps.iter().copied().reduce(f64::max),
                best_phi_h: eval.phi_h,
                front: ParetoFront::default(),
            },
            w: self.initial,
            eval,
        };
        walk.relaxation.track(&walk.w, &walk.eval);
        let mut descent = Descent::start(&walk, params.diversify_after, Phase::Str, 1);
        descent.stage(&mut walk, params.str_iters(), Phase::Str);
        let (best_cost, best_w, trace) = descent.finish();

        let eval = walk.engine.eval_joint(&best_w);
        debug_assert_eq!(eval.cost, best_cost);

        // Answer the relaxed queries against the *final* Φ*_H. The strict
        // optimum is always on the front, so every ε ≥ 0 has an answer.
        let relaxed: Vec<RelaxedBest> = self
            .relax_eps
            .iter()
            .map(|&eps| {
                let r = &walk.relaxation;
                match r.front.best_within((1.0 + eps) * r.best_phi_h) {
                    Some((phi_h, phi_l, w)) => RelaxedBest {
                        eps,
                        weights: Some(w.clone()),
                        phi_h: *phi_h,
                        phi_l: *phi_l,
                    },
                    None => RelaxedBest {
                        eps,
                        weights: Some(best_w.clone()),
                        phi_h: eval.phi_h,
                        phi_l: eval.phi_l,
                    },
                }
            })
            .collect();

        StrResult {
            weights: best_w,
            eval,
            best_cost,
            relaxed,
            trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_graph::NodeId;
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
    fn triangle_str_optimum_is_direct_routing() {
        // Lexicographic STR on the triangle: Φ_H is minimized by the
        // direct path (1/3 < 1/2 of the even split), forcing
        // Φ_L = 64/9 — the §3.3.1 outcome.
        let (topo, demands) = triangle_instance();
        let res = StrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(2),
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
    }

    #[test]
    fn never_worse_than_initial() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 9,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 9,
                ..Default::default()
            },
        )
        .scaled(3.0);
        let w0 = WeightVector::uniform(&topo, 1);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let init_cost = ev.eval_str(&w0).cost;
        let res = StrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_initial(w0)
            .run();
        assert!(res.best_cost <= init_cost);
    }

    #[test]
    fn relaxation_improves_low_cost_on_triangle() {
        // ε = 50 % admits the even split (Φ_H = 1/2 ≤ 1.5·1/3), whose
        // Φ_L = 4/3 beats the strict optimum's 64/9.
        let (topo, demands) = triangle_instance();
        let res = StrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(5),
        )
        .with_relaxations(&[0.0, 0.5])
        .run();
        let strict = &res.relaxed[0];
        let relaxed = &res.relaxed[1];
        assert!(relaxed.phi_l <= strict.phi_l);
        assert!(
            (relaxed.phi_l - 4.0 / 3.0).abs() < 1e-9,
            "expected the even split, got phi_l={}",
            relaxed.phi_l
        );
        assert!((relaxed.phi_h - 0.5).abs() < 1e-9);
    }

    #[test]
    fn relaxed_solutions_monotone_in_eps() {
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
        let res = StrSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::quick())
            .with_relaxations(&[0.05, 0.30])
            .run();
        // A larger ε admits every solution a smaller ε admits.
        assert!(res.relaxed[1].phi_l <= res.relaxed[0].phi_l);
        // And the strict optimum's Φ_L is an upper bound for both.
        assert!(res.relaxed[0].phi_l <= res.eval.phi_l + 1e-9);
    }

    #[test]
    fn sla_objective_runs_and_counts_violations() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 8,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 8,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let res = StrSearch::new(
            &topo,
            &demands,
            Objective::sla_default(),
            SearchParams::tiny(),
        )
        .run();
        assert!(res.eval.sla.is_some());
    }

    #[test]
    fn deterministic_given_seed() {
        let (topo, demands) = triangle_instance();
        let run = || {
            StrSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(11),
            )
            .run()
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    fn high_cost_equals_dtr_high_cost_on_easy_instance() {
        // On a lightly loaded instance both schemes should drive Φ_H to
        // the same optimum (RH ≈ 1 in the paper's Fig. 2).
        let (topo, demands) = triangle_instance();
        let str_res = StrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(1),
        )
        .run();
        let dtr_res = crate::DtrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(1),
        )
        .run();
        assert!((str_res.eval.phi_h - dtr_res.eval.phi_h).abs() < 1e-9);
        // And DTR's Φ_L is no worse (here strictly better).
        assert!(dtr_res.eval.phi_l < str_res.eval.phi_l);
        let _ = topo.find_link(NodeId(0), NodeId(1));
    }
}
