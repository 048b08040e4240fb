//! A genetic-algorithm STR baseline (related work \[3\]).
//!
//! Ericsson, Resende & Pardalos solved the OSPF weight-setting problem
//! with a genetic algorithm; the paper's §2 cites it as one of the
//! heuristic families descending from Fortz–Thorup. Implementing it here
//! serves as an *ablation of the search strategy*: same objective, same
//! evaluation budget, population-based recombination instead of
//! single-weight local moves. The bundled bench compares the two on the
//! paper's instances.
//!
//! The GA is the textbook generational scheme with elitism:
//! tournament selection, uniform per-link crossover, per-link reset
//! mutation. Fitness is the lexicographic objective, so comparisons are
//! exact (no scalarization).

use crate::params::SearchParams;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_graph::{LinkId, Topology, WeightVector};
use dtr_routing::{Evaluation, Evaluator};
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// GA-specific knobs; the evaluation budget still comes from
/// [`SearchParams`] so GA and local search are comparable.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaParams {
    /// Individuals per generation.
    pub population: usize,
    /// Fraction of each generation copied unchanged (elitism).
    pub elite_frac: f64,
    /// Per-link probability of reset mutation after crossover.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
}

impl Default for GaParams {
    fn default() -> Self {
        GaParams {
            population: 50,
            elite_frac: 0.2,
            mutation_rate: 0.02,
            tournament: 3,
        }
    }
}

/// Outcome of a GA run (mirrors `StrResult`'s core fields).
#[derive(Debug, Clone)]
pub struct GaResult {
    /// Best weight setting found.
    pub weights: WeightVector,
    /// Its full evaluation.
    pub eval: Evaluation,
    /// Its objective value.
    pub best_cost: Lex2,
    /// Generations executed.
    pub generations: usize,
    /// Telemetry (evaluations, improvements).
    pub trace: SearchTrace,
}

/// The GA optimizer for single-topology weights.
pub struct GaSearch<'a> {
    evaluator: Evaluator<'a>,
    params: SearchParams,
    ga: GaParams,
}

impl<'a> GaSearch<'a> {
    /// Prepares a GA with the default [`GaParams`].
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
    ) -> Self {
        params.validate();
        GaSearch {
            evaluator: Evaluator::new(topo, demands, objective),
            params,
            ga: GaParams::default(),
        }
    }

    /// Overrides the GA-specific knobs.
    pub fn with_ga_params(mut self, ga: GaParams) -> Self {
        assert!(ga.population >= 2);
        assert!((0.0..1.0).contains(&ga.elite_frac));
        assert!((0.0..=1.0).contains(&ga.mutation_rate));
        assert!(ga.tournament >= 1);
        self.ga = ga;
        self
    }

    /// Runs until the evaluation budget (`SearchParams::dtr_eval_budget`)
    /// is spent.
    pub fn run(mut self) -> GaResult {
        // Salted so strategy ablations with a shared `seed` explore
        // independent candidate streams.
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x6761_0000_0000_0001);
        let n_links = self.evaluator.topo().link_count();
        let budget = self.params.dtr_eval_budget();
        let mut trace = SearchTrace::default();

        let random_individual = |rng: &mut StdRng| -> WeightVector {
            WeightVector::from_vec(
                (0..n_links)
                    .map(|_| rng.random_range(self.params.min_weight..=self.params.max_weight))
                    .collect(),
            )
        };

        // Initial population: uniform weights (the operator default) plus
        // random immigrants.
        let mut pop: Vec<(Lex2, WeightVector)> = Vec::with_capacity(self.ga.population);
        let seed_w = WeightVector::uniform(self.evaluator.topo(), 1);
        let seed_cost = self.evaluator.eval_str(&seed_w).cost;
        trace.evaluations += 1;
        pop.push((seed_cost, seed_w));
        while pop.len() < self.ga.population && trace.evaluations < budget {
            let w = random_individual(&mut rng);
            let c = self.evaluator.eval_str(&w).cost;
            trace.evaluations += 1;
            pop.push((c, w));
        }
        pop.sort_by_key(|a| a.0);
        let mut best = pop[0].clone();
        trace.improved(0, Phase::Str, best.0);

        let elite = ((self.ga.population as f64 * self.ga.elite_frac) as usize).max(1);
        let mut generations = 0;

        while trace.evaluations < budget {
            generations += 1;
            let mut next: Vec<(Lex2, WeightVector)> = pop[..elite.min(pop.len())].to_vec();
            while next.len() < self.ga.population && trace.evaluations < budget {
                let p1 = self.tournament_pick(&pop, &mut rng);
                let p2 = self.tournament_pick(&pop, &mut rng);
                let mut child: Vec<u32> = (0..n_links)
                    .map(|i| {
                        let lid = LinkId(i as u32);
                        if rng.random_bool(0.5) {
                            p1.get(lid)
                        } else {
                            p2.get(lid)
                        }
                    })
                    .collect();
                for w in child.iter_mut() {
                    if rng.random_bool(self.ga.mutation_rate) {
                        *w = rng.random_range(self.params.min_weight..=self.params.max_weight);
                    }
                }
                let w = WeightVector::from_vec(child);
                let c = self.evaluator.eval_str(&w).cost;
                trace.evaluations += 1;
                next.push((c, w));
            }
            next.sort_by_key(|a| a.0);
            next.truncate(self.ga.population);
            pop = next;
            if pop[0].0 < best.0 {
                best = pop[0].clone();
                trace.improved(generations, Phase::Str, best.0);
            }
            trace.iterations += 1;
        }

        let eval = self.evaluator.eval_str(&best.1);
        GaResult {
            weights: best.1,
            best_cost: best.0,
            eval,
            generations,
            trace,
        }
    }

    fn tournament_pick<'p>(
        &self,
        pop: &'p [(Lex2, WeightVector)],
        rng: &mut StdRng,
    ) -> &'p WeightVector {
        let mut best: Option<&(Lex2, WeightVector)> = None;
        for _ in 0..self.ga.tournament {
            let cand = &pop[rng.random_range(0..pop.len())];
            if best.is_none_or(|b| cand.0 < b.0) {
                best = Some(cand);
            }
        }
        &best.expect("tournament size ≥ 1").1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_traffic::{TrafficCfg, TrafficMatrix};

    #[test]
    fn ga_finds_triangle_str_optimum() {
        let topo = triangle_topology(1.0);
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0 / 3.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0 / 3.0);
        let demands = DemandSet { high, low };
        let res = GaSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::quick().with_seed(1),
        )
        .run();
        assert!((res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9);
        assert!((res.eval.phi_l - 64.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn ga_respects_eval_budget_and_improves() {
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
        let res = GaSearch::new(&topo, &demands, Objective::LoadBased, params).run();
        assert!(res.trace.evaluations <= params.dtr_eval_budget());
        // The uniform-weight seed is in the initial population, so the
        // result can never be worse than it.
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let uniform_cost = ev.eval_str(&WeightVector::uniform(&topo, 1)).cost;
        assert!(res.best_cost <= uniform_cost);
        assert!(res.generations > 0);
    }

    #[test]
    fn ga_is_deterministic_in_seed() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 3,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 3,
                ..Default::default()
            },
        );
        let run = || {
            GaSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(9),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_ga_params() {
        let topo = triangle_topology(1.0);
        let demands = DemandSet {
            high: TrafficMatrix::zeros(3),
            low: TrafficMatrix::zeros(3),
        };
        let _ = GaSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_ga_params(GaParams {
                population: 1,
                ..Default::default()
            });
    }
}
