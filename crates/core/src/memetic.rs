//! A memetic-algorithm STR baseline (related work \[4\]).
//!
//! Buriol, Resende, Ribeiro & Thorup improved on the pure genetic
//! algorithm for OSPF weight setting by hybridizing it with local search:
//! every offspring produced by crossover/mutation is refined by a short
//! hill-climb before joining the population. The paper's §2 cites this as
//! the "memetic" descendant of Fortz–Thorup \[2\]; we implement it as a
//! third arm of the search-strategy ablation (local search vs genetic vs
//! memetic at an identical evaluation budget).
//!
//! The local-improvement step is the same single-weight-change move the
//! STR baseline uses, applied greedily for a bounded number of steps.
//! Every evaluation — parents, offspring, and hill-climb probes — is
//! charged against [`SearchParams::dtr_eval_budget`] so the comparison
//! with [`crate::StrSearch`], [`crate::GaSearch`] and
//! [`crate::AnnealSearch`] is effort-fair.

use crate::descent::SingleChange;
use crate::ga::GaParams;
use crate::params::SearchParams;
use crate::scheme::Scheme;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_graph::{LinkId, Topology, WeightVector};
use dtr_routing::{Evaluation, Evaluator};
use dtr_traffic::DemandSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Memetic-specific knobs: the underlying GA plus the hill-climb length.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemeticParams {
    /// Population / selection / crossover / mutation knobs.
    pub ga: GaParams,
    /// Greedy single-weight-change steps applied to each offspring (each
    /// step evaluates one probe; an accepted probe replaces the
    /// offspring).
    pub local_steps: usize,
}

impl Default for MemeticParams {
    fn default() -> Self {
        MemeticParams {
            // A smaller population than the pure GA: part of the budget
            // goes to the hill-climbs.
            ga: GaParams {
                population: 20,
                ..GaParams::default()
            },
            local_steps: 8,
        }
    }
}

/// Outcome of a memetic run.
#[derive(Debug, Clone)]
pub struct MemeticResult {
    /// Best weight setting found.
    pub weights: WeightVector,
    /// Its full evaluation.
    pub eval: Evaluation,
    /// Its objective value.
    pub best_cost: Lex2,
    /// Generations executed.
    pub generations: usize,
    /// Hill-climb probes that improved their offspring.
    pub local_improvements: usize,
    /// Telemetry (evaluations, improvements).
    pub trace: SearchTrace,
}

/// The memetic optimizer for single-topology weights.
pub struct MemeticSearch<'a> {
    evaluator: Evaluator<'a>,
    params: SearchParams,
    memetic: MemeticParams,
}

impl<'a> MemeticSearch<'a> {
    /// Prepares a memetic search with default [`MemeticParams`].
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
    ) -> Self {
        params.validate();
        MemeticSearch {
            evaluator: Evaluator::new(topo, demands, objective),
            params,
            memetic: MemeticParams::default(),
        }
    }

    /// Overrides the memetic knobs.
    pub fn with_memetic_params(mut self, memetic: MemeticParams) -> Self {
        assert!(memetic.ga.population >= 2);
        assert!((0.0..1.0).contains(&memetic.ga.elite_frac));
        assert!((0.0..=1.0).contains(&memetic.ga.mutation_rate));
        assert!(memetic.ga.tournament >= 1);
        self.memetic = memetic;
        self
    }

    /// Greedy hill-climb on one individual: up to `local_steps` probes,
    /// each a single-weight change; an improving probe is adopted
    /// immediately. Returns the number of adopted probes.
    fn improve(
        &mut self,
        cost: &mut Lex2,
        w: &mut WeightVector,
        budget: usize,
        rng: &mut StdRng,
        trace: &mut SearchTrace,
    ) -> usize {
        let n_links = w.len();
        let mut adopted = 0;
        for _ in 0..self.memetic.local_steps {
            if trace.evaluations >= budget {
                break;
            }
            let (lid, _) = SingleChange::draw_position(Scheme::Str, n_links, rng);
            let old = w.get(lid);
            w.set(lid, SingleChange::draw_value(old, &self.params, rng));
            let c = self.evaluator.eval_str(w).cost;
            trace.evaluations += 1;
            if c < *cost {
                *cost = c;
                adopted += 1;
            } else {
                w.set(lid, old); // revert the probe
            }
        }
        adopted
    }

    /// Runs until the evaluation budget is spent.
    pub fn run(mut self) -> MemeticResult {
        // Salted so strategy ablations with a shared `seed` explore
        // independent candidate streams.
        let mut rng = StdRng::seed_from_u64(self.params.seed ^ 0x6d65_6d65_7469_0001);
        let n_links = self.evaluator.topo().link_count();
        let budget = self.params.dtr_eval_budget();
        let ga = self.memetic.ga;
        let mut trace = SearchTrace::default();
        let mut local_improvements = 0usize;

        // Initial population: the uniform operator default plus random
        // immigrants, each refined by a hill-climb.
        let mut pop: Vec<(Lex2, WeightVector)> = Vec::with_capacity(ga.population);
        let seed_w = WeightVector::uniform(self.evaluator.topo(), 1);
        let mut seed_cost = self.evaluator.eval_str(&seed_w).cost;
        trace.evaluations += 1;
        let mut seed_w = seed_w;
        local_improvements +=
            self.improve(&mut seed_cost, &mut seed_w, budget, &mut rng, &mut trace);
        pop.push((seed_cost, seed_w));
        while pop.len() < ga.population && trace.evaluations < budget {
            let mut w = WeightVector::from_vec(
                (0..n_links)
                    .map(|_| rng.random_range(self.params.min_weight..=self.params.max_weight))
                    .collect(),
            );
            let mut c = self.evaluator.eval_str(&w).cost;
            trace.evaluations += 1;
            local_improvements += self.improve(&mut c, &mut w, budget, &mut rng, &mut trace);
            pop.push((c, w));
        }
        pop.sort_by_key(|a| a.0);
        let mut best = pop[0].clone();
        trace.improved(0, Phase::Str, best.0);

        let elite = ((ga.population as f64 * ga.elite_frac) as usize).max(1);
        let mut generations = 0;

        while trace.evaluations < budget {
            generations += 1;
            let mut next: Vec<(Lex2, WeightVector)> = pop[..elite.min(pop.len())].to_vec();
            while next.len() < ga.population && trace.evaluations < budget {
                let p1 = tournament_pick(&pop, ga.tournament, &mut rng);
                let p2 = tournament_pick(&pop, ga.tournament, &mut rng);
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
                    if rng.random_bool(ga.mutation_rate) {
                        *w = rng.random_range(self.params.min_weight..=self.params.max_weight);
                    }
                }
                let mut w = WeightVector::from_vec(child);
                let mut c = self.evaluator.eval_str(&w).cost;
                trace.evaluations += 1;
                // The memetic step: refine the offspring before insertion.
                local_improvements += self.improve(&mut c, &mut w, budget, &mut rng, &mut trace);
                next.push((c, w));
            }
            next.sort_by_key(|a| a.0);
            next.truncate(ga.population);
            pop = next;
            if pop[0].0 < best.0 {
                best = pop[0].clone();
                trace.improved(generations, Phase::Str, best.0);
            }
            trace.iterations += 1;
        }

        let eval = self.evaluator.eval_str(&best.1);
        MemeticResult {
            weights: best.1,
            best_cost: best.0,
            eval,
            generations,
            local_improvements,
            trace,
        }
    }
}

fn tournament_pick<'p>(
    pop: &'p [(Lex2, WeightVector)],
    tournament: usize,
    rng: &mut StdRng,
) -> &'p WeightVector {
    let mut best: Option<&(Lex2, WeightVector)> = None;
    for _ in 0..tournament {
        let cand = &pop[rng.random_range(0..pop.len())];
        if best.is_none_or(|b| cand.0 < b.0) {
            best = Some(cand);
        }
    }
    &best.expect("tournament size ≥ 1").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
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
    fn memetic_finds_triangle_str_optimum() {
        let (topo, demands) = triangle_instance();
        let res = MemeticSearch::new(
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
    fn respects_eval_budget() {
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
        )
        .scaled(4.0);
        let params = SearchParams::tiny().with_seed(5);
        let res = MemeticSearch::new(&topo, &demands, Objective::LoadBased, params).run();
        assert!(res.trace.evaluations <= params.dtr_eval_budget());
        assert!(res.generations > 0);
    }

    #[test]
    fn never_worse_than_uniform_seed() {
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
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let uniform_cost = ev.eval_str(&WeightVector::uniform(&topo, 1)).cost;
        let res = MemeticSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(6),
        )
        .run();
        assert!(res.best_cost <= uniform_cost);
    }

    #[test]
    fn deterministic_in_seed() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 4,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 4,
                ..Default::default()
            },
        );
        let run = || {
            MemeticSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(21),
            )
            .run()
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_cost, b.best_cost);
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.local_improvements, b.local_improvements);
    }

    #[test]
    fn hill_climb_reverts_non_improving_probes() {
        // With zero local steps the memetic search degenerates to the GA;
        // with steps it must never return something worse.
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
            seed: 9,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 9,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let base = MemeticSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(2),
        )
        .with_memetic_params(MemeticParams {
            local_steps: 0,
            ..Default::default()
        })
        .run();
        let refined = MemeticSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(2),
        )
        .run();
        // Same budget; both are valid searches, so just sanity-check both
        // produce finite costs and the refined run recorded hill-climb
        // activity.
        assert!(base.best_cost.primary.is_finite());
        assert!(refined.best_cost.primary.is_finite());
        assert!(refined.local_improvements > 0 || refined.trace.evaluations < 50);
    }

    #[test]
    #[should_panic]
    fn rejects_degenerate_params() {
        let (topo, demands) = triangle_instance();
        let _ = MemeticSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_memetic_params(MemeticParams {
                ga: GaParams {
                    population: 1,
                    ..Default::default()
                },
                ..Default::default()
            });
    }
}
