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
//! Every evaluation — parents, offspring, and hill-climb probes — goes
//! through the engine's joint lane and is charged against
//! [`SearchParams::dtr_eval_budget`] so the comparison
//! with [`crate::StrSearch`], [`crate::GaSearch`] and
//! [`crate::AnnealSearch`] is effort-fair.

use crate::descent::SingleChange;
use crate::ga::GaParams;
use crate::params::SearchParams;
use crate::scheme::Scheme;
use crate::telemetry::{Phase, SearchResult, SearchTrace};
use dtr_cost::{Lex2, Objective};
use dtr_engine::BatchEvaluator;
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, Topology, WeightVector};
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

/// The memetic optimizer for single-topology weights. The result's two
/// vectors are identical replicas; [`SearchTrace::generations`] and
/// [`SearchTrace::local_improvements`] count its generations and the
/// hill-climb probes that improved their individual.
pub struct MemeticSearch<'a> {
    engine: BatchEvaluator<'a>,
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
            engine: BatchEvaluator::new(topo, demands, objective, params.backend),
            params,
            memetic: MemeticParams::default(),
        }
    }

    /// Overrides the memetic knobs.
    pub fn with_memetic_params(mut self, memetic: MemeticParams) -> Self {
        memetic.ga.validate();
        self.memetic = memetic;
        self
    }

    /// Runs until the evaluation budget is spent.
    pub fn run(self) -> SearchResult {
        // Salted so strategy ablations with a shared `seed` explore
        // independent candidate streams.
        evolve(
            self.engine,
            self.params,
            self.memetic,
            0x6d65_6d65_7469_0001,
        )
    }
}

type Individual = (Lex2, WeightVector);

/// A run's moving parts, shared by every individual it admits.
struct Evolution<'a> {
    engine: BatchEvaluator<'a>,
    params: SearchParams,
    local_steps: usize,
    budget: usize,
    rng: StdRng,
    trace: SearchTrace,
}

impl Evolution<'_> {
    fn random_weight(&mut self) -> u32 {
        self.rng
            .random_range(self.params.min_weight..=self.params.max_weight)
    }

    /// Costs `w`, then refines it by a greedy hill-climb: up to
    /// `local_steps` probes (fewer when the budget runs out), each a
    /// single-weight change; an improving probe is adopted immediately.
    /// The joint base follows the individual being refined, so each
    /// probe repairs one weight's worth of routes.
    fn admit(&mut self, mut w: WeightVector) -> Individual {
        let mut cost = self.engine.eval_joint(&w).cost;
        self.trace.evaluations += 1;
        let steps = self
            .local_steps
            .min(self.budget.saturating_sub(self.trace.evaluations));
        if steps > 0 {
            self.engine.rebase_joint(&w);
        }
        for _ in 0..steps {
            let (lid, _) = SingleChange::draw_position(Scheme::Str, w.len(), &mut self.rng);
            let old = w.get(lid);
            w.set(
                lid,
                SingleChange::draw_value(old, &self.params, &mut self.rng),
            );
            let c = self.engine.eval_joint(&w).cost;
            self.trace.evaluations += 1;
            if c < cost {
                cost = c;
                self.trace.local_improvements += 1;
                self.engine.rebase_joint(&w);
            } else {
                w.set(lid, old); // revert the probe
            }
        }
        (cost, w)
    }
}

/// The generational loop with elitism — tournament selection, uniform
/// per-link crossover, per-link reset mutation — refining every
/// individual by `memetic.local_steps` hill-climb probes. With zero
/// steps the hill-climb draws nothing and this is the plain GA, which
/// [`crate::GaSearch`] runs under its own `salt` (so its RNG stream is
/// its own).
pub(crate) fn evolve(
    engine: BatchEvaluator<'_>,
    params: SearchParams,
    memetic: MemeticParams,
    salt: u64,
) -> SearchResult {
    let ga = memetic.ga;
    let n_links = engine.topo().link_count();
    let seed_w = WeightVector::uniform(engine.topo(), 1);
    let mut run = Evolution {
        engine,
        params,
        local_steps: memetic.local_steps,
        budget: params.dtr_eval_budget(),
        rng: StdRng::seed_from_u64(params.seed ^ salt),
        trace: SearchTrace::default(),
    };

    // Initial population: the uniform operator default plus random
    // immigrants.
    let mut pop: Vec<Individual> = Vec::with_capacity(ga.population);
    pop.push(run.admit(seed_w));
    while pop.len() < ga.population && run.trace.evaluations < run.budget {
        let w = WeightVector::from_vec((0..n_links).map(|_| run.random_weight()).collect());
        pop.push(run.admit(w));
    }
    pop.sort_by_key(|a| a.0);
    let mut best = pop[0].clone();
    run.trace.improved(0, Phase::Str, best.0);

    let elite = ((ga.population as f64 * ga.elite_frac) as usize).max(1);

    while run.trace.evaluations < run.budget {
        run.trace.generations += 1;
        let mut next: Vec<Individual> = pop[..elite.min(pop.len())].to_vec();
        while next.len() < ga.population && run.trace.evaluations < run.budget {
            let p1 = tournament_pick(&pop, ga.tournament, &mut run.rng);
            let p2 = tournament_pick(&pop, ga.tournament, &mut run.rng);
            let mut child: Vec<u32> = (0..n_links)
                .map(|i| {
                    let lid = LinkId(i as u32);
                    if run.rng.random_bool(0.5) {
                        p1.get(lid)
                    } else {
                        p2.get(lid)
                    }
                })
                .collect();
            for w in child.iter_mut() {
                if run.rng.random_bool(ga.mutation_rate) {
                    *w = run.random_weight();
                }
            }
            next.push(run.admit(WeightVector::from_vec(child)));
        }
        next.sort_by_key(|a| a.0);
        next.truncate(ga.population);
        pop = next;
        if pop[0].0 < best.0 {
            best = pop[0].clone();
            run.trace
                .improved(run.trace.generations, Phase::Str, best.0);
        }
        run.trace.iterations += 1;
    }

    let eval = run.engine.eval_joint(&best.1);
    SearchResult {
        weights: DualWeights::replicated(best.1),
        best_cost: best.0,
        eval,
        trace: run.trace,
    }
}

fn tournament_pick<'p>(
    pop: &'p [Individual],
    tournament: usize,
    rng: &mut StdRng,
) -> &'p WeightVector {
    let mut best: Option<&Individual> = None;
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
    use crate::GaSearch;
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

    fn random_instance(nodes: usize, seed: u64) -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes,
            directed_links: nodes * 4,
            seed,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed,
                ..Default::default()
            },
        )
        .scaled(4.0);
        (topo, demands)
    }

    /// The plain GA and the memetic search: one loop, two rows.
    fn both(topo: &Topology, demands: &DemandSet, params: SearchParams) -> [SearchResult; 2] {
        [
            GaSearch::new(topo, demands, Objective::LoadBased, params).run(),
            MemeticSearch::new(topo, demands, Objective::LoadBased, params).run(),
        ]
    }

    #[test]
    fn finds_triangle_str_optimum() {
        let (topo, demands) = triangle_instance();
        for res in both(&topo, &demands, SearchParams::quick().with_seed(1)) {
            assert!((res.eval.phi_h - 1.0 / 3.0).abs() < 1e-9);
            assert!((res.eval.phi_l - 64.0 / 9.0).abs() < 1e-9);
            assert_eq!(res.weights.high, res.weights.low);
        }
    }

    #[test]
    fn respects_eval_budget_and_never_loses_the_uniform_seed() {
        for seed in [2, 5, 6] {
            let (topo, demands) = random_instance(10, seed);
            let params = SearchParams::tiny().with_seed(seed);
            // The uniform-weight seed is in the initial population, so
            // the result can never be worse than it.
            let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
            let uniform_cost = ev.eval_str(&WeightVector::uniform(&topo, 1)).cost;
            for res in both(&topo, &demands, params) {
                assert!(res.trace.evaluations <= params.dtr_eval_budget());
                assert!(res.trace.generations > 0);
                assert!(res.best_cost <= uniform_cost);
                assert_eq!(res.eval.cost, res.best_cost);
                assert_eq!(res.eval, ev.eval_str(&res.weights.high));
            }
        }
    }

    #[test]
    fn deterministic_in_seed() {
        let (topo, demands) = random_instance(8, 4);
        let params = SearchParams::tiny().with_seed(21);
        for (a, b) in both(&topo, &demands, params)
            .into_iter()
            .zip(both(&topo, &demands, params))
        {
            assert_eq!(a.best_cost, b.best_cost);
            assert_eq!(a.weights, b.weights);
            assert_eq!(a.trace, b.trace);
        }
    }

    #[test]
    fn only_the_hill_climb_records_local_improvements() {
        let (topo, demands) = random_instance(8, 9);
        let [ga, refined] = both(&topo, &demands, SearchParams::tiny().with_seed(2));
        assert_eq!(ga.trace.local_improvements, 0);
        assert!(refined.trace.local_improvements > 0);
        // The GA spends one evaluation per individual; the hill-climb
        // spends most of the same budget on probes.
        assert!(ga.trace.generations > refined.trace.generations);
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

    #[test]
    #[should_panic]
    fn ga_rejects_degenerate_params() {
        let (topo, demands) = triangle_instance();
        let _ = GaSearch::new(&topo, &demands, Objective::LoadBased, SearchParams::tiny())
            .with_ga_params(GaParams {
                population: 1,
                ..Default::default()
            });
    }
}
