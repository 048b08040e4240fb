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
//! exact (no scalarization). The loop itself lives in
//! [`crate::memetic`], whose hill-climb the GA runs with zero steps; the
//! GA's tests are rows of that module's.

use crate::memetic::{evolve, MemeticParams};
use crate::params::SearchParams;
use crate::telemetry::SearchResult;
use dtr_cost::Objective;
use dtr_engine::BatchEvaluator;
use dtr_graph::Topology;
use dtr_traffic::DemandSet;
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

impl GaParams {
    /// Panics on degenerate knobs.
    pub(crate) fn validate(&self) {
        assert!(self.population >= 2);
        assert!((0.0..1.0).contains(&self.elite_frac));
        assert!((0.0..=1.0).contains(&self.mutation_rate));
        assert!(self.tournament >= 1);
    }
}

/// The GA optimizer for single-topology weights: the memetic
/// generation loop ([`crate::memetic`]) with no hill-climb. The result's
/// two vectors are identical replicas;
/// [`crate::SearchTrace::generations`] counts its generations.
pub struct GaSearch<'a> {
    engine: BatchEvaluator<'a>,
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
            engine: BatchEvaluator::new(topo, demands, objective, params.backend),
            params,
            ga: GaParams::default(),
        }
    }

    /// Overrides the GA-specific knobs.
    pub fn with_ga_params(mut self, ga: GaParams) -> Self {
        ga.validate();
        self.ga = ga;
        self
    }

    /// Runs until the evaluation budget (`SearchParams::dtr_eval_budget`)
    /// is spent.
    pub fn run(self) -> SearchResult {
        let plain = MemeticParams {
            ga: self.ga,
            local_steps: 0,
        };
        // Salted so strategy ablations with a shared `seed` explore
        // independent candidate streams.
        evolve(self.engine, self.params, plain, 0x6761_0000_0000_0001)
    }
}
