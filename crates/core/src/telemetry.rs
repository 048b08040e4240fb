//! What a heuristic run returns: the setting it found and the telemetry
//! of how it got there.
//!
//! The telemetry is used by the experiments to report convergence
//! behaviour and by the ablation benches to compare design variants
//! (diversification on/off, τ settings, routine 3 on/off).

use dtr_cost::{Lex2, LexCost};
use dtr_graph::weights::DualWeights;
use dtr_routing::Evaluation;
use serde::{Deserialize, Serialize};

/// Outcome of a two-class weight search under either scheme and any
/// strategy ([`crate::portfolio::run_strategy`]'s rows).
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best dual weight setting found (`W*`). A single-vector search
    /// returns the vector written twice.
    pub weights: DualWeights,
    /// Full evaluation of `W*`.
    pub eval: Evaluation,
    /// Objective value of `W*` (equals `eval.cost`).
    pub best_cost: Lex2,
    /// Search telemetry.
    pub trace: SearchTrace,
}

/// Which routine of Algorithm 1 an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Routine 1: optimizing `W^H` (`FindH`).
    OptimizeHigh,
    /// Routine 2: optimizing `W^L` (`FindL`).
    OptimizeLow,
    /// Routine 3: joint refinement.
    Refine,
    /// The STR baseline's single loop.
    Str,
}

/// One incumbent improvement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Improvement {
    /// Global iteration counter at which the improvement was found.
    pub iteration: usize,
    /// Candidate evaluations spent when the improvement was found — the
    /// strategy-independent x-axis for convergence curves (iterations
    /// mean different things to a local search, a GA generation, and an
    /// annealing step).
    pub evaluations: usize,
    /// Routine that found it.
    pub phase: Phase,
    /// The new incumbent cost, one component per class (a two-class
    /// search records `⟨primary, secondary⟩`).
    pub cost: LexCost,
}

/// Counters and the improvement log of one search run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SearchTrace {
    /// Total iterations executed (across routines).
    pub iterations: usize,
    /// Total candidate evaluations.
    pub evaluations: usize,
    /// Diversification events (random perturbations after stalls).
    pub diversifications: usize,
    /// Accepted local-search moves.
    pub moves_accepted: usize,
    /// Every incumbent improvement, in order.
    pub improvements: Vec<Improvement>,
    /// Failure-scenario pair ids a robust-search scenario cap **dropped**
    /// from the optimization set (ascending; empty when no cap was
    /// active). The cap is a real approximation — a move can improve
    /// every retained scenario while degrading a dropped one — so the
    /// blind spots are recorded here rather than discarded silently.
    pub dropped_scenarios: Vec<u32>,
    /// Annealing: moves accepted while degrading (how much the walk
    /// actually explored).
    pub uphill_accepted: usize,
    /// GA / memetic: generations executed.
    pub generations: usize,
    /// Memetic: hill-climb probes that improved their individual.
    pub local_improvements: usize,
}

impl SearchTrace {
    /// Records an incumbent improvement at the current evaluation count.
    pub fn improved(&mut self, iteration: usize, phase: Phase, cost: impl Into<LexCost>) {
        self.improvements.push(Improvement {
            iteration,
            evaluations: self.evaluations,
            phase,
            cost: cost.into(),
        });
    }

    /// The incumbent cost after the last improvement, if any.
    pub fn final_cost(&self) -> Option<&LexCost> {
        self.improvements.last().map(|i| &i.cost)
    }

    /// Iterations between the first and last improvement — a crude
    /// convergence measure used by the ablation benches.
    pub fn convergence_span(&self) -> usize {
        match (self.improvements.first(), self.improvements.last()) {
            (Some(a), Some(b)) => b.iteration - a.iteration,
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_improvements_in_order() {
        let mut t = SearchTrace::default();
        t.improved(3, Phase::OptimizeHigh, LexCost::two(10.0, 5.0));
        t.improved(9, Phase::Refine, LexCost::two(8.0, 4.0));
        assert_eq!(t.improvements.len(), 2);
        assert_eq!(t.final_cost(), Some(&LexCost::two(8.0, 4.0)));
        assert_eq!(t.convergence_span(), 6);
    }

    #[test]
    fn empty_trace_behaves() {
        let t = SearchTrace::default();
        assert_eq!(t.final_cost(), None);
        assert_eq!(t.convergence_span(), 0);
    }
}
