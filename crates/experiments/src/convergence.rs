//! Extension experiment: convergence of the search strategies at an
//! identical evaluation budget.
//!
//! §5.1.3 fixes a large iteration budget (N = 300 000, K = 800 000) but
//! the paper never shows *how fast* the heuristic approaches its final
//! cost — which matters to anyone re-running the search on every traffic
//! shift. This experiment records the incumbent-improvement trace of
//! each strategy (Fortz–Thorup local search, simulated annealing) on the
//! same STR instance, plus the two DTR searches (whose larger solution
//! space is the paper's point), and emits cost-vs-evaluations curves.
//!
//! Expected shape: the local search wins early (first-improvement moves
//! are cheap), and DTR's Φ_L floor sits far below every STR strategy's.

use crate::report::{fmt, Table};
use crate::runner::{demands_random_model, gamma_grid, ExperimentCtx, TopologyKind};
use dtr_core::telemetry::SearchTrace;
use dtr_core::{run_strategy, Objective, Scheme, SearchParams, StrategyKind};
use serde::{Deserialize, Serialize};

/// One strategy's convergence record.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StrategyCurve {
    /// Strategy name.
    pub strategy: String,
    /// `(evaluations, primary, secondary)` at every incumbent
    /// improvement, in order.
    pub points: Vec<(usize, f64, f64)>,
    /// Total candidate evaluations spent.
    pub total_evaluations: usize,
}

impl StrategyCurve {
    fn from_trace(strategy: &str, trace: &SearchTrace) -> Self {
        StrategyCurve {
            strategy: strategy.to_string(),
            points: trace
                .improvements
                .iter()
                .map(|i| (i.evaluations, i.cost.get(0), i.cost.get(1)))
                .collect(),
            total_evaluations: trace.evaluations,
        }
    }

    /// Final incumbent cost.
    pub fn final_cost(&self) -> (f64, f64) {
        self.points
            .last()
            .map(|&(_, p, s)| (p, s))
            .unwrap_or((f64::NAN, f64::NAN))
    }

    /// Evaluations spent until the primary component last improved —
    /// how long the high-priority class stayed in play.
    pub fn evals_to_final_primary(&self) -> usize {
        let (fp, _) = self.final_cost();
        self.points
            .iter()
            .find(|&&(_, p, _)| p <= fp)
            .map(|&(e, _, _)| e)
            .unwrap_or(0)
    }

    /// Evaluations spent until the last improvement of any kind.
    pub fn evals_to_last_improvement(&self) -> usize {
        self.points.last().map(|&(e, _, _)| e).unwrap_or(0)
    }
}

/// Runs all four searches on the paper's random topology at moderate
/// load and returns their curves.
pub fn run(ctx: &ExperimentCtx) -> Vec<StrategyCurve> {
    let topo = TopologyKind::Random.build(ctx.seed);
    let base = demands_random_model(&topo, 0.30, 0.10, ctx.seed);
    let gammas = gamma_grid(
        &topo,
        &base,
        &ExperimentCtx {
            load_points: 1,
            load_range: (0.6, 0.6),
            ..*ctx
        },
    );
    let demands = base.scaled(gammas[0]);
    let params: SearchParams = ctx.params.with_seed(ctx.seed);

    use StrategyKind::{Anneal, Descent};
    [
        ("local-search", Descent, Scheme::Str),
        ("annealing", Anneal, Scheme::Str),
        ("annealing-dtr", Anneal, Scheme::Dtr),
        ("dtr", Descent, Scheme::Dtr),
    ]
    .into_iter()
    .map(|(name, strategy, scheme)| {
        let res = run_strategy(
            (strategy, scheme),
            &topo,
            &demands,
            Objective::LoadBased,
            params,
            None,
            None,
        );
        StrategyCurve::from_trace(name, &res.trace)
    })
    .collect()
}

/// Summary table (one row per strategy).
pub fn table(curves: &[StrategyCurve]) -> Table {
    let mut t = Table::new(
        "Search-strategy convergence at equal evaluation budgets (random topology, load-based, AD≈0.6)",
        &[
            "strategy",
            "final_phi_h",
            "final_phi_l",
            "improvements",
            "evals_total",
            "evals_to_final_phi_h",
            "evals_to_last_improvement",
        ],
    );
    for c in curves {
        let (p, s) = c.final_cost();
        t.row(vec![
            c.strategy.clone(),
            fmt(p, 1),
            fmt(s, 1),
            c.points.len().to_string(),
            c.total_evaluations.to_string(),
            c.evals_to_final_primary().to_string(),
            c.evals_to_last_improvement().to_string(),
        ]);
    }
    t
}

/// The full curves as a long-format table (for CSV / plotting).
pub fn curves_table(curves: &[StrategyCurve]) -> Table {
    let mut t = Table::new(
        "Convergence curves (long format)",
        &["strategy", "evaluations", "phi_h", "phi_l"],
    );
    for c in curves {
        for &(e, p, s) in &c.points {
            t.row(vec![
                c.strategy.clone(),
                e.to_string(),
                fmt(p, 2),
                fmt(s, 2),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_monotone_and_complete() {
        let mut ctx = ExperimentCtx::smoke();
        ctx.params = SearchParams::tiny();
        let curves = run(&ctx);
        assert_eq!(curves.len(), 4);
        for c in &curves {
            assert!(!c.points.is_empty(), "{} has no improvements", c.strategy);
            // Lexicographic cost must be non-increasing along the curve.
            for w in c.points.windows(2) {
                let a = dtr_cost::Lex2::new(w[0].1, w[0].2);
                let b = dtr_cost::Lex2::new(w[1].1, w[1].2);
                assert!(b <= a, "{}: cost rose along the curve", c.strategy);
                assert!(
                    w[1].0 >= w[0].0,
                    "{}: evaluations went backwards",
                    c.strategy
                );
            }
            assert!(c.evals_to_last_improvement() <= c.total_evaluations);
        }
        // DTR's Φ_L floor undercuts every STR strategy on this instance.
        let dtr = curves.iter().find(|c| c.strategy == "dtr").unwrap();
        let ls = curves
            .iter()
            .find(|c| c.strategy == "local-search")
            .unwrap();
        assert!(dtr.final_cost().1 <= ls.final_cost().1 * 1.5);

        assert_eq!(table(&curves).rows.len(), 4);
        assert!(curves_table(&curves).rows.len() >= 4);
    }
}
