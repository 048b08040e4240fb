//! Extension experiment: does *failure-aware* weight optimization beat
//! nominal optimization after a cut?
//!
//! The `robustness` experiment evaluates nominally-optimized weights
//! under failures; this one closes the loop using
//! [`dtr_core::RobustSearch`] (Nucci et al. \[5\] style): weights are
//! optimized against a blend of intact and worst post-failure cost, then
//! *all four* settings — nominal STR/DTR and robust STR/DTR — are swept
//! through every survivable single duplex-pair failure.
//!
//! Expected shape: robust optimization trades a little intact-topology
//! cost for a markedly lower worst-case post-failure cost, and DTR keeps
//! its low-priority advantage in both regimes.

use crate::report::{fmt, Table};
use crate::robustness::{failure_sweep, RobustnessSummary};
use crate::runner::{demands_random_model, gamma_grid, ExperimentCtx, TopologyKind};
use dtr_core::{
    DtrSearch, Objective, RobustSearch, ScenarioCombine, Scheme, SearchParams, StrSearch,
};
use dtr_graph::weights::DualWeights;
use serde::{Deserialize, Serialize};

/// Sweep outcome for one optimization scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustOptOutcome {
    /// `"nominal-str"`, `"nominal-dtr"`, `"robust-str"`, `"robust-dtr"`.
    pub scheme: String,
    /// Post-failure distribution summary under the full scenario set.
    pub summary: RobustnessSummary,
}

/// Risk-posture blend used by the robust runs (β = 0.5: intact and
/// worst-case count equally).
pub const BETA: f64 = 0.5;

/// Derives the reduced budget the robust runs use: each robust candidate
/// costs `1 + scenarios` routing evaluations, so the iteration counts
/// shrink by the same factor to keep the total routing work comparable
/// with the nominal runs.
pub fn robust_params(params: SearchParams, scenarios: usize) -> SearchParams {
    SearchParams {
        n_iters: (params.n_iters / (1 + scenarios)).max(15),
        k_iters: (params.k_iters / (1 + scenarios)).max(15),
        ..params
    }
}

/// Runs the study on the paper's random topology at moderate load.
pub fn run(ctx: &ExperimentCtx) -> Vec<RobustOptOutcome> {
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
    let params = ctx.params.with_seed(ctx.seed);
    let scenarios = dtr_routing::survivable_duplex_failures(&topo).len();
    let rparams = robust_params(params, scenarios);

    let nominal_str = StrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
    let nominal_dtr = DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
    // Robust runs start from the nominal optima (robustify the
    // incumbent, don't search from scratch) and see the FULL failure
    // set — capping it can silently trade uncapped scenarios away.
    let robust_str = RobustSearch::new(
        &topo,
        &demands,
        ScenarioCombine::Blend { beta: BETA },
        rparams,
        Scheme::Str,
    )
    .with_initial(DualWeights::replicated(nominal_str.weights.clone()))
    .run();
    let robust_dtr = RobustSearch::new(
        &topo,
        &demands,
        ScenarioCombine::Blend { beta: BETA },
        rparams,
        Scheme::Dtr,
    )
    .with_initial(nominal_dtr.weights.clone())
    .run();

    let cases = [
        ("nominal-str", DualWeights::replicated(nominal_str.weights)),
        ("nominal-dtr", nominal_dtr.weights),
        ("robust-str", robust_str.weights),
        ("robust-dtr", robust_dtr.weights),
    ];
    cases
        .into_iter()
        .map(|(scheme, weights)| RobustOptOutcome {
            scheme: scheme.to_string(),
            summary: failure_sweep(&topo, &demands, &weights, scheme),
        })
        .collect()
}

/// Renders the four-way comparison.
pub fn table(outcomes: &[RobustOptOutcome]) -> Table {
    let mut t = Table::new(
        format!(
            "Failure-aware vs nominal optimization (random topology, load-based, AD≈0.6, β={BETA})"
        ),
        &[
            "scheme",
            "intact_phi_l",
            "median_fail_phi_l",
            "worst_fail_phi_l",
            "worst_max_util",
            "scenarios",
        ],
    );
    for o in outcomes {
        let s = &o.summary;
        t.row(vec![
            o.scheme.clone(),
            fmt(s.intact.1, 1),
            fmt(s.median_phi_l, 1),
            fmt(s.worst_phi_l.0, 1),
            fmt(s.worst_max_util, 3),
            s.scenarios.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_schemes_swept_and_rendered() {
        let mut ctx = ExperimentCtx::smoke();
        ctx.params = SearchParams::tiny();
        let outcomes = run(&ctx);
        assert_eq!(outcomes.len(), 4);
        let names: Vec<&str> = outcomes.iter().map(|o| o.scheme.as_str()).collect();
        assert_eq!(
            names,
            ["nominal-str", "nominal-dtr", "robust-str", "robust-dtr"]
        );
        for o in &outcomes {
            assert!(o.summary.scenarios >= 60);
            assert!(o.summary.worst_phi_l.0 >= o.summary.median_phi_l);
        }
        let t = table(&outcomes);
        assert_eq!(t.rows.len(), 4);
    }

    #[test]
    fn robust_params_shrink_budget() {
        let p = SearchParams::experiment();
        let r = robust_params(p, 73);
        assert!(r.n_iters < p.n_iters);
        assert!(r.k_iters < p.k_iters);
        assert!(r.n_iters >= 15 && r.k_iters >= 15);
    }
}
