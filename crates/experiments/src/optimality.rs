//! Extension experiment: how close does DTR get to *optimal* routing?
//!
//! Not a paper figure — an extension the paper's related-work section
//! motivates. Balon & Leduc \[6\] approximate optimal traffic engineering
//! by splitting the traffic matrix over many topologies; the Frank–Wolfe
//! machinery of `dtr_routing::lower_bound` computes a near-optimal
//! *reference flow* plus a duality bracket around the true optimum.
//!
//! Reported per scheme:
//!
//! - **high ratio**: `Φ_H(scheme) / Φ_H(FW flow)` — the FW flow
//!   optimizes over all fractional flows, so values near 1 mean the
//!   SPF-realizable scheme is essentially optimal;
//! - **low ratio**: `Φ_L(scheme) / Φ_L(FW flow | scheme's residuals)` —
//!   the low-class reference is computed *against the residual
//!   capacities the scheme's own high placement leaves* (different high
//!   placements define different low-class problems);
//! - **bracket**: `Φ(FW flow) / duality-LB`, the tightness of the
//!   reference itself (1.0 = provably optimal; large values at overload
//!   mean vanilla FW's bound is loose there, so read ratios as
//!   *relative to a good flow*, not to a certified optimum).

use crate::report::{fmt, Table};
use crate::runner::{demands_random_model, gamma_grid, run_pair, ExperimentCtx, TopologyKind};
use dtr_core::Objective;
use dtr_cost::load::residual_capacity;
use dtr_graph::Topology;
use dtr_routing::lower_bound::{frank_wolfe, FwParams, FwResult};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One operating point of the optimality study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OptimalityPoint {
    /// Average link utilization.
    pub avg_util: f64,
    /// High-class ratios `(STR, DTR)` vs the unconditional FW flow.
    pub high_ratios: (f64, f64),
    /// Duality bracket of the high reference (`cost / LB`, ≥ 1).
    pub high_bracket: f64,
    /// STR's low ratio vs its conditional FW flow.
    pub str_low_ratio: f64,
    /// DTR's low ratio vs its conditional FW flow.
    pub dtr_low_ratio: f64,
    /// Duality bracket of DTR's conditional low reference.
    pub low_bracket: f64,
}

/// Conditional low-class FW reference for a given high placement.
fn low_reference(
    topo: &Topology,
    demands: &dtr_traffic::DemandSet,
    high_loads: &[f64],
) -> FwResult {
    let residuals: Vec<f64> = topo
        .links()
        .map(|(lid, l)| residual_capacity(l.capacity, high_loads[lid.index()]))
        .collect();
    frank_wolfe(topo, &demands.low, &residuals, &FwParams::default())
}

fn bracket(r: &FwResult) -> f64 {
    (r.cost / r.lower_bound.max(1e-12)).min(999.0)
}

/// Runs the study on the paper's random topology.
pub fn run(ctx: &ExperimentCtx) -> Vec<OptimalityPoint> {
    let topo = TopologyKind::Random.build(ctx.seed);
    let base = demands_random_model(&topo, 0.30, 0.10, ctx.seed);
    let gammas = gamma_grid(&topo, &base, ctx);

    let job = |(i, gamma): (usize, &f64)| {
        let demands = base.scaled(*gamma);
        let params = ctx.params.with_seed(ctx.seed.wrapping_add(53 * i as u64));

        let caps: Vec<f64> = topo.links().map(|(_, l)| l.capacity).collect();
        let high_ref = frank_wolfe(&topo, &demands.high, &caps, &FwParams::default());

        let (s, d, _) = run_pair(&topo, &demands, Objective::LoadBased, params);

        let str_ref = low_reference(&topo, &demands, &s.eval.high_loads);
        let dtr_ref = low_reference(&topo, &demands, &d.eval.high_loads);

        OptimalityPoint {
            avg_util: d.eval.avg_utilization(&topo),
            high_ratios: (
                s.eval.phi_h / high_ref.cost.max(1e-9),
                d.eval.phi_h / high_ref.cost.max(1e-9),
            ),
            high_bracket: bracket(&high_ref),
            str_low_ratio: s.eval.phi_l / str_ref.cost.max(1e-9),
            dtr_low_ratio: d.eval.phi_l / dtr_ref.cost.max(1e-9),
            low_bracket: bracket(&dtr_ref),
        }
    };
    let points: Vec<(usize, &f64)> = gammas.iter().enumerate().collect();
    points.into_par_iter().map(job).collect()
}

/// Renders the study.
pub fn table(points: &[OptimalityPoint]) -> Table {
    let mut t = Table::new(
        "Optimality: scheme cost / Frank–Wolfe reference flow (random topology, load-based, f=30%, k=10%)",
        &[
            "avg_util",
            "H_str",
            "H_dtr",
            "H_bracket",
            "L_str",
            "L_dtr",
            "L_bracket",
        ],
    );
    for p in points {
        t.row(vec![
            fmt(p.avg_util, 3),
            fmt(p.high_ratios.0, 2),
            fmt(p.high_ratios.1, 2),
            fmt(p.high_bracket, 2),
            fmt(p.str_low_ratio, 2),
            fmt(p.dtr_low_ratio, 2),
            fmt(p.low_bracket, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_and_brackets_are_sane() {
        let mut ctx = ExperimentCtx::smoke();
        ctx.load_points = 1;
        ctx.load_range = (0.6, 0.6);
        let pts = run(&ctx);
        assert_eq!(pts.len(), 1);
        let p = &pts[0];
        for v in [
            p.high_ratios.0,
            p.high_ratios.1,
            p.str_low_ratio,
            p.dtr_low_ratio,
        ] {
            assert!(v.is_finite() && v > 0.0, "{p:?}");
        }
        // Brackets are ratios of an upper bound to a lower bound.
        assert!(p.high_bracket >= 1.0 - 1e-9, "{p:?}");
        assert!(p.low_bracket >= 1.0 - 1e-9, "{p:?}");
        // SPF-realizable schemes cannot beat the fractional-flow
        // reference by more than FW's own convergence slack.
        assert!(p.high_ratios.1 > 0.9, "{p:?}");
        let t = table(&pts);
        assert_eq!(t.rows.len(), 1);
    }
}
