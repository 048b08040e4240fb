//! Figure 9: the effect of loosening the SLA bound (25 → 35 ms).
//!
//! 30-node random topology, `f = 30 %`, `k = 30 %`, average utilization
//! ≈ 0.5. Three panels over the bound: (a) number of SLA violations,
//! (b) low-priority cost `Φ_L`, (c) maximum link utilization. The
//! paper's reading: STR and DTR violate equally many SLAs at every bound;
//! around a 20 % looser bound (≥ 30 ms) STR's low-priority cost and peak
//! utilization converge to DTR's — relaxation *can* rescue STR, but DTR
//! gets there without sacrificing anything and without having to guess
//! the right ε.

use crate::report::{fmt, Table};
use crate::runner::{demands_random_model, run_pair, ExperimentCtx, TopologyKind};
use dtr_core::{Objective, SlaParams};
use serde::{Deserialize, Serialize};

/// Outcome at one SLA bound.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Point {
    /// The bound θ in milliseconds.
    pub bound_ms: f64,
    /// SLA violations under STR / DTR.
    pub violations: (usize, usize),
    /// `Φ_L` under STR / DTR.
    pub phi_l: (f64, f64),
    /// Max link utilization under STR / DTR.
    pub max_util: (f64, f64),
    /// Average utilization (sanity: ≈ 0.5 across the sweep).
    pub avg_util: f64,
}

/// Bounds swept by the paper (ms).
pub const BOUNDS_MS: [f64; 5] = [25.0, 27.5, 30.0, 32.5, 35.0];

/// Runs the sweep.
pub fn run(ctx: &ExperimentCtx) -> Vec<Fig9Point> {
    let topo = TopologyKind::Random.build(ctx.seed);
    let base = demands_random_model(&topo, 0.30, 0.30, ctx.seed);
    let gammas = crate::runner::gamma_grid(
        &topo,
        &base,
        &ExperimentCtx {
            load_points: 1,
            load_range: (0.5, 0.5),
            ..*ctx
        },
    );
    let demands = base.scaled(gammas[0]);

    crate::runner::parallel_map(BOUNDS_MS.to_vec(), |i, bound_ms| {
        let objective = Objective::SlaBased(SlaParams {
            bound_s: bound_ms * 1e-3,
            ..SlaParams::default()
        });
        let (s, d, o) = run_pair(
            &topo,
            &demands,
            objective,
            ctx.params.with_seed(ctx.seed.wrapping_add(31 * i as u64)),
        );
        let sv = s.eval.sla.as_ref().expect("SLA eval present");
        let dv = d.eval.sla.as_ref().expect("SLA eval present");
        Fig9Point {
            bound_ms: *bound_ms,
            violations: (sv.violations, dv.violations),
            phi_l: (s.eval.phi_l, d.eval.phi_l),
            max_util: (s.eval.max_utilization(&topo), d.eval.max_utilization(&topo)),
            avg_util: o.avg_util,
        }
    })
}

/// Renders all three panels as one table.
pub fn table(points: &[Fig9Point]) -> Table {
    let mut t = Table::new(
        "Fig. 9 — SLA-bound relaxation (random topology, f=30%, k=30%, AD≈0.5)",
        &[
            "bound_ms",
            "viol_str",
            "viol_dtr",
            "phi_l_str",
            "phi_l_dtr",
            "maxutil_str",
            "maxutil_dtr",
            "avg_util",
        ],
    );
    for p in points {
        t.row(vec![
            fmt(p.bound_ms, 1),
            p.violations.0.to_string(),
            p.violations.1.to_string(),
            fmt(p.phi_l.0, 1),
            fmt(p.phi_l.1, 1),
            fmt(p.max_util.0, 3),
            fmt(p.max_util.1, 3),
            fmt(p.avg_util, 3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        let pts = run(&ExperimentCtx::smoke());
        assert_eq!(pts.len(), 5);
        for w in pts.windows(2) {
            assert!(w[0].bound_ms < w[1].bound_ms);
        }
        let t = table(&pts);
        assert_eq!(t.rows.len(), 5);
    }
}
