//! Figure 2: cost ratios `R_H` and `R_L` vs average link utilization.
//!
//! Six panels — {random, power-law, ISP} × {load-based, SLA-based} — with
//! `f = 30 %` high-priority volume and `k = 10 %` SD-pair density. The
//! paper's reading: `R_H ≈ 1` everywhere (both schemes optimize the high
//! class to the same level) while `R_L` rises into the tens at moderate
//! load and falls back at the extremes.

use crate::report::{fmt, Table};
use crate::runner::{demands_random_model, sweep_load, ExperimentCtx, PairOutcome, TopologyKind};
use dtr_core::Objective;
use serde::{Deserialize, Serialize};

/// Traffic parameters of Fig. 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Fig2Cfg {
    /// High-priority volume fraction (paper: 30 %).
    pub f: f64,
    /// High-priority SD-pair density (paper: 10 %).
    pub k: f64,
}

impl Default for Fig2Cfg {
    fn default() -> Self {
        Fig2Cfg { f: 0.30, k: 0.10 }
    }
}

/// One of the six panels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Panel {
    /// Which topology family.
    pub topology: TopologyKind,
    /// `"load"` or `"sla"`.
    pub objective: String,
    /// Sweep outcomes in increasing-load order.
    pub points: Vec<PairOutcome>,
}

/// Runs one panel.
pub fn run_panel(
    ctx: &ExperimentCtx,
    kind: TopologyKind,
    objective: Objective,
    cfg: &Fig2Cfg,
) -> Fig2Panel {
    let topo = kind.build(ctx.seed);
    let base = demands_random_model(&topo, cfg.f, cfg.k, ctx.seed);
    let points = sweep_load(ctx, &topo, &base, objective);
    Fig2Panel {
        topology: kind,
        objective: objective.name().to_string(),
        points,
    }
}

/// Runs all six panels (a–f).
pub fn run_all(ctx: &ExperimentCtx, cfg: &Fig2Cfg) -> Vec<Fig2Panel> {
    let mut panels = Vec::with_capacity(6);
    for objective in [Objective::LoadBased, Objective::sla_default()] {
        for kind in [
            TopologyKind::Random,
            TopologyKind::PowerLaw,
            TopologyKind::Isp,
        ] {
            panels.push(run_panel(ctx, kind, objective, cfg));
        }
    }
    panels
}

/// Renders one panel as the paper's two series over load.
pub fn table(panel: &Fig2Panel) -> Table {
    let mut t = Table::new(
        format!(
            "Fig. 2 — {} topology, {}-based cost (f=30%, k=10%)",
            panel.topology.name(),
            panel.objective
        ),
        &[
            "avg_util",
            "R_H",
            "R_L",
            "str_primary",
            "dtr_primary",
            "str_phi_l",
            "dtr_phi_l",
        ],
    );
    for p in &panel.points {
        t.row(vec![
            fmt(p.avg_util, 3),
            fmt(p.r_h, 3),
            fmt(p.r_l, 2),
            fmt(p.str_cost.0, 1),
            fmt(p.dtr_cost.0, 1),
            fmt(p.str_cost.1, 1),
            fmt(p.dtr_cost.1, 1),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_panel_runs_and_renders() {
        let ctx = ExperimentCtx::smoke();
        let panel = run_panel(
            &ctx,
            TopologyKind::Isp,
            Objective::LoadBased,
            &Fig2Cfg::default(),
        );
        assert_eq!(panel.points.len(), 2);
        // Load increases across the sweep.
        assert!(panel.points[0].avg_util < panel.points[1].avg_util);
        // §5.2: ratios are saturated into [1e-3, 1e3], never 0, ∞ or NaN.
        for p in &panel.points {
            assert!((1e-3..=1e3).contains(&p.r_h), "R_H {}", p.r_h);
            assert!((1e-3..=1e3).contains(&p.r_l), "R_L {}", p.r_l);
        }
        let t = table(&panel);
        assert_eq!(t.rows.len(), 2);
        assert!(t.render().contains("isp"));
    }

    #[test]
    fn ratios_are_positive() {
        let ctx = ExperimentCtx::smoke();
        let panel = run_panel(
            &ctx,
            TopologyKind::Isp,
            Objective::sla_default(),
            &Fig2Cfg::default(),
        );
        for p in &panel.points {
            assert!(p.r_h > 0.0 && p.r_h.is_finite());
            assert!(p.r_l > 0.0 && p.r_l.is_finite());
        }
    }
}
