//! §3.3.1: the joint-cost-function pathology on the 3-node example.
//!
//! Reproduces the paper's Fig. 1 walk-through — exhaustive optima of
//! `J = α·Φ_H + Φ_L` at α = 35 and α = 30 — and additionally runs the
//! STR/DTR heuristics on the same instance to show DTR achieving good
//! low-priority performance with **zero** high-priority degradation.

use crate::report::{fmt, Table};
use crate::runner::{run_pair, ExperimentCtx};
use dtr_core::joint::triangle_verdict;
use dtr_core::Objective;
use dtr_graph::gen::triangle_topology;
use dtr_traffic::{DemandSet, TrafficMatrix};
use serde::{Deserialize, Serialize};

/// All numbers of the §3.3.1 demonstration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriangleReport {
    /// `(Φ_H, Φ_L)` of the joint optimum at α = 35.
    pub joint_alpha35: (f64, f64),
    /// `(Φ_H, Φ_L)` of the joint optimum at α = 30.
    pub joint_alpha30: (f64, f64),
    /// Low-priority improvement when lowering α (paper: 81 %).
    pub low_improvement: f64,
    /// High-priority degradation when lowering α (paper: 50 %) — the
    /// "priority inversion".
    pub high_degradation: f64,
    /// `(Φ_H, Φ_L)` of the STR heuristic (lexicographic).
    pub str_heuristic: (f64, f64),
    /// `(Φ_H, Φ_L)` of the DTR heuristic.
    pub dtr_heuristic: (f64, f64),
}

/// Runs the demonstration.
pub fn run(ctx: &ExperimentCtx) -> TriangleReport {
    let v = triangle_verdict();

    let topo = triangle_topology(1.0);
    let mut high = TrafficMatrix::zeros(3);
    high.set(0, 2, 1.0 / 3.0);
    let mut low = TrafficMatrix::zeros(3);
    low.set(0, 2, 2.0 / 3.0);
    let demands = DemandSet { high, low };

    let (s, d, _) = run_pair(&topo, &demands, Objective::LoadBased, ctx.params);

    TriangleReport {
        joint_alpha35: v.alpha_hi,
        joint_alpha30: v.alpha_lo,
        low_improvement: v.low_improvement,
        high_degradation: v.high_degradation,
        str_heuristic: (s.eval.phi_h, s.eval.phi_l),
        dtr_heuristic: (d.eval.phi_h, d.eval.phi_l),
    }
}

/// Renders the comparison.
pub fn table(r: &TriangleReport) -> Table {
    let mut t = Table::new(
        "§3.3.1 — joint cost function on the 3-node example",
        &["solution", "phi_H", "phi_L", "note"],
    );
    t.row(vec![
        "J, α=35".into(),
        fmt(r.joint_alpha35.0, 4),
        fmt(r.joint_alpha35.1, 4),
        "both classes direct (paper: 1/3, 64/9)".into(),
    ]);
    t.row(vec![
        "J, α=30".into(),
        fmt(r.joint_alpha30.0, 4),
        fmt(r.joint_alpha30.1, 4),
        format!(
            "priority inversion: phi_H +{:.0}%, phi_L −{:.0}%",
            100.0 * r.high_degradation,
            100.0 * r.low_improvement
        ),
    ]);
    t.row(vec![
        "STR (lex)".into(),
        fmt(r.str_heuristic.0, 4),
        fmt(r.str_heuristic.1, 4),
        "strict precedence, shared routing".into(),
    ]);
    t.row(vec![
        "DTR (lex)".into(),
        fmt(r.dtr_heuristic.0, 4),
        fmt(r.dtr_heuristic.1, 4),
        "same phi_H, far better phi_L".into(),
    ]);
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_numbers() {
        let ctx = ExperimentCtx {
            params: dtr_core::SearchParams::quick(),
            ..ExperimentCtx::smoke()
        };
        let r = run(&ctx);
        assert!((r.joint_alpha35.0 - 1.0 / 3.0).abs() < 1e-9);
        assert!((r.joint_alpha35.1 - 64.0 / 9.0).abs() < 1e-9);
        assert!((r.joint_alpha30.0 - 0.5).abs() < 1e-9);
        assert!((r.joint_alpha30.1 - 4.0 / 3.0).abs() < 1e-9);
        // DTR keeps the optimal phi_H and beats STR's phi_L.
        assert!((r.dtr_heuristic.0 - r.str_heuristic.0).abs() < 1e-9);
        assert!(r.dtr_heuristic.1 < r.str_heuristic.1);
        let t = table(&r);
        assert_eq!(t.rows.len(), 4);
    }
}
