//! Figure 3: link-utilization histograms, STR vs DTR.
//!
//! A 30-node random topology with `f = 30 %`; three panels:
//! (a) `k = 10 %`, load-based cost; (b) `k = 10 %`, SLA-based;
//! (c) `k = 30 %`, SLA-based. The paper's reading: DTR yields markedly
//! fewer overloaded links, and under the SLA objective with dense
//! high-priority pairs (c) STR's distribution grows a long right tail —
//! low-priority traffic dragged onto congested low-delay links.

use crate::report::{fmt, Table};
use crate::runner::{demands_random_model, run_pair, ExperimentCtx, TopologyKind};
use dtr_core::Objective;
use serde::{Deserialize, Serialize};

/// Histogram bin width in utilization units (paper bars ≈ 0.1 wide).
pub const BIN_WIDTH: f64 = 0.1;

/// One panel's histograms.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Panel {
    /// Panel label, e.g. `"(a) k=10%, load-based"`.
    pub label: String,
    /// Per-bin link counts: `(bin_lower_edge, str_count, dtr_count)`.
    pub bins: Vec<(f64, usize, usize)>,
    /// Raw link utilizations (STR routing).
    pub str_utils: Vec<f64>,
    /// Raw link utilizations (DTR routing).
    pub dtr_utils: Vec<f64>,
}

/// Builds a histogram over utilization values.
pub fn histogram(str_utils: &[f64], dtr_utils: &[f64]) -> Vec<(f64, usize, usize)> {
    let max = str_utils
        .iter()
        .chain(dtr_utils)
        .cloned()
        .fold(0.0f64, f64::max);
    let nbins = ((max / BIN_WIDTH).ceil() as usize + 1).max(1);
    let mut bins = vec![(0.0, 0usize, 0usize); nbins];
    for (i, b) in bins.iter_mut().enumerate() {
        b.0 = i as f64 * BIN_WIDTH;
    }
    for &u in str_utils {
        bins[(u / BIN_WIDTH) as usize].1 += 1;
    }
    for &u in dtr_utils {
        bins[(u / BIN_WIDTH) as usize].2 += 1;
    }
    bins
}

/// Runs one panel at the given SD-pair density and objective. The
/// operating point (traffic scale) is chosen to land in the moderate-load
/// region where Fig. 3's contrast is sharpest.
pub fn run_panel(
    ctx: &ExperimentCtx,
    k: f64,
    objective: Objective,
    label: &str,
    target_util: f64,
) -> Fig3Panel {
    let topo = TopologyKind::Random.build(ctx.seed);
    let base = demands_random_model(&topo, 0.30, k, ctx.seed);
    let gammas = crate::runner::gamma_grid(
        &topo,
        &base,
        &ExperimentCtx {
            load_points: 1,
            load_range: (target_util, target_util),
            ..*ctx
        },
    );
    let demands = base.scaled(gammas[0]);
    let (s, d, _) = run_pair(&topo, &demands, objective, ctx.params.with_seed(ctx.seed));
    let str_utils = s.eval.utilizations(&topo);
    let dtr_utils = d.eval.utilizations(&topo);
    Fig3Panel {
        label: label.to_string(),
        bins: histogram(&str_utils, &dtr_utils),
        str_utils,
        dtr_utils,
    }
}

/// Runs all three panels.
pub fn run_all(ctx: &ExperimentCtx) -> Vec<Fig3Panel> {
    vec![
        run_panel(
            ctx,
            0.10,
            Objective::LoadBased,
            "(a) k=10%, load-based",
            0.65,
        ),
        run_panel(
            ctx,
            0.10,
            Objective::sla_default(),
            "(b) k=10%, SLA-based",
            0.65,
        ),
        run_panel(
            ctx,
            0.30,
            Objective::sla_default(),
            "(c) k=30%, SLA-based",
            0.65,
        ),
    ]
}

/// Renders one panel.
pub fn table(panel: &Fig3Panel) -> Table {
    let mut t = Table::new(
        format!("Fig. 3 {} — link-utilization histogram", panel.label),
        &["util_bin", "str_links", "dtr_links"],
    );
    for &(lo, s, d) in &panel.bins {
        // No comma in the label: these rows are also emitted as CSV.
        t.row(vec![
            format!("{}-{}", fmt(lo, 1), fmt(lo + BIN_WIDTH, 1)),
            s.to_string(),
            d.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_counts_all_links() {
        let s = vec![0.05, 0.15, 0.95, 1.25];
        let d = vec![0.55, 0.65];
        let bins = histogram(&s, &d);
        let total_s: usize = bins.iter().map(|b| b.1).sum();
        let total_d: usize = bins.iter().map(|b| b.2).sum();
        assert_eq!(total_s, 4);
        assert_eq!(total_d, 2);
        // 1.25 lands in bin [1.2, 1.3).
        assert_eq!(bins[12].1, 1);
    }

    #[test]
    fn smoke_panel() {
        let ctx = ExperimentCtx::smoke();
        let p = run_panel(&ctx, 0.10, Objective::LoadBased, "(a)", 0.6);
        assert_eq!(p.str_utils.len(), 150);
        assert_eq!(p.dtr_utils.len(), 150);
        // Both histograms cover the same, non-empty link set.
        let counted = p.bins.iter().fold((0, 0), |(s, d), b| (s + b.1, d + b.2));
        assert_eq!(counted, (150, 150));
        let t = table(&p);
        assert!(!t.rows.is_empty());
    }
}
