//! Figure 7: link load as a function of propagation delay (SLA cost).
//!
//! 30-node random topology, SLA-based cost, `f = 30 %`, `k = 30 %`. The
//! paper's reading: under the SLA objective the optimizer concentrates
//! traffic on *low-propagation-delay* links (they are the ones that can
//! meet the 25 ms bound), so utilization falls with delay — and STR drags
//! the low-priority class onto those same short links, overloading them.

use crate::report::{fmt, Table};
use crate::runner::{demands_random_model, run_pair, ExperimentCtx, TopologyKind};
use dtr_core::Objective;
use serde::{Deserialize, Serialize};

/// Per-link scatter points of one routing scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Data {
    /// `(propagation delay ms, utilization)` per link under STR.
    pub str_points: Vec<(f64, f64)>,
    /// Same under DTR.
    pub dtr_points: Vec<(f64, f64)>,
}

/// Runs the experiment at a moderate operating point.
pub fn run(ctx: &ExperimentCtx) -> Fig7Data {
    let topo = TopologyKind::Random.build(ctx.seed);
    let base = demands_random_model(&topo, 0.30, 0.30, ctx.seed);
    let gammas = crate::runner::gamma_grid(
        &topo,
        &base,
        &ExperimentCtx {
            load_points: 1,
            load_range: (0.6, 0.6),
            ..*ctx
        },
    );
    let demands = base.scaled(gammas[0]);
    let (s, d, _) = run_pair(
        &topo,
        &demands,
        Objective::sla_default(),
        ctx.params.with_seed(ctx.seed),
    );
    let delays: Vec<f64> = topo.links().map(|(_, l)| l.prop_delay * 1e3).collect();
    let pack = |utils: Vec<f64>| -> Vec<(f64, f64)> { delays.iter().cloned().zip(utils).collect() };
    Fig7Data {
        str_points: pack(s.eval.utilizations(&topo)),
        dtr_points: pack(d.eval.utilizations(&topo)),
    }
}

/// Renders the scatter, one row per link.
pub fn table(data: &Fig7Data) -> Table {
    let mut t = Table::new(
        "Fig. 7 — link utilization vs propagation delay (SLA-based cost)",
        &["prop_delay_ms", "str_util", "dtr_util"],
    );
    for (s, d) in data.str_points.iter().zip(&data.dtr_points) {
        t.row(vec![fmt(s.0, 2), fmt(s.1, 3), fmt(d.1, 3)]);
    }
    t
}

/// Mean utilization of the links in the lowest- and highest-delay
/// terciles — the summary statistic for the paper's "short links carry
/// more load" claim.
pub fn tercile_means(points: &[(f64, f64)]) -> (f64, f64) {
    let mut sorted: Vec<(f64, f64)> = points.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
    let third = sorted.len() / 3;
    let mean = |s: &[(f64, f64)]| s.iter().map(|p| p.1).sum::<f64>() / s.len().max(1) as f64;
    (
        mean(&sorted[..third]),
        mean(&sorted[sorted.len() - third..]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke() {
        let ctx = ExperimentCtx::smoke();
        let d = run(&ctx);
        assert_eq!(d.str_points.len(), 150);
        assert_eq!(d.dtr_points.len(), 150);
        let t = table(&d);
        assert_eq!(t.rows.len(), 150);
    }

    #[test]
    fn tercile_means_ordering() {
        let pts = vec![
            (1.0, 0.9),
            (2.0, 0.8),
            (3.0, 0.3),
            (4.0, 0.2),
            (5.0, 0.1),
            (6.0, 0.05),
        ];
        let (short, long) = tercile_means(&pts);
        assert!(short > long);
    }
}
