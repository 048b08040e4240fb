//! Shared experiment machinery: paper instances, load sweeps, STR/DTR
//! pairs, and the ratio conventions of §5.2.
//!
//! Every STR/DTR comparison of the crate runs one protocol, [`pair_from`]:
//! STR's search first, then Algorithm 1 with `W0` = STR's incumbent
//! replicated on both topologies. DTR's solution space contains STR's and
//! the lexicographic descent never accepts a worse point, so `R_H ≥ 1` at
//! every point by construction; `R_L` is what the second topology buys on
//! top of the single-topology optimum. The scenario suite
//! (`dtr_scenario::search_incumbents`) starts DTR the same way.

pub use dtr_core::cost_ratio;
use dtr_core::{
    DtrSearch, DualWeights, Objective, SearchParams, SearchResult, StrResult, StrSearch,
};
use dtr_graph::gen::{
    isp_topology, power_law_topology, random_topology, PowerLawTopologyCfg, RandomTopologyCfg,
};
use dtr_graph::{Topology, WeightVector};
use dtr_routing::Evaluator;
use dtr_traffic::{DemandSet, TrafficCfg};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// The paper's three topology families (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TopologyKind {
    /// 30-node / 150-link near-regular random graph.
    Random,
    /// 30-node / 162-link Barabási–Albert graph.
    PowerLaw,
    /// 16-node / 70-link North-American backbone.
    Isp,
}

impl TopologyKind {
    /// Machine-readable name for CSV columns and file names.
    pub fn name(self) -> &'static str {
        match self {
            TopologyKind::Random => "random",
            TopologyKind::PowerLaw => "powerlaw",
            TopologyKind::Isp => "isp",
        }
    }

    /// Builds the paper instance of this family.
    pub fn build(self, seed: u64) -> Topology {
        match self {
            TopologyKind::Random => random_topology(&RandomTopologyCfg {
                seed,
                ..Default::default()
            }),
            TopologyKind::PowerLaw => power_law_topology(&PowerLawTopologyCfg {
                seed,
                ..Default::default()
            }),
            TopologyKind::Isp => isp_topology(),
        }
    }
}

/// Global experiment configuration shared by all figures.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentCtx {
    /// Search budget for every STR/DTR run.
    pub params: SearchParams,
    /// Base seed; topology, traffic and search seeds derive from it.
    pub seed: u64,
    /// Number of load points per sweep (the paper plots 5–7).
    pub load_points: usize,
    /// Average-utilization range the sweep targets.
    pub load_range: (f64, f64),
}

impl Default for ExperimentCtx {
    fn default() -> Self {
        ExperimentCtx {
            params: SearchParams::experiment(),
            seed: 1,
            load_points: 6,
            load_range: (0.40, 0.85),
        }
    }
}

impl ExperimentCtx {
    /// A drastically reduced configuration for integration tests: tiny
    /// search budget, two load points, small everything.
    pub fn smoke() -> Self {
        ExperimentCtx {
            params: SearchParams::tiny(),
            seed: 1,
            load_points: 2,
            load_range: (0.5, 0.7),
        }
    }
}

/// One STR/DTR comparison at a single operating point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairOutcome {
    /// Average link utilization (mean of the STR and DTR routings —
    /// "roughly equal under DTR and STR", paper footnote 4).
    pub avg_util: f64,
    /// High-priority cost ratio `R_H` = STR cost / DTR cost.
    pub r_h: f64,
    /// Low-priority cost ratio `R_L`.
    pub r_l: f64,
    /// STR absolute costs `(primary, Φ_L)`.
    pub str_cost: (f64, f64),
    /// DTR absolute costs `(primary, Φ_L)`.
    pub dtr_cost: (f64, f64),
}

/// Runs STR on one instance, then Algorithm 1 from `W0` = STR's
/// incumbent ([`pair_from`]).
pub fn run_pair(
    topo: &Topology,
    demands: &DemandSet,
    objective: Objective,
    params: SearchParams,
) -> (StrResult, SearchResult, PairOutcome) {
    let str_res = StrSearch::new(topo, demands, objective, params).run();
    pair_from(topo, demands, objective, params, str_res)
}

/// The crate's one STR → DTR protocol: Algorithm 1 with `W0` = STR's
/// incumbent `W` replicated as `(W, W)`, at the same budget, plus the §5.2
/// ratios of the two finished runs. Takes STR's result so a caller can
/// run STR with extras (Table 1's relaxations) and hand it over.
pub fn pair_from(
    topo: &Topology,
    demands: &DemandSet,
    objective: Objective,
    params: SearchParams,
    str_res: StrResult,
) -> (StrResult, SearchResult, PairOutcome) {
    let dtr_res = DtrSearch::new(topo, demands, objective, params)
        .with_initial(DualWeights::replicated(str_res.weights.clone()))
        .run();
    let str_primary = str_res.eval.cost.primary;
    let dtr_primary = dtr_res.eval.cost.primary;
    let outcome = PairOutcome {
        avg_util: 0.5 * (str_res.eval.avg_utilization(topo) + dtr_res.eval.avg_utilization(topo)),
        r_h: cost_ratio(str_primary, dtr_primary),
        r_l: cost_ratio(str_res.eval.phi_l, dtr_res.eval.phi_l),
        str_cost: (str_primary, str_res.eval.phi_l),
        dtr_cost: (dtr_primary, dtr_res.eval.phi_l),
    };
    (str_res, dtr_res, outcome)
}

/// Chooses traffic-scale factors γ so the resulting average utilizations
/// cover `ctx.load_range`: the relationship AD(γ) is essentially linear
/// (routing changes only mildly redistribute load), so a single probe of
/// AD at γ = 1 under shortest-delay weights anchors the grid.
pub fn gamma_grid(topo: &Topology, demands: &DemandSet, ctx: &ExperimentCtx) -> Vec<f64> {
    let mut ev = Evaluator::new(topo, demands, Objective::LoadBased);
    let w = WeightVector::uniform(topo, 1);
    let base = ev.eval_str(&w).avg_utilization(topo);
    assert!(base > 0.0, "probe instance carries no traffic");
    let (lo, hi) = ctx.load_range;
    (0..ctx.load_points)
        .map(|i| {
            let t = if ctx.load_points == 1 {
                0.0
            } else {
                i as f64 / (ctx.load_points - 1) as f64
            };
            (lo + t * (hi - lo)) / base
        })
        .collect()
}

/// Sweeps network load for one instance and objective: scales the demand
/// set over [`gamma_grid`], runs an STR/DTR pair per point (in parallel),
/// and returns the outcomes in increasing-load order. This is the common
/// core of Figs. 2, 4, 5 and 8.
pub fn sweep_load(
    ctx: &ExperimentCtx,
    topo: &Topology,
    base: &DemandSet,
    objective: Objective,
) -> Vec<PairOutcome> {
    let gammas = gamma_grid(topo, base, ctx);
    let job = |(i, gamma): (usize, &f64)| {
        let demands = base.scaled(*gamma);
        let params = ctx.params.with_seed(ctx.seed.wrapping_add(7919 * i as u64));
        run_pair(topo, &demands, objective, params).2
    };
    let points: Vec<(usize, &f64)> = gammas.iter().enumerate().collect();
    points.into_par_iter().map(job).collect()
}

/// Standard demand generation for the random high-priority model.
pub fn demands_random_model(topo: &Topology, f: f64, k: f64, seed: u64) -> DemandSet {
    DemandSet::generate(
        topo,
        &TrafficCfg {
            f,
            k,
            seed,
            ..Default::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratio_conventions() {
        assert_eq!(cost_ratio(0.0, 0.0), 1.0);
        assert!((cost_ratio(10.0, 5.0) - 2.0).abs() < 1e-6);
        assert_eq!(cost_ratio(10.0, 0.0), 1e3, "saturates, not infinite");
        assert_eq!(cost_ratio(0.0, 10.0), 1e-3);
    }

    #[test]
    fn gamma_grid_covers_range() {
        let ctx = ExperimentCtx::smoke();
        let topo = TopologyKind::Isp.build(0);
        let demands = demands_random_model(&topo, 0.3, 0.1, 1);
        let gammas = gamma_grid(&topo, &demands, &ctx);
        assert_eq!(gammas.len(), 2);
        assert!(gammas[0] < gammas[1]);
        // Scaling by the returned γ must land near the requested AD under
        // the probe routing.
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w = WeightVector::uniform(&topo, 1);
        let base = ev.eval_str(&w).avg_utilization(&topo);
        assert!((gammas[0] * base - 0.5).abs() < 1e-9);
    }

    #[test]
    fn topology_kinds_build_paper_instances() {
        assert_eq!(TopologyKind::Random.build(1).link_count(), 150);
        assert_eq!(TopologyKind::PowerLaw.build(1).link_count(), 162);
        assert_eq!(TopologyKind::Isp.build(0).node_count(), 16);
        assert_eq!(TopologyKind::Isp.name(), "isp");
    }

    #[test]
    fn run_pair_smoke() {
        let topo = TopologyKind::Isp.build(0);
        let demands = demands_random_model(&topo, 0.3, 0.1, 1).scaled(5.0);
        let (s, d, o) = run_pair(&topo, &demands, Objective::LoadBased, SearchParams::tiny());
        assert!(o.avg_util > 0.0);
        assert!(o.r_h > 0.0 && o.r_l > 0.0);
        assert_eq!(o.str_cost.0, s.eval.phi_h);
        assert_eq!(o.dtr_cost.0, d.eval.phi_h);
    }
}
