//! Upgrade-placement search: *which* routers to make MT-capable.
//!
//! The partial-deployment model (`dtr_routing::deploy`) answers "what
//! does the network do with a given upgrade set?". This module answers
//! the operator's inverse question: **given a budget of `N` upgradeable
//! routers, which placement maximizes the low-class improvement
//! `R_L`?** — the migration-planning problem that motivates treating
//! the deployment as a first-class search dimension (Huin et al.,
//! PAPERS.md).
//!
//! [`UpgradeSearch`] is a combinatorial outer loop around the weight
//! searches:
//!
//! 1. **Baseline.** One STR search (stream
//!    [`streams::UPGRADE_BASELINE`])
//!    fixes the denominator of every `R_L` ratio.
//! 2. **Greedy.** Starting from the empty deployment, each budget step
//!    tries every not-yet-upgraded node, scoring `dep ∪ {v}` with a
//!    cheap **probe**: a [`DtrSearch`] at [`UpgradeParams::probe`]
//!    budget, warm-started from the previous budget's incumbent
//!    weights. Ties break on `(cost, node index)`, so the greedy
//!    trajectory is a pure function of seed + instance.
//! 3. **Local swap.** Up to [`UpgradeParams::swap_passes`] passes try
//!    exchanging one upgraded node for one legacy node, accepting the
//!    best swap that strictly improves on the probed placement (probed
//!    only when at least one pass runs) — the cheap escape hatch
//!    from greedy's horizon (upgrading `{a}` then `{a,b}` can miss the
//!    better pair `{b,c}`).
//! 4. **Definitive.** The step's placement is then scored by a **cold**
//!    [`PortfolioSearch`] at the caller's exact [`SearchParams`] and
//!    [`PortfolioParams`] — no warm start, no re-seeded stream — so the
//!    full-budget step is *bit-identical* to running the plain
//!    portfolio on the undeployed instance (the full set normalizes
//!    away; enforced by proptest).
//!
//! The probes of one greedy round, and those of one swap pass, are
//! independent: each first builds its candidate placements, then
//! probes them on a pool of [`PortfolioParams::workers`] threads (the
//! definitive portfolio's own cap, so `workers = 1` is one thread).
//! Every probe is a pure function of its placement, the warm start and
//! its stream, and engine passes nested inside a probe run inline. The
//! round then reduces the costs in candidate order by the same
//! `(cost, node)` and `(cost, u, v)` keys the sequential loops used, so
//! which probe finishes first cannot reach the result. The definitive
//! portfolio is schedule-free by construction too, so the whole outcome
//! is byte-deterministic in `(seed, spec)` for any worker count.
//!
//! The reported **curve** is the running best: an operator with budget
//! `k` can always use a cheaper placement, so
//! `curve[k] = max(r_l[0..=k])` is monotone non-decreasing by
//! construction, and each step records which placement achieves it.

use crate::dtr::DtrSearch;
use crate::params::SearchParams;
use crate::portfolio::{PortfolioMode, PortfolioParams, PortfolioSearch};
use crate::scheme::Scheme;
use crate::str_search::StrSearch;
use crate::streams;
use dtr_cost::{Lex2, Objective};
use dtr_graph::weights::DualWeights;
use dtr_graph::Topology;
use dtr_routing::DeploymentSet;
use dtr_traffic::DemandSet;
use rayon::prelude::*;
use rayon::ThreadPool;
use serde::{Deserialize, Serialize};

/// The paper's cost ratio `R = cost(STR)/cost(DTR)` with two guards:
///
/// - `0/0` (both schemes meet the objective exactly) is defined as 1 —
///   equal performance;
/// - a zero on one side only (a finite-budget artifact where one search
///   found a violation-free solution and the other just missed) is
///   **saturated** into `[10⁻³, 10³]` so a single knife-edge point
///   cannot dominate a table. Raw costs are always reported alongside
///   ratios.
///
/// This is the §5.2 convention shared by the corpus suite
/// (`dtr-scenario`), the experiments and the upgrade planner: `R > 1`
/// means DTR beats the baseline.
pub fn cost_ratio(str_cost: f64, dtr_cost: f64) -> f64 {
    const EPS: f64 = 1e-9;
    if str_cost <= EPS && dtr_cost <= EPS {
        1.0
    } else {
        ((str_cost + EPS) / (dtr_cost + EPS)).clamp(1e-3, 1e3)
    }
}

/// Outer-loop knobs of the placement search, distinct from the
/// weight-search budget ([`SearchParams`]) the definitive evaluations
/// spend.
#[derive(Debug, Clone, PartialEq)]
pub struct UpgradeParams {
    /// Maximum number of routers that may be upgraded. Clamped to the
    /// node count; a budget ≥ n ends at full deployment.
    pub budget: usize,
    /// Local-swap refinement passes per budget step (0 disables).
    pub swap_passes: usize,
    /// Weight-search budget of the greedy/swap **probes**. Keep this
    /// cheap — the outer loop spends `O(n · budget)` of them; the
    /// definitive per-budget scores use the caller's full params.
    pub probe: SearchParams,
}

impl UpgradeParams {
    /// Panics on degenerate configurations.
    pub fn validate(&self) {
        assert!(self.budget >= 1, "upgrade search needs a budget ≥ 1");
        self.probe.validate();
    }
}

/// One budget step of the placement search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpgradeStep {
    /// Number of upgraded routers at this step (0 = all-legacy).
    pub budget: usize,
    /// The placement chosen by greedy + swap at this budget, ascending
    /// node indices.
    pub upgraded: Vec<u32>,
    /// Winning dual weights of the definitive portfolio at this
    /// placement.
    pub weights: DualWeights,
    /// Canonical deployment-aware cost of `weights`.
    pub cost: Lex2,
    /// Low-class cost `Φ_L` (including any trapped-demand penalty).
    pub phi_l: f64,
    /// `R_L = Φ_L(STR baseline) / Φ_L(this step)` — raw, per-placement.
    pub r_l: f64,
    /// Running best `R_L` over budgets `0..=budget` — the monotone
    /// curve value at this budget.
    pub best_r_l: f64,
    /// The placement achieving `best_r_l` (a cheaper earlier placement
    /// when this step's raw `r_l` regressed).
    pub best_upgraded: Vec<u32>,
}

/// Outcome of an upgrade-placement search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UpgradeOutcome {
    /// `Φ_L` of the STR baseline (the denominator-fixing search).
    pub baseline_phi_l: f64,
    /// Full cost of the STR baseline.
    pub baseline_cost: Lex2,
    /// One step per budget `0..=budget` (so `budget + 1` entries).
    pub steps: Vec<UpgradeStep>,
    /// Probe searches the outer loop spent.
    pub probes: usize,
}

impl UpgradeOutcome {
    /// The monotone `R_L`-vs-budget curve, one entry per budget
    /// `0..=budget`.
    pub fn curve(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.best_r_l).collect()
    }

    /// The final step (largest budget).
    pub fn last(&self) -> &UpgradeStep {
        self.steps.last().expect("outcome has ≥ 1 step")
    }

    /// A deterministic serialization of everything the reproducibility
    /// contract covers, for byte-identity assertions across runs and
    /// worker counts.
    pub fn fingerprint(&self) -> String {
        serde_json::to_string(&(
            (&self.baseline_phi_l, &self.baseline_cost),
            (&self.steps, &self.probes),
        ))
        .expect("upgrade fingerprint serializes")
    }
}

/// The placement search, bound to one problem instance.
///
/// Load-based objective only (the deployment model's fence); `params`
/// and `cfg` are the **definitive** per-budget budget — the same
/// arguments a plain [`PortfolioSearch`] would take.
pub struct UpgradeSearch<'a> {
    topo: &'a Topology,
    demands: &'a DemandSet,
    params: SearchParams,
    cfg: PortfolioParams,
    up: UpgradeParams,
}

impl<'a> UpgradeSearch<'a> {
    /// Binds the instance and budgets.
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        params: SearchParams,
        cfg: PortfolioParams,
        up: UpgradeParams,
    ) -> Self {
        params.validate();
        cfg.validate();
        up.validate();
        UpgradeSearch {
            topo,
            demands,
            params,
            cfg,
            up,
        }
    }

    /// Scores one candidate placement with a cheap warm-started probe.
    /// Probes run on their own derived stream
    /// ([`streams::UPGRADE_PROBE`]) so they can never collide with the
    /// definitive portfolio's arm seeds.
    fn probe(&self, dep: &DeploymentSet, warm: &DualWeights) -> Lex2 {
        let mut s = DtrSearch::new(
            self.topo,
            self.demands,
            Objective::LoadBased,
            self.up.probe.with_stream(streams::UPGRADE_PROBE),
        )
        .with_initial(warm.clone());
        if !dep.is_full() {
            s = s.with_deployment(dep.clone());
        }
        s.run().best_cost
    }

    /// Probes every `(key, placement)` candidate on `pool` and returns
    /// `(cost, key)` pairs in candidate order.
    fn probe_all<K: Copy + Send + Sync>(
        &self,
        pool: &ThreadPool,
        cands: &[(K, DeploymentSet)],
        warm: &DualWeights,
    ) -> Vec<(Lex2, K)> {
        pool.install(|| {
            cands
                .par_iter()
                .map(|(key, dep)| (self.probe(dep, warm), *key))
                .collect()
        })
    }

    /// The definitive score of a placement: a cold portfolio at the
    /// caller's exact params, deployment-aware end to end.
    fn definitive(&self, dep: &DeploymentSet) -> (DualWeights, Lex2) {
        let r = PortfolioSearch::new(
            self.topo,
            self.demands,
            Objective::LoadBased,
            self.params,
            PortfolioMode::Nominal(Scheme::Dtr),
            self.cfg.clone(),
        )
        .with_deployment(dep.clone())
        .run();
        (r.weights, r.cost)
    }

    /// Runs the placement search; see the module docs for the phases.
    pub fn run(self) -> UpgradeOutcome {
        let n = self.topo.node_count();
        let budget = self.up.budget.min(n);

        // Phase 1: the STR baseline fixes every ratio's denominator.
        let baseline = StrSearch::new(
            self.topo,
            self.demands,
            Objective::LoadBased,
            self.params.with_stream(streams::UPGRADE_BASELINE),
        )
        .run();
        let baseline_phi_l = baseline.eval.phi_l;
        let baseline_cost = baseline.best_cost;

        let mut dep = DeploymentSet::empty(n);
        let mut steps: Vec<UpgradeStep> = Vec::with_capacity(budget + 1);
        let mut probes = 0usize;
        let pool = self.cfg.pool();

        // Budget 0: the all-legacy network, definitively scored like
        // every other step so the curve starts honestly.
        let (w0, c0) = self.definitive(&dep);
        let mut warm = w0.clone();
        steps.push(self.make_step(0, &dep, w0, c0, baseline_phi_l, &steps));

        for k in 1..=budget {
            // Phase 2: greedy — add the node whose probe scores best.
            let grow: Vec<(usize, DeploymentSet)> = (0..n)
                .filter(|&v| !dep.contains(v))
                .map(|v| {
                    let mut cand = dep.clone();
                    cand.insert(v);
                    (v, cand)
                })
                .collect();
            probes += grow.len();
            let mut best: Option<(Lex2, usize)> = None;
            for (cost, v) in self.probe_all(&pool, &grow, &warm) {
                if best.is_none_or(|(bc, bv)| (cost, v) < (bc, bv)) {
                    best = Some((cost, v));
                }
            }
            let (_, v) = best.expect("budget ≤ n leaves ≥ 1 candidate node");
            dep.insert(v);

            // Phase 3: local swaps — exchange one upgraded node for one
            // legacy node while it strictly improves the probe score.
            if self.up.swap_passes > 0 && dep.upgraded_count() < n {
                let mut incumbent = self.probe(&dep, &warm);
                probes += 1;
                for _ in 0..self.up.swap_passes {
                    let mut swaps: Vec<((usize, usize), DeploymentSet)> = Vec::new();
                    for u in dep.upgraded_nodes() {
                        for v in (0..n).filter(|&v| !dep.contains(v)) {
                            let mut cand = dep.clone();
                            cand.remove(u as usize);
                            cand.insert(v);
                            swaps.push(((u as usize, v), cand));
                        }
                    }
                    probes += swaps.len();
                    let mut best_swap: Option<(Lex2, usize, usize)> = None;
                    for (cost, (u, v)) in self.probe_all(&pool, &swaps, &warm) {
                        if cost < incumbent
                            && best_swap.is_none_or(|(bc, bu, bv)| (cost, u, v) < (bc, bu, bv))
                        {
                            best_swap = Some((cost, u, v));
                        }
                    }
                    let Some((cost, u, v)) = best_swap else { break };
                    dep.remove(u);
                    dep.insert(v);
                    incumbent = cost;
                }
            }

            // Phase 4: definitive cold score of the chosen placement.
            let (w, c) = self.definitive(&dep);
            warm = w.clone();
            steps.push(self.make_step(k, &dep, w, c, baseline_phi_l, &steps));
        }

        UpgradeOutcome {
            baseline_phi_l,
            baseline_cost,
            steps,
            probes,
        }
    }

    /// Assembles one step, folding in the running-best curve value.
    fn make_step(
        &self,
        budget: usize,
        dep: &DeploymentSet,
        weights: DualWeights,
        cost: Lex2,
        baseline_phi_l: f64,
        prior: &[UpgradeStep],
    ) -> UpgradeStep {
        let phi_l = cost.secondary;
        let r_l = cost_ratio(baseline_phi_l, phi_l);
        let upgraded = dep.upgraded_nodes();
        let (best_r_l, best_upgraded) = match prior.last() {
            Some(p) if p.best_r_l >= r_l => (p.best_r_l, p.best_upgraded.clone()),
            _ => (r_l, upgraded.clone()),
        };
        UpgradeStep {
            budget,
            upgraded,
            weights,
            cost,
            phi_l,
            r_l,
            best_r_l,
            best_upgraded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_traffic::TrafficCfg;

    fn small_instance(seed: u64) -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 6,
            directed_links: 22,
            seed,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed,
                ..Default::default()
            },
        )
        .scaled(3.0);
        (topo, demands)
    }

    fn tiny_cfg() -> PortfolioParams {
        PortfolioParams {
            strategies: vec![crate::portfolio::StrategyKind::Descent],
            restarts: 1,
            workers: 1,
            prune_margin: f64::INFINITY,
        }
    }

    fn tiny_up(budget: usize) -> UpgradeParams {
        UpgradeParams {
            budget,
            swap_passes: 1,
            probe: SearchParams::tiny().with_seed(99),
        }
    }

    #[test]
    fn curve_is_monotone_and_sized() {
        let (topo, demands) = small_instance(21);
        let out = UpgradeSearch::new(
            &topo,
            &demands,
            SearchParams::tiny().with_seed(5),
            tiny_cfg(),
            tiny_up(3),
        )
        .run();
        assert_eq!(out.steps.len(), 4); // budgets 0..=3
        let curve = out.curve();
        for w in curve.windows(2) {
            assert!(w[1] >= w[0], "curve must be monotone: {curve:?}");
        }
        for (k, s) in out.steps.iter().enumerate() {
            assert_eq!(s.budget, k);
            assert_eq!(s.upgraded.len(), k);
            assert!(s.best_upgraded.len() <= k);
            assert!((s.r_l - cost_ratio(out.baseline_phi_l, s.phi_l)).abs() < 1e-12);
        }
        assert!(out.probes > 0);
    }

    #[test]
    fn byte_deterministic_across_runs() {
        let (topo, demands) = small_instance(22);
        let run = || {
            UpgradeSearch::new(
                &topo,
                &demands,
                SearchParams::tiny().with_seed(7),
                tiny_cfg(),
                tiny_up(2),
            )
            .run()
        };
        assert_eq!(run().fingerprint(), run().fingerprint());
    }

    #[test]
    fn probe_costs_stay_with_their_placements_on_two_threads() {
        // Probes differ in run time (the full placement skips the
        // deployment-aware path), so on two threads candidates often
        // finish out of order; every cost must still come back beside
        // its own placement. One map can finish in order by chance,
        // hence the repeats.
        let (topo, demands) = small_instance(24);
        let n = topo.node_count();
        let search = UpgradeSearch::new(
            &topo,
            &demands,
            SearchParams::tiny().with_seed(5),
            tiny_cfg(),
            tiny_up(1),
        );
        let warm = DualWeights::replicated(dtr_graph::WeightVector::uniform(&topo, 1));
        let mut cands: Vec<(usize, DeploymentSet)> = (0..n)
            .map(|v| (v, DeploymentSet::from_upgraded(n, &[v as u32])))
            .collect();
        cands.push((n, DeploymentSet::full(n)));
        let expected: Vec<(Lex2, usize)> = cands
            .iter()
            .map(|(key, dep)| (search.probe(dep, &warm), *key))
            .collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(2)
            .build()
            .unwrap();
        for _ in 0..4 {
            assert_eq!(search.probe_all(&pool, &cands, &warm), expected);
        }
    }

    #[test]
    fn full_budget_step_matches_the_plain_portfolio_bit_for_bit() {
        let (topo, demands) = small_instance(23);
        let params = SearchParams::tiny().with_seed(3);
        let out = UpgradeSearch::new(
            &topo,
            &demands,
            params,
            tiny_cfg(),
            tiny_up(topo.node_count()),
        )
        .run();
        let last = out.last();
        assert_eq!(last.upgraded.len(), topo.node_count());
        let plain = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            params,
            PortfolioMode::Nominal(Scheme::Dtr),
            tiny_cfg(),
        )
        .run();
        assert_eq!(last.weights, plain.weights);
        assert_eq!(last.cost, plain.cost);
    }

    #[test]
    fn cost_ratio_conventions() {
        assert_eq!(cost_ratio(0.0, 0.0), 1.0);
        assert!((cost_ratio(2.0, 1.0) - 2.0).abs() < 1e-6);
        assert_eq!(cost_ratio(1.0, 0.0), 1e3);
        assert_eq!(cost_ratio(0.0, 1.0), 1e-3);
    }
}
