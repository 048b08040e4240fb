//! The parallel portfolio search orchestrator.
//!
//! The incremental engine (`dtr-engine`) made each candidate evaluation
//! 4–7× cheaper, which moved the weight-search bottleneck to the serial
//! search loop itself. The standard remedy for restart-hungry local
//! search is a **multi-start portfolio**: run many searches with diverse
//! strategies and seeds, keep the best. This module orchestrates that:
//!
//! - the portfolio spec (strategy list × restart count, base seed)
//!   expands into a **fixed task list** — task `i` runs strategy
//!   `strategies[i % len]` with the derived seed
//!   [`crate::params::derive_stream_seed`]`(base,
//!   `[`streams::PORTFOLIO_ARM`](crate::streams::PORTFOLIO_ARM)` + i)`.
//!   The list depends only on the spec, never on thread count or
//!   scheduling;
//! - `--workers N` is purely an execution knob: tasks fan out over a
//!   rayon pool of `N` threads, **each task constructing its own search
//!   and therefore its own [`dtr_engine::BatchEvaluator`]** — per-worker
//!   engine state, no shared mutability on the SPF caches;
//! - restarts execute as **waves** (one task per surviving strategy per
//!   wave). At each barrier the orchestrator reduces results
//!   **deterministically** — task-index order, compare by canonical
//!   cost, tie-break by weight-vector lexicographic order — and prunes
//!   strategy arms whose best-so-far exceeds the incumbent by more than
//!   [`PortfolioParams::prune_margin`] (successive-halving style). Prune
//!   decisions read only barrier-complete data, so the executed task set
//!   — and hence the final incumbent — is identical for any worker
//!   count and any thread schedule.
//!
//! ## Why reduction re-evaluates
//!
//! Different strategies assemble costs through different code paths
//! (engine caches, per-class splits, robust sweeps). To compare arms
//! bit-exactly, the orchestrator re-evaluates every task's final weights
//! through one canonical evaluator ([`dtr_routing::Evaluator`] for
//! nominal runs, [`RobustEvaluator`] for robust runs). The canonical
//! cost is a pure function of the instance and the weights, so it is
//! identical no matter which thread computes it.
//!
//! ## Robust mode
//!
//! Only the descent strategy natively searches under failure scenarios
//! ([`RobustSearch`]). The other arms contribute what they are good at:
//! their *nominal* optimum, which then warm-starts a robust descent —
//! the "robustify the incumbent" deployment pattern from the robust
//! module docs. Every arm therefore ends in a `RobustSearch`, and arms
//! differ by initialization and seed.

use crate::anneal::AnnealSearch;
use crate::dtr::DtrSearch;
use crate::ga::GaSearch;
use crate::memetic::MemeticSearch;
use crate::params::SearchParams;
use crate::robust::{RobustCost, RobustEvaluator, RobustSearch, ScenarioCombine};
use crate::scheme::Scheme;
use crate::str_search::StrSearch;
use crate::telemetry::SearchResult;
use dtr_cost::{Lex2, Objective};
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_routing::{Evaluation, Evaluator};
use dtr_traffic::DemandSet;
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One search strategy an orchestrator arm can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StrategyKind {
    /// The paper's neighborhood local searches: [`DtrSearch`]
    /// (Algorithm 1) in DTR mode, [`StrSearch`] (Fortz–Thorup single
    /// weight change) in STR mode, [`RobustSearch`] in robust mode.
    Descent,
    /// Simulated annealing ([`AnnealSearch`]) in the matching scheme.
    Anneal,
    /// The genetic algorithm ([`GaSearch`]; replicated weights).
    Ga,
    /// The memetic GA + hill-climb hybrid ([`MemeticSearch`];
    /// replicated weights).
    Memetic,
}

impl StrategyKind {
    /// Every strategy, in the canonical portfolio order.
    pub const ALL: [StrategyKind; 4] = [
        StrategyKind::Descent,
        StrategyKind::Anneal,
        StrategyKind::Ga,
        StrategyKind::Memetic,
    ];

    /// Machine-readable name (CLI `--portfolio` tokens, bench ids).
    pub fn name(self) -> &'static str {
        match self {
            StrategyKind::Descent => "descent",
            StrategyKind::Anneal => "anneal",
            StrategyKind::Ga => "ga",
            StrategyKind::Memetic => "memetic",
        }
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "descent" => Ok(StrategyKind::Descent),
            "anneal" => Ok(StrategyKind::Anneal),
            "ga" => Ok(StrategyKind::Ga),
            "memetic" => Ok(StrategyKind::Memetic),
            other => Err(format!(
                "unknown portfolio strategy {other:?} (descent|anneal|ga|memetic)"
            )),
        }
    }
}

/// Parses a `--portfolio` spec: comma-separated strategy names, e.g.
/// `"descent,anneal,ga,memetic"`. Duplicates are allowed (two descent
/// arms get different derived seeds); empty specs are an error.
pub fn parse_portfolio(spec: &str) -> Result<Vec<StrategyKind>, String> {
    let strategies: Vec<StrategyKind> = spec
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::parse)
        .collect::<Result<_, _>>()?;
    if strategies.is_empty() {
        return Err("empty portfolio spec".to_string());
    }
    Ok(strategies)
}

/// Orchestration knobs, distinct from the per-arm [`SearchParams`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortfolioParams {
    /// The strategy arms; wave `r` runs one task per *surviving* arm.
    pub strategies: Vec<StrategyKind>,
    /// Number of waves. Total task budget is `restarts × strategies.len()`
    /// minus whatever pruning cuts.
    pub restarts: usize,
    /// Worker threads; `0` means the machine's available parallelism.
    /// Changes wall-clock only, never the result.
    pub workers: usize,
    /// Relative-excess threshold for dropping an arm at a wave barrier:
    /// an arm whose best-so-far cost component exceeds the incumbent's
    /// by more than this fraction (on either lexicographic component)
    /// is excluded from later waves. `f64::INFINITY` disables pruning.
    pub prune_margin: f64,
}

impl Default for PortfolioParams {
    fn default() -> Self {
        PortfolioParams {
            strategies: StrategyKind::ALL.to_vec(),
            restarts: 1,
            workers: 0,
            prune_margin: f64::INFINITY,
        }
    }
}

impl PortfolioParams {
    /// Panics on degenerate configurations.
    pub fn validate(&self) {
        assert!(!self.strategies.is_empty(), "portfolio needs ≥ 1 strategy");
        assert!(self.restarts >= 1, "portfolio needs ≥ 1 restart wave");
        assert!(
            self.prune_margin >= 0.0 && !self.prune_margin.is_nan(),
            "prune margin must be a non-negative number"
        );
    }

    /// The pool this run's parallel regions install: `workers` threads
    /// in total (the caller included), or the caller's own count when
    /// `workers` is 0. The upgrade planner's probe rounds share it.
    pub(crate) fn pool(&self) -> ThreadPool {
        let threads = match self.workers {
            0 => rayon::current_num_threads(),
            n => n,
        };
        ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool builds")
    }
}

/// What a portfolio optimizes: the paper's nominal objectives under one
/// routing scheme, or the failure-aware robust objective.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PortfolioMode {
    /// Intact-network optimization under [`Scheme::Str`] or
    /// [`Scheme::Dtr`].
    Nominal(Scheme),
    /// Failure-aware optimization (load-based objective only).
    Robust {
        /// How per-scenario costs fold into one robust cost.
        combine: ScenarioCombine,
        /// Optional scenario cap (see [`RobustSearch::with_scenario_cap`]).
        cap: Option<usize>,
        /// Routing scheme of the robust search.
        scheme: Scheme,
    },
}

/// One finished task, with its canonical cost.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskOutcome {
    /// Task index in the fixed task list (also the seed stream).
    pub task: usize,
    /// Restart wave this task belonged to.
    pub wave: usize,
    /// Strategy the task ran.
    pub strategy: StrategyKind,
    /// The derived RNG seed the arm searched with.
    pub seed: u64,
    /// Final weights of the arm.
    pub weights: DualWeights,
    /// Canonical cost of `weights` (nominal: `eval_dual`; robust: the
    /// combined robust cost).
    pub cost: Lex2,
    /// Candidate evaluations the arm spent.
    pub evaluations: usize,
}

/// Outcome of a portfolio run.
#[derive(Debug, Clone)]
pub struct PortfolioResult {
    /// The winning weights under the deterministic reduction.
    pub weights: DualWeights,
    /// Canonical cost of the winner.
    pub cost: Lex2,
    /// Full nominal evaluation of the winner (`None` in robust mode).
    pub eval: Option<Evaluation>,
    /// Robust cost breakdown of the winner (`None` in nominal mode).
    pub robust: Option<RobustCost>,
    /// Every executed task in task-index order (pruned arms' tasks are
    /// absent).
    pub tasks: Vec<TaskOutcome>,
    /// The incumbent cost after each wave barrier — the
    /// quality-vs-restarts curve.
    pub wave_bests: Vec<Lex2>,
    /// Arms dropped by pruning, with the wave *after* which each was
    /// dropped (strategy-list index, wave).
    pub pruned: Vec<(usize, usize)>,
    /// Worker threads actually used.
    pub workers: usize,
}

impl PortfolioResult {
    /// A deterministic serialization of everything the reproducibility
    /// contract covers (winner, per-task outcomes, wave curve, pruning),
    /// for byte-identity assertions across runs and worker counts.
    pub fn fingerprint(&self) -> String {
        serde_json::to_string(&(
            (&self.weights, &self.cost),
            (&self.tasks, &self.wave_bests, &self.pruned),
        ))
        .expect("portfolio fingerprint serializes")
    }
}

/// Total order used for reduction tie-breaks: high vector, then low,
/// element-wise — so equal-cost arms resolve to one canonical winner
/// regardless of which worker found what first.
fn weights_lex_cmp(a: &DualWeights, b: &DualWeights) -> Ordering {
    a.high
        .as_slice()
        .cmp(b.high.as_slice())
        .then_with(|| a.low.as_slice().cmp(b.low.as_slice()))
}

/// Relative excess of `cost` over the incumbent `best`, per the pruning
/// rule: the worst of the two components' relative gaps. `best` is the
/// lexicographic minimum, so both gaps are ≥ 0 up to float noise.
fn relative_excess(cost: Lex2, best: Lex2) -> f64 {
    let rel = |c: f64, b: f64| ((c - b) / b.max(1e-9)).max(0.0);
    rel(cost.primary, best.primary).max(rel(cost.secondary, best.secondary))
}

/// The orchestrator, bound to one problem instance.
pub struct PortfolioSearch<'a> {
    topo: &'a Topology,
    demands: &'a DemandSet,
    objective: Objective,
    params: SearchParams,
    mode: PortfolioMode,
    cfg: PortfolioParams,
    initial: Option<DualWeights>,
    deployment: Option<dtr_routing::DeploymentSet>,
}

impl<'a> PortfolioSearch<'a> {
    /// Prepares a portfolio. `params` is the **per-arm** budget; the
    /// portfolio spends `restarts × strategies.len()` of it (minus
    /// pruning savings).
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        params: SearchParams,
        mode: PortfolioMode,
        cfg: PortfolioParams,
    ) -> Self {
        params.validate();
        cfg.validate();
        if let PortfolioMode::Robust { combine, .. } = mode {
            assert!(
                matches!(objective, Objective::LoadBased),
                "robust portfolios support the load-based objective only"
            );
            if let ScenarioCombine::Blend { beta } = combine {
                assert!((0.0..=1.0).contains(&beta), "β must be in [0,1]");
            }
        }
        PortfolioSearch {
            topo,
            demands,
            objective,
            params,
            mode,
            cfg,
            initial: None,
            deployment: None,
        }
    }

    /// Binds a partial-deployment model: the deployment-aware arms
    /// (descent, anneal) search the mixed network directly, the
    /// replicated-subspace arms (GA, memetic) keep exploring shared
    /// vectors — which are deployment-invariant by construction — and
    /// **every** arm is scored by the canonical deployment-aware
    /// `eval_dual`, so the reduction compares all arms on the network
    /// they will actually run on. A full set is normalized away and the
    /// portfolio stays bit-identical to the undeployed path.
    ///
    /// Nominal DTR mode with the load-based objective only.
    pub fn with_deployment(mut self, dep: dtr_routing::DeploymentSet) -> Self {
        assert!(
            dep.is_full() || matches!(self.mode, PortfolioMode::Nominal(Scheme::Dtr)),
            "partial deployment requires nominal DTR mode"
        );
        assert!(
            dep.is_full() || matches!(self.objective, Objective::LoadBased),
            "partial deployment requires the load-based objective"
        );
        self.deployment = if dep.is_full() { None } else { Some(dep) };
        self
    }

    /// A canonical evaluator with the portfolio's deployment bound.
    fn canonical_evaluator(&self) -> Evaluator<'a> {
        let mut ev = Evaluator::new(self.topo, self.demands, self.objective);
        ev.set_deployment(self.deployment.clone())
            .expect("with_deployment validated the deployment");
        ev
    }

    /// Warm-starts the arms that accept an initial setting (descent arms
    /// in every mode; the robust descent phase of every robust arm). The
    /// population/walk strategies keep their own initialization — their
    /// diversity is the point of the portfolio.
    pub fn with_initial(mut self, w0: DualWeights) -> Self {
        assert_eq!(w0.high.len(), self.topo.link_count());
        assert_eq!(w0.low.len(), self.topo.link_count());
        self.initial = Some(w0);
        self
    }

    /// Runs the portfolio and reduces deterministically.
    pub fn run(&self) -> PortfolioResult {
        let n_strats = self.cfg.strategies.len();
        let pool = self.cfg.pool();
        let workers = pool.current_num_threads();
        // In robust mode with a cap, the canonical scenario set (the
        // worst scenarios of the shared initial) is derived once here —
        // one uncapped sweep — and reused read-only by every arm's
        // canonical re-evaluation.
        let capped_ids: Option<Vec<u32>> = match self.mode {
            PortfolioMode::Robust {
                combine,
                cap: Some(cap),
                ..
            } => {
                let mut ev = RobustEvaluator::with_backend(
                    self.topo,
                    self.demands,
                    combine,
                    self.params.backend,
                );
                Some(ev.cap_to_worst(&self.initial_or_uniform(), cap))
            }
            _ => None,
        };

        let mut active = vec![true; n_strats];
        let mut tasks: Vec<TaskOutcome> = Vec::new();
        let mut wave_bests: Vec<Lex2> = Vec::new();
        let mut pruned: Vec<(usize, usize)> = Vec::new();
        // Winner under the deterministic reduction (index into `tasks`).
        let mut best: Option<usize> = None;
        // Per-arm best canonical cost, for the pruning rule.
        let mut arm_best: Vec<Option<Lex2>> = vec![None; n_strats];

        for wave in 0..self.cfg.restarts {
            let specs: Vec<(usize, usize)> = (0..n_strats)
                .filter(|&si| active[si])
                .map(|si| (wave * n_strats + si, si))
                .collect();
            // The parallel region: one independent search per task, each
            // with its own engine state; nothing is shared.
            let wave_out: Vec<TaskOutcome> = pool.install(|| {
                specs
                    .par_iter()
                    .map(|&(task, si)| self.run_task(task, wave, si, capped_ids.as_deref()))
                    .collect()
            });

            // --- Barrier: deterministic reduction in task-index order. ---
            for out in wave_out {
                let si = out.task % n_strats;
                if arm_best[si].is_none_or(|c| out.cost < c) {
                    arm_best[si] = Some(out.cost);
                }
                tasks.push(out);
                let i = tasks.len() - 1;
                let better = match best {
                    None => true,
                    Some(b) => {
                        tasks[i].cost < tasks[b].cost
                            || (tasks[i].cost == tasks[b].cost
                                && weights_lex_cmp(&tasks[i].weights, &tasks[b].weights)
                                    == Ordering::Less)
                    }
                };
                if better {
                    best = Some(i);
                }
            }
            let best_cost = tasks[best.expect("wave ran ≥ 1 task")].cost;
            wave_bests.push(best_cost);

            // --- Pruning: drop hopeless arms for the remaining waves.
            // Decisions read only barrier-complete data (arm_best /
            // best_cost), so the surviving task set is schedule-free.
            if wave + 1 < self.cfg.restarts && self.cfg.prune_margin.is_finite() {
                for si in 0..n_strats {
                    if !active[si] {
                        continue;
                    }
                    let Some(c) = arm_best[si] else { continue };
                    // The incumbent's arm has zero excess, so at least
                    // one arm always survives.
                    if relative_excess(c, best_cost) > self.cfg.prune_margin {
                        active[si] = false;
                        pruned.push((si, wave));
                    }
                }
            }
        }

        let winner = &tasks[best.expect("portfolio ran ≥ 1 task")];
        let (eval, robust) = match self.mode {
            PortfolioMode::Nominal(_) => {
                let mut ev = self.canonical_evaluator();
                (Some(ev.eval_dual(&winner.weights)), None)
            }
            PortfolioMode::Robust { .. } => {
                let mut ev = self.canonical_robust_evaluator(capped_ids.as_deref());
                (None, Some(ev.eval(&winner.weights)))
            }
        };
        PortfolioResult {
            weights: winner.weights.clone(),
            cost: winner.cost,
            eval,
            robust,
            tasks,
            wave_bests,
            pruned,
            workers,
        }
    }

    /// The canonical robust evaluator all arms are scored against: the
    /// full scenario set, or — when a cap is configured — the
    /// `capped_ids` precomputed once in [`Self::run`] from the *shared*
    /// initial setting, so every arm is measured on the same set without
    /// re-paying the capping sweep per arm.
    fn canonical_robust_evaluator(&self, capped_ids: Option<&[u32]>) -> RobustEvaluator<'a> {
        let PortfolioMode::Robust { combine, .. } = self.mode else {
            unreachable!("canonical robust evaluator outside robust mode")
        };
        let mut ev =
            RobustEvaluator::with_backend(self.topo, self.demands, combine, self.params.backend);
        if let Some(ids) = capped_ids {
            ev.retain_pairs(ids);
        }
        ev
    }

    fn initial_or_uniform(&self) -> DualWeights {
        self.initial
            .clone()
            .unwrap_or_else(|| DualWeights::replicated(WeightVector::uniform(self.topo, 1)))
    }

    /// Runs one arm: a pure function of `(instance, task index)`.
    fn run_task(
        &self,
        task: usize,
        wave: usize,
        si: usize,
        capped_ids: Option<&[u32]>,
    ) -> TaskOutcome {
        let strategy = self.cfg.strategies[si];
        let params = self
            .params
            .with_stream(crate::streams::PORTFOLIO_ARM + task as u64);
        let (weights, evaluations) = match self.mode {
            PortfolioMode::Nominal(scheme) => {
                let r = self.run_nominal(strategy, scheme, params);
                (r.weights, r.trace.evaluations)
            }
            PortfolioMode::Robust {
                combine,
                cap,
                scheme,
            } => self.run_robust(strategy, scheme, combine, cap, params),
        };
        let cost = match self.mode {
            PortfolioMode::Nominal(_) => {
                let mut ev = self.canonical_evaluator();
                ev.eval_dual(&weights).cost
            }
            PortfolioMode::Robust { .. } => {
                self.canonical_robust_evaluator(capped_ids)
                    .eval(&weights)
                    .combined
            }
        };
        TaskOutcome {
            task,
            wave,
            strategy,
            seed: params.seed,
            weights,
            cost,
            evaluations,
        }
    }

    /// One robust arm: non-descent strategies first find their nominal
    /// optimum, which warm-starts the failure-aware descent (see the
    /// module docs). Evaluations count both phases.
    fn run_robust(
        &self,
        strategy: StrategyKind,
        scheme: Scheme,
        combine: ScenarioCombine,
        cap: Option<usize>,
        params: SearchParams,
    ) -> (DualWeights, usize) {
        let (warm, warm_evals) = match strategy {
            StrategyKind::Descent => (self.initial.clone(), 0),
            _ => {
                let r = self.run_nominal(strategy, scheme, params);
                (Some(r.weights), r.trace.evaluations)
            }
        };
        let mut s = RobustSearch::new(self.topo, self.demands, combine, params, scheme);
        if let Some(cap) = cap {
            s = s.with_scenario_cap(cap);
        }
        if let Some(w0) = warm {
            s = s.with_initial(w0);
        }
        let r = s.run();
        (r.weights, warm_evals + r.trace.evaluations)
    }

    /// One nominal arm: its strategy-table row on this portfolio's
    /// instance, warm start and deployment.
    fn run_nominal(
        &self,
        strategy: StrategyKind,
        scheme: Scheme,
        params: SearchParams,
    ) -> SearchResult {
        run_strategy(
            (strategy, scheme),
            self.topo,
            self.demands,
            self.objective,
            params,
            self.initial.as_ref(),
            self.deployment.as_ref(),
        )
    }
}

/// Runs one row of the strategy table on an instance:
///
/// | strategy | [`Scheme::Str`] | [`Scheme::Dtr`] |
/// |---|---|---|
/// | [`Descent`](StrategyKind::Descent) | [`StrSearch`] | [`DtrSearch`] |
/// | [`Anneal`](StrategyKind::Anneal) | [`AnnealSearch`] on one vector | [`AnnealSearch`] on both |
/// | [`Ga`](StrategyKind::Ga) | [`GaSearch`] | the same run |
/// | [`Memetic`](StrategyKind::Memetic) | [`MemeticSearch`] | the same run |
///
/// The GA and memetic rows ignore the scheme: they explore the
/// shared-vector subspace, whose settings are valid under both. Every
/// row costs its candidates through the engine backend `params` names,
/// and every single-vector run returns its vector written twice.
///
/// `initial` warm-starts the descent rows (the population and walk
/// strategies keep their own initialization); a partial `deployment`
/// (DTR scheme, load-based objective) is searched directly by the
/// deployment-aware rows — descent and annealing — and is invisible to
/// the shared-vector ones.
pub fn run_strategy(
    (strategy, scheme): (StrategyKind, Scheme),
    topo: &Topology,
    demands: &DemandSet,
    objective: Objective,
    params: SearchParams,
    initial: Option<&DualWeights>,
    deployment: Option<&dtr_routing::DeploymentSet>,
) -> SearchResult {
    match (strategy, scheme) {
        (StrategyKind::Descent, Scheme::Dtr) => {
            let mut s = DtrSearch::new(topo, demands, objective, params);
            if let Some(dep) = deployment {
                s = s.with_deployment(dep.clone());
            }
            if let Some(w0) = initial {
                s = s.with_initial(w0.clone());
            }
            s.run()
        }
        (StrategyKind::Descent, Scheme::Str) => {
            let mut s = StrSearch::new(topo, demands, objective, params);
            if let Some(w0) = initial {
                s = s.with_initial(w0.high.clone());
            }
            let r = s.run();
            SearchResult {
                weights: DualWeights::replicated(r.weights),
                eval: r.eval,
                best_cost: r.best_cost,
                trace: r.trace,
            }
        }
        (StrategyKind::Anneal, scheme) => {
            let mut s = AnnealSearch::new(topo, demands, objective, params, scheme);
            if let Some(dep) = deployment {
                s = s.with_deployment(dep.clone());
            }
            s.run()
        }
        (StrategyKind::Ga, _) => GaSearch::new(topo, demands, objective, params).run(),
        (StrategyKind::Memetic, _) => MemeticSearch::new(topo, demands, objective, params).run(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_traffic::TrafficCfg;

    fn small_instance(seed: u64) -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 8,
            directed_links: 32,
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

    fn cfg(workers: usize, restarts: usize) -> PortfolioParams {
        PortfolioParams {
            workers,
            restarts,
            ..Default::default()
        }
    }

    #[test]
    fn parse_portfolio_specs() {
        assert_eq!(
            parse_portfolio("descent,anneal,ga,memetic").unwrap(),
            StrategyKind::ALL.to_vec()
        );
        assert_eq!(
            parse_portfolio("descent,descent").unwrap(),
            vec![StrategyKind::Descent, StrategyKind::Descent]
        );
        assert!(parse_portfolio("").is_err());
        assert!(parse_portfolio("descent,tabu").is_err());
        for s in StrategyKind::ALL {
            assert_eq!(s.name().parse::<StrategyKind>().unwrap(), s);
        }
    }

    #[test]
    fn worker_count_never_changes_the_result() {
        let (topo, demands) = small_instance(3);
        let run = |workers| {
            PortfolioSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(11),
                PortfolioMode::Nominal(Scheme::Dtr),
                cfg(workers, 2),
            )
            .run()
        };
        let a = run(1);
        let b = run(4);
        let c = run(4);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(b.fingerprint(), c.fingerprint());
        assert_eq!(a.workers, 1);
        assert_eq!(b.workers, 4);
    }

    #[test]
    fn winner_is_the_reduction_minimum_of_its_tasks() {
        let (topo, demands) = small_instance(5);
        let res = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(2),
            PortfolioMode::Nominal(Scheme::Str),
            cfg(2, 1),
        )
        .run();
        assert_eq!(res.tasks.len(), 4);
        let min = res.tasks.iter().map(|t| t.cost).min().unwrap();
        assert_eq!(res.cost, min);
        assert!(res.tasks.iter().any(|t| t.weights == res.weights));
        // Canonical cost matches the full evaluation of the winner.
        assert_eq!(res.eval.as_ref().unwrap().cost, res.cost);
        // Derived seeds are pairwise distinct.
        for (i, a) in res.tasks.iter().enumerate() {
            for b in &res.tasks[i + 1..] {
                assert_ne!(a.seed, b.seed);
            }
        }
    }

    #[test]
    fn wave_bests_are_monotone_and_sized() {
        let (topo, demands) = small_instance(7);
        let res = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(4),
            PortfolioMode::Nominal(Scheme::Dtr),
            cfg(0, 3),
        )
        .run();
        assert_eq!(res.wave_bests.len(), 3);
        for w in res.wave_bests.windows(2) {
            assert!(w[1] <= w[0]);
        }
        assert_eq!(*res.wave_bests.last().unwrap(), res.cost);
    }

    #[test]
    fn pruning_drops_arms_but_keeps_the_winner_and_determinism() {
        let (topo, demands) = small_instance(9);
        let run = |workers| {
            PortfolioSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(6),
                PortfolioMode::Nominal(Scheme::Dtr),
                PortfolioParams {
                    workers,
                    restarts: 3,
                    prune_margin: 0.0,
                    ..Default::default()
                },
            )
            .run()
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.fingerprint(), b.fingerprint());
        // With a zero margin every strictly-worse arm is dropped after
        // wave 0, so later waves run fewer tasks than the full grid...
        assert!(a.tasks.len() < 3 * 4);
        // ...but the winner's arm always survives to the last wave.
        let winner_si = a.tasks.iter().find(|t| t.cost == a.cost).unwrap().task % 4;
        assert!(a.pruned.iter().all(|&(si, _)| si != winner_si));
        assert!(a.tasks.iter().any(|t| t.wave == 2));
    }

    #[test]
    fn robust_mode_runs_all_arms_and_agrees_with_canonical_evaluator() {
        let (topo, demands) = small_instance(11);
        let combine = ScenarioCombine::Blend { beta: 0.5 };
        let res = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(8),
            PortfolioMode::Robust {
                combine,
                cap: None,
                scheme: Scheme::Dtr,
            },
            cfg(2, 1),
        )
        .run();
        assert_eq!(res.tasks.len(), 4);
        let rc = res.robust.as_ref().unwrap();
        assert_eq!(rc.combined, res.cost);
        let mut ev = RobustEvaluator::new(&topo, &demands, combine);
        assert_eq!(ev.eval(&res.weights).combined, res.cost);
        // Portfolio ≥ any single arm by construction.
        assert!(res.tasks.iter().all(|t| res.cost <= t.cost));
    }

    #[test]
    fn robust_str_mode_keeps_vectors_replicated() {
        let (topo, demands) = small_instance(13);
        let res = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(1),
            PortfolioMode::Robust {
                combine: ScenarioCombine::Worst,
                cap: Some(4),
                scheme: Scheme::Str,
            },
            cfg(2, 1),
        )
        .run();
        assert_eq!(res.weights.high, res.weights.low);
    }

    #[test]
    fn relative_excess_rule() {
        let g = Lex2::new(10.0, 100.0);
        assert_eq!(relative_excess(g, g), 0.0);
        assert!((relative_excess(Lex2::new(15.0, 100.0), g) - 0.5).abs() < 1e-12);
        assert!((relative_excess(Lex2::new(10.0, 130.0), g) - 0.3).abs() < 1e-12);
        // Zero incumbent components saturate instead of dividing by zero.
        assert!(relative_excess(Lex2::new(1.0, 0.0), Lex2::new(0.0, 0.0)) > 1e6);
    }

    #[test]
    #[should_panic(expected = "≥ 1 strategy")]
    fn rejects_empty_strategy_list() {
        let (topo, demands) = small_instance(1);
        let _ = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            PortfolioMode::Nominal(Scheme::Dtr),
            PortfolioParams {
                strategies: Vec::new(),
                ..Default::default()
            },
        );
    }

    #[test]
    #[should_panic(expected = "left == right")]
    fn warm_start_rejects_a_short_low_vector() {
        let (topo, demands) = small_instance(1);
        let w0 = DualWeights {
            high: WeightVector::uniform(&topo, 1),
            low: WeightVector::from_vec(vec![1; 3]),
        };
        let _ = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny(),
            PortfolioMode::Nominal(Scheme::Dtr),
            PortfolioParams::default(),
        )
        .with_initial(w0);
    }

    #[test]
    #[should_panic(expected = "load-based")]
    fn robust_mode_rejects_sla_objective() {
        let (topo, demands) = small_instance(1);
        let _ = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::sla_default(),
            SearchParams::tiny(),
            PortfolioMode::Robust {
                combine: ScenarioCombine::Worst,
                cap: None,
                scheme: Scheme::Dtr,
            },
            PortfolioParams::default(),
        );
    }
}
