//! The suite runner: every corpus instance end-to-end.
//!
//! Per instance, the runner reproduces the paper's core comparison on
//! that instance's topology/traffic/failure regime:
//!
//! 1. **Baseline** — the single-topology STR search (one weight vector
//!    serves both classes);
//! 2. **DTR** — the dual-topology search at the *identical* evaluation
//!    budget, **warm-started from the baseline incumbent** (replicated
//!    into both vectors). This is the operational upgrade path — an
//!    operator adopting dual-topology routing starts from the weights
//!    already deployed — and it makes the comparison a lower bound:
//!    the DTR search only accepts lexicographic improvements from its
//!    initial point, so its high-priority class can never end worse
//!    than the baseline's, and everything `R_L` reports is pure gain
//!    from the second topology;
//! 3. optionally, both schemes through the portfolio orchestrator
//!    (`search.portfolio = true` in the manifest);
//! 4. if the instance's failure policy requests it, a robustness
//!    evaluation of both incumbents over the policy's scenario set
//!    (driven by `dtr-core`'s failure-sweep `RobustEvaluator`, i.e. the
//!    `BatchEvaluator` incremental path).
//!
//! Class count is data above the cost kernel: instances with more than
//! two classes run the same body through the same [`SearchedInstance`]
//! and report shapes. `class_count() > 2` decides only which searches
//! produce the incumbents ([`search_incumbents`]: steps 1–3 above vs. an
//! STR search on the two-class fold followed by the staged k-class
//! `MultiSearch`), which single-shot evaluator prices them (`price`),
//! and — in [`crate::validate`] — the DES budget policy; step 4 stays
//! behind the manifest fence that admits failure sweeps for two classes
//! only.
//!
//! Reports are plain serializable structs; `dtrctl suite` writes one
//! JSON file per instance plus `summary.json`. The paper's qualitative
//! claim — DTR never sacrifices the high-priority class and massively
//! improves the low class — shows up as `r_h ≥ 1` (within noise) and
//! `r_l ≫ 1`; [`SuiteSummary::all_dtr_high_wins`] aggregates the former
//! across the corpus.

use crate::spec::ScenarioSpec;
use dtr_core::{
    DtrSearch, Objective, ObjectiveSpec, PortfolioMode, PortfolioParams, PortfolioSearch,
    RobustCost, RobustEvaluator, ScenarioCombine, Scheme, StrSearch, StrategyKind,
};
use dtr_engine::{BackendKind, KClassBatchEvaluator};
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_multi::{MultiDemand, MultiSearch};
use dtr_routing::{ClassLoads, DeploymentSet, Evaluator, FailurePolicy};
use dtr_traffic::DemandSet;
use serde::{Deserialize, Serialize};
use std::time::Instant;

pub use dtr_core::cost_ratio;

/// How the suite should run.
#[derive(Debug, Clone, Default)]
pub struct SuiteCfg {
    /// CI mode: only `smoke: true` instances, everything at the `tiny`
    /// budget, result-shape assertions on.
    pub smoke: bool,
    /// Run only instances whose name contains one of these
    /// comma-separated substrings (`--only isp,fattree4-stride`).
    pub only: Option<String>,
}

impl SuiteCfg {
    /// Whether the `--only` filter admits `name`: no filter admits
    /// everything; otherwise the name must contain at least one of the
    /// comma-separated needles (empty needles are ignored, so a
    /// trailing comma is harmless).
    pub fn admits(&self, name: &str) -> bool {
        match self.only.as_deref() {
            None => true,
            Some(list) => list
                .split(',')
                .map(str::trim)
                .filter(|needle| !needle.is_empty())
                .any(|needle| name.contains(needle)),
        }
    }

    /// The `--only` needles that match **none** of `names`. A non-empty
    /// return means the user asked for instances that do not exist —
    /// `--only alpha,zzz` used to run `alpha` and silently drop `zzz`;
    /// callers now turn unmatched needles into a hard argument error.
    pub fn unmatched_needles<'n>(
        &self,
        names: impl Iterator<Item = &'n str> + Clone,
    ) -> Vec<String> {
        match self.only.as_deref() {
            None => Vec::new(),
            Some(list) => list
                .split(',')
                .map(str::trim)
                .filter(|needle| !needle.is_empty())
                .filter(|needle| !names.clone().any(|name| name.contains(needle)))
                .map(str::to_string)
                .collect(),
        }
    }
}

/// One scheme's outcome on one instance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SchemeReport {
    /// `Φ_H` of the incumbent. For k-class instances this is the
    /// objective's leading component (class 0's `Φ` or `Λ`).
    pub phi_h: f64,
    /// `Φ_L` of the incumbent. For k-class instances, the sum of the
    /// lower classes' cost components.
    pub phi_l: f64,
    /// Average link utilization.
    pub avg_util: f64,
    /// Maximum link utilization.
    pub max_util: f64,
    /// Candidate evaluations spent.
    pub evaluations: usize,
    /// Wall-clock seconds of the search.
    pub elapsed_s: f64,
}

/// Robustness outcome over the instance's failure policy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RobustReport {
    /// Scenarios evaluated (after any `WorstK` cap).
    pub scenarios: usize,
    /// Blend β used for the combined cost.
    pub beta: f64,
    /// DTR incumbent's robust cost breakdown.
    pub dtr: RobustCost,
    /// STR incumbent's robust cost breakdown.
    pub baseline: RobustCost,
    /// Worst-case high-class ratio `max_s Φ_H^s(STR) / max_s Φ_H^s(DTR)`.
    pub r_h_worst: f64,
    /// Worst-case low-class ratio.
    pub r_l_worst: f64,
}

/// One instance's full report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InstanceReport {
    /// Instance name (the manifest's).
    pub name: String,
    /// Topology family name.
    pub topology: String,
    /// Traffic family name.
    pub traffic: String,
    /// Number of traffic classes (2 for the paper's dual setup).
    pub classes: usize,
    /// The objective summary (e.g. `"load,load"` or
    /// `"sla:25ms,sla:50ms,load"`).
    pub objective: String,
    /// Node count.
    pub nodes: usize,
    /// Directed link count.
    pub links: usize,
    /// Total offered volume (both classes, Mbit/s).
    pub total_demand: f64,
    /// Achieved high-priority volume fraction.
    pub high_fraction: f64,
    /// Budget preset the searches ran at.
    pub budget: String,
    /// Whether the portfolio orchestrator ran the searches.
    pub portfolio: bool,
    /// Upgraded (MT-capable) node indices when the manifest declares a
    /// partial deployment; `None` for the classic fully-deployed DTR.
    pub deployment: Option<Vec<u32>>,
    /// Single-topology baseline outcome.
    pub baseline: SchemeReport,
    /// DTR outcome.
    pub dtr: SchemeReport,
    /// Nominal high-class ratio `R_H = Φ_H(STR)/Φ_H(DTR)`.
    pub r_h: f64,
    /// Nominal low-class ratio `R_L`.
    pub r_l: f64,
    /// The paper's qualitative claim on this instance: DTR's high class
    /// is no worse than the baseline's (within 1e-9 relative).
    pub dtr_high_win: bool,
    /// Robustness outcome, when the failure policy requests one.
    pub robust: Option<RobustReport>,
}

/// Aggregate over one suite run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuiteSummary {
    /// Instances executed, in order.
    pub names: Vec<String>,
    /// Whether the run was a smoke run.
    pub smoke: bool,
    /// [`InstanceReport::dtr_high_win`] across every instance.
    pub all_dtr_high_wins: bool,
    /// Geometric mean of the nominal `R_H` ratios.
    pub geomean_r_h: f64,
    /// Geometric mean of the nominal `R_L` ratios.
    pub geomean_r_l: f64,
    /// Total wall-clock seconds.
    pub elapsed_s: f64,
}

/// One scheme's incumbent as its search left it, not yet priced: one
/// weight vector per class, evaluations spent, wall-clock seconds.
struct Found {
    weights: Vec<WeightVector>,
    evaluations: usize,
    elapsed_s: f64,
}

/// Times one search.
fn timed(search: impl FnOnce() -> (Vec<WeightVector>, usize)) -> Found {
    let start = Instant::now();
    let (weights, evaluations) = search();
    Found {
        weights,
        evaluations,
        elapsed_s: start.elapsed().as_secs_f64(),
    }
}

/// The two-class kernel's view of a per-class weight list.
pub(crate) fn dual_weights(weights: &[WeightVector]) -> DualWeights {
    assert_eq!(weights.len(), 2, "the two-class kernel takes two vectors");
    DualWeights {
        high: weights[0].clone(),
        low: weights[1].clone(),
    }
}

/// The two-class kernel's view of a two-matrix demand list. Everything
/// that needs it — `Evaluator`, `RobustEvaluator`, the deployment model
/// — sits behind a manifest fence that admits two classes only.
pub(crate) fn demand_pair(demands: &MultiDemand) -> DemandSet {
    assert_eq!(
        demands.class_count(),
        2,
        "the two-class kernel takes two matrices"
    );
    DemandSet {
        high: demands.classes[0].clone(),
        low: demands.classes[1].clone(),
    }
}

/// Runs one two-class scheme (plain search or portfolio); returns the
/// incumbent and the evaluations spent.
fn run_scheme(
    topo: &Topology,
    demands: &DemandSet,
    spec: &ScenarioSpec,
    scheme: Scheme,
    initial: Option<&DualWeights>,
    deployment: Option<&DeploymentSet>,
    smoke: bool,
) -> (Vec<WeightVector>, usize) {
    let search = spec.search();
    let params = search.params(smoke);
    let objective = spec
        .objective()
        .as_two_class()
        .expect("two-class pipeline got a k-class objective");
    // Only the DTR scheme sees the deployment: the STR baseline runs
    // one topology on one table, which legacy routers forward exactly.
    debug_assert!(
        deployment.is_none() || matches!(scheme, Scheme::Dtr),
        "deployment only applies to the DTR scheme"
    );
    let (weights, evaluations) = if search.portfolio() {
        let mut folio = PortfolioSearch::new(
            topo,
            demands,
            objective,
            params,
            PortfolioMode::Nominal(scheme),
            PortfolioParams {
                strategies: StrategyKind::ALL.to_vec(),
                restarts: 1,
                workers: 0,
                prune_margin: f64::INFINITY,
            },
        );
        if let Some(dep) = deployment {
            folio = folio.with_deployment(dep.clone());
        }
        if let Some(w0) = initial {
            // Warm-starts the descent arms; the deterministic reduction
            // takes the best arm, so the result is never worse than w0.
            folio = folio.with_initial(w0.clone());
        }
        let res = folio.run();
        let evals = res.tasks.iter().map(|t| t.evaluations).sum();
        (res.weights, evals)
    } else {
        match scheme {
            Scheme::Dtr => {
                let mut s = DtrSearch::new(topo, demands, objective, params);
                if let Some(dep) = deployment {
                    s = s.with_deployment(dep.clone());
                }
                if let Some(w0) = initial {
                    s = s.with_initial(w0.clone());
                }
                let res = s.run();
                (res.weights, res.trace.evaluations)
            }
            Scheme::Str => {
                let res = StrSearch::new(topo, demands, objective, params).run();
                (DualWeights::replicated(res.weights), res.trace.evaluations)
            }
        }
    };
    (vec![weights.high, weights.low], evaluations)
}

/// The search front half of one instance: the built topology and
/// demands plus both schemes' incumbents, **without** the
/// failure-policy robustness sweep. This is what the differential-
/// validation harness consumes — it replays the incumbents through the
/// simulation backends and has no use for the (comparatively costly)
/// scenario sweep the full suite report includes.
pub struct SearchedInstance {
    /// The instance's topology.
    pub topo: Topology,
    /// The instance's demands, one matrix per class.
    pub demands: MultiDemand,
    /// The effective objective spec.
    pub objective: ObjectiveSpec,
    /// STR baseline incumbent: the single-topology weight vector
    /// replicated into every class.
    pub str_weights: Vec<WeightVector>,
    /// Baseline scheme report.
    pub baseline: SchemeReport,
    /// DTR incumbent (one vector per class, warm-started from the
    /// baseline).
    pub dtr_weights: Vec<WeightVector>,
    /// DTR scheme report.
    pub dtr: SchemeReport,
    /// The effective budget-preset name the searches ran at.
    pub budget: String,
    /// The manifest's partial deployment, already normalized (`None`
    /// for an omitted key or a full set). The DTR search and the
    /// canonical DTR evaluation above ran deployment-aware; the STR
    /// baseline is deployment-invariant (one topology, one table).
    pub deployment: Option<DeploymentSet>,
}

/// Folds a k-class demand set into the two-class view the STR baseline
/// search runs on: class 0 keeps the high slot, every lower class is
/// merged into the low matrix.
fn fold_lower_classes(demands: &MultiDemand) -> DemandSet {
    let mut low = demands.classes[1].clone();
    for m in &demands.classes[2..] {
        for (s, t) in m.positive_pairs() {
            low.add(s, t, m.get(s, t));
        }
    }
    DemandSet {
        high: demands.classes[0].clone(),
        low,
    }
}

/// Projects an evaluation onto the two-component report shape: the
/// leading cost component, the sum of the rest, and the utilization of
/// the summed class loads.
fn scheme_report(
    topo: &Topology,
    phi_h: f64,
    phi_l: f64,
    loads: &[ClassLoads],
    found: &Found,
) -> SchemeReport {
    let total = dtr_routing::loads::sum_class_loads(loads);
    SchemeReport {
        phi_h,
        phi_l,
        avg_util: dtr_routing::loads::avg_utilization(topo, &total),
        max_util: dtr_routing::loads::max_utilization(topo, &total),
        evaluations: found.evaluations,
        elapsed_s: found.elapsed_s,
    }
}

/// Prices both incumbents with the instance's single-shot evaluator:
/// `[baseline, dtr]`. Two classes report the raw `Φ_H`/`Φ_L` of
/// `Evaluator::eval_dual`, the DTR incumbent under the deployment it
/// was searched for; more classes report the objective's components
/// from one full-backend `KClassBatchEvaluator` (an incremental base
/// would have nothing to repair from).
fn price(
    topo: &Topology,
    demands: &MultiDemand,
    objective: &ObjectiveSpec,
    deployment: Option<&DeploymentSet>,
    found: [&Found; 2],
) -> [SchemeReport; 2] {
    if objective.class_count() > 2 {
        let mut evaluator = KClassBatchEvaluator::new(
            topo,
            demands.classes.iter().collect(),
            objective,
            BackendKind::Full,
        )
        .expect("manifest validated");
        found.map(|f| {
            let eval = evaluator.eval(&f.weights);
            let rest = eval.cost.as_slice()[1..].iter().sum();
            scheme_report(topo, eval.cost.get(0), rest, &eval.loads, f)
        })
    } else {
        let pair = demand_pair(demands);
        let two_class = objective
            .as_two_class()
            .expect("two classes map onto the two-class objective");
        let mut evaluator = Evaluator::new(topo, &pair, two_class);
        let mut report = |dep: Option<&DeploymentSet>, f: &Found| {
            evaluator
                .set_deployment(dep.cloned())
                .expect("manifest validation fences deployment to load-based two-class");
            let eval = evaluator.eval_dual(&dual_weights(&f.weights));
            let loads = [eval.high_loads, eval.low_loads];
            scheme_report(topo, eval.phi_h, eval.phi_l, &loads, f)
        };
        [report(None, found[0]), report(deployment, found[1])]
    }
}

/// Builds one instance and runs both scheme searches (no robustness
/// sweep — see [`SearchedInstance`]): the STR baseline, then DTR
/// warm-started from the baseline incumbent (see module docs) — the
/// comparison reads "what does the second topology buy on top of the
/// single-topology optimum", and the lexicographic searches guarantee
/// the leading cost component never regresses from that start.
pub fn search_incumbents(spec: &ScenarioSpec, smoke: bool) -> SearchedInstance {
    let objective = spec.objective();
    let k = objective.class_count();
    let topo = spec.topology.build();
    let search = spec.search();
    let deployment = spec.deployment_set(topo.node_count());
    // Which searches produce the incumbents: the paper's STR → DTR pair
    // (plain or portfolio) for two classes; for more, STR on the
    // two-class fold and the staged k-class search under the instance's
    // objective spec.
    let (demands, str_found, dtr_found) = if k > 2 {
        let params = search.params(smoke);
        let demands = spec.traffic.build_multi(&topo, k);
        let folded = fold_lower_classes(&demands);
        let str_found = timed(|| {
            let res = StrSearch::new(&topo, &folded, Objective::LoadBased, params).run();
            (vec![res.weights; k], res.trace.evaluations)
        });
        let dtr_found = timed(|| {
            let res = MultiSearch::with_spec(&topo, &demands, &objective, params)
                .expect("manifest validated")
                .with_initial(str_found.weights.clone())
                .run();
            (res.weights, res.trace.evaluations)
        });
        (demands, str_found, dtr_found)
    } else {
        let pair = spec.traffic.build(&topo);
        let str_found = timed(|| run_scheme(&topo, &pair, spec, Scheme::Str, None, None, smoke));
        let start = dual_weights(&str_found.weights);
        let dtr_found = timed(|| {
            run_scheme(
                &topo,
                &pair,
                spec,
                Scheme::Dtr,
                Some(&start),
                deployment.as_ref(),
                smoke,
            )
        });
        let demands = MultiDemand {
            classes: vec![pair.high, pair.low],
        };
        (demands, str_found, dtr_found)
    };
    let [baseline, dtr] = price(
        &topo,
        &demands,
        &objective,
        deployment.as_ref(),
        [&str_found, &dtr_found],
    );
    SearchedInstance {
        topo,
        demands,
        objective,
        str_weights: str_found.weights,
        baseline,
        dtr_weights: dtr_found.weights,
        dtr,
        budget: if smoke {
            "tiny".to_string()
        } else {
            search.budget().to_string()
        },
        deployment,
    }
}

/// Executes one instance end-to-end, failure-policy sweep included
/// (manifest validation fences the sweep to two-class instances).
pub fn run_instance(spec: &ScenarioSpec, smoke: bool) -> InstanceReport {
    let search = spec.search();
    let run = search_incumbents(spec, smoke);
    let robust = match spec.failures() {
        FailurePolicy::None => None,
        policy => {
            let beta = search.beta();
            let pair = demand_pair(&run.demands);
            let mut rev = RobustEvaluator::new(&run.topo, &pair, ScenarioCombine::Blend { beta });
            if let Some(k) = policy.cap() {
                // Cap against a scheme-neutral reference (uniform
                // weights) so both incumbents face the same scenarios.
                let reference = DualWeights::replicated(WeightVector::uniform(&run.topo, 1));
                rev.cap_to_worst(&reference, k);
            }
            let rc_dtr = rev.eval(&dual_weights(&run.dtr_weights));
            let rc_str = rev.eval(&dual_weights(&run.str_weights));
            Some(RobustReport {
                scenarios: rev.scenario_count(),
                beta,
                dtr: rc_dtr,
                baseline: rc_str,
                r_h_worst: cost_ratio(rc_str.worst.primary, rc_dtr.worst.primary),
                r_l_worst: cost_ratio(rc_str.worst.secondary, rc_dtr.worst.secondary),
            })
        }
    };
    InstanceReport {
        name: spec.name.clone(),
        topology: spec.topology.family_name().to_string(),
        traffic: spec.traffic.family.name().to_string(),
        classes: run.objective.class_count(),
        objective: run.objective.summary(),
        nodes: run.topo.node_count(),
        links: run.topo.link_count(),
        total_demand: run.demands.total_volume(),
        high_fraction: run.demands.fraction(0),
        budget: run.budget,
        portfolio: search.portfolio(),
        deployment: run.deployment.as_ref().map(DeploymentSet::upgraded_nodes),
        r_h: cost_ratio(run.baseline.phi_h, run.dtr.phi_h),
        r_l: cost_ratio(run.baseline.phi_l, run.dtr.phi_l),
        dtr_high_win: run.dtr.phi_h <= run.baseline.phi_h * (1.0 + 1e-9),
        baseline: run.baseline,
        dtr: run.dtr,
        robust,
    }
}

/// The result-shape invariants a smoke run asserts — CI's guard against
/// the suite silently rotting. Panics with the violated invariant.
pub fn assert_report_shape(r: &InstanceReport) {
    assert!(
        r.nodes >= 3 && r.links >= 6,
        "{}: degenerate instance",
        r.name
    );
    assert!(
        r.total_demand.is_finite() && r.total_demand > 0.0,
        "{}: no offered traffic",
        r.name
    );
    assert!(
        r.high_fraction > 0.0 && r.high_fraction < 1.0,
        "{}: high fraction {} outside (0,1)",
        r.name,
        r.high_fraction
    );
    for (scheme, s) in [("baseline", &r.baseline), ("dtr", &r.dtr)] {
        assert!(
            s.phi_h.is_finite() && s.phi_h >= 0.0 && s.phi_l.is_finite() && s.phi_l >= 0.0,
            "{}/{scheme}: non-finite cost",
            r.name
        );
        assert!(
            s.avg_util > 0.0 && s.avg_util.is_finite(),
            "{}/{scheme}: utilization {} not positive",
            r.name,
            s.avg_util
        );
        assert!(s.evaluations > 0, "{}/{scheme}: search did not run", r.name);
    }
    for (label, ratio) in [("r_h", r.r_h), ("r_l", r.r_l)] {
        assert!(
            (1e-3..=1e3).contains(&ratio),
            "{}: {label} = {ratio} outside the saturated range",
            r.name
        );
    }
    if let Some(rb) = &r.robust {
        assert!(
            rb.scenarios > 0,
            "{}: failure policy selected no scenarios",
            r.name
        );
        for (scheme, c) in [("baseline", &rb.baseline), ("dtr", &rb.dtr)] {
            assert!(
                c.worst.primary >= c.intact.primary - 1e-9,
                "{}/{scheme}: worst-case better than intact",
                r.name
            );
            assert!(
                c.combined.primary.is_finite() && c.combined.secondary.is_finite(),
                "{}/{scheme}: non-finite robust cost",
                r.name
            );
        }
    }
}

/// The corpus instances `cfg` selects, in corpus order — exposed so
/// callers can report an empty selection (a `--only` typo, or `--smoke`
/// on a corpus with no smoke instances) as a friendly error before
/// running anything.
pub fn select<'a>(specs: &'a [ScenarioSpec], cfg: &SuiteCfg) -> Vec<&'a ScenarioSpec> {
    specs
        .iter()
        .filter(|s| !cfg.smoke || s.is_smoke())
        .filter(|s| cfg.admits(&s.name))
        .collect()
}

/// Runs the whole corpus under `cfg`; returns per-instance reports (in
/// corpus order) and the aggregate summary.
///
/// # Panics
/// If `cfg` selects no instances — check with [`select`] first when the
/// selection comes from user input.
pub fn run_suite(specs: &[ScenarioSpec], cfg: &SuiteCfg) -> (Vec<InstanceReport>, SuiteSummary) {
    let start = Instant::now();
    let selected = select(specs, cfg);
    assert!(
        !selected.is_empty(),
        "no corpus instances selected (smoke = {}, only = {:?})",
        cfg.smoke,
        cfg.only
    );

    let mut reports = Vec::with_capacity(selected.len());
    for spec in &selected {
        let report = run_instance(spec, cfg.smoke);
        if cfg.smoke {
            assert_report_shape(&report);
        }
        reports.push(report);
    }

    let geomean = |f: fn(&InstanceReport) -> f64| -> f64 {
        (reports.iter().map(|r| f(r).ln()).sum::<f64>() / reports.len() as f64).exp()
    };
    let summary = SuiteSummary {
        names: reports.iter().map(|r| r.name.clone()).collect(),
        smoke: cfg.smoke,
        all_dtr_high_wins: reports.iter().all(|r| r.dtr_high_win),
        geomean_r_h: geomean(|r| r.r_h),
        geomean_r_l: geomean(|r| r.r_l),
        elapsed_s: start.elapsed().as_secs_f64(),
    };
    (reports, summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{SearchSpec, TopologySpec, TrafficSpec};
    use dtr_traffic::TrafficFamily;

    fn spec(name: &str, smoke: bool) -> ScenarioSpec {
        ScenarioSpec {
            name: name.into(),
            description: None,
            smoke: Some(smoke),
            topology: TopologySpec::Random {
                nodes: 8,
                links: 32,
                seed: 3,
            },
            traffic: TrafficSpec {
                family: TrafficFamily::Gravity,
                f: None,
                k: Some(0.2),
                model: None,
                scale: Some(3.0),
                seed: Some(3),
                fractions: None,
                densities: None,
            },
            failures: Some(dtr_routing::FailurePolicy::AllSingleDuplex),
            search: Some(SearchSpec {
                budget: Some("tiny".into()),
                seed: Some(5),
                beta: None,
                portfolio: None,
            }),
            objective: None,
            deployment: None,
        }
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(cost_ratio(0.0, 0.0), 1.0);
        assert!((cost_ratio(10.0, 5.0) - 2.0).abs() < 1e-6);
        assert_eq!(cost_ratio(10.0, 0.0), 1e3, "saturates, not infinite");
        assert_eq!(cost_ratio(0.0, 10.0), 1e-3);
    }

    #[test]
    fn instance_runs_end_to_end_with_robustness() {
        let r = run_instance(&spec("mini", true), true);
        assert_report_shape(&r);
        assert_eq!(r.name, "mini");
        assert_eq!(r.topology, "random");
        assert_eq!(r.nodes, 8);
        let rb = r.robust.expect("AllSingleDuplex policy must evaluate");
        assert!(rb.scenarios > 0);
        assert_eq!(rb.beta, 0.5);
    }

    #[test]
    fn partial_deployment_instance_runs_and_records_the_placement() {
        let mut s = spec("partial", true);
        s.failures = None; // deployment and failure sweeps don't combine
        s.deployment = Some(crate::spec::DeploymentSpec {
            upgraded: vec![0, 2, 5],
        });
        s.validate().unwrap();
        let r = run_instance(&s, true);
        assert_report_shape(&r);
        assert_eq!(r.deployment.as_deref(), Some(&[0u32, 2, 5][..]));
        assert!(r.robust.is_none());
        // The DTR search is warm-started from the (deployment-invariant)
        // baseline and only accepts lexicographic improvements, so the
        // high class never regresses even mid-migration.
        assert!(r.dtr_high_win);
        // A fully-listed deployment normalizes away: bit-identical to
        // the plain instance, including its report.
        let mut full = spec("partial", true);
        full.failures = None;
        full.deployment = Some(crate::spec::DeploymentSpec {
            upgraded: (0..8).collect(),
        });
        let plain = {
            let mut p = spec("partial", true);
            p.failures = None;
            p
        };
        let rf = run_instance(&full, true);
        let rp = run_instance(&plain, true);
        // The full set normalizes away before the report is built, so
        // the report shows no deployment at all…
        assert_eq!(rf.deployment, None);
        // …and wall-clock aside, the whole report is bit-identical.
        let strip = |mut r: InstanceReport| {
            r.baseline.elapsed_s = 0.0;
            r.dtr.elapsed_s = 0.0;
            r
        };
        assert_eq!(strip(rf), strip(rp));
    }

    #[test]
    fn worstk_policy_caps_the_scenario_set() {
        let mut s = spec("capped", true);
        s.failures = Some(dtr_routing::FailurePolicy::WorstK { k: 3 });
        let r = run_instance(&s, true);
        assert_eq!(r.robust.unwrap().scenarios, 3);
    }

    #[test]
    fn suite_smoke_filters_and_summarizes() {
        let specs = vec![spec("one", true), spec("two", false)];
        let (reports, summary) = run_suite(
            &specs,
            &SuiteCfg {
                smoke: true,
                only: None,
            },
        );
        assert_eq!(reports.len(), 1, "smoke selects only smoke instances");
        assert_eq!(summary.names, vec!["one"]);
        assert!(summary.smoke);
        assert!(summary.geomean_r_h > 0.0 && summary.geomean_r_l > 0.0);
        // The filter narrows further.
        let (reports, _) = run_suite(
            &specs,
            &SuiteCfg {
                smoke: false,
                only: Some("two".into()),
            },
        );
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].name, "two");
    }

    #[test]
    fn reports_serialize_to_json() {
        let r = run_instance(&spec("json", true), true);
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: InstanceReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn two_class_sla_objective_threads_through_the_searches() {
        let mut s = spec("sla2", true);
        s.failures = None;
        s.objective = Some(dtr_cost::ObjectiveSpec::from(
            dtr_core::Objective::SlaBased(dtr_cost::SlaParams::default()),
        ));
        let r = run_instance(&s, true);
        assert_report_shape(&r);
        assert_eq!(r.classes, 2);
        assert_eq!(r.objective, "sla:25ms,load");
    }

    #[test]
    fn k_class_instance_runs_end_to_end() {
        let mut s = spec("tri", true);
        s.failures = None;
        s.objective = Some(dtr_cost::ObjectiveSpec::uniform_sla(
            3,
            dtr_cost::SlaParams::default(),
        ));
        s.validate().unwrap();
        let r = run_instance(&s, true);
        assert_report_shape(&r);
        assert_eq!(r.classes, 3);
        assert_eq!(r.objective, "sla:25ms,sla:25ms,load");
        assert!(r.robust.is_none(), "k-class instances skip the sweep");
        // The warm start makes the leading component a never-regress
        // guarantee, so the paper's qualitative gate holds by
        // construction.
        assert!(r.dtr_high_win);
        let text = serde_json::to_string_pretty(&r).unwrap();
        let back: InstanceReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn folding_the_lower_classes_preserves_volume() {
        let mut s = spec("agg", true);
        s.failures = None;
        s.objective = Some(dtr_cost::ObjectiveSpec::load(4));
        let topo = s.topology.build();
        let demands = s.traffic.build_multi(&topo, 4);
        let agg = fold_lower_classes(&demands);
        assert!((agg.total_volume() - demands.total_volume()).abs() < 1e-9);
        assert_eq!(agg.high, demands.classes[0]);
    }

    #[test]
    fn portfolio_mode_runs() {
        let mut s = spec("folio", true);
        s.failures = None;
        s.search = Some(SearchSpec {
            budget: Some("tiny".into()),
            seed: Some(2),
            beta: None,
            portfolio: Some(true),
        });
        let r = run_instance(&s, true);
        assert_report_shape(&r);
        assert!(r.portfolio);
        assert!(r.dtr.evaluations > 0);
    }
}
