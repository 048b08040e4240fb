//! Every `dtr_*` item this benchmark touches is named here and nowhere
//! else. When a crate behind it is merged, renamed or deleted (ROADMAP
//! item 1), this one file is the follow-up; the probes, the replays and
//! the metric names stay.

pub use dtr_core::{
    DtrSearch, PortfolioMode, PortfolioParams, PortfolioSearch, ReoptSession, RobustEvaluator,
    RobustSearch, ScenarioCombine, Scheme, SearchParams, StrSearch, StrategyKind,
};
pub use dtr_cost::{phi, Objective, ObjectiveSpec, SlaParams};
pub use dtr_daemon::{serve_tcp, Daemon, DaemonCfg, EventAction, Reply, Request, IDLE_STEP_ITERS};
pub use dtr_engine::{make_backend, BackendKind, BatchEvaluator, KClassBatchEvaluator};
pub use dtr_graph::weights::DualWeights;
pub use dtr_graph::{LinkId, NodeId, ShortestPathDag, Topology, WeightVector};
pub use dtr_mtr::{deployment_cost, MtrNetwork};
pub use dtr_multi::{MultiDemand, MultiEvaluator, MultiSearch, MultiTrafficCfg};
pub use dtr_routing::{
    survivable_duplex_failures, DeploymentSet, Evaluation, Evaluator, FailurePolicy,
    FailureScenario, LoadCalculator,
};
pub use dtr_scenario::{
    generate_churn, load_corpus, run_instance, ChurnAction, ChurnCfg, ScenarioSpec,
};
pub use dtr_sim::{DesBackend, FluidSim, SimBackend};
pub use dtr_traffic::{DemandSet, TrafficCfg, TrafficMatrix};

/// The two-class evaluator the daemon and the suite reports use.
pub fn evaluator<'a>(
    topo: &'a Topology,
    demands: &'a DemandSet,
    objective: Objective,
) -> Evaluator<'a> {
    Evaluator::new(topo, demands, objective)
}

/// The incumbent's evaluation under a link mask, as `dtrd` computes it:
/// the full evaluator while every link is up, masked per-class loads
/// assembled by the same evaluator otherwise.
pub fn eval_under_mask(
    topo: &Topology,
    demands: &DemandSet,
    objective: Objective,
    w: &DualWeights,
    link_up: &[bool],
) -> Evaluation {
    let mut ev = evaluator(topo, demands, objective);
    if link_up.iter().all(|&up| up) {
        return ev.eval_dual(w);
    }
    let mut calc = LoadCalculator::new();
    let high = calc.class_loads_masked(topo, &w.high, link_up, &demands.high);
    let low = calc.class_loads_masked(topo, &w.low, link_up, &demands.low);
    ev.assemble(high, low, &w.high)
}

/// A fresh reoptimization session at search-stream position `steps` —
/// what `dtrd` holds between events (`Status.steps` is the position).
pub fn session_at(
    incumbent: DualWeights,
    objective: Objective,
    params: SearchParams,
    steps: u64,
) -> ReoptSession {
    let mut session = ReoptSession::new(incumbent, objective, params, Scheme::Dtr);
    session.resume_at(steps);
    session
}

/// The manifest of a generated `Random` instance, for timing
/// `TopologySpec::build` + `TrafficSpec::build` where a workload has no
/// manifest of its own.
pub fn random_spec(nodes: usize, links: usize, scale: f64, seed: u64) -> ScenarioSpec {
    let text = format!(
        "{{\"name\":\"reference\",\"topology\":{{\"Random\":{{\"nodes\":{nodes},\"links\":{links},\"seed\":{seed}}}}},\
         \"traffic\":{{\"family\":\"Gravity\",\"scale\":{scale:?},\"seed\":{seed}}},\
         \"search\":{{\"budget\":\"tiny\",\"seed\":{seed}}}}}"
    );
    serde_json::from_str(&text).expect("a well-formed manifest")
}
