//! # dtr-routing — the ECMP routing engine and objective evaluator
//!
//! This crate turns a weight setting into the quantities the paper's
//! heuristics optimize:
//!
//! 1. [`loads`] — per-class link loads. Traffic for each destination is
//!    pushed down the ECMP shortest-path DAG with even splitting at every
//!    hop, exactly as OSPF/IS-IS forwarding does (and as in Fortz–Thorup).
//! 2. [`eval`] — the full objective evaluation: the load-based cost
//!    `A = ⟨Φ_H, Φ_L⟩` with the low-priority class charged against
//!    **residual** capacity (priority queueing, §3), or the SLA-based cost
//!    `S = ⟨Λ, Φ_L⟩` with flow-weighted average end-to-end delays per
//!    high-priority SD pair (Eq. 3–4).
//!
//! The evaluator supports the *incremental* pattern the heuristics need:
//! high- and low-class loads depend only on their own weight vectors, so
//! `FindH` re-routes only the high class (reusing cached low-class loads)
//! and vice versa. Costs are then assembled in `O(|E| + pairs)`.

pub mod cascade;
pub mod deploy;
pub mod eval;
pub mod loads;
pub mod lower_bound;
pub mod scenarios;

pub use cascade::{cascade_classes, ClassCascade};
pub use deploy::{hybrid_low_dag, trapped_flow, DeploymentSet};
pub use eval::{
    sla_evaluation, sla_walk, EvalError, Evaluation, Evaluator, HighSide, LinkRank, PairDelay,
    SlaEvaluation,
};
pub use loads::{push_demand_down_dag, push_demand_down_dag_with, ClassLoads, LoadCalculator};
pub use lower_bound::{dual_lower_bound, frank_wolfe, DualLowerBound, FwParams, FwResult};
pub use scenarios::{
    strongly_connected_under, survivable_duplex_failures, FailurePolicy, FailureScenario,
};
