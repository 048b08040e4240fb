//! # dtr-multi — k-class strict-priority multi-topology routing
//!
//! The paper restricts itself to **two** topologies ("In our
//! investigation, we limit ourselves to two topologies", §1) while the
//! underlying MTR standard supports many. This crate generalizes the
//! formulation and Algorithm 1 to `k` strictly ordered service classes:
//!
//! - **Demands** ([`MultiDemand`]): one traffic matrix per class,
//!   generated with the paper's high-priority coupling rule per class.
//! - **Queueing model and objective**: class `i` is served only when
//!   classes `0..i` are idle, so it sees the cascading residual capacity
//!   `C̃_i = max(C − Σ_{j<i} load_j, 0)`; the objective is the
//!   lexicographic k-tuple [`dtr_cost::LexCost`] whose component `i` is
//!   class i's `Φ` or SLA penalty `Λ` under a [`dtr_cost::ObjectiveSpec`].
//!   This crate holds no evaluator of its own: every cost comes from
//!   [`dtr_engine::KClassBatchEvaluator`], the one k-class kernel.
//! - **Search** ([`MultiSearch`]): the natural extension of Algorithm 1 —
//!   optimize class 0's weights first, then class 1's with class 0
//!   frozen, …, then a joint refinement pass rotating `FindL`-style moves
//!   across all classes. Priority isolation makes each stage's
//!   subproblem independent of every lower class, exactly as in the
//!   2-class case.
//!
//! With `k = 2` the kernel reproduces the paper's two-class evaluator
//! bit for bit (cross-checked in `dtr-engine`); `k = 1` is rejected with
//! [`dtr_cost::ObjectiveError::TooFewClasses`].

pub mod demand;
pub mod search;

pub use demand::{MultiDemand, MultiTrafficCfg};
pub use search::{MultiResult, MultiSearch};

use dtr_cost::{ObjectiveError, ObjectiveSpec};
use dtr_engine::{BackendKind, KClassBatchEvaluator};
use dtr_graph::Topology;

/// The name `benchmark/layers/src/adapter.rs` still imports. What is
/// left is a constructor that binds a [`MultiDemand`]'s matrices to the
/// kernel; delete it once the adapter names
/// [`KClassBatchEvaluator`] itself.
pub struct MultiEvaluator;

impl MultiEvaluator {
    /// `KClassBatchEvaluator::new` over `demands`' matrices, on the full
    /// backend: callers evaluate unrelated settings once each, which
    /// leaves an incremental base nothing to repair from.
    pub fn with_spec<'a>(
        topo: &'a Topology,
        demands: &'a MultiDemand,
        spec: &ObjectiveSpec,
    ) -> Result<KClassBatchEvaluator<'a>, ObjectiveError> {
        KClassBatchEvaluator::new(
            topo,
            demands.classes.iter().collect(),
            spec,
            BackendKind::Full,
        )
    }
}
