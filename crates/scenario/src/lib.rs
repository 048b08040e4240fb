//! # dtr-scenario — the declarative scenario corpus
//!
//! The paper evaluates dual-topology routing on three hand-picked
//! instances; the corpus generalizes that to *any* combination of
//! topology family, traffic family, failure policy and search budget,
//! described declaratively so every workload is reproducible and
//! CI-gateable:
//!
//! - [`ScenarioSpec`] — one serde-backed manifest: a topology family +
//!   parameters ([`TopologySpec`]), a two-class traffic family
//!   ([`TrafficSpec`]), a failure-scenario policy
//!   ([`dtr_routing::FailurePolicy`]) and a search configuration
//!   ([`SearchSpec`]);
//! - [`load_corpus`] — reads a directory of `*.json` manifests (the
//!   checked-in `corpus/` at the repository root) into validated specs;
//! - [`run_suite`] — executes each instance end-to-end: an STR
//!   (single-topology) baseline search and a DTR search at identical
//!   budgets, optional robustness evaluation over the instance's
//!   failure policy, and one machine-readable [`InstanceReport`] per
//!   instance plus an aggregate [`SuiteSummary`].
//!
//! The §5.2 ratio convention ([`cost_ratio`]) lives in `dtr_core::upgrade`
//! and is re-exported here; `dtr-experiments` uses it too, so corpus
//! reports and paper figures read the same way: `R > 1` means DTR wins.

pub mod churn;
pub mod corpus;
pub mod spec;
pub mod suite;
pub mod validate;

pub use churn::{generate_churn, ChurnAction, ChurnCfg, ChurnEvent, ChurnTrace, ChurnTraceError};
pub use corpus::{load_corpus, load_spec, ScenarioError};
pub use spec::{DeploymentSpec, ScenarioSpec, SearchSpec, TopologySpec, TrafficSpec};
pub use suite::{
    cost_ratio, run_instance, run_suite, search_incumbents, select, InstanceReport, RobustReport,
    SchemeReport, SearchedInstance, SuiteCfg, SuiteSummary,
};
pub use validate::{
    assert_validation_shape, run_validation, summarize, validate_instance, ClassAgreement,
    EnvelopeSpec, SchemeValidation, TrappedDemand, ValidateCfg, ValidationReport,
    ValidationSummary,
};
