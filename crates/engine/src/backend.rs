//! The [`EvalBackend`] trait and its two implementations.
//!
//! A backend is bound to one (or, for single-topology routing, two)
//! traffic matrices and answers one question: *what loads does candidate
//! weight vector `w` produce?* — always relative to a **base** weight
//! vector that tracks the search's current solution.
//!
//! - [`FullBackend`] runs [`LoadCalculator::route`], the evaluator's
//!   routing pass (one reverse Dijkstra and load push per destination),
//!   per candidate; batches fan out across cores with rayon (each
//!   candidate is independent). It is the equivalence reference for
//!   the incremental backend's repair.
//! - [`IncrementalBackend`] maintains per-destination DAGs and load
//!   contributions at the base and repairs only the destinations a
//!   candidate's one-or-two weight deltas can affect (see
//!   [`crate::dynspf`]). Candidates whose delta count exceeds
//!   [`IncrementalBackend::MAX_DELTAS`] (diversification jumps) fall
//!   back to a full per-candidate evaluation. Above
//!   [`crate::PAR_MIN_WORK`] a batch fans out over the caller and idle
//!   pool workers, one evaluation scratch each (see [`crate::state`]).
//!   A failure sweep is the same repair with each scenario's down links
//!   removed after the weight deltas, fanned out over the scenarios; it
//!   never moves the base.
//!
//! Both produce bit-identical loads for identical inputs; the engine's
//! equivalence proptests enforce this.

use crate::state::{CandidateEval, FlowState, WorkStats};
use dtr_graph::{FlatTopo, LinkMask, NodeId, Topology, WeightVector};
use dtr_routing::{DagSource, FailureScenario, LoadCalculator};
use dtr_traffic::TrafficMatrix;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Which evaluation backend a search should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum BackendKind {
    /// Recompute all shortest paths per candidate.
    Full,
    /// Dynamic-SPF repair of only the affected destinations.
    #[default]
    Incremental,
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "full" => Ok(BackendKind::Full),
            "incremental" => Ok(BackendKind::Incremental),
            other => Err(format!("unknown backend {other:?} (full|incremental)")),
        }
    }
}

/// Per-class candidate evaluation behind a common interface.
pub trait EvalBackend {
    /// Evaluates a batch of candidates against the current base,
    /// returning per-candidate [`CandidateEval`]s in input order.
    /// `want_dags` asks for per-destination DAGs of each candidate (the
    /// SLA walk and the hybrid low push read them); without it the DAG
    /// lists are empty.
    fn eval_batch(&mut self, cands: &[WeightVector], want_dags: bool) -> Vec<CandidateEval>;

    /// Evaluates `cand` under every failure scenario's link-up mask,
    /// returning one [`CandidateEval`] per scenario in input order.
    /// Loads are bit-identical to
    /// [`dtr_routing::LoadCalculator::class_loads_masked`] of `cand` on
    /// each mask; the `dags` lists are empty (post-failure evaluation is
    /// load-only — see `dtr-core`'s robust module). The base is
    /// unchanged when the call returns.
    fn eval_scenarios(
        &mut self,
        cand: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<CandidateEval>;

    /// Moves the base weight vector (the search accepted a move or
    /// diversified).
    fn rebase(&mut self, new_base: &WeightVector);

    /// The current base.
    fn base(&self) -> &WeightVector;

    /// Which backend this is.
    fn kind(&self) -> BackendKind;

    /// Deterministic work counters since construction. All zero for a
    /// backend that keeps no incremental state.
    fn work_stats(&self) -> WorkStats {
        WorkStats::default()
    }
}

/// Full recomputation per candidate, parallel over the batch.
pub struct FullBackend<'a> {
    flat: FlatTopo,
    matrices: Vec<&'a TrafficMatrix>,
    base: WeightVector,
}

impl<'a> FullBackend<'a> {
    /// Binds `matrices` routed on `base`.
    pub fn new(topo: &'a Topology, matrices: Vec<&'a TrafficMatrix>, base: WeightVector) -> Self {
        FullBackend {
            flat: FlatTopo::new(topo),
            matrices,
            base,
        }
    }
}

/// Full evaluation of one candidate (also the fallback path of the
/// incremental backend): [`LoadCalculator::route`], the routing pass
/// every full load computation runs, on `w` with the links `mask` marks
/// down removed (`None` keeps all). With `want_dags`, a DAG for every
/// destination, with demand or not.
pub fn full_candidate_eval(
    flat: &FlatTopo,
    matrices: &[&TrafficMatrix],
    w: &WeightVector,
    mask: Option<&LinkMask>,
    want_dags: bool,
) -> CandidateEval {
    let (spf, mut dags) = (DagSource::Spf(w.as_slice(), mask), Vec::new());
    let loads = LoadCalculator::new().route(flat, spf, matrices, want_dags.then_some(&mut dags));
    let dags = (dags.into_iter().enumerate())
        .map(|(t, dag)| (NodeId(t as u32), Arc::new(dag)))
        .collect();
    CandidateEval { loads, dags }
}

/// One masked [`full_candidate_eval`] of `w` per scenario, fanned out
/// like a candidate batch (the scenarios are independent): the full
/// backend's sweep and the incremental backend's fallback.
fn full_scenarios_eval(
    flat: &FlatTopo,
    matrices: &[&TrafficMatrix],
    w: &WeightVector,
    scenarios: &[FailureScenario],
) -> Vec<CandidateEval> {
    scenarios
        .par_iter()
        .map(|sc| {
            let mask = LinkMask::from_up_slice(&sc.link_up);
            full_candidate_eval(flat, matrices, w, Some(&mask), false)
        })
        .collect()
}

impl<'a> EvalBackend for FullBackend<'a> {
    fn eval_batch(&mut self, cands: &[WeightVector], want_dags: bool) -> Vec<CandidateEval> {
        cands
            .par_iter()
            .map(|w| full_candidate_eval(&self.flat, &self.matrices, w, None, want_dags))
            .collect()
    }

    fn eval_scenarios(
        &mut self,
        cand: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<CandidateEval> {
        full_scenarios_eval(&self.flat, &self.matrices, cand, scenarios)
    }

    fn rebase(&mut self, new_base: &WeightVector) {
        self.base = new_base.clone();
    }

    fn base(&self) -> &WeightVector {
        &self.base
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Full
    }
}

/// Dynamic-SPF incremental evaluation.
pub struct IncrementalBackend<'a> {
    state: FlowState<'a>,
    matrices: Vec<&'a TrafficMatrix>,
}

impl<'a> IncrementalBackend<'a> {
    /// Largest per-candidate delta the repair path handles; beyond this
    /// (diversification perturbs ~5% of all links) a full evaluation is
    /// both simpler and faster. Neighborhood moves touch ≤ 2 links.
    pub const MAX_DELTAS: usize = 8;

    /// Binds `matrices` routed on `base` and builds the initial DAGs —
    /// with `all_dests`, for every destination (see [`FlowState::new`]).
    pub fn new(
        topo: &'a Topology,
        matrices: Vec<&'a TrafficMatrix>,
        base: WeightVector,
        all_dests: bool,
    ) -> Self {
        IncrementalBackend {
            state: FlowState::new(topo, matrices.clone(), base, all_dests),
            matrices,
        }
    }
}

impl<'a> EvalBackend for IncrementalBackend<'a> {
    fn eval_batch(&mut self, cands: &[WeightVector], want_dags: bool) -> Vec<CandidateEval> {
        let evals = self.state.eval_batch(cands, Self::MAX_DELTAS, want_dags);
        evals
            .into_iter()
            .zip(cands)
            .map(|(ev, w)| {
                // `None`: a diversification-sized jump, evaluated in full.
                ev.unwrap_or_else(|| {
                    full_candidate_eval(self.state.flat(), &self.matrices, w, None, want_dags)
                })
            })
            .collect()
    }

    fn eval_scenarios(
        &mut self,
        cand: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<CandidateEval> {
        let masks: Vec<&[bool]> = scenarios.iter().map(|sc| &sc.link_up[..]).collect();
        match self.state.eval_masked(cand, &masks, Self::MAX_DELTAS) {
            Some(per_mask) => per_mask
                .into_iter()
                .map(|loads| CandidateEval {
                    loads,
                    dags: Vec::new(),
                })
                .collect(),
            // A diversification-sized jump, evaluated in full.
            None => full_scenarios_eval(self.state.flat(), &self.matrices, cand, scenarios),
        }
    }

    fn rebase(&mut self, new_base: &WeightVector) {
        self.state.rebase(new_base, Self::MAX_DELTAS);
    }

    fn base(&self) -> &WeightVector {
        self.state.base()
    }

    fn kind(&self) -> BackendKind {
        BackendKind::Incremental
    }

    fn work_stats(&self) -> WorkStats {
        self.state.work_stats()
    }
}

/// Constructs a backend of `kind`.
pub fn make_backend<'a>(
    kind: BackendKind,
    topo: &'a Topology,
    matrices: Vec<&'a TrafficMatrix>,
    base: WeightVector,
) -> Box<dyn EvalBackend + 'a> {
    match kind {
        BackendKind::Full => Box::new(FullBackend::new(topo, matrices, base)),
        BackendKind::Incremental => Box::new(IncrementalBackend::new(topo, matrices, base, false)),
    }
}
