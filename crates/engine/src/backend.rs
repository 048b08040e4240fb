//! The [`EvalBackend`] trait and its two implementations.
//!
//! A backend is bound to one (or, for single-topology routing, two)
//! traffic matrices and answers one question: *what loads does candidate
//! weight vector `w` produce?* — always relative to a **base** weight
//! vector that tracks the search's current solution.
//!
//! - [`FullBackend`] recomputes every destination's reverse-Dijkstra and
//!   load push per candidate, exactly like
//!   [`dtr_routing::LoadCalculator`] (on `ShortestPathDag`s, flattened
//!   only when handed out); batches fan out across cores with rayon
//!   (each candidate is independent). It is the equivalence reference.
//! - [`IncrementalBackend`] maintains per-destination DAGs and load
//!   contributions at the base and repairs only the destinations a
//!   candidate's one-or-two weight deltas can affect (see
//!   [`crate::dynspf`]). Candidates whose delta count exceeds
//!   [`IncrementalBackend::MAX_DELTAS`] (diversification jumps) fall
//!   back to a full per-candidate evaluation. Above
//!   [`crate::PAR_MIN_WORK`] a batch fans out over the caller and idle
//!   pool workers, one evaluation scratch each (see [`crate::state`]).
//!
//! Both produce bit-identical loads for identical inputs; the engine's
//! equivalence proptests enforce this.

use crate::flat::{FlatDag, FlatTopo};
use crate::state::{CandidateEval, FlowState, WorkStats};
use dtr_graph::{NodeId, ShortestPathDag, SpfWorkspace, Topology, WeightVector};
use dtr_routing::{push_demand_down_dag, ClassLoads, FailureScenario};
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
            "incremental" | "incr" => Ok(BackendKind::Incremental),
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
    topo: &'a Topology,
    /// The mirror the handed-out DAGs are flattened onto.
    flat: FlatTopo,
    matrices: Vec<&'a TrafficMatrix>,
    base: WeightVector,
}

impl<'a> FullBackend<'a> {
    /// Binds `matrices` routed on `base`.
    pub fn new(topo: &'a Topology, matrices: Vec<&'a TrafficMatrix>, base: WeightVector) -> Self {
        FullBackend {
            topo,
            flat: FlatTopo::new(topo),
            matrices,
            base,
        }
    }

    /// One full evaluation: the exact `LoadCalculator::accumulate` walk.
    fn eval_one(&self, w: &WeightVector, want_dags: bool) -> CandidateEval {
        let flat = want_dags.then_some(&self.flat);
        full_candidate_eval(self.topo, &self.matrices, w, flat)
    }
}

/// Shared full-evaluation walk (also the fallback path of the
/// incremental backend): identical iteration order and arithmetic to
/// [`dtr_routing::LoadCalculator::accumulate`]. With `dags_on`, a DAG
/// for every destination, with demand or not, flattened onto that
/// mirror of `topo`.
pub fn full_candidate_eval(
    topo: &Topology,
    matrices: &[&TrafficMatrix],
    w: &WeightVector,
    dags_on: Option<&FlatTopo>,
) -> CandidateEval {
    full_candidate_eval_masked(topo, matrices, w, None, dags_on)
}

/// [`full_candidate_eval`] with down links masked out (`link_up[l] ==
/// false` removes link `l`) — identical iteration order and arithmetic
/// to [`dtr_routing::LoadCalculator::class_loads_masked`]. The full
/// backend's per-scenario path.
pub fn full_candidate_eval_masked(
    topo: &Topology,
    matrices: &[&TrafficMatrix],
    w: &WeightVector,
    link_up: Option<&[bool]>,
    dags_on: Option<&FlatTopo>,
) -> CandidateEval {
    let mut ws = SpfWorkspace::new();
    let mut node_flow: Vec<f64> = Vec::new();
    let mut loads: Vec<ClassLoads> = matrices
        .iter()
        .map(|_| vec![0.0; topo.link_count()])
        .collect();
    let mut dags: Vec<(NodeId, Arc<FlatDag>)> = Vec::new();
    for t in topo.nodes() {
        let any = matrices
            .iter()
            .any(|m| m.demands_to(t.index()).next().is_some());
        if !any && dags_on.is_none() {
            continue;
        }
        let dag = ShortestPathDag::compute_with(topo, w, t, link_up, &mut ws);
        for (m, out) in matrices.iter().zip(loads.iter_mut()) {
            if m.demands_to(t.index()).next().is_none() {
                continue;
            }
            push_demand_down_dag(topo, &dag, m, t, &mut node_flow, out);
        }
        if let Some(flat) = dags_on {
            dags.push((t, Arc::new(FlatDag::from_dag(flat, &dag))));
        }
    }
    CandidateEval { loads, dags }
}

impl<'a> EvalBackend for FullBackend<'a> {
    fn eval_batch(&mut self, cands: &[WeightVector], want_dags: bool) -> Vec<CandidateEval> {
        cands
            .par_iter()
            .map(|w| self.eval_one(w, want_dags))
            .collect()
    }

    fn eval_scenarios(
        &mut self,
        cand: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<CandidateEval> {
        // Scenarios are independent full evaluations; fan out like a
        // candidate batch.
        scenarios
            .par_iter()
            .map(|sc| {
                full_candidate_eval_masked(self.topo, &self.matrices, cand, Some(&sc.link_up), None)
            })
            .collect()
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
    topo: &'a Topology,
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
            topo,
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
                    let flat = want_dags.then(|| self.state.flat());
                    full_candidate_eval(self.topo, &self.matrices, w, flat)
                })
            })
            .collect()
    }

    fn eval_scenarios(
        &mut self,
        cand: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<CandidateEval> {
        // Move the state onto the candidate (a 1–2 link repair on the
        // search's hot path), sweep every scenario against that one
        // intact state, then move back. Rebases are exact, so the
        // round trip leaves the base state structurally identical.
        let saved = self.state.base().clone();
        self.state.rebase(cand, Self::MAX_DELTAS);
        let out = scenarios
            .iter()
            .map(|sc| CandidateEval {
                loads: self.state.eval_mask(&sc.link_up),
                dags: Vec::new(),
            })
            .collect();
        self.state.rebase(&saved, Self::MAX_DELTAS);
        out
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
