//! # dtr-engine — incremental-SPF batch evaluation for the weight search
//!
//! The DTR/STR weight searches (`dtr-core`) evaluate candidate weight
//! vectors by the hundreds of thousands (`N = 300 000`, `K = 800 000` in
//! the paper), and every candidate differs from the current solution in
//! only one or two link weights. The seed implementation nevertheless
//! paid a full reverse-Dijkstra per destination per candidate. This
//! crate is the engine that removes that cost:
//!
//! - [`flat`] — arena-indexed structure-of-arrays storage for the hot
//!   path: CSR adjacency ([`flat::FlatTopo`]), flat per-destination
//!   ECMP DAGs ([`flat::FlatDag`]) and `u64`-word bitset link masks
//!   ([`flat::LinkMask`]), keeping candidate evaluation cache-resident
//!   at 1000+ nodes;
//! - [`dynspf`] — Ramalingam–Reps-style dynamic maintenance of the
//!   per-destination ECMP shortest-path DAGs: an O(1) per-destination
//!   filter ([`dynspf::delta_affects_dag`]) plus an affected-region-only
//!   repair ([`dynspf::apply_weight_delta`]);
//! - [`state`] — sparse per-destination load contributions with an
//!   exact-order fold, so patched loads are **bit-identical** to full
//!   evaluation;
//! - [`backend`] — the [`EvalBackend`] trait with [`FullBackend`]
//!   (recompute everything) and [`IncrementalBackend`] (repair only
//!   affected destinations) implementations, both fanning a batch out
//!   over the rayon pool with results identical to one thread;
//! - [`cache`] — an LRU evaluation cache keyed by weight-vector hash,
//!   short-circuiting revisited candidates entirely;
//! - [`BatchEvaluator`] — the facade `dtr-core` drives: per-class batch
//!   evaluation returning the same [`HighSide`] / [`ClassLoads`] /
//!   [`Evaluation`] structures the routing evaluator produces.
//!
//! ## Equivalence contract
//!
//! Both backends produce bit-identical `Evaluation`s for identical
//! inputs (enforced by proptests in `tests/proptests.rs`), so backend
//! choice changes wall-clock time, never search trajectories. See
//! `DESIGN.md` for why this holds and when the incremental backend
//! internally falls back to full evaluation (diversification jumps that
//! perturb ~5% of all weights).

pub mod backend;
pub mod cache;
pub mod dynspf;
pub mod flat;
mod hybrid;
pub mod kclass;
pub mod state;

pub use backend::{
    full_candidate_eval, full_candidate_eval_masked, make_backend, BackendKind, EvalBackend,
    FullBackend, IncrementalBackend,
};
pub use cache::{weight_hash, LruCache};
pub use dynspf::{
    apply_link_down, apply_link_up, apply_weight_delta, delta_affects_dag, link_down_affects_dag,
    DynSpfScratch,
};
pub use flat::{FlatDag, FlatSpfWorkspace, FlatTopo, FlatView, LinkMask};
use hybrid::HybridLows;
pub use kclass::{KClassBatchEvaluator, KClassEvaluation};
pub use state::{CandidateEval, DestState, FlowState, WorkStats, PAR_MIN_WORK};

use dtr_cost::Objective;
use dtr_graph::weights::DualWeights;
use dtr_graph::{NodeId, Topology, WeightVector};
use dtr_routing::{
    sla_evaluation, ClassLoads, DeploymentSet, EvalError, Evaluation, Evaluator, FailureScenario,
    HighSide,
};
use dtr_traffic::{DemandSet, TrafficMatrix};
use std::sync::Arc;

/// One class of a dual weight setting — which vector a
/// [`BatchEvaluator::eval_class_batch`] call moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// The high-priority class, routed on `W^H`.
    High,
    /// The low-priority class, routed on `W^L`.
    Low,
}

impl Class {
    /// This class's vector of `w`.
    pub fn of(self, w: &DualWeights) -> &WeightVector {
        match self {
            Class::High => &w.high,
            Class::Low => &w.low,
        }
    }

    /// This class's vector of `w`, to move it.
    pub fn of_mut(self, w: &mut DualWeights) -> &mut WeightVector {
        match self {
            Class::High => &mut w.high,
            Class::Low => &mut w.low,
        }
    }
}

/// Default LRU capacity per class cache.
const DEFAULT_CACHE_CAPACITY: usize = 512;

/// LRU capacity per moved class under a partial deployment.
const DEPLOYED_CACHE_CAPACITY: usize = 64;

/// What a candidate routes to: its [`HighSide`] when the high class
/// moved, its low loads and its trapped volume.
type Routed = (Option<HighSide>, ClassLoads, f64);

/// The batch candidate evaluator the searches drive.
///
/// Owns one lane (a backend, plus an LRU cache for the per-class sides)
/// per routed side — high class, low class, and the joint
/// (single-topology) pairing — and the underlying [`Evaluator`] used to
/// assemble costs. Backends track a *base* weight vector (the
/// search's current solution); move the base with [`Self::rebase_high`]
/// / [`Self::rebase_low`] / [`Self::rebase_joint`] whenever the search
/// accepts a move, so the incremental backend's repairs stay small.
pub struct BatchEvaluator<'a> {
    evaluator: Evaluator<'a>,
    /// The mirror the lanes' handed-out DAGs index, for the SLA walk.
    flat: FlatTopo,
    kind: BackendKind,
    high: Lane<'a, HighSide>,
    low: Lane<'a, ClassLoads>,
    joint: Lane<'a, Evaluation>,
    /// Under a bound partial deployment, the hybrid low loads of the
    /// lanes' base pair, and per moved class an LRU of routed candidates
    /// keyed by the candidate followed by the other class's vector.
    hybrid: Option<(HybridLows<'a>, [LruCache<Routed>; 2])>,
}

/// One routed side: the backend that routes its candidates and, for the
/// per-class sides, the LRU of the values built from what it routed.
///
/// The backend is constructed on first use. `DtrSearch` never touches
/// the joint lane and `StrSearch` never touches the per-class ones;
/// building eagerly would pay a full SPF sweep per unused side at every
/// search construction (experiments build searches in tight loops).
pub(crate) struct Lane<'a, V> {
    kind: BackendKind,
    topo: &'a Topology,
    matrices: Vec<&'a TrafficMatrix>,
    /// Whether the backend keeps a DAG for every destination, not just
    /// its demand's (the class lanes, under a partial deployment).
    all_dests: bool,
    /// Base tracked while the backend doesn't exist yet.
    base: WeightVector,
    backend: Option<Box<dyn EvalBackend + 'a>>,
    /// `None` for a lane whose candidates are not revisited often
    /// enough to pay for keeping them (the joint lane).
    cache: Option<LruCache<V>>,
}

impl<'a, V: Clone> Lane<'a, V> {
    /// A lane keeping up to `cached` values in its LRU (`None`: no
    /// cache).
    pub(crate) fn new(
        kind: BackendKind,
        topo: &'a Topology,
        matrices: Vec<&'a TrafficMatrix>,
        cached: Option<usize>,
    ) -> Self {
        Lane {
            kind,
            topo,
            matrices,
            all_dests: false,
            base: WeightVector::uniform(topo, 1),
            backend: None,
            cache: cached.map(LruCache::new),
        }
    }

    fn backend(&mut self) -> &mut (dyn EvalBackend + 'a) {
        if self.backend.is_none() {
            let (topo, matrices, base) = (self.topo, self.matrices.clone(), self.base.clone());
            self.backend = Some(match (self.kind, self.all_dests) {
                (BackendKind::Incremental, true) => {
                    Box::new(IncrementalBackend::new(topo, matrices, base, true))
                }
                (kind, _) => make_backend(kind, topo, matrices, base),
            });
        }
        self.backend.as_mut().unwrap().as_mut()
    }

    pub(crate) fn rebase(&mut self, w: &WeightVector) {
        match &mut self.backend {
            Some(b) => b.rebase(w),
            None => self.base = w.clone(),
        }
    }

    /// Sets [`Lane::all_dests`]; the backend is rebuilt at its base on
    /// next use.
    fn set_all_dests(&mut self, all_dests: bool) {
        if let Some(b) = self.backend.take() {
            self.base = b.base().clone();
        }
        self.all_dests = all_dests;
    }

    pub(crate) fn work_stats(&self) -> WorkStats {
        self.backend
            .as_ref()
            .map_or_else(WorkStats::default, |b| b.work_stats())
    }

    /// `(hits, misses)` of the lane's cache; zero without one.
    pub(crate) fn cache_stats(&self) -> (u64, u64) {
        self.cache.as_ref().map_or((0, 0), LruCache::stats)
    }

    /// Evaluates a batch, preserving order: cache first, then the
    /// backend once per distinct miss, `build`ing each value from the
    /// routed candidate and retaining it in the cache, if the lane has
    /// one.
    pub(crate) fn eval(
        &mut self,
        cands: &[WeightVector],
        want_dags: bool,
        mut build: impl FnMut(CandidateEval, &WeightVector) -> V,
    ) -> Vec<V> {
        let mut out: Vec<Option<V>> = match &mut self.cache {
            Some(cache) => cands.iter().map(|w| cache.get(w)).collect(),
            None => cands.iter().map(|_| None).collect(),
        };
        let misses: Vec<usize> = (0..cands.len()).filter(|&i| out[i].is_none()).collect();
        if !misses.is_empty() {
            let (uniq, alias) = dedupe(cands, &misses);
            let miss_cands: Vec<WeightVector> = uniq.iter().map(|&i| cands[i].clone()).collect();
            let evals = self.backend().eval_batch(&miss_cands, want_dags);
            let mut values: Vec<V> = Vec::with_capacity(uniq.len());
            for (&i, ev) in uniq.iter().zip(evals) {
                let value = build(ev, &cands[i]);
                if let Some(cache) = &mut self.cache {
                    cache.put(&cands[i], value.clone());
                }
                values.push(value);
            }
            scatter(&mut out, &misses, &uniq, &alias, values);
        }
        out.into_iter().map(Option::unwrap).collect()
    }
}

impl<'a> BatchEvaluator<'a> {
    /// Binds the problem instance and builds backends of `kind`, all
    /// based at uniform weight 1 (rebase before use if starting
    /// elsewhere).
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        objective: Objective,
        kind: BackendKind,
    ) -> Self {
        let cached = Some(DEFAULT_CACHE_CAPACITY);
        BatchEvaluator {
            evaluator: Evaluator::new(topo, demands, objective),
            flat: FlatTopo::new(topo),
            kind,
            high: Lane::new(kind, topo, vec![&demands.high], cached),
            low: Lane::new(kind, topo, vec![&demands.low], cached),
            joint: Lane::new(kind, topo, vec![&demands.high, &demands.low], None),
            hybrid: None,
        }
    }

    /// The backend kind in use.
    pub fn kind(&self) -> BackendKind {
        self.kind
    }

    /// The underlying cost evaluator (for `finish`, `link_ranks`,
    /// `eval_dual`, …).
    pub fn evaluator(&mut self) -> &mut Evaluator<'a> {
        &mut self.evaluator
    }

    /// The bound topology.
    pub fn topo(&self) -> &'a Topology {
        self.evaluator.topo()
    }

    /// The bound demand set.
    pub fn demands(&self) -> &'a DemandSet {
        self.evaluator.demands()
    }

    /// Whether the SLA walk should reuse backend-provided DAGs. Both
    /// backends can supply them (the full backend computes every DAG for
    /// its load push anyway), which saves the `HighSide` assembly from
    /// re-running one Dijkstra per high destination per candidate.
    fn want_dags(&self) -> bool {
        matches!(self.evaluator.objective(), Objective::SlaBased(_))
    }

    /// Evaluates one high-class candidate.
    pub fn eval_high(&mut self, wh: &WeightVector) -> HighSide {
        self.eval_high_batch(std::slice::from_ref(wh))
            .pop()
            .unwrap()
    }

    /// Evaluates a batch of high-class candidates (cache first, then the
    /// backend for the misses), preserving order.
    pub fn eval_high_batch(&mut self, cands: &[WeightVector]) -> Vec<HighSide> {
        let (want_dags, evaluator, flat) = (self.want_dags(), &mut self.evaluator, &self.flat);
        self.high.eval(cands, want_dags, |mut ev, wh| {
            high_side(evaluator, flat, ev.loads.swap_remove(0), wh, &ev.dags)
        })
    }

    /// Evaluates one low-class candidate.
    pub fn eval_low(&mut self, wl: &WeightVector) -> ClassLoads {
        self.eval_low_batch(std::slice::from_ref(wl)).pop().unwrap()
    }

    /// Evaluates a batch of low-class candidates.
    pub fn eval_low_batch(&mut self, cands: &[WeightVector]) -> Vec<ClassLoads> {
        self.low
            .eval(cands, false, |mut ev, _| ev.loads.swap_remove(0))
    }

    /// Evaluates one joint (single-topology) candidate.
    pub fn eval_joint(&mut self, w: &WeightVector) -> Evaluation {
        self.eval_joint_batch(std::slice::from_ref(w))
            .pop()
            .unwrap()
    }

    /// Evaluates a batch of joint candidates: both classes ride `w`, and
    /// the returned [`Evaluation`] matches `Evaluator::eval_str(w)`
    /// bit-for-bit. The joint lane keeps no cache: single-topology
    /// searches come back to a setting too rarely to pay for one.
    pub fn eval_joint_batch(&mut self, cands: &[WeightVector]) -> Vec<Evaluation> {
        let (want_dags, evaluator, flat) = (self.want_dags(), &mut self.evaluator, &self.flat);
        self.joint.eval(cands, want_dags, |mut ev, w| {
            let low_loads = ev.loads.swap_remove(1);
            let high = high_side(evaluator, flat, ev.loads.swap_remove(0), w, &ev.dags);
            evaluator
                .finish(high, low_loads)
                .expect("high_side fills the SLA walk under SLA objectives")
        })
    }

    /// Binds a partial-deployment model on the underlying evaluator (see
    /// [`dtr_routing::deploy`]); `None` or a full set clears it and
    /// restores the exact legacy paths. Under a partial one both class
    /// lanes keep a DAG for every destination.
    pub fn set_deployment(&mut self, dep: Option<DeploymentSet>) -> Result<(), EvalError> {
        self.evaluator.set_deployment(dep)?;
        let (topo, low) = (self.topo(), &self.demands().low);
        let dep = self.evaluator.deployment().cloned();
        let routed = || [(); 2].map(|_| LruCache::new(DEPLOYED_CACHE_CAPACITY));
        self.hybrid = dep.map(|dep| (HybridLows::new(topo, low, dep), routed()));
        self.high.set_all_dests(self.hybrid.is_some());
        self.low.set_all_dests(self.hybrid.is_some());
        Ok(())
    }

    /// The bound partial deployment, if any.
    pub fn deployment(&self) -> Option<&DeploymentSet> {
        self.evaluator.deployment()
    }

    /// Routes candidates for one class under the bound partial
    /// deployment against the other class's vector in `w`: that class's
    /// LRU first, then [`Self::route_hybrid`] for the misses.
    fn route_deployed(
        &mut self,
        class: Class,
        cands: &[WeightVector],
        w: &DualWeights,
    ) -> Vec<Routed> {
        let fixed = [&w.low, &w.high][class as usize].as_slice();
        let keys: Vec<WeightVector> = (cands.iter())
            .map(|c| WeightVector::from_vec([c.as_slice(), fixed].concat()))
            .collect();
        let (_, caches) = self.hybrid.as_mut().expect("a partial deployment is bound");
        let mut out: Vec<Option<Routed>> =
            keys.iter().map(|k| caches[class as usize].get(k)).collect();
        let misses: Vec<WeightVector> = (cands.iter().zip(&out))
            .filter(|(_, o)| o.is_none())
            .map(|(c, _)| c.clone())
            .collect();
        if !misses.is_empty() {
            let values = self.route_hybrid(class, &misses, w);
            let (_, caches) = self.hybrid.as_mut().unwrap();
            let slots = out.iter_mut().zip(&keys).filter(|(o, _)| o.is_none());
            for ((slot, key), value) in slots.zip(values) {
                caches[class as usize].put(key, value.clone());
                *slot = Some(value);
            }
        }
        out.into_iter().map(Option::unwrap).collect()
    }

    /// Routes [`Self::route_deployed`]'s misses. The other class's lane
    /// is first rebased onto its vector of `w` (a no-op in every search,
    /// which rebases on accept), so both classes' base DAGs — each
    /// lane's base routed as a candidate — come from their lanes, and
    /// the hybrid cache moves to that pair; the moved class's candidate
    /// DAGs come from its backend. Bit-identical to
    /// [`Evaluator::low_loads_deployed`] (see `hybrid`).
    fn route_hybrid(
        &mut self,
        class: Class,
        cands: &[WeightVector],
        w: &DualWeights,
    ) -> Vec<Routed> {
        let base_dags = |lane: &mut dyn EvalBackend| {
            let base = lane.base().clone();
            lane.eval_batch(&[base], true).swap_remove(0).dags
        };
        match class {
            Class::High => self.low.rebase(&w.low),
            Class::Low => self.high.rebase(&w.high),
        }
        let high = base_dags(self.high.backend());
        let low = base_dags(self.low.backend());
        let (hybrid, _) = self.hybrid.as_mut().expect("a partial deployment is bound");
        hybrid.rebase(&high, &low);
        let backend = match class {
            Class::High => self.high.backend(),
            Class::Low => self.low.backend(),
        };
        let evals = backend.eval_batch(cands, true);
        let (evaluator, flat) = (&mut self.evaluator, &self.flat);
        (evals.into_iter().zip(cands))
            .map(|(mut ev, cand)| {
                let (low_loads, trapped) = hybrid.low_loads(class, &ev.dags);
                let high = (class == Class::High).then(|| {
                    let loads = ev.loads.swap_remove(0);
                    high_side(evaluator, flat, loads, cand, &ev.dags)
                });
                (high, low_loads, trapped)
            })
            .collect()
    }

    /// Full evaluation of a dual setting, bit-identical to
    /// [`Evaluator::eval_dual`] (bound partial deployment included).
    pub fn eval_dual(&mut self, w: &DualWeights) -> Evaluation {
        let (high, low_loads, undeliverable) = if self.deployment().is_some() {
            let (high, low_loads, undeliverable) = self
                .route_deployed(Class::High, std::slice::from_ref(&w.high), w)
                .pop()
                .unwrap();
            (high.expect("a high-class batch"), low_loads, undeliverable)
        } else {
            (self.eval_high(&w.high), self.eval_low(&w.low), 0.0)
        };
        self.evaluator
            .finish_deployed(high, low_loads, undeliverable)
            .expect("engine high sides carry the SLA walk")
    }

    /// Evaluates a batch of candidates for one class with the other
    /// class held at `w` — the search stepping pattern, and the
    /// two-class form of [`KClassBatchEvaluator::eval_class_batch`].
    /// `base` must be this evaluator's evaluation of `w`: the unmoved
    /// class's side is read from it instead of being re-routed.
    ///
    /// Under a bound partial deployment a high-class move re-routes the
    /// low class too (legacy nodes forward it on the high DAGs), a
    /// low-class move rides the hybrid DAGs, and trapped demand is
    /// penalized (see [`dtr_routing::deploy`]); without one the moved
    /// class repairs incrementally from its base and nothing else is
    /// touched.
    pub fn eval_class_batch(
        &mut self,
        class: Class,
        cands: &[WeightVector],
        w: &DualWeights,
        base: &Evaluation,
    ) -> Vec<Evaluation> {
        let routed: Vec<Routed> = match (self.deployment().is_some(), class) {
            (true, _) => self.route_deployed(class, cands, w),
            (false, Class::High) => {
                let highs = self.eval_high_batch(cands);
                let with_low = |high| (Some(high), base.low_loads.clone(), 0.0);
                highs.into_iter().map(with_low).collect()
            }
            (false, Class::Low) => {
                let lows = self.eval_low_batch(cands);
                lows.into_iter().map(|loads| (None, loads, 0.0)).collect()
            }
        };
        routed
            .into_iter()
            .map(|(high, low_loads, undeliverable)| {
                let high = high.unwrap_or_else(|| high_side_of(base));
                self.evaluator
                    .finish_deployed(high, low_loads, undeliverable)
                    .expect("engine high sides carry the SLA walk")
            })
            .collect()
    }

    /// Raw per-link loads of the high class under `wh` — no cost
    /// assembly, bit-identical to
    /// [`dtr_routing::LoadCalculator::class_loads`]. The robust search's
    /// intact-evaluation path (it folds loads into per-scenario costs
    /// itself, so the nominal `HighSide` machinery does not apply).
    pub fn high_loads(&mut self, wh: &WeightVector) -> ClassLoads {
        let mut ev = self
            .high
            .backend()
            .eval_batch(std::slice::from_ref(wh), false)
            .pop()
            .unwrap();
        ev.loads.swap_remove(0)
    }

    /// Raw per-link loads of the low class under `wl`.
    pub fn low_loads(&mut self, wl: &WeightVector) -> ClassLoads {
        let mut ev = self
            .low
            .backend()
            .eval_batch(std::slice::from_ref(wl), false)
            .pop()
            .unwrap();
        ev.loads.swap_remove(0)
    }

    /// High-class loads of `wh` under every failure scenario, in input
    /// order — each entry bit-identical to
    /// [`dtr_routing::LoadCalculator::class_loads_masked`] on that
    /// scenario's mask. Uncached: the robust search never revisits a
    /// (candidate, scenario) pair within one run, so a sweep cache
    /// would only pay on the incumbent re-evaluations, which the caller
    /// already avoids.
    pub fn sweep_high(
        &mut self,
        wh: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<ClassLoads> {
        self.high
            .backend()
            .eval_scenarios(wh, scenarios)
            .into_iter()
            .map(|mut ev| ev.loads.swap_remove(0))
            .collect()
    }

    /// Low-class loads of `wl` under every failure scenario.
    pub fn sweep_low(
        &mut self,
        wl: &WeightVector,
        scenarios: &[FailureScenario],
    ) -> Vec<ClassLoads> {
        self.low
            .backend()
            .eval_scenarios(wl, scenarios)
            .into_iter()
            .map(|mut ev| ev.loads.swap_remove(0))
            .collect()
    }

    /// Moves the high-class base (the search accepted a move).
    pub fn rebase_high(&mut self, wh: &WeightVector) {
        self.high.rebase(wh);
    }

    /// Moves the low-class base.
    pub fn rebase_low(&mut self, wl: &WeightVector) {
        self.low.rebase(wl);
    }

    /// Moves the joint base.
    pub fn rebase_joint(&mut self, w: &WeightVector) {
        self.joint.rebase(w);
    }

    /// Moves one class's base (the search accepted a move of `class`).
    pub fn rebase(&mut self, class: Class, w: &WeightVector) {
        match class {
            Class::High => self.rebase_high(w),
            Class::Low => self.rebase_low(w),
        }
    }

    /// `(hits, misses)` summed over the two per-class caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        let (h1, m1) = self.high.cache_stats();
        let (h2, m2) = self.low.cache_stats();
        (h1 + h2, m1 + m2)
    }

    /// Work counters summed over the three backends: how the
    /// incremental backends disposed of each destination of each
    /// candidate (replayed / rebranched / repaired), how many candidates
    /// fell back to a full evaluation, and how many rebases ran — plus,
    /// under a partial deployment, the hybrid low DAGs rebuilt and the
    /// destinations whose cached hybrid loads were replayed. Exact and
    /// repeatable for a given call sequence; the backend counters are
    /// all zero under [`BackendKind::Full`].
    pub fn work_stats(&self) -> WorkStats {
        let mut total = self.high.work_stats();
        total += self.low.work_stats();
        total += self.joint.work_stats();
        if let Some((hybrid, _)) = &self.hybrid {
            total += hybrid.work_stats();
        }
        total
    }
}

/// The high side an evaluation was finished from.
fn high_side_of(ev: &Evaluation) -> HighSide {
    HighSide {
        loads: ev.high_loads.clone(),
        phi_per_link: ev.phi_h_per_link.clone(),
        phi: ev.phi_h,
        sla: ev.sla.clone(),
    }
}

/// Assembles a [`HighSide`] from candidate loads, walking the
/// candidate's DAGs (flat, indexed by `flat`) for the SLA objective when
/// the backend provided them.
fn high_side(
    evaluator: &mut Evaluator<'_>,
    flat: &FlatTopo,
    loads: ClassLoads,
    wh: &WeightVector,
    dags: &[(NodeId, Arc<FlatDag>)],
) -> HighSide {
    match evaluator.objective() {
        Objective::SlaBased(params) if !dags.is_empty() => {
            let (topo, high) = (evaluator.topo(), &evaluator.demands().high);
            let dests = evaluator.high_dests();
            let sla = sla_evaluation(topo, high, dests, &loads, &params, dag_views(flat, dags));
            evaluator.high_side_with_sla(loads, Some(sla))
        }
        _ => evaluator.high_side_from_loads(loads, wh),
    }
}

/// The SLA walk's view of a candidate's DAG towards each destination.
fn dag_views<'d>(
    flat: &'d FlatTopo,
    dags: &'d [(NodeId, Arc<FlatDag>)],
) -> impl Fn(NodeId) -> FlatView<'d> {
    let mut by_node = vec![None; flat.node_count()];
    for (t, dag) in dags {
        by_node[t.index()] = Some(&**dag);
    }
    move |t| {
        FlatView(
            flat,
            by_node[t.index()].expect("backend DAGs cover every walked destination"),
        )
    }
}

/// Deduplicates cache misses within one batch: the neighborhood sampler
/// can draw identical candidates twice in an iteration, and evaluating
/// them once is free coverage. Returns the first-occurrence indices
/// (into `cands`) and, per miss, the position of its representative in
/// that unique list. Quadratic in the miss count, which is bounded by
/// the neighborhood size (≤ a few dozen).
fn dedupe(cands: &[WeightVector], misses: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let mut uniq: Vec<usize> = Vec::with_capacity(misses.len());
    let mut alias: Vec<usize> = Vec::with_capacity(misses.len());
    for &i in misses {
        match uniq.iter().position(|&j| cands[j] == cands[i]) {
            Some(p) => alias.push(p),
            None => {
                alias.push(uniq.len());
                uniq.push(i);
            }
        }
    }
    (uniq, alias)
}

/// Hands the freshly evaluated `values` (one per [`dedupe`]
/// representative) to the batch's output slots: in-batch duplicates get
/// a clone, then each value moves into its representative's slot.
fn scatter<V: Clone>(
    out: &mut [Option<V>],
    misses: &[usize],
    uniq: &[usize],
    alias: &[usize],
    values: Vec<V>,
) {
    for (&i, &p) in misses.iter().zip(alias) {
        if uniq[p] != i {
            out[i] = Some(values[p].clone());
        }
    }
    for (&i, v) in uniq.iter().zip(values) {
        out[i] = Some(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_graph::ShortestPathDag;
    use dtr_traffic::TrafficCfg;

    fn instance(seed: u64) -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
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

    #[test]
    fn backends_agree_on_joint_eval() {
        let (topo, demands) = instance(4);
        let w = WeightVector::uniform(&topo, 2);
        for objective in [Objective::LoadBased, Objective::sla_default()] {
            let mut full = BatchEvaluator::new(&topo, &demands, objective, BackendKind::Full);
            let mut incr =
                BatchEvaluator::new(&topo, &demands, objective, BackendKind::Incremental);
            let a = full.eval_joint(&w);
            let b = incr.eval_joint(&w);
            assert_eq!(a, b);
            // And against the plain evaluator.
            let mut ev = Evaluator::new(&topo, &demands, objective);
            assert_eq!(ev.eval_str(&w), a);
        }
    }

    #[test]
    fn cache_short_circuits_repeats() {
        let (topo, demands) = instance(6);
        let w = WeightVector::uniform(&topo, 1);
        let mut engine = BatchEvaluator::new(
            &topo,
            &demands,
            Objective::LoadBased,
            BackendKind::Incremental,
        );
        let a = engine.eval_low(&w);
        let b = engine.eval_low(&w);
        assert_eq!(a, b);
        let (hits, misses) = engine.cache_stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
    }

    #[test]
    fn the_joint_lane_holds_no_entries() {
        let (topo, demands) = instance(5);
        let mut engine = BatchEvaluator::new(
            &topo,
            &demands,
            Objective::LoadBased,
            BackendKind::Incremental,
        );
        let mut reference = Evaluator::new(&topo, &demands, Objective::LoadBased);
        // Every link differs from the lanes' uniform-1 base, so each
        // routing of `w` is one full fallback.
        let w = WeightVector::uniform(&topo, 3);
        let first = engine.eval_joint(&w);
        assert_eq!(first, reference.eval_str(&w));
        assert_eq!(
            engine.eval_joint_batch(&[w.clone(), w.clone()]),
            [first.clone(), first]
        );
        // Asked three times, routed twice (in-batch duplicates still
        // route once), and nothing counted as a lookup.
        assert!(engine.joint.cache.is_none());
        assert_eq!(engine.work_stats().full_fallbacks, 2);
        assert_eq!(engine.cache_stats(), (0, 0));
        // The per-class lanes keep theirs.
        engine.eval_low(&w);
        engine.eval_low(&w);
        assert_eq!(engine.cache_stats(), (1, 1));
        assert_eq!(engine.work_stats().full_fallbacks, 3);
    }

    #[test]
    fn class_batches_match_eval_dual_of_the_candidate_setting() {
        let (topo, demands) = instance(12);
        let n = topo.node_count();
        let upgraded: Vec<u32> = (0..n as u32).step_by(3).collect();
        let mut w = DualWeights::replicated(WeightVector::uniform(&topo, 2));
        w.low.set(dtr_graph::LinkId(5), 9);
        let cands: Vec<WeightVector> = (0..4u32)
            .map(|i| {
                let mut c = WeightVector::uniform(&topo, 2);
                c.set(dtr_graph::LinkId(i), 6 + i);
                c
            })
            .collect();
        for dep in [None, Some(DeploymentSet::from_upgraded(n, &upgraded))] {
            let mut reference = Evaluator::new(&topo, &demands, Objective::LoadBased);
            reference.set_deployment(dep.clone()).unwrap();
            for kind in [BackendKind::Full, BackendKind::Incremental] {
                let mut engine = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, kind);
                engine.set_deployment(dep.clone()).unwrap();
                let base = engine.eval_dual(&w);
                assert_eq!(base, reference.eval_dual(&w));
                for class in [Class::High, Class::Low] {
                    let evals = engine.eval_class_batch(class, &cands, &w, &base);
                    for (c, ev) in cands.iter().zip(&evals) {
                        let mut moved = w.clone();
                        *class.of_mut(&mut moved) = c.clone();
                        assert_eq!(ev, &reference.eval_dual(&moved), "{kind:?} {class:?}");
                    }
                    // The annealing walk's call: accept a candidate
                    // (rebase onto it, its evaluation becomes the base),
                    // then cost one move from there.
                    let mut at = w.clone();
                    *class.of_mut(&mut at) = cands[1].clone();
                    engine.rebase(class, &cands[1]);
                    let mut next = at.clone();
                    class.of_mut(&mut next).set(dtr_graph::LinkId(7), 3);
                    let step = std::slice::from_ref(class.of(&next));
                    let ev = engine.eval_class_batch(class, step, &at, &evals[1]);
                    assert_eq!(ev, [reference.eval_dual(&next)], "{kind:?} {class:?}");
                    engine.rebase(class, class.of(&w));
                }
            }
        }
    }

    /// Under a partial deployment a candidate that repairs no
    /// destination replays every destination's base hybrid and rebuilds
    /// none; one that repairs some rebuilds exactly those. Both match
    /// the evaluator.
    #[test]
    fn a_candidate_that_repairs_nothing_rebuilds_no_hybrid() {
        let (topo, demands) = instance(12);
        let n = topo.node_count();
        let upgraded: Vec<u32> = (0..n as u32).step_by(2).collect();
        let dep = DeploymentSet::from_upgraded(n, &upgraded);
        let mut w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        for (i, (lid, _)) in topo.links().enumerate() {
            w.low.set(lid, 1 + (i as u32 * 7) % 13);
        }
        // Raising a link that no low-class DAG uses repairs nothing.
        let mut on_dag = vec![false; topo.link_count()];
        for t in topo.nodes() {
            let dag = ShortestPathDag::compute(&topo, &w.low, t);
            dag.ecmp_out
                .iter()
                .flatten()
                .for_each(|l| on_dag[l.index()] = true);
        }
        let idle = dtr_graph::LinkId(on_dag.iter().position(|&on| !on).unwrap() as u32);
        let used = dtr_graph::LinkId(on_dag.iter().position(|&on| on).unwrap() as u32);
        let low_dests = topo
            .nodes()
            .filter(|t| demands.low.demands_to(t.index()).next().is_some())
            .count() as u64;
        let mut reference = Evaluator::new(&topo, &demands, Objective::LoadBased);
        reference.set_deployment(Some(dep.clone())).unwrap();
        let mut engine = BatchEvaluator::new(
            &topo,
            &demands,
            Objective::LoadBased,
            BackendKind::Incremental,
        );
        engine.set_deployment(Some(dep)).unwrap();
        engine.rebase(Class::High, &w.high);
        engine.rebase(Class::Low, &w.low);
        let base = engine.eval_dual(&w);
        assert_eq!(base, reference.eval_dual(&w));
        for (link, rebuilds) in [(idle, false), (used, true)] {
            let mut moved = w.clone();
            moved.low.set(link, w.low.get(link) + 1);
            let before = engine.work_stats();
            let ev = engine.eval_class_batch(Class::Low, &[moved.low.clone()], &w, &base);
            let after = engine.work_stats();
            assert_eq!(ev, [reference.eval_dual(&moved)]);
            let rebuilt = after.hybrids_rebuilt - before.hybrids_rebuilt;
            let replayed = after.hybrids_replayed - before.hybrids_replayed;
            assert_eq!(rebuilt + replayed, low_dests);
            assert_eq!(rebuilt > 0, rebuilds, "{after:?}");
        }
    }

    #[test]
    fn work_stats_repeat_exactly_for_one_seed() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (topo, demands) = instance(7);
        let run = |kind| {
            let mut engine = BatchEvaluator::new(&topo, &demands, Objective::LoadBased, kind);
            let mut rng = StdRng::seed_from_u64(3);
            let mut cur = WeightVector::uniform(&topo, 4);
            engine.rebase_joint(&cur);
            engine.rebase_low(&cur);
            let mut costs = Vec::new();
            for step in 0..40 {
                let mut cands: Vec<WeightVector> = (0..5)
                    .map(|i| {
                        let mut w = cur.clone();
                        for _ in 0..1 + i % 2 {
                            let lid =
                                dtr_graph::LinkId(rng.random_range(0..topo.link_count() as u32));
                            w.set(lid, rng.random_range(1u32..=20));
                        }
                        w
                    })
                    .collect();
                // The sampler can draw one candidate twice in a batch.
                cands.push(cands[0].clone());
                let joint = engine.eval_joint_batch(&cands);
                assert_eq!(joint[0], joint[5]);
                let low = engine.eval_low_batch(&cands);
                assert_eq!(low[0], low[5]);
                costs.extend(joint.iter().map(|e| e.cost));
                if step % 4 == 0 {
                    cur = cands[1].clone();
                    engine.rebase_joint(&cur);
                    engine.rebase_low(&cur);
                }
            }
            (engine.work_stats(), engine.cache_stats(), costs)
        };
        let a = run(BackendKind::Incremental);
        assert_eq!(a, run(BackendKind::Incremental));
        let w = a.0;
        assert!(w.replayed > 0 && w.rebranched > 0 && w.repaired > 0 && w.rebases > 0);
        assert_eq!(w.full_fallbacks, 0);
        // The full backend keeps no incremental state: same results,
        // same cache traffic, no repair work to count.
        let f = run(BackendKind::Full);
        assert_eq!(f.0, WorkStats::default());
        assert_eq!((f.1, &f.2), (a.1, &a.2));
    }

    #[test]
    fn high_batch_matches_evaluator() {
        let (topo, demands) = instance(9);
        let mut engine = BatchEvaluator::new(
            &topo,
            &demands,
            Objective::LoadBased,
            BackendKind::Incremental,
        );
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let mut cands = Vec::new();
        for i in 0..5u32 {
            let mut w = WeightVector::uniform(&topo, 1);
            w.set(dtr_graph::LinkId(i), 5 + i);
            cands.push(w);
        }
        let batch = engine.eval_high_batch(&cands);
        for (w, hs) in cands.iter().zip(&batch) {
            let reference = ev.eval_high_side(w);
            assert_eq!(&reference, hs);
        }
    }
}
