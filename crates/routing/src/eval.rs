//! Objective evaluation: weight settings → lexicographic costs.
//!
//! [`Evaluator`] binds a topology, a two-class demand set and one of the
//! paper's objectives, and turns weight vectors into [`Evaluation`]s:
//!
//! - **Load-based** `A = ⟨Φ_H, Φ_L⟩` (Eq. 2): `Φ_H` charges high-priority
//!   loads against raw capacity; `Φ_L` charges low-priority loads against
//!   the **residual** capacity `C̃_l = max(C_l − H_l, 0)` left by priority
//!   queueing.
//! - **SLA-based** `S = ⟨Λ, Φ_L⟩` (Eq. 5): `Λ` sums Eq. 4 penalties over
//!   all high-priority SD pairs, with flow-weighted average end-to-end
//!   delays computed over the ECMP DAG under the Eq. 3 link-delay model.
//!
//! The per-class entry points (`high_loads` / `low_loads` / `assemble`)
//! let the heuristics re-route only the class whose weights changed.

use crate::cascade::cascade_each;
use crate::deploy::{push_hybrid, DeploymentSet, HybridScratch};
use crate::loads::{avg_utilization, max_utilization, ClassLoads, DagSource, LoadCalculator};
use dtr_cost::{link_delay, phi, sla_penalty, Lex2, Objective, SlaParams};
use dtr_graph::weights::DualWeights;
use dtr_graph::{
    FlatTopo, LinkMask, NodeId, ShortestPathDag, SpfWorkspace, Topology, WeightVector,
};
use dtr_traffic::DemandSet;
use std::borrow::Borrow;
use std::fmt;

/// Structured evaluation errors. The only way to hit one is to compose
/// evaluator pieces inconsistently (for example finishing an SLA
/// objective from a [`HighSide`] that was built without its SLA walk) —
/// the evaluator's own entry points can never produce one, but external
/// composers (the batch engine) get a typed error instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// The objective is SLA-based but the high side carries no
    /// [`SlaEvaluation`] — the `Λ` component cannot be formed.
    MissingSlaEvaluation,
    /// A [`DeploymentSet`] was built over a different node universe than
    /// the evaluator's topology.
    DeploymentSizeMismatch {
        /// Nodes in the deployment set.
        deployment_nodes: usize,
        /// Nodes in the bound topology.
        topo_nodes: usize,
    },
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::MissingSlaEvaluation => write!(
                f,
                "SLA objective needs a high side with an SLA evaluation \
                 (build it via eval_high_side or high_side_with_sla(.., Some(..)))"
            ),
            EvalError::DeploymentSizeMismatch {
                deployment_nodes,
                topo_nodes,
            } => write!(
                f,
                "deployment set covers {deployment_nodes} nodes but the \
                 topology has {topo_nodes}"
            ),
        }
    }
}

impl std::error::Error for EvalError {}

/// Per-SD-pair delay record of an SLA evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct PairDelay {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Flow-weighted average end-to-end delay ξ(s,t), seconds.
    pub delay_s: f64,
    /// Eq. 4 penalty for this pair.
    pub penalty: f64,
}

/// SLA-specific outputs (present when the objective is
/// [`Objective::SlaBased`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SlaEvaluation {
    /// Eq. 3 average delay per link, seconds.
    pub link_delays: Vec<f64>,
    /// One record per high-priority SD pair.
    pub pair_delays: Vec<PairDelay>,
    /// Total penalty `Λ = Σ Λ(s,t)`.
    pub lambda: f64,
    /// Number of pairs violating the SLA bound (Fig. 9(a)).
    pub violations: usize,
}

/// The part of an evaluation that depends only on the high-priority
/// weight vector; see [`Evaluator::eval_high_side`].
#[derive(Debug, Clone, PartialEq)]
pub struct HighSide {
    /// High-priority load per link.
    pub loads: ClassLoads,
    /// Per-link `Φ_H,l` against raw capacity.
    pub phi_per_link: Vec<f64>,
    /// `Φ_H = Σ_l Φ_H,l`.
    pub phi: f64,
    /// SLA outputs, if the objective is SLA-based.
    pub sla: Option<SlaEvaluation>,
}

/// Everything the heuristics and experiments need to know about one
/// weight setting.
#[derive(Debug, Clone, PartialEq)]
pub struct Evaluation {
    /// High-priority load per link.
    pub high_loads: ClassLoads,
    /// Low-priority load per link.
    pub low_loads: ClassLoads,
    /// Per-link Φ of the high class against raw capacity.
    pub phi_h_per_link: Vec<f64>,
    /// Per-link Φ of the low class against residual capacity.
    pub phi_l_per_link: Vec<f64>,
    /// `Φ_H = Σ_l Φ_H,l`.
    pub phi_h: f64,
    /// `Φ_L = Σ_l Φ_L,l`.
    pub phi_l: f64,
    /// SLA outputs, if the objective is SLA-based.
    pub sla: Option<SlaEvaluation>,
    /// The lexicographic objective value (`A` or `S`).
    pub cost: Lex2,
}

impl Evaluation {
    /// Per-link total load `H_l + L_l`.
    pub fn total_loads(&self) -> Vec<f64> {
        crate::loads::total_loads(&self.high_loads, &self.low_loads)
    }

    /// Average utilization over all links (the paper's `AD`).
    pub fn avg_utilization(&self, topo: &Topology) -> f64 {
        avg_utilization(topo, &self.total_loads())
    }

    /// Maximum link utilization.
    pub fn max_utilization(&self, topo: &Topology) -> f64 {
        max_utilization(topo, &self.total_loads())
    }

    /// Per-link utilization of the combined traffic (Fig. 3 histograms).
    pub fn utilizations(&self, topo: &Topology) -> Vec<f64> {
        let tl = self.total_loads();
        topo.links()
            .map(|(lid, l)| tl[lid.index()] / l.capacity)
            .collect()
    }

    /// Per-link utilization of the high class only (Fig. 6).
    pub fn high_utilizations(&self, topo: &Topology) -> Vec<f64> {
        topo.links()
            .map(|(lid, l)| self.high_loads[lid.index()] / l.capacity)
            .collect()
    }
}

/// Per-link ranking keys used by the heuristic neighborhoods
/// (Algorithm 2 line 1): the lexicographic link cost `L_l`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkRank {
    /// `⟨Φ_H,l, Φ_L,l⟩` under the load objective,
    /// `⟨D_l, Φ_L,l⟩` under the SLA objective — FindH's sort key.
    pub high: Lex2,
    /// `Φ_L,l` — FindL's sort key (low weights don't affect the high
    /// class).
    pub low: f64,
}

/// Evaluator bound to one problem instance.
pub struct Evaluator<'a> {
    topo: &'a Topology,
    /// The view of `topo` every DAG here is computed on.
    ft: FlatTopo,
    demands: &'a DemandSet,
    objective: Objective,
    calc: LoadCalculator,
    ws: SpfWorkspace,
    /// Destinations that receive high-priority traffic, precomputed.
    high_dests: Vec<NodeId>,
    /// Partial-deployment model, when set (see [`crate::deploy`]).
    /// `None` and a full set are equivalent and take the exact legacy
    /// code path, so full-deployment results stay bit-identical.
    deployment: Option<DeploymentSet>,
}

impl<'a> Evaluator<'a> {
    /// Binds `topo`, `demands` and the two-class `objective`. Callers
    /// holding an [`ObjectiveSpec`](dtr_cost::ObjectiveSpec) map it with
    /// [`as_two_class`](dtr_cost::ObjectiveSpec::as_two_class) first;
    /// `k ≥ 3` specs belong to `dtr-engine`'s k-class kernel.
    pub fn new(topo: &'a Topology, demands: &'a DemandSet, objective: Objective) -> Self {
        let high_dests = topo
            .nodes()
            .filter(|t| demands.high.demands_to(t.index()).next().is_some())
            .collect();
        Evaluator {
            topo,
            ft: FlatTopo::new(topo),
            demands,
            objective,
            calc: LoadCalculator::new(),
            ws: SpfWorkspace::new(),
            high_dests,
            deployment: None,
        }
    }

    /// The bound topology.
    pub fn topo(&self) -> &'a Topology {
        self.topo
    }

    /// The bound demand set.
    pub fn demands(&self) -> &'a DemandSet {
        self.demands
    }

    /// The bound objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// Routes the high class on `wh` (one SPF per destination with
    /// high-priority demand).
    pub fn high_loads(&mut self, wh: &WeightVector) -> ClassLoads {
        let spf = DagSource::Spf(wh.as_slice(), None);
        self.calc
            .route(&self.ft, spf, &[&self.demands.high], None)
            .swap_remove(0)
    }

    /// Routes the low class on `wl`.
    pub fn low_loads(&mut self, wl: &WeightVector) -> ClassLoads {
        let spf = DagSource::Spf(wl.as_slice(), None);
        self.calc
            .route(&self.ft, spf, &[&self.demands.low], None)
            .swap_remove(0)
    }

    /// Binds a partial-deployment model (see [`crate::deploy`]), or
    /// clears it with `None`. A full set is normalized to `None` so
    /// every downstream branch takes the exact legacy code path and
    /// full-deployment results stay bit-identical.
    ///
    /// The set must cover the bound topology's nodes
    /// ([`EvalError::DeploymentSizeMismatch`]). Legacy routers forward
    /// the high class on `W^H` too, so the SLA walk is the same with or
    /// without a deployment.
    pub fn set_deployment(&mut self, dep: Option<DeploymentSet>) -> Result<(), EvalError> {
        let dep = match dep {
            Some(d) if !d.is_full() => d,
            _ => {
                self.deployment = None;
                return Ok(());
            }
        };
        if dep.node_count() != self.topo.node_count() {
            return Err(EvalError::DeploymentSizeMismatch {
                deployment_nodes: dep.node_count(),
                topo_nodes: self.topo.node_count(),
            });
        }
        self.deployment = Some(dep);
        Ok(())
    }

    /// The bound partial deployment, if any (`None` also covers a full
    /// set — see [`Self::set_deployment`]).
    pub fn deployment(&self) -> Option<&DeploymentSet> {
        self.deployment.as_ref()
    }

    /// Routes the low class down the **hybrid** per-destination DAGs of
    /// `dep` (low-topology branches at upgraded nodes, high-topology
    /// branches at legacy nodes; see [`crate::deploy`]). Returns the
    /// per-link loads plus the total demand volume trapped by hybrid
    /// forwarding loops — exactly `0.0` when nothing loops.
    ///
    /// Destinations are processed in ascending node order, each by one
    /// [`push_hybrid`] down its high and low DAGs. (Full-deployment
    /// bit-identity is guaranteed one level up: [`Self::set_deployment`]
    /// normalizes a full set to `None`, so the legacy path runs — this
    /// method is only ever invoked for genuinely partial sets.)
    pub fn low_loads_deployed(
        &mut self,
        dep: &DeploymentSet,
        wh: &WeightVector,
        wl: &WeightVector,
    ) -> (ClassLoads, f64) {
        let (ft, low) = (&self.ft, &self.demands.low);
        let mut out = vec![0.0; ft.link_count()];
        let mut scratch = HybridScratch::default();
        let mut undeliverable = 0.0;
        let (mut dh, mut dl) = (ShortestPathDag::empty(ft), ShortestPathDag::empty(ft));
        for t in 0..ft.node_count() as u32 {
            if low.demands_to(t as usize).next().is_none() {
                continue;
            }
            dh.compute_into(ft, wh.as_slice(), t, None, &mut self.ws);
            dl.compute_into(ft, wl.as_slice(), t, None, &mut self.ws);
            let demand = low.demands_to(t as usize);
            undeliverable += push_hybrid(ft, dep, [&dh, &dl], demand, &mut scratch, |l, share| {
                out[l as usize] += share
            });
        }
        (out, undeliverable)
    }

    /// [`Self::finish`], plus the partial-deployment undeliverable
    /// penalty: trapped demand is charged at `Φ`'s steepest slope
    /// (`phi(u, 0) = 5000·u`), appended to `Φ_L` **after** the per-link
    /// sum so a zero-trap evaluation is bit-identical to [`Self::finish`].
    pub fn finish_deployed(
        &self,
        high: HighSide,
        low_loads: ClassLoads,
        undeliverable: f64,
    ) -> Result<Evaluation, EvalError> {
        let mut ev = self.finish(high, low_loads)?;
        if undeliverable > 0.0 {
            ev.phi_l += phi(undeliverable, 0.0);
            ev.cost = Lex2::new(ev.cost.primary, ev.phi_l);
        }
        Ok(ev)
    }

    /// Full dual-topology evaluation. Honors the bound
    /// [`DeploymentSet`], if any: the high class always routes on
    /// `w.high`; the low class follows the hybrid DAGs and trapped
    /// demand is penalized (see [`Self::finish_deployed`]).
    pub fn eval_dual(&mut self, w: &DualWeights) -> Evaluation {
        match self.deployment.clone() {
            None => {
                let h = self.eval_high_side(&w.high);
                let l = self.low_loads(&w.low);
                self.finish(h, l)
                    .expect("high side built by this evaluator carries the SLA walk")
            }
            Some(dep) => {
                let h = self.eval_high_side(&w.high);
                let (l, undeliverable) = self.low_loads_deployed(&dep, &w.high, &w.low);
                self.finish_deployed(h, l, undeliverable)
                    .expect("high side built by this evaluator carries the SLA walk")
            }
        }
    }

    /// [`Self::eval_dual`] on the network that `link_up` leaves
    /// (`link_up[l] == false` removes link `l`): both classes route
    /// around the down links and the costs are assembled from those
    /// loads, and the SLA walk follows the surviving DAGs. An all-up
    /// mask is exactly [`Self::eval_dual`]. With a link down only a full
    /// deployment is defined — the hybrid low DAGs have no masked form —
    /// and the caller must keep the survivors strongly connected.
    pub fn eval_dual_masked(&mut self, w: &DualWeights, link_up: &[bool]) -> Evaluation {
        if link_up.iter().all(|&up| up) {
            return self.eval_dual(w);
        }
        debug_assert!(
            self.deployment.is_none(),
            "links can only be down on a full deployment"
        );
        let mask = LinkMask::from_up_slice(link_up);
        let (ft, d) = (&self.ft, self.demands);
        let [hl, ll] = [(&w.high, &d.high), (&w.low, &d.low)].map(|(w, m)| {
            let spf = DagSource::Spf(w.as_slice(), Some(&mask));
            self.calc.route(ft, spf, &[m], None).swap_remove(0)
        });
        let high = self.high_side_on(hl, &w.high, Some(&mask));
        self.finish(high, ll)
            .expect("high side built by this evaluator carries the SLA walk")
    }

    /// Single-topology evaluation (both classes share `w`); one SPF pass
    /// per destination covers both classes.
    pub fn eval_str(&mut self, w: &WeightVector) -> Evaluation {
        let (ft, d) = (&self.ft, self.demands);
        let spf = DagSource::Spf(w.as_slice(), None);
        let loads = self.calc.route(ft, spf, &[&d.high, &d.low], None);
        let [h, l] = <[ClassLoads; 2]>::try_from(loads).expect("one row per matrix");
        self.assemble(h, l, w)
    }

    /// Everything that depends **only** on the high-priority weight
    /// vector: loads, per-link Φ against raw capacity, and (under the SLA
    /// objective) link delays and per-pair penalties. `FindL` iterations
    /// cache this and re-evaluate only the cheap low side.
    pub fn eval_high_side(&mut self, wh: &WeightVector) -> HighSide {
        let loads = self.high_loads(wh);
        self.high_side_from_loads(loads, wh, None)
    }

    /// Builds a [`HighSide`] from precomputed high-class loads (which must
    /// have been routed on `wh` under the mask `link_up`; `None` keeps
    /// every link up).
    pub fn high_side_from_loads(
        &mut self,
        loads: ClassLoads,
        wh: &WeightVector,
        link_up: Option<&[bool]>,
    ) -> HighSide {
        let mask = link_up.map(LinkMask::from_up_slice);
        self.high_side_on(loads, wh, mask.as_ref())
    }

    /// [`Self::high_side_from_loads`] under a mask already converted.
    fn high_side_on(
        &mut self,
        loads: ClassLoads,
        wh: &WeightVector,
        mask: Option<&LinkMask>,
    ) -> HighSide {
        let sla = match self.objective {
            Objective::LoadBased => None,
            Objective::SlaBased(params) => Some(self.eval_sla(&loads, wh, mask, &params)),
        };
        self.high_side_with_sla(loads, sla)
    }

    /// Combines a (possibly cached) high side with fresh low-class loads,
    /// pricing the low class as class 1 of the strict-priority cascade
    /// ([`crate::cascade_each`]) against the residual capacity the high
    /// class leaves. Costs `O(|E|)` — this is the hot path of `FindL`.
    ///
    /// Under the SLA objective the high side must carry its
    /// [`SlaEvaluation`] (every `HighSide` this evaluator builds does);
    /// a high side assembled externally without one yields
    /// [`EvalError::MissingSlaEvaluation`] instead of a panic.
    pub fn finish(&self, high: HighSide, low_loads: ClassLoads) -> Result<Evaluation, EvalError> {
        let mut phi_l_per_link = vec![0.0; self.topo.link_count()];
        let mut phi_l = 0.0;
        cascade_each(self.topo, &[&high.loads, &low_loads], 1, |_, i, _, p| {
            phi_l_per_link[i] = p;
            phi_l += p;
        });
        let cost = match (&self.objective, &high.sla) {
            (Objective::LoadBased, _) => Lex2::new(high.phi, phi_l),
            (Objective::SlaBased(_), Some(sla)) => Lex2::new(sla.lambda, phi_l),
            (Objective::SlaBased(_), None) => return Err(EvalError::MissingSlaEvaluation),
        };
        Ok(Evaluation {
            high_loads: high.loads,
            low_loads,
            phi_h_per_link: high.phi_per_link,
            phi_l_per_link,
            phi_h: high.phi,
            phi_l,
            sla: high.sla,
            cost,
        })
    }

    /// Assembles the cost structure from per-class loads. `high_weights`
    /// must be the vector that produced `high_loads`; the SLA objective
    /// re-walks its DAGs to compute per-pair delays.
    pub fn assemble(
        &mut self,
        high_loads: ClassLoads,
        low_loads: ClassLoads,
        high_weights: &WeightVector,
    ) -> Evaluation {
        let high = self.high_side_from_loads(high_loads, high_weights, None);
        self.finish(high, low_loads)
            .expect("high side built by this evaluator carries the SLA walk")
    }

    /// Destinations that receive high-priority traffic, in ascending node
    /// order — the iteration order of every SLA walk.
    pub fn high_dests(&self) -> &[NodeId] {
        &self.high_dests
    }

    /// Builds a [`HighSide`] from precomputed high-class loads and an
    /// **externally computed** SLA evaluation (or `None` under the load
    /// objective). This is the entry point for callers that maintain
    /// their own shortest-path DAGs (the `dtr-engine` incremental
    /// backend) and therefore evaluate the SLA walk without re-running
    /// Dijkstra. `Φ_H` is class 0 of the strict-priority cascade
    /// ([`crate::cascade_each`]), priced against raw capacity.
    pub fn high_side_with_sla(&self, loads: ClassLoads, sla: Option<SlaEvaluation>) -> HighSide {
        let mut phi_per_link = vec![0.0; self.topo.link_count()];
        let mut phi_sum = 0.0;
        cascade_each(self.topo, &[&loads], 0, |_, i, _, p| {
            phi_per_link[i] = p;
            phi_sum += p;
        });
        debug_assert_eq!(
            matches!(self.objective, Objective::SlaBased(_)),
            sla.is_some(),
            "SLA evaluation must be present exactly under the SLA objective"
        );
        HighSide {
            loads,
            phi_per_link,
            phi: phi_sum,
            sla,
        }
    }

    /// Computes Eq. 3 link delays and Eq. 4 pair penalties for the high
    /// class routed on `wh` under `mask`.
    fn eval_sla(
        &mut self,
        high_loads: &[f64],
        wh: &WeightVector,
        mask: Option<&LinkMask>,
        params: &SlaParams,
    ) -> SlaEvaluation {
        let (ft, ws) = (&self.ft, &mut self.ws);
        let dests = &self.high_dests;
        sla_evaluation(
            self.topo,
            ft,
            &self.demands.high,
            dests,
            high_loads,
            params,
            |t| {
                let mut dag = ShortestPathDag::empty(ft);
                dag.compute_into(ft, wh.as_slice(), t.0, mask, ws);
                dag
            },
        )
    }

    /// Per-link ranking keys for the heuristic neighborhoods (Algorithm 2):
    /// `L_l = ⟨Φ_H,l, Φ_L,l⟩` (load objective) or `⟨D_l, Φ_L,l⟩` (SLA).
    ///
    /// The key is chosen by what the evaluation carries: an evaluation
    /// with an SLA walk ranks by link delay, one without ranks by per-link
    /// Φ. This makes the method total — no panic arm for a mismatched
    /// objective/evaluation pair.
    pub fn link_ranks(&self, ev: &Evaluation) -> Vec<LinkRank> {
        (0..self.topo.link_count())
            .map(|i| {
                let high = match &ev.sla {
                    Some(sla) => Lex2::new(sla.link_delays[i], ev.phi_l_per_link[i]),
                    None => Lex2::new(ev.phi_h_per_link[i], ev.phi_l_per_link[i]),
                };
                LinkRank {
                    high,
                    low: ev.phi_l_per_link[i],
                }
            })
            .collect()
    }
}

/// The SLA walk (Eq. 3 link delays + Eq. 4 pair penalties), over
/// per-destination shortest-path DAGs from wherever the caller has them.
///
/// [`Evaluator`] computes a [`ShortestPathDag`] per destination with one
/// reverse-Dijkstra; `dtr-engine` hands in the DAGs its backends
/// maintain. Both run the identical arithmetic in the identical order
/// (destinations ascending, the DAG's order reversed for the ξ dynamic
/// program), so results are bit-identical.
///
/// `dests` must be the destinations with high-priority demand in
/// ascending node order (see [`Evaluator::high_dests`]); `dag_for` is
/// called once per destination, in that order, and its DAGs must be
/// computed on the topology `ft` views.
pub fn sla_evaluation<D, F>(
    topo: &Topology,
    ft: &FlatTopo,
    high: &dtr_traffic::TrafficMatrix,
    dests: &[NodeId],
    high_loads: &[f64],
    params: &SlaParams,
    dag_for: F,
) -> SlaEvaluation
where
    D: Borrow<ShortestPathDag>,
    F: FnMut(NodeId) -> D,
{
    let link_delays: Vec<f64> = topo
        .links()
        .map(|(lid, link)| {
            link_delay(
                &params.delay,
                high_loads[lid.index()],
                link.capacity,
                link.prop_delay,
            )
        })
        .collect();
    sla_walk(ft, high, dests, link_delays, params, dag_for)
}

/// The ξ walk ([`xi_walk`], unreachable sources at 0) and Eq. 4
/// penalty accumulation over **precomputed** per-link delays.
///
/// [`sla_evaluation`] computes the delays against raw link capacity
/// (the paper's two-class SLA model, where the high class is alone at
/// the top of the priority cascade) and delegates here; k-class callers
/// compute each class's delays against its **residual** capacity
/// `C̃_c = max(C − Σ_{j<c} load_j, 0)` and call this directly. The walk
/// itself is identical either way: destinations in ascending order,
/// the DAG's order reversed for the ξ recursion — so the two-class path
/// stays bit-identical to the pre-split code.
pub fn sla_walk<D, F>(
    ft: &FlatTopo,
    matrix: &dtr_traffic::TrafficMatrix,
    dests: &[NodeId],
    link_delays: Vec<f64>,
    params: &SlaParams,
    mut dag_for: F,
) -> SlaEvaluation
where
    D: Borrow<ShortestPathDag>,
    F: FnMut(NodeId) -> D,
{
    let mut pair_delays = Vec::new();
    let mut lambda = 0.0;
    let mut violations = 0;
    let mut xi = vec![0.0f64; ft.node_count()];
    for &t in dests {
        let dag = dag_for(t);
        xi_walk(ft, dag.borrow(), &link_delays, 0.0, &mut xi, |_, _| {});
        for (s, _vol) in matrix.demands_to(t.index()) {
            let delay_s = xi[s];
            let penalty = sla_penalty(delay_s, params.bound_s, params.penalty_a, params.penalty_b);
            if penalty > 0.0 {
                violations += 1;
            }
            lambda += penalty;
            pair_delays.push(PairDelay {
                src: s,
                dst: t.index(),
                delay_s,
                penalty,
            });
        }
    }

    SlaEvaluation {
        link_delays,
        pair_delays,
        lambda,
        violations,
    }
}

/// The ξ walk: fills `xi[v]` with the expected delay from node `v` to
/// `dag.dest` under even ECMP splitting, the mean over `v`'s branches
/// of (the branch's `link_delays` entry + `xi` at its head). Nodes are
/// taken in `dag.order` reversed (increasing distance), so every head
/// is done before its tails. The destination gets 0 and a node that
/// cannot reach it `unreachable`. `visit(v, l)` sees every branch `l`
/// of every walked node `v`, after the branches of `l`'s head.
pub fn xi_walk(
    ft: &FlatTopo,
    dag: &ShortestPathDag,
    link_delays: &[f64],
    unreachable: f64,
    xi: &mut [f64],
    mut visit: impl FnMut(u32, u32),
) {
    for (v, x) in xi.iter_mut().enumerate() {
        let walked = dag.reachable(NodeId(v as u32));
        *x = if walked { 0.0 } else { unreachable };
    }
    for &v in dag.order.iter().rev() {
        if v == dag.dest || !dag.reachable(NodeId(v)) {
            continue;
        }
        let branches = dag.branches(ft, v);
        let mut acc = 0.0;
        for &lid in branches {
            acc += link_delays[lid as usize] + xi[ft.dst(lid) as usize];
            visit(v, lid);
        }
        xi[v as usize] = acc / branches.len() as f64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::triangle_topology;
    use dtr_traffic::TrafficMatrix;

    /// The paper's §3.3.1 instance: unit-capacity triangle, 1/3 high and
    /// 2/3 low priority from A to C.
    fn triangle_instance() -> (Topology, DemandSet) {
        let topo = triangle_topology(1.0);
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0 / 3.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0 / 3.0);
        (topo, DemandSet { high, low })
    }

    #[test]
    fn paper_triangle_str_costs() {
        // Direct routing of both classes on A−C: Φ_H = 1/3, Φ_L = 64/9
        // (§3.3.1's first numerical example).
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w = WeightVector::uniform(&topo, 1);
        let e = ev.eval_str(&w);
        assert!((e.phi_h - 1.0 / 3.0).abs() < 1e-9, "phi_h={}", e.phi_h);
        assert!((e.phi_l - 64.0 / 9.0).abs() < 1e-9, "phi_l={}", e.phi_l);
        assert_eq!(e.cost, Lex2::new(e.phi_h, e.phi_l));
    }

    #[test]
    fn paper_triangle_dtr_improves_low_cost() {
        // DTR: keep high priority on A−C, route low priority via B.
        // Low sees full unit capacity on A−B and B−C: Φ_L = 2·Φ(2/3, 1) =
        // 2·(3·2/3 − 2/3) = 8/3 ≪ 64/9.
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        // Penalize the direct A→C link for low priority.
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let e = ev.eval_dual(&DualWeights { high: wh, low: wl });
        assert!((e.phi_h - 1.0 / 3.0).abs() < 1e-9);
        assert!((e.phi_l - 8.0 / 3.0).abs() < 1e-9, "phi_l={}", e.phi_l);
    }

    #[test]
    fn residual_capacity_is_used_for_low_class() {
        // Saturate a link with high priority: low priority on the same
        // link must be charged at the steepest slope (residual = 0).
        let (topo, _) = triangle_instance();
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0); // fills the unit link
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 0.1);
        let demands = DemandSet { high, low };
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w = WeightVector::uniform(&topo, 1);
        let e = ev.eval_str(&w);
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        assert!((e.phi_l_per_link[ac.index()] - 500.0).abs() < 1e-9); // 5000·0.1
    }

    #[test]
    fn str_equals_dual_with_replicated_weights() {
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w = WeightVector::uniform(&topo, 1);
        let a = ev.eval_str(&w);
        let b = ev.eval_dual(&DualWeights::replicated(w));
        assert_eq!(a.cost, b.cost);
        assert_eq!(a.high_loads, b.high_loads);
        assert_eq!(a.low_loads, b.low_loads);
    }

    #[test]
    fn xi_walk_averages_branches_and_prefills_unreachable_nodes() {
        // Diamond 0 → {1, 2} → 3 with unit weights, plus node 4 hanging
        // off 3 with its link towards 3 cut: 4 cannot reach 3.
        let mut b = dtr_graph::TopologyBuilder::new();
        b.add_nodes(5);
        for (u, v) in [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)] {
            b.add_duplex(NodeId(u), NodeId(v), 10.0, 0.001);
        }
        let topo = b.build().unwrap();
        let link = |u, v| topo.find_link(NodeId(u), NodeId(v)).unwrap().index();
        let mut link_up = vec![true; topo.link_count()];
        link_up[link(4, 3)] = false;
        let ft = FlatTopo::new(&topo);
        let mut dag = ShortestPathDag::empty(&ft);
        let (w, mask) = (
            WeightVector::uniform(&topo, 1),
            LinkMask::from_up_slice(&link_up),
        );
        dag.compute_into(&ft, w.as_slice(), 3, Some(&mask), &mut SpfWorkspace::new());
        let mut delays = vec![100.0; topo.link_count()];
        for (u, v, d) in [(0, 1, 1.0), (0, 2, 3.0), (1, 3, 2.0), (2, 3, 4.0)] {
            delays[link(u, v)] = d;
        }
        for unreachable in [0.0, f64::INFINITY] {
            let mut xi = vec![-1.0; 5];
            let mut visits = Vec::new();
            xi_walk(&ft, &dag, &delays, unreachable, &mut xi, |v, l| {
                visits.push((v, l as usize))
            });
            // ξ(1) = 2, ξ(2) = 4, ξ(0) = ((1 + 2) + (3 + 4)) / 2 = 5.
            assert_eq!(xi, [5.0, 2.0, 4.0, 0.0, unreachable]);
            let (l01, l02, l13, l23) = (link(0, 1), link(0, 2), link(1, 3), link(2, 3));
            assert_eq!(visits, [(2, l23), (1, l13), (0, l01), (0, l02)]);
        }
    }

    #[test]
    fn sla_eval_counts_violations() {
        // Unit-capacity triangle with 1 ms links: direct path delay well
        // under a 25 ms bound → no violations; with a 1 µs bound → all
        // pairs violate.
        let (topo, demands) = triangle_instance();
        let relaxed = Objective::SlaBased(SlaParams::default());
        let mut ev = Evaluator::new(&topo, &demands, relaxed);
        let w = WeightVector::uniform(&topo, 1);
        let e = ev.eval_str(&w);
        let sla = e.sla.as_ref().unwrap();
        assert_eq!(sla.violations, 0);
        assert_eq!(sla.lambda, 0.0);
        assert_eq!(sla.pair_delays.len(), 1);
        assert_eq!(e.cost, Lex2::new(0.0, e.phi_l));

        let strict = Objective::SlaBased(SlaParams {
            bound_s: 1e-6,
            ..SlaParams::default()
        });
        let mut ev = Evaluator::new(&topo, &demands, strict);
        let e = ev.eval_str(&w);
        let sla = e.sla.as_ref().unwrap();
        assert_eq!(sla.violations, 1);
        assert!(sla.lambda >= 100.0);
    }

    #[test]
    fn sla_pair_delay_matches_hand_computation() {
        let (topo, demands) = triangle_instance();
        let params = SlaParams::default();
        let mut ev = Evaluator::new(&topo, &demands, Objective::SlaBased(params));
        let w = WeightVector::uniform(&topo, 1);
        let e = ev.eval_str(&w);
        let sla = e.sla.as_ref().unwrap();
        // Direct A→C: one link. D = s/C(Φ/C + 1) + p with H=1/3, C=1 Mbps,
        // s=8000 bits → s/C = 8 ms(!); Φ(1/3,1)=1/3 → D = 8ms·4/3 + 1ms.
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let expect = 0.008 * (1.0 / 3.0 + 1.0) + 0.001;
        assert!((sla.link_delays[ac.index()] - expect).abs() < 1e-12);
        assert!((sla.pair_delays[0].delay_s - expect).abs() < 1e-12);
    }

    #[test]
    fn link_ranks_follow_objective() {
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w = WeightVector::uniform(&topo, 1);
        let e = ev.eval_str(&w);
        let ranks = ev.link_ranks(&e);
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        // The loaded A→C link must rank highest.
        let max = ranks
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.high.cmp(&b.1.high))
            .unwrap()
            .0;
        assert_eq!(max, ac.index());
        assert!(ranks[ac.index()].low > 0.0);
    }

    #[test]
    fn full_or_empty_deployment_normalizes_to_the_legacy_path() {
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let w = DualWeights { high: wh, low: wl };
        let legacy = ev.eval_dual(&w);
        ev.set_deployment(Some(DeploymentSet::full(3))).unwrap();
        assert!(ev.deployment().is_none(), "full set normalizes to None");
        assert_eq!(ev.eval_dual(&w), legacy);
        // All-legacy: low class rides the high DAG — same as replicating
        // the high weights into the low topology.
        ev.set_deployment(Some(DeploymentSet::empty(3))).unwrap();
        let all_legacy = ev.eval_dual(&w);
        ev.set_deployment(None).unwrap();
        let replicated = ev.eval_dual(&DualWeights::replicated(w.high.clone()));
        assert_eq!(all_legacy.cost, replicated.cost);
        assert_eq!(all_legacy.low_loads, replicated.low_loads);
    }

    #[test]
    fn partial_deployment_with_a_loop_pays_the_trapped_penalty() {
        // The deploy-module counterexample, end to end: high routes
        // A→B→C, low routes B→A→C; with only B upgraded the low class
        // loops A↔B and all 2/3 units of A→C low demand are trapped.
        let (topo, demands) = triangle_instance();
        let a = NodeId(0);
        let b = NodeId(1);
        let c = NodeId(2);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let mut wh = WeightVector::uniform(&topo, 1);
        wh.set(topo.find_link(a, c).unwrap(), 10);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(b, c).unwrap(), 10);
        ev.set_deployment(Some(DeploymentSet::from_upgraded(3, &[1])))
            .unwrap();
        let e = ev.eval_dual(&DualWeights { high: wh, low: wl });
        assert!(e.low_loads.iter().all(|&x| x == 0.0), "nothing delivered");
        // Φ_L = 5000 · 2/3, charged at the steepest slope.
        assert!((e.phi_l - 5000.0 * (2.0 / 3.0)).abs() < 1e-9, "{}", e.phi_l);
        assert_eq!(e.cost.secondary, e.phi_l);
    }

    /// Low loads and undeliverable volume of a unit low demand `s → t`
    /// on `n` nodes and duplex `links` of capacity 10, all weights 1 but
    /// the `(high, low)` overrides, under the deployment `upgraded`.
    fn deployed_unit_demand(
        n: usize,
        links: &[(u32, u32)],
        high: &[(u32, u32, u32)],
        low: &[(u32, u32, u32)],
        upgraded: &[u32],
        (s, t): (usize, usize),
    ) -> (ClassLoads, f64) {
        let mut b = dtr_graph::TopologyBuilder::new();
        b.add_nodes(n);
        for &(u, v) in links {
            b.add_link(NodeId(u), NodeId(v), 10.0, 0.001);
            b.add_link(NodeId(v), NodeId(u), 10.0, 0.001);
        }
        let topo = b.build().unwrap();
        let weights = |overrides: &[(u32, u32, u32)]| {
            let mut w = WeightVector::uniform(&topo, 1);
            for &(u, v, x) in overrides {
                w.set(topo.find_link(NodeId(u), NodeId(v)).unwrap(), x);
            }
            w
        };
        let mut demands = DemandSet {
            high: TrafficMatrix::zeros(n),
            low: TrafficMatrix::zeros(n),
        };
        demands.low.set(s, t, 1.0);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let dep = DeploymentSet::from_upgraded(n, upgraded);
        ev.low_loads_deployed(&dep, &weights(high), &weights(low))
    }

    #[test]
    fn the_destination_absorbs_what_reaches_it_beside_a_loop() {
        // a, b, c, t = 0, 1, 2, 3. Legacy a
        // splits the high class over t and b (weight 2 on a→t); upgraded
        // b's low route goes back via a (weight 5 on b→t): a ↔ b loops
        // beside t. c's demand goes straight c→t and never touches the
        // loop, so all of it is delivered.
        let (loads, undeliverable) = deployed_unit_demand(
            4,
            &[(0, 1), (0, 3), (1, 3), (2, 3)],
            &[(0, 3, 2)],
            &[(1, 3, 5)],
            &[1],
            (2, 3),
        );
        assert_eq!(undeliverable, 0.0);
        assert_eq!(loads.iter().sum::<f64>(), 1.0, "one hop, c→t");
    }

    #[test]
    fn a_node_below_a_loop_still_traps_clean_flow() {
        // The open remainder of ROADMAP item 18. a, b, c, t, x = 0..5:
        // legacy a splits over b and x, upgraded b goes back via a
        // (weight 5 on b→t), so a ↔ b loops and feeds x. c's demand goes
        // c→x→t without touching the loop, yet x, downstream of the
        // loop, is never placed and the unit parks there.
        let (loads, undeliverable) = deployed_unit_demand(
            5,
            &[(0, 1), (0, 4), (1, 3), (2, 4), (4, 3)],
            &[],
            &[(1, 3, 5)],
            &[1],
            (2, 3),
        );
        assert_eq!(undeliverable, 1.0);
        assert_eq!(loads.iter().sum::<f64>(), 1.0, "c→x only");
    }

    #[test]
    fn loop_free_partial_deployment_blends_the_two_topologies() {
        // A upgraded: A's low traffic takes the low DAG detour via B;
        // legacy B would forward on the high DAG (but has no demand).
        let (topo, demands) = triangle_instance();
        let a = NodeId(0);
        let c = NodeId(2);
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(a, c).unwrap(), 30); // low detours via B
        let w = DualWeights { high: wh, low: wl };
        ev.set_deployment(Some(DeploymentSet::from_upgraded(3, &[0])))
            .unwrap();
        let partial = ev.eval_dual(&w);
        ev.set_deployment(None).unwrap();
        let full = ev.eval_dual(&w);
        // The only low source is upgraded, so the partial evaluation
        // matches full deployment exactly: Φ_L = 8/3.
        assert_eq!(partial.cost, full.cost);
        assert!((partial.phi_l - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn deployment_fence_rejects_a_size_mismatch() {
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        assert_eq!(
            ev.set_deployment(Some(DeploymentSet::empty(5))),
            Err(EvalError::DeploymentSizeMismatch {
                deployment_nodes: 5,
                topo_nodes: 3
            })
        );
    }

    #[test]
    fn utilization_reports() {
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w = WeightVector::uniform(&topo, 1);
        let e = ev.eval_str(&w);
        // One unit of total traffic on one of six unit links.
        assert!((e.max_utilization(&topo) - 1.0).abs() < 1e-12);
        assert!((e.avg_utilization(&topo) - 1.0 / 6.0).abs() < 1e-12);
        let hu = e.high_utilizations(&topo);
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        assert!((hu[ac.index()] - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn masked_dual_eval_is_eval_dual_when_up_and_masked_loads_when_down() {
        use crate::scenarios::survivable_duplex_failures;
        use dtr_graph::gen::{random_topology, RandomTopologyCfg};
        use dtr_traffic::TrafficCfg;
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 8,
        });
        let cfg = TrafficCfg {
            seed: 8,
            ..Default::default()
        };
        let demands = DemandSet::generate(&topo, &cfg).scaled(4.0);
        let mut w = DualWeights::replicated(WeightVector::uniform(&topo, 3));
        w.high.set(dtr_graph::LinkId(2), 9);
        w.low.set(dtr_graph::LinkId(5), 1);
        let all_up = vec![true; topo.link_count()];
        for objective in [Objective::LoadBased, Objective::sla_default()] {
            let mut ev = Evaluator::new(&topo, &demands, objective);
            assert_eq!(ev.eval_dual_masked(&w, &all_up), ev.eval_dual(&w));
        }
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let cut = &survivable_duplex_failures(&topo)[0].link_up;
        let mut calc = LoadCalculator::new();
        let hl = calc.class_loads_masked(&topo, &w.high, cut, &demands.high);
        let ll = calc.class_loads_masked(&topo, &w.low, cut, &demands.low);
        let by_hand = ev.assemble(hl.clone(), ll, &w.high);
        assert_eq!(ev.eval_dual_masked(&w, cut), by_hand);
        assert_ne!(by_hand.cost, ev.eval_dual(&w).cost, "the cut must matter");

        // Under the SLA objective the walk follows the surviving DAGs: it
        // is the walk on a topology rebuilt without the cut links, not the
        // walk over the intact DAGs on the same loads.
        let mut ev = Evaluator::new(&topo, &demands, Objective::sla_default());
        let masked = ev.eval_dual_masked(&w, cut).sla.unwrap();
        let intact_dags = ev.high_side_from_loads(hl, &w.high, None).sla.unwrap();
        assert_ne!(masked.pair_delays, intact_dags.pair_delays);
        let survivors: Vec<_> = topo.links().filter(|(l, _)| cut[l.index()]).collect();
        let mut b = dtr_graph::TopologyBuilder::new();
        b.add_nodes(topo.node_count());
        for (_, link) in &survivors {
            b.add_link(link.src, link.dst, link.capacity, link.prop_delay);
        }
        let rebuilt = b.build().unwrap();
        let wh = WeightVector::from_vec(survivors.iter().map(|(l, _)| w.high.get(*l)).collect());
        let mut ev = Evaluator::new(&rebuilt, &demands, Objective::sla_default());
        let cut_free = ev.eval_high_side(&wh).sla.unwrap();
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * (1.0 + b.abs());
        assert_eq!(masked.violations, cut_free.violations);
        assert!(close(masked.lambda, cut_free.lambda));
        assert_eq!(masked.pair_delays.len(), cut_free.pair_delays.len());
        for (a, b) in masked.pair_delays.iter().zip(&cut_free.pair_delays) {
            assert_eq!((a.src, a.dst), (b.src, b.dst));
            assert!(close(a.delay_s, b.delay_s), "{a:?} vs {b:?}");
            assert!(close(a.penalty, b.penalty), "{a:?} vs {b:?}");
        }
        for (i, (l, _)) in survivors.iter().enumerate() {
            assert!(close(
                masked.link_delays[l.index()],
                cut_free.link_delays[i]
            ));
        }
    }
}
