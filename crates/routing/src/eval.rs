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

use crate::deploy::{hybrid_low_dag, trapped_flow, DeploymentSet};
use crate::loads::{
    avg_utilization, max_utilization, push_demand_down_dag, ClassLoads, LoadCalculator,
};
use dtr_cost::{link_delay, phi, sla_penalty, Lex2, Objective, SlaParams};
use dtr_graph::weights::DualWeights;
use dtr_graph::{DagView, NodeId, ShortestPathDag, SpfWorkspace, Topology, WeightVector};
use dtr_traffic::DemandSet;
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
    /// A partial [`DeploymentSet`] was combined with the SLA objective.
    /// The Eq. 3/4 delay model assumes the high class rides dedicated
    /// shortest paths; under a hybrid low DAG with trapped demand the
    /// per-pair delay walk is undefined, so the combination is fenced
    /// off rather than silently mis-modeled.
    DeploymentWithSla,
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
            EvalError::DeploymentWithSla => write!(
                f,
                "partial deployment is only supported under the load-based \
                 objective (the SLA delay model is undefined over hybrid DAGs)"
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
        self.calc.class_loads(self.topo, wh, &self.demands.high)
    }

    /// Routes the low class on `wl`.
    pub fn low_loads(&mut self, wl: &WeightVector) -> ClassLoads {
        self.calc.class_loads(self.topo, wl, &self.demands.low)
    }

    /// Binds a partial-deployment model (see [`crate::deploy`]), or
    /// clears it with `None`. A full set is normalized to `None` so
    /// every downstream branch takes the exact legacy code path and
    /// full-deployment results stay bit-identical.
    ///
    /// Partial deployment composes with the load-based objective only
    /// ([`EvalError::DeploymentWithSla`]); the set must cover the bound
    /// topology's nodes ([`EvalError::DeploymentSizeMismatch`]).
    pub fn set_deployment(&mut self, dep: Option<DeploymentSet>) -> Result<(), EvalError> {
        let dep = match dep {
            Some(d) if !d.is_full() => d,
            _ => {
                self.deployment = None;
                return Ok(());
            }
        };
        if matches!(self.objective, Objective::SlaBased(_)) {
            return Err(EvalError::DeploymentWithSla);
        }
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
    /// Destinations are processed in ascending node order with the same
    /// push primitive as [`Self::low_loads`]. (Full-deployment
    /// bit-identity is guaranteed one level up: [`Self::set_deployment`]
    /// normalizes a full set to `None`, so the legacy path runs — this
    /// method is only ever invoked for genuinely partial sets.)
    pub fn low_loads_deployed(
        &mut self,
        dep: &DeploymentSet,
        wh: &WeightVector,
        wl: &WeightVector,
    ) -> (ClassLoads, f64) {
        let topo = self.topo;
        let mut out = vec![0.0; topo.link_count()];
        let mut flow = Vec::new();
        let mut undeliverable = 0.0;
        for t in topo.nodes() {
            if self.demands.low.demands_to(t.index()).next().is_none() {
                continue;
            }
            let dh = ShortestPathDag::compute_with(topo, wh, t, None, &mut self.ws);
            let dl = ShortestPathDag::compute_with(topo, wl, t, None, &mut self.ws);
            let hybrid = hybrid_low_dag(topo, dep, &dh, &dl);
            push_demand_down_dag(topo, &hybrid, &self.demands.low, t, &mut flow, &mut out);
            undeliverable += trapped_flow(&hybrid, &flow);
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
    /// loads. An all-up mask is exactly [`Self::eval_dual`]. With a
    /// link down only the load-based objective on a full deployment is
    /// defined — the SLA walk and the hybrid low DAGs have no masked
    /// form — and the caller must keep the survivors strongly connected.
    pub fn eval_dual_masked(&mut self, w: &DualWeights, link_up: &[bool]) -> Evaluation {
        if link_up.iter().all(|&up| up) {
            return self.eval_dual(w);
        }
        debug_assert!(
            matches!(self.objective, Objective::LoadBased) && self.deployment.is_none(),
            "links can only be down under the load objective on a full deployment"
        );
        let hl = self
            .calc
            .class_loads_masked(self.topo, &w.high, link_up, &self.demands.high);
        let ll = self
            .calc
            .class_loads_masked(self.topo, &w.low, link_up, &self.demands.low);
        self.assemble(hl, ll, &w.high)
    }

    /// Single-topology evaluation (both classes share `w`); one SPF pass
    /// per destination covers both classes.
    pub fn eval_str(&mut self, w: &WeightVector) -> Evaluation {
        let (h, l) = self
            .calc
            .joint_loads(self.topo, w, &self.demands.high, &self.demands.low);
        self.assemble(h, l, w)
    }

    /// Everything that depends **only** on the high-priority weight
    /// vector: loads, per-link Φ against raw capacity, and (under the SLA
    /// objective) link delays and per-pair penalties. `FindL` iterations
    /// cache this and re-evaluate only the cheap low side.
    pub fn eval_high_side(&mut self, wh: &WeightVector) -> HighSide {
        let loads = self.high_loads(wh);
        self.high_side_from_loads(loads, wh)
    }

    /// Builds a [`HighSide`] from precomputed high-class loads (which must
    /// have been routed on `wh`).
    pub fn high_side_from_loads(&mut self, loads: ClassLoads, wh: &WeightVector) -> HighSide {
        let sla = match self.objective {
            Objective::LoadBased => None,
            Objective::SlaBased(params) => Some(self.eval_sla(&loads, wh, &params)),
        };
        self.high_side_with_sla(loads, sla)
    }

    /// Combines a (possibly cached) high side with fresh low-class loads.
    /// Costs `O(|E|)` — this is the hot path of `FindL`.
    ///
    /// Under the SLA objective the high side must carry its
    /// [`SlaEvaluation`] (every `HighSide` this evaluator builds does);
    /// a high side assembled externally without one yields
    /// [`EvalError::MissingSlaEvaluation`] instead of a panic.
    pub fn finish(&self, high: HighSide, low_loads: ClassLoads) -> Result<Evaluation, EvalError> {
        let topo = self.topo;
        let m = topo.link_count();
        let mut phi_l_per_link = vec![0.0; m];
        let mut phi_l = 0.0;
        for (lid, link) in topo.links() {
            let i = lid.index();
            let residual = (link.capacity - high.loads[i]).max(0.0);
            let pl = phi(low_loads[i], residual);
            phi_l_per_link[i] = pl;
            phi_l += pl;
        }
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
        let high = self.high_side_from_loads(high_loads, high_weights);
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
    /// Dijkstra; the per-link Φ loop is identical to
    /// [`Self::high_side_from_loads`].
    pub fn high_side_with_sla(&self, loads: ClassLoads, sla: Option<SlaEvaluation>) -> HighSide {
        let topo = self.topo;
        let mut phi_per_link = vec![0.0; topo.link_count()];
        let mut phi_sum = 0.0;
        for (lid, link) in topo.links() {
            let p = phi(loads[lid.index()], link.capacity);
            phi_per_link[lid.index()] = p;
            phi_sum += p;
        }
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
    /// class routed on `wh`.
    fn eval_sla(
        &mut self,
        high_loads: &[f64],
        wh: &WeightVector,
        params: &SlaParams,
    ) -> SlaEvaluation {
        let topo = self.topo;
        let ws = &mut self.ws;
        sla_evaluation(
            topo,
            &self.demands.high,
            &self.high_dests,
            high_loads,
            params,
            |t| ShortestPathDag::compute_with(topo, wh, t, None, ws),
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

/// The SLA walk (Eq. 3 link delays + Eq. 4 pair penalties), generic over
/// where the per-destination shortest-path DAGs come from.
///
/// [`Evaluator`] computes a [`ShortestPathDag`] per destination with one
/// reverse-Dijkstra; `dtr-engine` hands in the flat DAGs its backends
/// maintain, through the same [`DagView`]. Both execute the identical
/// arithmetic in the identical order (destinations ascending, the DAG's
/// order reversed for the ξ dynamic program), so results are
/// bit-identical.
///
/// `dests` must be the destinations with high-priority demand in
/// ascending node order (see [`Evaluator::high_dests`]); `dag_for` is
/// called once per destination, in that order.
pub fn sla_evaluation<D, F>(
    topo: &Topology,
    high: &dtr_traffic::TrafficMatrix,
    dests: &[NodeId],
    high_loads: &[f64],
    params: &SlaParams,
    dag_for: F,
) -> SlaEvaluation
where
    D: DagView,
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
    sla_walk(topo, high, dests, link_delays, params, dag_for)
}

/// The ξ dynamic program and Eq. 4 penalty accumulation over
/// **precomputed** per-link delays.
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
    topo: &Topology,
    matrix: &dtr_traffic::TrafficMatrix,
    dests: &[NodeId],
    link_delays: Vec<f64>,
    params: &SlaParams,
    mut dag_for: F,
) -> SlaEvaluation
where
    D: DagView,
    F: FnMut(NodeId) -> D,
{
    let mut pair_delays = Vec::new();
    let mut lambda = 0.0;
    let mut violations = 0;
    // ξ(v → t): expected delay over even ECMP splitting, computed by
    // dynamic programming in increasing-distance order.
    let mut xi = vec![0.0f64; topo.node_count()];
    for &t in dests {
        let dag = dag_for(t);
        xi.fill(0.0);
        // `dag.order()` is decreasing distance; walk it backwards.
        for &v in dag.order().iter().rev() {
            if v == t.0 || !dag.reachable(v) {
                continue;
            }
            let branches = dag.branches(v);
            let len = branches.len();
            let mut acc = 0.0;
            for lid in branches {
                acc += link_delays[lid.index()] + xi[topo.link(lid).dst.index()];
            }
            xi[v as usize] = acc / len as f64;
        }
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
    fn deployment_fences_reject_sla_and_size_mismatch() {
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::SlaBased(SlaParams::default()));
        assert_eq!(
            ev.set_deployment(Some(DeploymentSet::empty(3))),
            Err(EvalError::DeploymentWithSla)
        );
        // A FULL set is fine even under SLA — it normalizes away.
        assert_eq!(ev.set_deployment(Some(DeploymentSet::full(3))), Ok(()));
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
        let by_hand = ev.assemble(hl, ll, &w.high);
        assert_eq!(ev.eval_dual_masked(&w, cut), by_hand);
        assert_ne!(by_hand.cost, ev.eval_dual(&w).cost, "the cut must matter");
    }
}
