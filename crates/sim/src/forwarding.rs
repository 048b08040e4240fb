//! Per-class ECMP forwarding state.
//!
//! Mirrors what MT-OSPF routers install: for each traffic class
//! (topology) and destination, every node's set of equal-cost next-hop
//! links. Packets pick uniformly among branches, which reproduces the
//! evaluator's even splitting in expectation.

use dtr_graph::weights::DualWeights;
use dtr_graph::{FlatTopo, NodeId, ShortestPathDag, Topology, WeightVector};
use dtr_routing::{hybrid_low_dag, DagSource, DeploymentSet, LoadCalculator};

/// Per-class, per-destination shortest-path DAGs.
///
/// The full [`ShortestPathDag`] is retained (not just the branch lists):
/// the discrete-event engine only reads the branches, but the fluid
/// backend ([`crate::FluidSim`]) also needs `order` for its
/// decreasing-distance load pushing and delay dynamic program — sharing
/// one structure guarantees both backends route on identical DAGs.
#[derive(Debug, Clone)]
pub struct ForwardingState {
    /// The view of the topology the DAGs were computed on.
    flat: FlatTopo,
    /// `dags[class][dest]` = the ECMP DAG towards `dest`, one row per
    /// priority class (0 = served first).
    dags: Vec<Vec<ShortestPathDag>>,
}

impl ForwardingState {
    /// Builds the tables from a dual weight setting: class 0 routes on
    /// `weights.high`, class 1 on `weights.low`.
    pub fn new(topo: &Topology, weights: &DualWeights) -> Self {
        Self::with_class_weights(topo, &[weights.high.clone(), weights.low.clone()])
    }

    /// Builds the tables for `weights.len()` priority classes, each
    /// routing on its own weight vector (the k-class generalization the
    /// unified objective spec plumbs through the backends).
    pub fn with_class_weights(topo: &Topology, weights: &[WeightVector]) -> Self {
        assert!(!weights.is_empty(), "need at least one class");
        let (flat, mut calc) = (FlatTopo::new(topo), LoadCalculator::new());
        let dags = (weights.iter())
            .map(|w| {
                let mut dags = Vec::with_capacity(flat.node_count());
                let spf = DagSource::Spf(w.as_slice(), None);
                calc.route(&flat, spf, &[], Some(&mut dags));
                dags
            })
            .collect();
        ForwardingState { flat, dags }
    }

    /// Builds the tables for a **partially deployed** network: class 0
    /// (high) routes on `weights.high` everywhere, while class 1's DAGs
    /// are the hybrid low DAGs of [`dtr_routing::hybrid_low_dag`] —
    /// legacy (non-upgraded) routers forward low traffic on the high
    /// topology because they only install one table. That DAG is the
    /// placement of the walk [`dtr_routing::push_hybrid`] runs for the
    /// evaluator and the engine, so both simulators route the low class
    /// exactly where those push it.
    ///
    /// A full deployment degenerates to [`ForwardingState::new`]
    /// bit-for-bit (the hybrid is skipped entirely, mirroring the
    /// evaluator's normalization). Nodes trapped by a cross-topology
    /// loop appear as unreachable in the hybrid DAG; callers that
    /// cannot tolerate undeliverable demand must gate on the
    /// evaluator's undeliverable volume *before* simulating.
    pub fn with_deployment(topo: &Topology, weights: &DualWeights, dep: &DeploymentSet) -> Self {
        let mut fwd = Self::new(topo, weights);
        if !dep.is_full() {
            let hybrid = (fwd.dags[1].iter().zip(&fwd.dags[0]))
                .map(|(pure, high)| hybrid_low_dag(&fwd.flat, dep, high, pure))
                .collect();
            fwd.dags[1] = hybrid;
        }
        fwd
    }

    /// Number of priority classes the tables cover.
    #[inline]
    pub fn classes(&self) -> usize {
        self.dags.len()
    }

    /// The ECMP branches (link indices) for priority class `class` at
    /// `node` towards `dest`. Empty when `node == dest`, and for a node
    /// that cannot forward: one that cannot reach `dest`, or one a
    /// partial deployment's forwarding loop traps.
    #[inline]
    pub fn branches(&self, class: usize, dest: NodeId, node: NodeId) -> &[u32] {
        self.dags[class][dest.index()].branches(&self.flat, node.0)
    }

    /// The full shortest-path DAG of priority class `class` towards
    /// `dest`.
    #[inline]
    pub fn dag(&self, class: usize, dest: NodeId) -> &ShortestPathDag {
        &self.dags[class][dest.index()]
    }

    /// Priority class `class`'s DAGs, indexed by destination.
    #[inline]
    pub(crate) fn class_dags(&self, class: usize) -> &[ShortestPathDag] {
        &self.dags[class]
    }

    /// The view of the topology the DAGs were computed on, which
    /// [`ShortestPathDag::branches`] reads.
    #[inline]
    pub fn flat(&self) -> &FlatTopo {
        &self.flat
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::triangle_topology;
    use dtr_graph::{LinkId, WeightVector};

    #[test]
    fn classes_can_diverge() {
        let topo = triangle_topology(1.0);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        // Push low-priority A→C traffic through B.
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let fwd = ForwardingState::new(&topo, &DualWeights { high: wh, low: wl });

        let high = fwd.branches(0, NodeId(2), NodeId(0));
        assert_eq!(high.len(), 1);
        assert_eq!(
            topo.link(LinkId(high[0])).dst,
            NodeId(2),
            "high goes direct"
        );

        let low = fwd.branches(1, NodeId(2), NodeId(0));
        assert_eq!(low.len(), 1);
        assert_eq!(
            topo.link(LinkId(low[0])).dst,
            NodeId(1),
            "low detours via B"
        );
    }

    #[test]
    fn k_class_tables_match_per_class_construction() {
        let topo = triangle_topology(1.0);
        let w0 = WeightVector::uniform(&topo, 1);
        let mut w1 = WeightVector::uniform(&topo, 1);
        w1.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let w2 = WeightVector::uniform(&topo, 3);
        let fwd = ForwardingState::with_class_weights(&topo, &[w0.clone(), w1.clone(), w2]);
        assert_eq!(fwd.classes(), 3);
        // The first two classes agree with the two-class constructor.
        let two = ForwardingState::new(&topo, &DualWeights { high: w0, low: w1 });
        for dest in topo.nodes() {
            for node in topo.nodes() {
                for class in 0..2 {
                    assert_eq!(
                        fwd.branches(class, dest, node),
                        two.branches(class, dest, node)
                    );
                }
            }
        }
    }

    #[test]
    fn full_deployment_matches_the_plain_constructor() {
        let topo = triangle_topology(1.0);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let w = DualWeights { high: wh, low: wl };
        let dep = DeploymentSet::full(3);
        let deployed = ForwardingState::with_deployment(&topo, &w, &dep);
        let plain = ForwardingState::new(&topo, &w);
        for class in 0..2 {
            for dest in topo.nodes() {
                for node in topo.nodes() {
                    assert_eq!(
                        deployed.branches(class, dest, node),
                        plain.branches(class, dest, node)
                    );
                }
            }
        }
    }

    #[test]
    fn legacy_nodes_forward_low_traffic_on_the_high_table() {
        let topo = triangle_topology(1.0);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        // A full deployment detours low A→C traffic through B…
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let w = DualWeights { high: wh, low: wl };
        // …but when only B is upgraded, legacy A keeps its single
        // (high-topology) table and sends low traffic straight to C.
        let dep = DeploymentSet::from_upgraded(3, &[1]);
        let fwd = ForwardingState::with_deployment(&topo, &w, &dep);
        let low = fwd.branches(1, NodeId(2), NodeId(0));
        assert_eq!(low.len(), 1);
        assert_eq!(
            topo.link(LinkId(low[0])).dst,
            NodeId(2),
            "legacy A goes direct"
        );
        // High forwarding is untouched by the deployment.
        let high = fwd.branches(0, NodeId(2), NodeId(0));
        assert_eq!(topo.link(LinkId(high[0])).dst, NodeId(2));
    }

    #[test]
    fn destination_has_no_branches() {
        let topo = triangle_topology(1.0);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let fwd = ForwardingState::new(&topo, &w);
        assert!(fwd.branches(0, NodeId(1), NodeId(1)).is_empty());
    }
}
