//! Per-class ECMP forwarding state.
//!
//! Mirrors what MT-OSPF routers install: for each traffic class
//! (topology) and destination, every node's set of equal-cost next-hop
//! links. Packets pick uniformly among branches, which reproduces the
//! evaluator's even splitting in expectation.

use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, NodeId, ShortestPathDag, Topology, WeightVector};
use dtr_routing::{hybrid_low_dag, DeploymentSet};

/// Per-class, per-destination shortest-path DAGs.
///
/// The full [`ShortestPathDag`] is retained (not just the branch lists):
/// the discrete-event engine only reads `ecmp_out`, but the fluid
/// backend ([`crate::FluidSim`]) also needs `order` for its
/// decreasing-distance load pushing and delay dynamic program — sharing
/// one structure guarantees both backends route on identical DAGs.
#[derive(Debug, Clone)]
pub struct ForwardingState {
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
        ForwardingState {
            dags: weights
                .iter()
                .map(|w| {
                    topo.nodes()
                        .map(|dest| ShortestPathDag::compute(topo, w, dest))
                        .collect()
                })
                .collect(),
        }
    }

    /// Builds the tables for a **partially deployed** network: class 0
    /// (high) routes on `weights.high` everywhere, while class 1's DAGs
    /// are the hybrid low DAGs of [`dtr_routing::hybrid_low_dag`] —
    /// legacy (non-upgraded) routers forward low traffic on the high
    /// topology because they only install one table.
    ///
    /// A full deployment degenerates to [`ForwardingState::new`]
    /// bit-for-bit (the hybrid is skipped entirely, mirroring the
    /// evaluator's normalization). Nodes trapped by a cross-topology
    /// loop appear as unreachable in the hybrid DAG; callers that
    /// cannot tolerate undeliverable demand must gate on the
    /// evaluator's undeliverable volume *before* simulating.
    pub fn with_deployment(topo: &Topology, weights: &DualWeights, dep: &DeploymentSet) -> Self {
        if dep.is_full() {
            return Self::new(topo, weights);
        }
        let high: Vec<ShortestPathDag> = topo
            .nodes()
            .map(|dest| ShortestPathDag::compute(topo, &weights.high, dest))
            .collect();
        let low = topo
            .nodes()
            .map(|dest| {
                let pure = ShortestPathDag::compute(topo, &weights.low, dest);
                hybrid_low_dag(topo, dep, &high[dest.index()], &pure)
            })
            .collect();
        ForwardingState {
            dags: vec![high, low],
        }
    }

    /// Number of priority classes the tables cover.
    #[inline]
    pub fn classes(&self) -> usize {
        self.dags.len()
    }

    /// The ECMP branches for priority class `class` at `node` towards
    /// `dest`. Empty exactly when `node == dest`.
    #[inline]
    pub fn branches(&self, class: usize, dest: NodeId, node: NodeId) -> &[LinkId] {
        &self.dags[class][dest.index()].ecmp_out[node.index()]
    }

    /// The full shortest-path DAG of priority class `class` towards
    /// `dest`.
    #[inline]
    pub fn dag(&self, class: usize, dest: NodeId) -> &ShortestPathDag {
        &self.dags[class][dest.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::triangle_topology;
    use dtr_graph::WeightVector;

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
        assert_eq!(topo.link(high[0]).dst, NodeId(2), "high goes direct");

        let low = fwd.branches(1, NodeId(2), NodeId(0));
        assert_eq!(low.len(), 1);
        assert_eq!(topo.link(low[0]).dst, NodeId(1), "low detours via B");
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
        assert_eq!(topo.link(low[0]).dst, NodeId(2), "legacy A goes direct");
        // High forwarding is untouched by the deployment.
        let high = fwd.branches(0, NodeId(2), NodeId(0));
        assert_eq!(topo.link(high[0]).dst, NodeId(2));
    }

    #[test]
    fn destination_has_no_branches() {
        let topo = triangle_topology(1.0);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let fwd = ForwardingState::new(&topo, &w);
        assert!(fwd.branches(0, NodeId(1), NodeId(1)).is_empty());
    }
}
