//! The control-plane price of deploying a DTR weight change (§1).
//!
//! The paper motivates DTR's benefits but is explicit about its costs:
//! *"the need to configure and disseminate multiple weights for each
//! link and run multiple SPF algorithms in the presence of network
//! changes."* This module prices that sentence for one deployment:
//!
//! - **Wire bytes** — RFC 2328 router LSAs are 24 bytes of header plus
//!   12 bytes per advertised link; RFC 4915 adds 4 bytes per link per
//!   *additional* topology. [`lsa_wire_bytes`] implements that format
//!   model, and [`crate::ControlStats::lsa_bytes`] accumulates it over
//!   every flooded message of the dual-topology fabric.
//! - **SPF executions** — one per topology per convergence per router.
//!
//! [`deployment_cost`] boots a converged network on the running
//! configuration, applies only the changed metrics, and reports the
//! flood, SPF and convergence-time cost of getting back to quiescence
//! as a [`ChurnReport`] — the churn side `dtrd` weighs a reoptimization
//! against.

use crate::lsa::RouterLsa;
use crate::network::{ControlStats, MtrNetwork};
use dtr_graph::weights::DualWeights;
use dtr_graph::Topology;
use serde::{Deserialize, Serialize};

/// LSA header bytes (RFC 2328: 20-byte LSA header + 4 bytes of router
/// LSA preamble).
pub const LSA_HEADER_BYTES: u64 = 24;
/// Bytes per link entry in the base topology (RFC 2328 link entry).
pub const LINK_ENTRY_BYTES: u64 = 12;
/// Extra bytes per link entry per additional topology (RFC 4915 MT-ID +
/// metric field).
pub const MT_METRIC_BYTES: u64 = 4;

/// Wire size of one router LSA under `topologies` configured topologies.
pub fn lsa_wire_bytes(lsa: &RouterLsa, topologies: usize) -> u64 {
    assert!(topologies >= 1);
    let links = lsa.links.len() as u64;
    LSA_HEADER_BYTES + links * LINK_ENTRY_BYTES + links * MT_METRIC_BYTES * (topologies as u64 - 1)
}

fn delta(after: ControlStats, before: ControlStats) -> (u64, u64, u64) {
    (
        after.lsa_messages - before.lsa_messages,
        after.lsa_bytes - before.lsa_bytes,
        after.spf_runs - before.spf_runs,
    )
}

/// Per-delivered-LSA processing latency in the coarse convergence model
/// of [`deployment_cost`] (seconds).
pub const LSA_PROCESSING_S: f64 = 1e-3;
/// Per-SPF-execution latency in the coarse convergence model of
/// [`deployment_cost`] (seconds).
pub const SPF_COMPUTE_S: f64 = 5e-3;

/// The control-plane price of deploying one weight change, as measured
/// by [`deployment_cost`]. This is the "churn" side of the paper's §1
/// trade-off, in the units an operator budgets: flooded messages and
/// bytes, SPF reruns, and a coarse convergence-time estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnReport {
    /// Metric statements that differ between old and new configuration
    /// (per link per topology — what `h`-change reoptimization budgets).
    pub changed_metrics: usize,
    /// Routers that had to re-read their config and re-originate.
    pub routers_reconfigured: usize,
    /// LSA messages flooded until the network went quiet again.
    pub lsa_messages: u64,
    /// Wire bytes of those messages (RFC 4915 format model).
    pub lsa_bytes: u64,
    /// SPF executions triggered across all routers.
    pub spf_runs: u64,
    /// Coarse convergence-time estimate: per-router LSA processing plus
    /// per-router SPF compute ([`LSA_PROCESSING_S`], [`SPF_COMPUTE_S`]).
    pub convergence_s: f64,
}

impl ChurnReport {
    /// The zero-cost report (deploying an identical configuration).
    pub fn zero() -> Self {
        ChurnReport {
            changed_metrics: 0,
            routers_reconfigured: 0,
            lsa_messages: 0,
            lsa_bytes: 0,
            spf_runs: 0,
            convergence_s: 0.0,
        }
    }
}

/// Prices the deployment of `new` over the running configuration `old`
/// on `topo` (dual-topology mode): boots a converged network on `old`,
/// applies the delta through [`MtrNetwork::reconfigure_changed`], and
/// returns the flood/SPF/convergence cost of getting back to
/// quiescence. Identical configurations cost exactly
/// [`ChurnReport::zero`].
///
/// The emulation runs on the intact topology — churn is priced as if
/// all links were up, which keeps the cost of a given weight delta
/// independent of unrelated concurrent failures.
pub fn deployment_cost(topo: &Topology, old: &DualWeights, new: &DualWeights) -> ChurnReport {
    assert_eq!(old.high.len(), topo.link_count());
    assert_eq!(new.high.len(), topo.link_count());
    let changed_metrics = old.high.hamming(&new.high) + old.low.hamming(&new.low);
    if changed_metrics == 0 {
        return ChurnReport::zero();
    }
    let mut net = MtrNetwork::new(topo, old.clone());
    net.converge();
    let before = net.stats;
    let routers_reconfigured = net.reconfigure_changed(new.clone());
    net.converge();
    let (lsa_messages, lsa_bytes, spf_runs) = delta(net.stats, before);
    let n = topo.node_count() as f64;
    let convergence_s =
        (lsa_messages as f64 / n) * LSA_PROCESSING_S + (spf_runs as f64 / n) * SPF_COMPUTE_S;
    ChurnReport {
        changed_metrics,
        routers_reconfigured,
        lsa_messages,
        lsa_bytes,
        spf_runs,
        convergence_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{isp_topology, triangle_topology};
    use dtr_graph::{NodeId, WeightVector};

    fn dual_weights(topo: &Topology) -> DualWeights {
        use dtr_graph::LinkId;
        let wh = WeightVector::uniform(topo, 1);
        let mut wl = WeightVector::uniform(topo, 1);
        wl.set(LinkId(0), 30);
        DualWeights { high: wh, low: wl }
    }

    #[test]
    fn wire_size_model() {
        let lsa = RouterLsa {
            origin: NodeId(0),
            seq: 1,
            links: vec![],
        };
        assert_eq!(lsa_wire_bytes(&lsa, 1), 24);
        assert_eq!(lsa_wire_bytes(&lsa, 2), 24);
        let topo = triangle_topology(1.0);
        let mut r = crate::Router::new(NodeId(0), 3);
        let lsa = r.originate(&topo, &dual_weights(&topo), &[true; 6]);
        // 2 out-links: 24 + 2·12 = 48 single, +2·4 = 56 dual.
        assert_eq!(lsa_wire_bytes(&lsa, 1), 48);
        assert_eq!(lsa_wire_bytes(&lsa, 2), 56);
    }

    #[test]
    fn deployment_cost_of_identical_config_is_zero() {
        let topo = isp_topology();
        let w = dual_weights(&topo);
        assert_eq!(deployment_cost(&topo, &w, &w), ChurnReport::zero());
    }

    #[test]
    fn deployment_cost_scales_with_change_footprint() {
        let topo = isp_topology();
        let old = dual_weights(&topo);

        // One changed metric: one router re-originates.
        let mut one = old.clone();
        one.low.set(dtr_graph::LinkId(2), 9);
        let small = deployment_cost(&topo, &old, &one);
        assert_eq!(small.changed_metrics, 1);
        assert_eq!(small.routers_reconfigured, 1);
        assert!(small.lsa_messages > 0);
        assert!(small.lsa_bytes > small.lsa_messages); // every LSA has a header
        assert!(small.spf_runs > 0);
        assert!(small.convergence_s > 0.0);

        // A network-wide change touches every router and floods more.
        let all = DualWeights {
            high: WeightVector::delay_proportional(&topo, 30),
            low: WeightVector::delay_proportional(&topo, 29),
        };
        let big = deployment_cost(&topo, &old, &all);
        assert!(big.changed_metrics > small.changed_metrics);
        assert_eq!(big.routers_reconfigured, topo.node_count());
        assert!(big.lsa_messages > small.lsa_messages);
        assert!(big.convergence_s >= small.convergence_s);
    }

    #[test]
    fn deployment_cost_is_deterministic_and_serializable() {
        let topo = triangle_topology(1.0);
        let old = dual_weights(&topo);
        let mut new = old.clone();
        new.high.set(dtr_graph::LinkId(1), 5);
        let a = deployment_cost(&topo, &old, &new);
        let b = deployment_cost(&topo, &old, &new);
        assert_eq!(a, b);
        let json = serde_json::to_string(&a).unwrap();
        let back: ChurnReport = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
