//! Router-configuration rendering for a dual-topology weight setting.
//!
//! RFC 4915 deployments configure one metric per topology per interface.
//! This module renders the per-router configuration stanzas an operator
//! would push — the concrete artifact of "configuration overhead" the
//! paper's §1 counts against DTR — in a vendor-neutral, diff-friendly
//! format:
//!
//! ```text
//! router n3
//!   interface l12 to n7
//!     topology base   metric 4
//!     topology mt-1   metric 19
//! ```

use dtr_graph::weights::DualWeights;
use dtr_graph::{NodeId, Topology};
use std::fmt::Write as _;

/// Renders the configuration stanza for one router.
pub fn router_config(topo: &Topology, weights: &DualWeights, router: NodeId) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "router {}", topo.node_name(router));
    for &lid in topo.out_links(router) {
        let link = topo.link(lid);
        let _ = writeln!(s, "  interface {} to {}", lid, topo.node_name(link.dst));
        let _ = writeln!(s, "    topology base   metric {}", weights.high.get(lid));
        let _ = writeln!(s, "    topology mt-1   metric {}", weights.low.get(lid));
    }
    s
}

/// Renders the whole network's configuration (one stanza per router).
pub fn network_config(topo: &Topology, weights: &DualWeights) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "! dual-topology routing configuration — {} routers, {} interfaces",
        topo.node_count(),
        topo.link_count()
    );
    let _ = writeln!(
        s,
        "! topology base = high-priority class (MT-ID 0), mt-1 = low-priority (RFC 4915)"
    );
    for n in topo.nodes() {
        s.push('\n');
        s.push_str(&router_config(topo, weights, n));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::triangle_topology;
    use dtr_graph::WeightVector;

    fn setup() -> (Topology, DualWeights) {
        let topo = triangle_topology(1.0);
        let mut w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        w.low.set(dtr_graph::LinkId(0), 17);
        (topo, w)
    }

    #[test]
    fn router_stanza_lists_all_interfaces_with_both_metrics() {
        let (topo, w) = setup();
        let cfg = router_config(&topo, &w, NodeId(0));
        assert!(cfg.starts_with("router A"));
        assert_eq!(cfg.matches("interface").count(), 2);
        assert_eq!(cfg.matches("topology base").count(), 2);
        assert_eq!(cfg.matches("topology mt-1").count(), 2);
        assert!(cfg.contains("metric 17"));
    }

    #[test]
    fn network_config_covers_every_router_and_interface() {
        let (topo, w) = setup();
        let cfg = network_config(&topo, &w);
        // Count stanza lines precisely (the banner mentions "routers"
        // and "interfaces" too).
        let routers = cfg.lines().filter(|l| l.starts_with("router ")).count();
        let interfaces = cfg
            .lines()
            .filter(|l| l.starts_with("  interface "))
            .count();
        assert_eq!(routers, 3);
        assert_eq!(interfaces, 6);
    }
}
