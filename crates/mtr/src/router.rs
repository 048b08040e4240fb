//! Per-router state: LSA origination, SPF, and per-topology FIBs.

use crate::lsa::{LsaLink, MtMetric, RouterLsa, TopologyId, TOPOLOGY_COUNT};
use crate::lsdb::Lsdb;
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, NodeId, SpfTree, Topology, WeightVector};

/// A per-topology forwarding table: ECMP next-hop links per destination.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Fib {
    /// `next_hops[dest]` = out-links of this router toward `dest`
    /// (empty for the router itself and unreachable destinations).
    pub next_hops: Vec<Vec<LinkId>>,
}

impl Fib {
    /// ECMP branches towards `dest`.
    pub fn lookup(&self, dest: NodeId) -> &[LinkId] {
        &self.next_hops[dest.index()]
    }
}

/// One emulated router.
#[derive(Debug, Clone)]
pub struct Router {
    /// The router's node id.
    pub id: NodeId,
    /// Its link-state database.
    pub lsdb: Lsdb,
    /// Per-topology FIBs, indexed by [`TopologyId::idx`].
    pub fibs: [Fib; TOPOLOGY_COUNT],
    /// SPF executions performed (×2 per recompute under MTR — the
    /// computational overhead the paper's §1 attributes to DTR).
    pub spf_runs: u64,
    seq: u64,
}

impl Router {
    /// A fresh router with an empty database.
    pub fn new(id: NodeId, n_routers: usize) -> Self {
        Router {
            id,
            lsdb: Lsdb::new(n_routers),
            fibs: [Fib::default(), Fib::default()],
            spf_runs: 0,
            seq: 0,
        }
    }

    /// Builds this router's LSA from its locally configured interfaces:
    /// per-topology metrics from `weights`, operational state from
    /// `link_up`. Each call bumps the sequence number.
    pub fn originate(
        &mut self,
        topo: &Topology,
        weights: &DualWeights,
        link_up: &[bool],
    ) -> RouterLsa {
        self.seq += 1;
        let links = topo
            .out_links(self.id)
            .iter()
            .map(|&lid| LsaLink {
                link: lid,
                to: topo.link(lid).dst,
                metrics: [
                    MtMetric {
                        topology: TopologyId::DEFAULT,
                        metric: weights.high.get(lid),
                    },
                    MtMetric {
                        topology: TopologyId::LOW,
                        metric: weights.low.get(lid),
                    },
                ],
                up: link_up[lid.index()],
            })
            .collect();
        RouterLsa {
            origin: self.id,
            seq: self.seq,
            links,
        }
    }

    /// Reconstructs one topology's weight vector and usable-link mask
    /// from the LSDB. Links whose origin LSA is missing, or which are
    /// advertised down, are unusable.
    pub fn view(&self, topo: &Topology, topology: TopologyId) -> (WeightVector, Vec<bool>) {
        let mut weights = vec![1u32; topo.link_count()];
        let mut up = vec![false; topo.link_count()];
        for lsa in self.lsdb.iter() {
            for l in &lsa.links {
                weights[l.link.index()] = l.metrics[topology.idx()].metric;
                up[l.link.index()] = l.up;
            }
        }
        (WeightVector::from_vec(weights), up)
    }

    /// Recomputes both topologies' FIBs from the current LSDB.
    pub fn recompute(&mut self, topo: &Topology) {
        for t in [TopologyId::DEFAULT, TopologyId::LOW] {
            let (weights, up) = self.view(topo, t);
            let tree = SpfTree::compute(topo, &weights, self.id, Some(&up));
            self.fibs[t.idx()] = Fib {
                next_hops: tree.next_hops,
            };
            self.spf_runs += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::triangle_topology;

    fn setup() -> (Topology, DualWeights) {
        let topo = triangle_topology(1.0);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        (topo, w)
    }

    #[test]
    fn origination_bumps_sequence_and_carries_metrics() {
        let (topo, mut w) = setup();
        w.low.set(LinkId(0), 17);
        let up = vec![true; topo.link_count()];
        let mut r = Router::new(NodeId(0), 3);
        let a = r.originate(&topo, &w, &up);
        let b = r.originate(&topo, &w, &up);
        assert_eq!(a.seq + 1, b.seq);
        assert_eq!(a.links.len(), 2);
        // Link 0 is one of node 0's out-links; find it.
        let l0 = a.links.iter().find(|l| l.link == LinkId(0)).unwrap();
        assert_eq!(l0.metrics[TopologyId::LOW.idx()].metric, 17);
        assert_eq!(l0.metrics[TopologyId::DEFAULT.idx()].metric, 1);
    }

    #[test]
    fn view_marks_unknown_links_down() {
        let (topo, w) = setup();
        let up = vec![true; topo.link_count()];
        let mut r = Router::new(NodeId(0), 3);
        let own = r.originate(&topo, &w, &up);
        r.lsdb.install(own);
        let (_, mask) = r.view(&topo, TopologyId::DEFAULT);
        // Only node 0's own links are known so far.
        for &lid in topo.out_links(NodeId(0)) {
            assert!(mask[lid.index()]);
        }
        for &lid in topo.out_links(NodeId(1)) {
            assert!(!mask[lid.index()]);
        }
    }

    #[test]
    fn recompute_with_full_lsdb_reaches_everything() {
        let (topo, w) = setup();
        let up = vec![true; topo.link_count()];
        let mut routers: Vec<Router> = topo.nodes().map(|n| Router::new(n, 3)).collect();
        let lsas: Vec<RouterLsa> = routers
            .iter_mut()
            .map(|r| r.originate(&topo, &w, &up))
            .collect();
        let r0 = &mut routers[0];
        for lsa in lsas {
            r0.lsdb.install(lsa);
        }
        r0.recompute(&topo);
        assert_eq!(r0.spf_runs, 2, "one SPF per topology");
        for dest in [NodeId(1), NodeId(2)] {
            assert!(!r0.fibs[0].lookup(dest).is_empty());
            assert!(!r0.fibs[1].lookup(dest).is_empty());
        }
        assert!(r0.fibs[0].lookup(NodeId(0)).is_empty());
    }
}
