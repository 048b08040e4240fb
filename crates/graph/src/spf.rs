//! Shortest-path-first computation with equal-cost multipath (ECMP).
//!
//! IP routers running OSPF/IS-IS forward a packet for destination `t` along
//! *all* outgoing links that lie on some shortest path to `t`, splitting
//! load evenly among them at every hop. The object that captures this is
//! the **shortest-path DAG towards a destination**: for each node `v`, the
//! set of out-links `(v, u)` with `dist(v, t) = w(v, u) + dist(u, t)`.
//!
//! [`ShortestPathDag::compute`] builds that DAG with one reverse-Dijkstra
//! run per destination. The weight-search heuristics run this millions of
//! times, so a reusable [`SpfWorkspace`] avoids per-call allocation.
//!
//! [`SpfTree`] is the complementary single-source view (used by the MT-OSPF
//! control plane to build per-router forwarding tables).

use crate::topology::{LinkId, NodeId, Topology};
use crate::weights::WeightVector;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance value; `u64` cannot overflow for any realistic weight setting
/// (`|V| · MAX_WEIGHT ≪ u64::MAX`).
pub type Dist = u64;

/// Marker for unreachable nodes (only possible when links are filtered
/// out, e.g. during failure simulation — validated topologies are strongly
/// connected).
pub const UNREACHABLE: Dist = u64::MAX;

/// Scratch space for Dijkstra runs, reusable across calls.
///
/// The binary heap is drained on every run; `dist` and the DAG adjacency
/// are sized to the topology on first use.
#[derive(Debug, Default, Clone)]
pub struct SpfWorkspace {
    heap: BinaryHeap<Reverse<(Dist, u32)>>,
    settled: Vec<bool>,
}

impl SpfWorkspace {
    /// Creates an empty workspace; arrays grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.settled.clear();
        self.settled.resize(n, false);
    }
}

/// Read access to the ECMP shortest-path DAG towards one destination:
/// what a walk over the DAG's nodes reads. Implemented by
/// [`ShortestPathDag`] and by `dtr-engine`'s flat DAGs, so one walk
/// (`dtr_routing::sla_walk`) serves both.
pub trait DagView {
    /// Node indices by decreasing distance to the destination.
    fn order(&self) -> &[u32];
    /// True if node `v` can reach the destination.
    fn reachable(&self, v: u32) -> bool;
    /// `v`'s ECMP out-links, in out-link scan order.
    fn branches(&self, v: u32) -> impl ExactSizeIterator<Item = LinkId> + '_;
}

impl DagView for ShortestPathDag {
    fn order(&self) -> &[u32] {
        &self.order
    }

    fn reachable(&self, v: u32) -> bool {
        self.dist[v as usize] != UNREACHABLE
    }

    fn branches(&self, v: u32) -> impl ExactSizeIterator<Item = LinkId> + '_ {
        self.ecmp_out[v as usize].iter().copied()
    }
}

/// The ECMP shortest-path DAG *towards* one destination.
#[derive(Debug, Clone)]
pub struct ShortestPathDag {
    /// The destination all paths lead to.
    pub dest: NodeId,
    /// `dist[v]` = length of the shortest `v → dest` path.
    pub dist: Vec<Dist>,
    /// `ecmp_out[v]` = out-links of `v` on shortest paths to `dest`.
    /// Empty for `dest` itself and for unreachable nodes.
    pub ecmp_out: Vec<Vec<LinkId>>,
    /// Node indices sorted by **decreasing** distance to `dest` —
    /// the order in which demand can be pushed through the DAG so that all
    /// upstream contributions are known before a node is processed.
    pub order: Vec<u32>,
}

impl ShortestPathDag {
    /// Computes the DAG for `dest` under `weights`.
    pub fn compute(topo: &Topology, weights: &WeightVector, dest: NodeId) -> Self {
        let mut ws = SpfWorkspace::new();
        Self::compute_with(topo, weights, dest, None, &mut ws)
    }

    /// Computes the DAG, optionally masking out links (`link_up[l] ==
    /// false` removes link `l`; `None` keeps all) and reusing `ws`.
    pub fn compute_with(
        topo: &Topology,
        weights: &WeightVector,
        dest: NodeId,
        link_up: Option<&[bool]>,
        ws: &mut SpfWorkspace,
    ) -> Self {
        debug_assert_eq!(weights.len(), topo.link_count());
        let n = topo.node_count();
        ws.reset(n);

        let mut dist = vec![UNREACHABLE; n];
        dist[dest.index()] = 0;
        ws.heap.push(Reverse((0, dest.0)));

        // Reverse Dijkstra: relax *incoming* links of the settled node.
        while let Some(Reverse((d, v))) = ws.heap.pop() {
            let vi = v as usize;
            if ws.settled[vi] {
                continue;
            }
            ws.settled[vi] = true;
            for &lid in topo.in_links(NodeId(v)) {
                if let Some(up) = link_up {
                    if !up[lid.index()] {
                        continue;
                    }
                }
                let link = topo.link(lid);
                let u = link.src.index();
                let nd = d + weights.get(lid) as Dist;
                if nd < dist[u] {
                    dist[u] = nd;
                    ws.heap.push(Reverse((nd, link.src.0)));
                }
            }
        }

        // ECMP out-links: (v, u) is on the DAG iff dist[v] = w + dist[u].
        let mut ecmp_out = vec![Vec::new(); n];
        for v in topo.nodes() {
            let dv = dist[v.index()];
            if dv == UNREACHABLE || v == dest {
                continue;
            }
            for &lid in topo.out_links(v) {
                if let Some(up) = link_up {
                    if !up[lid.index()] {
                        continue;
                    }
                }
                let link = topo.link(lid);
                let du = dist[link.dst.index()];
                if du != UNREACHABLE && dv == du + weights.get(lid) as Dist {
                    ecmp_out[v.index()].push(lid);
                }
            }
        }

        // Decreasing-distance order (unreachable nodes sort first and are
        // skipped by consumers because they carry no demand).
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| Reverse(dist[v as usize]));

        ShortestPathDag {
            dest,
            dist,
            ecmp_out,
            order,
        }
    }

    /// Shortest distance from `v` to the destination.
    #[inline]
    pub fn dist_from(&self, v: NodeId) -> Dist {
        self.dist[v.index()]
    }

    /// True if `v` can reach the destination.
    #[inline]
    pub fn reachable(&self, v: NodeId) -> bool {
        self.dist[v.index()] != UNREACHABLE
    }

    /// Number of distinct shortest `v → dest` paths (saturating; ECMP can
    /// be exponential in pathological weight settings).
    pub fn path_count(&self, topo: &Topology, v: NodeId) -> u64 {
        let n = self.dist.len();
        let mut counts = vec![0u64; n];
        counts[self.dest.index()] = 1;
        // Process by increasing distance so successors are counted first.
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_by_key(|&u| self.dist[u as usize]);
        for u in idx {
            let ui = u as usize;
            if self.dist[ui] == UNREACHABLE || NodeId(u) == self.dest {
                continue;
            }
            let mut c: u64 = 0;
            for &lid in &self.ecmp_out[ui] {
                c = c.saturating_add(counts[topo.link(lid).dst.index()]);
            }
            counts[ui] = c;
        }
        counts[v.index()]
    }

    /// Extracts one concrete shortest path `v → dest` (first ECMP branch at
    /// every hop), as a list of links. Returns `None` if unreachable.
    pub fn sample_path(&self, topo: &Topology, v: NodeId) -> Option<Vec<LinkId>> {
        if !self.reachable(v) {
            return None;
        }
        let mut path = Vec::new();
        let mut cur = v;
        while cur != self.dest {
            let lid = *self.ecmp_out[cur.index()].first()?;
            path.push(lid);
            cur = topo.link(lid).dst;
        }
        Some(path)
    }
}

/// Single-source shortest-path tree (forward Dijkstra), with ECMP
/// next-hops per destination — the router-local view used to build FIBs.
#[derive(Debug, Clone)]
pub struct SpfTree {
    /// The root (computing router).
    pub source: NodeId,
    /// `dist[v]` = shortest `source → v` distance.
    pub dist: Vec<Dist>,
    /// `next_hops[v]` = out-links of `source` that begin some shortest
    /// `source → v` path. Empty for `source` itself and unreachable nodes.
    pub next_hops: Vec<Vec<LinkId>>,
}

impl SpfTree {
    /// Computes the tree rooted at `source` under `weights`, optionally
    /// masking out down links.
    pub fn compute(
        topo: &Topology,
        weights: &WeightVector,
        source: NodeId,
        link_up: Option<&[bool]>,
    ) -> Self {
        let n = topo.node_count();
        let mut dist = vec![UNREACHABLE; n];
        let mut settled = vec![false; n];
        let mut heap: BinaryHeap<Reverse<(Dist, u32)>> = BinaryHeap::new();
        dist[source.index()] = 0;
        heap.push(Reverse((0, source.0)));
        while let Some(Reverse((d, v))) = heap.pop() {
            let vi = v as usize;
            if settled[vi] {
                continue;
            }
            settled[vi] = true;
            for &lid in topo.out_links(NodeId(v)) {
                if let Some(up) = link_up {
                    if !up[lid.index()] {
                        continue;
                    }
                }
                let link = topo.link(lid);
                let u = link.dst.index();
                let nd = d + weights.get(lid) as Dist;
                if nd < dist[u] {
                    dist[u] = nd;
                    heap.push(Reverse((nd, link.dst.0)));
                }
            }
        }

        // First-hop sets: BFS-style relaxation over the shortest-path DAG
        // from the source. next_hops[v] = union of first links of shortest
        // paths. Computed by processing nodes in increasing distance.
        let mut next_hops: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_by_key(|&u| dist[u as usize]);
        for u in idx {
            let ui = u as usize;
            if dist[ui] == UNREACHABLE || NodeId(u) == source {
                continue;
            }
            // Union over all DAG-predecessors p of u: if p == source the
            // first hop is the link (source, u) itself, otherwise inherit
            // p's first hops.
            let mut hops: Vec<LinkId> = Vec::new();
            for &lid in topo.in_links(NodeId(u)) {
                if let Some(up) = link_up {
                    if !up[lid.index()] {
                        continue;
                    }
                }
                let link = topo.link(lid);
                let p = link.src;
                if dist[p.index()] == UNREACHABLE {
                    continue;
                }
                if dist[p.index()] + weights.get(lid) as Dist != dist[ui] {
                    continue;
                }
                if p == source {
                    if !hops.contains(&lid) {
                        hops.push(lid);
                    }
                } else {
                    for &h in &next_hops[p.index()] {
                        if !hops.contains(&h) {
                            hops.push(h);
                        }
                    }
                }
            }
            hops.sort();
            next_hops[ui] = hops;
        }

        SpfTree {
            source,
            dist,
            next_hops,
        }
    }
}

/// Reference Bellman–Ford implementation, used only by tests and debug
/// assertions as an oracle for Dijkstra.
pub fn bellman_ford_to_dest(topo: &Topology, weights: &WeightVector, dest: NodeId) -> Vec<Dist> {
    let n = topo.node_count();
    let mut dist = vec![UNREACHABLE; n];
    dist[dest.index()] = 0;
    for _ in 0..n {
        let mut changed = false;
        for (lid, link) in topo.links() {
            let du = dist[link.dst.index()];
            if du == UNREACHABLE {
                continue;
            }
            let cand = du + weights.get(lid) as Dist;
            if cand < dist[link.src.index()] {
                dist[link.src.index()] = cand;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    dist
}

/// Sum of link weights along `path`; panics if the links are not a
/// contiguous walk. Test helper.
pub fn path_weight(topo: &Topology, weights: &WeightVector, path: &[LinkId]) -> Dist {
    for pair in path.windows(2) {
        assert_eq!(
            topo.link(pair[0]).dst,
            topo.link(pair[1]).src,
            "links do not form a walk"
        );
    }
    path.iter().map(|&l| weights.get(l) as Dist).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::TopologyBuilder;

    /// 4-node diamond: s=0, two middle nodes 1,2, t=3; all unit weights →
    /// two equal-cost s→t paths.
    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_nodes(4);
        b.add_duplex(NodeId(0), NodeId(1), 500.0, 0.001);
        b.add_duplex(NodeId(0), NodeId(2), 500.0, 0.001);
        b.add_duplex(NodeId(1), NodeId(3), 500.0, 0.001);
        b.add_duplex(NodeId(2), NodeId(3), 500.0, 0.001);
        b.build().unwrap()
    }

    #[test]
    fn diamond_ecmp_dag() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let dag = ShortestPathDag::compute(&t, &w, NodeId(3));
        assert_eq!(dag.dist_from(NodeId(0)), 2);
        assert_eq!(dag.dist_from(NodeId(1)), 1);
        assert_eq!(dag.dist_from(NodeId(3)), 0);
        assert_eq!(dag.ecmp_out[0].len(), 2, "source splits over both paths");
        assert_eq!(
            dag.ecmp_out[3].len(),
            0,
            "destination has no out-links in DAG"
        );
        assert_eq!(dag.path_count(&t, NodeId(0)), 2);
    }

    #[test]
    fn asymmetric_weights_single_path() {
        let t = diamond();
        let mut w = WeightVector::uniform(&t, 1);
        // Make the 0→1 branch expensive.
        let l01 = t.find_link(NodeId(0), NodeId(1)).unwrap();
        w.set(l01, 10);
        let dag = ShortestPathDag::compute(&t, &w, NodeId(3));
        assert_eq!(dag.dist_from(NodeId(0)), 2);
        assert_eq!(dag.ecmp_out[0].len(), 1);
        assert_eq!(t.link(dag.ecmp_out[0][0]).dst, NodeId(2));
        assert_eq!(dag.path_count(&t, NodeId(0)), 1);
    }

    #[test]
    fn order_is_decreasing_distance() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let dag = ShortestPathDag::compute(&t, &w, NodeId(3));
        for pair in dag.order.windows(2) {
            assert!(dag.dist[pair[0] as usize] >= dag.dist[pair[1] as usize]);
        }
    }

    #[test]
    fn sample_path_is_shortest() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let dag = ShortestPathDag::compute(&t, &w, NodeId(3));
        let p = dag.sample_path(&t, NodeId(0)).unwrap();
        assert_eq!(p.len(), 2);
        assert_eq!(path_weight(&t, &w, &p), dag.dist_from(NodeId(0)));
    }

    #[test]
    fn link_mask_removes_paths() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let mut up = vec![true; t.link_count()];
        // Kill both directions of 0↔1.
        up[t.find_link(NodeId(0), NodeId(1)).unwrap().index()] = false;
        up[t.find_link(NodeId(1), NodeId(0)).unwrap().index()] = false;
        let mut ws = SpfWorkspace::new();
        let dag = ShortestPathDag::compute_with(&t, &w, NodeId(3), Some(&up), &mut ws);
        assert_eq!(dag.ecmp_out[0].len(), 1);
        assert_eq!(dag.path_count(&t, NodeId(0)), 1);
        // Node 1 now reaches 3 only via 0 or directly; direct link 1→3 is up.
        assert_eq!(dag.dist_from(NodeId(1)), 1);
    }

    #[test]
    fn isolating_a_node_marks_unreachable() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let mut up = vec![true; t.link_count()];
        // Remove all links incident to node 3 → unreachable destination ...
        for (lid, l) in t.links() {
            if l.src == NodeId(3) || l.dst == NodeId(3) {
                up[lid.index()] = false;
            }
        }
        let mut ws = SpfWorkspace::new();
        let dag = ShortestPathDag::compute_with(&t, &w, NodeId(3), Some(&up), &mut ws);
        for v in [0u32, 1, 2] {
            assert!(!dag.reachable(NodeId(v)));
            assert!(dag.ecmp_out[v as usize].is_empty());
        }
        assert!(dag.sample_path(&t, NodeId(0)).is_none());
    }

    #[test]
    fn spf_tree_matches_dag_distances() {
        let t = diamond();
        let mut w = WeightVector::uniform(&t, 1);
        w.set(t.find_link(NodeId(0), NodeId(2)).unwrap(), 3);
        let tree = SpfTree::compute(&t, &w, NodeId(0), None);
        for dest in t.nodes() {
            let dag = ShortestPathDag::compute(&t, &w, dest);
            assert_eq!(tree.dist[dest.index()], dag.dist_from(NodeId(0)));
        }
    }

    #[test]
    fn spf_tree_next_hops_diamond() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let tree = SpfTree::compute(&t, &w, NodeId(0), None);
        // Both first hops reach node 3.
        assert_eq!(tree.next_hops[3].len(), 2);
        // Node 1 is reached only via the direct link.
        assert_eq!(tree.next_hops[1].len(), 1);
        assert_eq!(t.link(tree.next_hops[1][0]).dst, NodeId(1));
    }

    #[test]
    fn dijkstra_matches_bellman_ford() {
        let t = diamond();
        let mut w = WeightVector::uniform(&t, 1);
        w.set(LinkId(0), 7);
        w.set(LinkId(3), 2);
        w.set(LinkId(5), 9);
        for dest in t.nodes() {
            let dag = ShortestPathDag::compute(&t, &w, dest);
            assert_eq!(dag.dist, bellman_ford_to_dest(&t, &w, dest));
        }
    }
}
