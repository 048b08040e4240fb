//! Shortest-path-first computation with equal-cost multipath (ECMP).
//!
//! IP routers running OSPF/IS-IS forward a packet for destination `t` along
//! *all* outgoing links that lie on some shortest path to `t`, splitting
//! load evenly among them at every hop. The object that captures this is
//! the **shortest-path DAG towards a destination**: for each node `v`, the
//! set of out-links `(v, u)` with `dist(v, t) = w(v, u) + dist(u, t)`.
//!
//! [`ShortestPathDag::compute_into`] builds that DAG with one
//! reverse-Dijkstra run per destination over a [`FlatTopo`], the CSR view
//! of a [`Topology`]. The weight-search heuristics run this millions of
//! times, so the DAG's buffers and a [`SpfWorkspace`] are reused across
//! calls; [`LinkMask`] removes failed links. The DAG is the one forwarding
//! structure of the workspace: the evaluator, the incremental engine (which
//! repairs it in place) and both simulators read it.
//!
//! [`SpfTree`] is the complementary single-source view (used by the MT-OSPF
//! control plane to build per-router forwarding tables).

use crate::topology::{LinkId, NodeId, Topology};
use crate::weights::{Weight, WeightVector};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Distance value; `u64` cannot overflow for any realistic weight setting
/// (`|V| · MAX_WEIGHT ≪ u64::MAX`).
pub type Dist = u64;

/// Marker for unreachable nodes (only possible when links are filtered
/// out, e.g. during failure simulation — validated topologies are strongly
/// connected).
pub const UNREACHABLE: Dist = u64::MAX;

/// CSR/SoA view of a [`Topology`]'s connectivity (no capacities or
/// delays — the DAG computations never read them).
///
/// Every hop of the SPF, the demand push and the engine's repairs reads
/// adjacency; a nested `Vec` per node costs a pointer chase per hop,
/// which stops mattering at 50 nodes and dominates at 1000. Built once
/// per evaluator or engine state from the `Topology` it mirrors.
#[derive(Debug, Clone)]
pub struct FlatTopo {
    n: u32,
    m: u32,
    /// CSR offsets into `out_link`, length `n + 1`.
    out_off: Vec<u32>,
    /// Out-link ids, grouped by source node in `Topology::out_links`
    /// order (the ECMP scan order the bit-identity contract pins).
    out_link: Vec<u32>,
    /// CSR offsets into `in_link`, length `n + 1`.
    in_off: Vec<u32>,
    /// In-link ids, grouped by destination node in `Topology::in_links`
    /// order.
    in_link: Vec<u32>,
    /// `link_src[l]` = source node of link `l`.
    link_src: Vec<u32>,
    /// `link_dst[l]` = destination node of link `l`.
    link_dst: Vec<u32>,
}

impl FlatTopo {
    /// Mirrors `topo`, preserving every adjacency-list order exactly.
    pub fn new(topo: &Topology) -> Self {
        let n = topo.node_count();
        let m = topo.link_count();
        let mut out_off = Vec::with_capacity(n + 1);
        let mut out_link = Vec::with_capacity(m);
        let mut in_off = Vec::with_capacity(n + 1);
        let mut in_link = Vec::with_capacity(m);
        out_off.push(0);
        in_off.push(0);
        for v in topo.nodes() {
            out_link.extend(topo.out_links(v).iter().map(|l| l.0));
            out_off.push(out_link.len() as u32);
            in_link.extend(topo.in_links(v).iter().map(|l| l.0));
            in_off.push(in_link.len() as u32);
        }
        let mut link_src = Vec::with_capacity(m);
        let mut link_dst = Vec::with_capacity(m);
        for (_, link) in topo.links() {
            link_src.push(link.src.0);
            link_dst.push(link.dst.0);
        }
        FlatTopo {
            n: n as u32,
            m: m as u32,
            out_off,
            out_link,
            in_off,
            in_link,
            link_src,
            link_dst,
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Number of directed links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.m as usize
    }

    /// Out-links of `v`, in `Topology::out_links` order.
    #[inline]
    pub fn out_links(&self, v: u32) -> &[u32] {
        &self.out_link[self.out_off[v as usize] as usize..self.out_off[v as usize + 1] as usize]
    }

    /// In-links of `v`, in `Topology::in_links` order.
    #[inline]
    pub fn in_links(&self, v: u32) -> &[u32] {
        &self.in_link[self.in_off[v as usize] as usize..self.in_off[v as usize + 1] as usize]
    }

    /// Source node of link `l`.
    #[inline]
    pub fn src(&self, l: u32) -> u32 {
        self.link_src[l as usize]
    }

    /// Destination node of link `l`.
    #[inline]
    pub fn dst(&self, l: u32) -> u32 {
        self.link_dst[l as usize]
    }

    /// Start of node `v`'s ECMP arena slot (see [`ShortestPathDag::ecmp`]).
    #[inline]
    pub fn ecmp_slot(&self, v: u32) -> usize {
        self.out_off[v as usize] as usize
    }
}

/// A `u64`-word bitset over link ids; bit set = link up.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkMask {
    words: Vec<u64>,
    len: usize,
}

impl LinkMask {
    /// All `m` links up.
    pub fn all_up(m: usize) -> Self {
        let mut words = vec![u64::MAX; m.div_ceil(64)];
        if !m.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (m % 64)) - 1;
            }
        }
        LinkMask { words, len: m }
    }

    /// Builds from a `link_up` bool slice.
    pub fn from_up_slice(up: &[bool]) -> Self {
        let mut mask = LinkMask {
            words: vec![0; up.len().div_ceil(64)],
            len: up.len(),
        };
        for (l, &u) in up.iter().enumerate() {
            if u {
                mask.set_up(l as u32);
            }
        }
        mask
    }

    /// Is link `l` up?
    #[inline]
    pub fn is_up(&self, l: u32) -> bool {
        self.words[(l >> 6) as usize] & (1u64 << (l & 63)) != 0
    }

    /// Marks link `l` down.
    #[inline]
    pub fn set_down(&mut self, l: u32) {
        self.words[(l >> 6) as usize] &= !(1u64 << (l & 63));
    }

    /// Marks link `l` up.
    #[inline]
    pub fn set_up(&mut self, l: u32) {
        self.words[(l >> 6) as usize] |= 1u64 << (l & 63);
    }

    /// Number of links covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no links are covered.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Are all covered links up? (Debug invariant of a scratch's mask
    /// between repairs.)
    pub fn is_all_up(&self) -> bool {
        *self == LinkMask::all_up(self.len)
    }
}

/// Dijkstra scratch, reusable across destinations.
#[derive(Debug, Default, Clone)]
pub struct SpfWorkspace {
    heap: BinaryHeap<Reverse<(Dist, u32)>>,
    settled: Vec<bool>,
}

impl SpfWorkspace {
    /// Empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The ECMP shortest-path DAG *towards* one destination, as flat arrays.
///
/// The ECMP successor lists live in one arena **sharing the topology's
/// CSR out-offsets**: a node's DAG out-links are always a subset of its
/// out-links (scanned in the same order), so slot `ecmp_slot(v) ..
/// ecmp_slot(v) + ecmp_len[v]` can never overflow and the engine's
/// in-place repair needs no reallocation, ever. Reading a node's
/// branches therefore takes the [`FlatTopo`] of the topology the DAG
/// was computed on ([`ShortestPathDag::branches`]). The default is an
/// empty shell for [`ShortestPathDag::compute_into`] to size.
#[derive(Debug, Default)]
pub struct ShortestPathDag {
    /// Destination node index.
    pub dest: u32,
    /// `dist[v]` = shortest `v → dest` distance ([`UNREACHABLE`] when
    /// disconnected under a mask).
    pub dist: Vec<Dist>,
    /// ECMP successor arena, length `link_count`. Node `v`'s branches
    /// are `ecmp[ecmp_slot(v) .. ecmp_slot(v) + ecmp_len[v]]`, in
    /// out-link scan order.
    pub ecmp: Vec<u32>,
    /// Per-node branch count (0 for `dest` and unreachable nodes).
    pub ecmp_len: Vec<u32>,
    /// Node indices by decreasing distance (the demand-push order, so
    /// that all upstream contributions are known before a node is
    /// processed), ties in ascending node order: what a stable sort from
    /// the identity yields, and the unique permutation sorted by that
    /// key. Unreachable nodes come first.
    pub order: Vec<u32>,
}

impl Clone for ShortestPathDag {
    fn clone(&self) -> Self {
        ShortestPathDag {
            dest: self.dest,
            dist: self.dist.clone(),
            ecmp: self.ecmp.clone(),
            ecmp_len: self.ecmp_len.clone(),
            order: self.order.clone(),
        }
    }

    /// Four flat memcpys — the reusable-scratch-DAG path of the engine's
    /// candidate evaluation leans on this.
    fn clone_from(&mut self, src: &Self) {
        self.dest = src.dest;
        self.dist.clone_from(&src.dist);
        self.ecmp.clone_from(&src.ecmp);
        self.ecmp_len.clone_from(&src.ecmp_len);
        self.order.clone_from(&src.order);
    }
}

impl ShortestPathDag {
    /// Computes the DAG for `dest` under `weights` with every link up,
    /// building the [`FlatTopo`] itself — for one-off callers. Anything
    /// that computes more than one DAG keeps a `FlatTopo` and calls
    /// [`Self::compute_into`].
    pub fn compute(topo: &Topology, weights: &WeightVector, dest: NodeId) -> Self {
        let ft = FlatTopo::new(topo);
        let mut dag = Self::empty(&ft);
        dag.compute_into(
            &ft,
            weights.as_slice(),
            dest.0,
            None,
            &mut SpfWorkspace::new(),
        );
        dag
    }

    /// An empty DAG shell sized for `ft` (all-unreachable); fill it with
    /// [`Self::compute_into`].
    pub fn empty(ft: &FlatTopo) -> Self {
        ShortestPathDag {
            dest: 0,
            dist: vec![UNREACHABLE; ft.node_count()],
            ecmp: vec![0; ft.link_count()],
            ecmp_len: vec![0; ft.node_count()],
            order: (0..ft.node_count() as u32).collect(),
        }
    }

    /// Computes the DAG for `dest` under `weights` by one reverse
    /// Dijkstra, reusing `self`'s buffers. Links the `mask` marks down
    /// are removed (`None` keeps all).
    pub fn compute_into(
        &mut self,
        ft: &FlatTopo,
        weights: &[Weight],
        dest: u32,
        mask: Option<&LinkMask>,
        ws: &mut SpfWorkspace,
    ) {
        let n = ft.node_count();
        debug_assert_eq!(weights.len(), ft.link_count());
        self.dest = dest;
        self.dist.clear();
        self.dist.resize(n, UNREACHABLE);
        self.ecmp.resize(ft.link_count(), 0);
        self.ecmp_len.clear();
        self.ecmp_len.resize(n, 0);
        ws.heap.clear();
        ws.settled.clear();
        ws.settled.resize(n, false);

        // Reverse Dijkstra: relax *incoming* links of the settled node.
        self.dist[dest as usize] = 0;
        ws.heap.push(Reverse((0, dest)));
        while let Some(Reverse((d, v))) = ws.heap.pop() {
            let vi = v as usize;
            if ws.settled[vi] {
                continue;
            }
            ws.settled[vi] = true;
            for &lid in ft.in_links(v) {
                if !mask.is_none_or(|mk| mk.is_up(lid)) {
                    continue;
                }
                let u = ft.src(lid) as usize;
                let nd = d + weights[lid as usize] as Dist;
                if nd < self.dist[u] {
                    self.dist[u] = nd;
                    ws.heap.push(Reverse((nd, u as u32)));
                }
            }
        }

        // ECMP out-links: (v, u) is on the DAG iff dist[v] = w + dist[u].
        for v in 0..n as u32 {
            let dv = self.dist[v as usize];
            if dv == UNREACHABLE || v == dest {
                continue;
            }
            let slot = ft.ecmp_slot(v);
            let mut len = 0usize;
            for &lid in ft.out_links(v) {
                if !mask.is_none_or(|mk| mk.is_up(lid)) {
                    continue;
                }
                let du = self.dist[ft.dst(lid) as usize];
                if du != UNREACHABLE && dv == du + weights[lid as usize] as Dist {
                    self.ecmp[slot + len] = lid;
                    len += 1;
                }
            }
            self.ecmp_len[v as usize] = len as u32;
        }

        self.order.clear();
        self.order.extend(0..n as u32);
        self.order.sort_by_key(|&v| Reverse(self.dist[v as usize]));
    }

    /// ECMP branches of node `v` (empty for `dest` and unreachable
    /// nodes), in out-link scan order.
    #[inline]
    pub fn branches<'d>(&'d self, ft: &FlatTopo, v: u32) -> &'d [u32] {
        let slot = ft.ecmp_slot(v);
        &self.ecmp[slot..slot + self.ecmp_len[v as usize] as usize]
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

    /// Structural equality. Not derived `PartialEq`: an in-place repair
    /// that shrinks a node's branch list leaves stale entries in the
    /// arena slack beyond `ecmp_len`, which never affect behavior but
    /// would fail a whole-arena comparison.
    pub fn same_structure(&self, ft: &FlatTopo, other: &ShortestPathDag) -> bool {
        self.dest == other.dest
            && self.dist == other.dist
            && self.order == other.order
            && self.ecmp_len == other.ecmp_len
            && (0..ft.node_count() as u32).all(|v| self.branches(ft, v) == other.branches(ft, v))
    }

    /// Replaces `v`'s branches with `branches`, a subset of its
    /// out-links in scan order (so they fit its arena slot).
    pub fn set_branches(&mut self, ft: &FlatTopo, v: u32, branches: &[u32]) {
        let slot = ft.ecmp_slot(v);
        self.ecmp[slot..slot + branches.len()].copy_from_slice(branches);
        self.ecmp_len[v as usize] = branches.len() as u32;
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

    /// The DAG towards `dest` with the links `up` keeps.
    fn masked(t: &Topology, w: &WeightVector, dest: NodeId, up: &[bool]) -> ShortestPathDag {
        let ft = FlatTopo::new(t);
        let mut dag = ShortestPathDag::empty(&ft);
        let mask = LinkMask::from_up_slice(up);
        dag.compute_into(
            &ft,
            w.as_slice(),
            dest.0,
            Some(&mask),
            &mut SpfWorkspace::new(),
        );
        dag
    }

    #[test]
    fn diamond_ecmp_dag() {
        let t = diamond();
        let ft = FlatTopo::new(&t);
        let w = WeightVector::uniform(&t, 1);
        let dag = ShortestPathDag::compute(&t, &w, NodeId(3));
        assert_eq!(dag.dist_from(NodeId(0)), 2);
        assert_eq!(dag.dist_from(NodeId(1)), 1);
        assert_eq!(dag.dist_from(NodeId(3)), 0);
        assert_eq!(
            dag.branches(&ft, 0).len(),
            2,
            "source splits over both paths"
        );
        assert_eq!(
            dag.branches(&ft, 3).len(),
            0,
            "destination has no out-links in DAG"
        );
    }

    #[test]
    fn asymmetric_weights_single_path() {
        let t = diamond();
        let ft = FlatTopo::new(&t);
        let mut w = WeightVector::uniform(&t, 1);
        // Make the 0→1 branch expensive.
        let l01 = t.find_link(NodeId(0), NodeId(1)).unwrap();
        w.set(l01, 10);
        let dag = ShortestPathDag::compute(&t, &w, NodeId(3));
        assert_eq!(dag.dist_from(NodeId(0)), 2);
        assert_eq!(dag.branches(&ft, 0).len(), 1);
        assert_eq!(ft.dst(dag.branches(&ft, 0)[0]), 2);
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
    fn link_mask_removes_paths() {
        let t = diamond();
        let ft = FlatTopo::new(&t);
        let w = WeightVector::uniform(&t, 1);
        let mut up = vec![true; t.link_count()];
        // Kill both directions of 0↔1.
        up[t.find_link(NodeId(0), NodeId(1)).unwrap().index()] = false;
        up[t.find_link(NodeId(1), NodeId(0)).unwrap().index()] = false;
        let dag = masked(&t, &w, NodeId(3), &up);
        assert_eq!(dag.branches(&ft, 0).len(), 1);
        // Node 1 now reaches 3 only via 0 or directly; direct link 1→3 is up.
        assert_eq!(dag.dist_from(NodeId(1)), 1);
    }

    #[test]
    fn isolating_a_node_marks_unreachable() {
        let t = diamond();
        let ft = FlatTopo::new(&t);
        let w = WeightVector::uniform(&t, 1);
        let mut up = vec![true; t.link_count()];
        // Remove all links incident to node 3 → unreachable destination ...
        for (lid, l) in t.links() {
            if l.src == NodeId(3) || l.dst == NodeId(3) {
                up[lid.index()] = false;
            }
        }
        let dag = masked(&t, &w, NodeId(3), &up);
        for v in [0u32, 1, 2] {
            assert!(!dag.reachable(NodeId(v)));
            assert!(dag.branches(&ft, v).is_empty());
        }
    }

    #[test]
    fn flat_topo_mirrors_adjacency() {
        let topo = diamond();
        let ft = FlatTopo::new(&topo);
        assert_eq!(ft.node_count(), topo.node_count());
        assert_eq!(ft.link_count(), topo.link_count());
        for v in topo.nodes() {
            let want: Vec<u32> = topo.out_links(v).iter().map(|l| l.0).collect();
            assert_eq!(ft.out_links(v.0), &want[..]);
            let want: Vec<u32> = topo.in_links(v).iter().map(|l| l.0).collect();
            assert_eq!(ft.in_links(v.0), &want[..]);
        }
        for (lid, link) in topo.links() {
            assert_eq!(ft.src(lid.0), link.src.0);
            assert_eq!(ft.dst(lid.0), link.dst.0);
        }
    }

    #[test]
    fn mask_bit_ops() {
        let mut mk = LinkMask::all_up(130);
        assert!(mk.is_all_up());
        assert!(mk.is_up(0) && mk.is_up(63) && mk.is_up(64) && mk.is_up(129));
        mk.set_down(64);
        assert!(!mk.is_up(64) && mk.is_up(63) && mk.is_up(65));
        assert!(!mk.is_all_up());
        mk.set_up(64);
        assert!(mk.is_all_up());
        let up: Vec<bool> = (0..130).map(|i| i % 3 != 0).collect();
        let mk2 = LinkMask::from_up_slice(&up);
        for (i, &u) in up.iter().enumerate() {
            assert_eq!(mk2.is_up(i as u32), u);
        }
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
