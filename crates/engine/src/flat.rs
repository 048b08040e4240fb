//! Flat, cache-resident storage for the engine hot path.
//!
//! [`dtr_graph::Topology`] and [`dtr_graph::ShortestPathDag`] are built
//! for clarity: nested `Vec<Vec<LinkId>>` adjacency and per-node ECMP
//! branch vectors. Every hop of the candidate-evaluation inner loops —
//! the O(1) affectedness filter, the repair Dijkstras, the demand push —
//! then chases a pointer per node, which stops mattering at 50 nodes and
//! dominates at 1000. This module is the arena-indexed
//! structure-of-arrays mirror the hot path runs on instead:
//!
//! - [`FlatTopo`] — CSR out/in adjacency (`u32` offsets into one link-id
//!   arena each) plus SoA `link_src`/`link_dst` arrays, built once per
//!   [`crate::FlowState`] from the `Topology` it mirrors;
//! - [`FlatDag`] — a per-destination ECMP DAG as four flat arrays. The
//!   ECMP successor lists live in a single arena **sharing the
//!   topology's CSR out-offsets**: a node's DAG out-links are always a
//!   subset of its out-links (scanned in the same order), so slot
//!   `out_off[v] .. out_off[v] + ecmp_len[v]` can never overflow and
//!   in-place repair needs no reallocation, ever;
//! - [`LinkMask`] — a `u64`-word bitset over link ids replacing the
//!   `Vec<bool>` staged failure masks (64 links per cache line instead
//!   of 8);
//! - [`push_demand_flat`] — the demand push of
//!   [`dtr_routing::push_demand_down_dag_with`] over the flat arrays,
//!   seeded from a cached dense [`demand_column`], with the identical
//!   arithmetic in the identical order, so loads stay bit-identical to
//!   the full calculator's.
//!
//! The flat structures are engine-internal: `Topology` keeps its
//! serialized form (daemon snapshots and churn traces embed it). The
//! engine hands its DAGs out flat, as `Arc<FlatDag>`s, and its consumers
//! read them in place: the SLA walk through [`FlatView`] (the
//! [`DagView`] of a DAG and its mirror), the hybrid low push through
//! [`FlatDag::branches`]. Only the full backend builds a
//! [`ShortestPathDag`], and converts the ones it hands out
//! ([`FlatDag::from_dag`]).

use dtr_graph::spf::{Dist, UNREACHABLE};
use dtr_graph::{DagView, LinkId, ShortestPathDag, Topology, Weight};
use dtr_traffic::TrafficMatrix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// CSR/SoA mirror of a [`Topology`]'s connectivity (no capacities or
/// delays — the hot path never reads them).
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

    /// Start of node `v`'s ECMP arena slot (see [`FlatDag::ecmp`]).
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

    /// Are all covered links up? (Debug invariant of the staged sweep.)
    pub fn is_all_up(&self) -> bool {
        *self == LinkMask::all_up(self.len)
    }
}

/// Dijkstra scratch for flat fresh computations, reusable across
/// destinations.
#[derive(Debug, Default, Clone)]
pub struct FlatSpfWorkspace {
    heap: BinaryHeap<Reverse<(Dist, u32)>>,
    settled: Vec<bool>,
}

impl FlatSpfWorkspace {
    /// Empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The ECMP shortest-path DAG towards one destination, as flat arrays.
///
/// Mirrors [`ShortestPathDag`] (`dist`, per-node ECMP out-links, the
/// decreasing-distance push order) with the ECMP successor lists packed
/// into one arena at the topology's CSR out-offsets — see the module
/// docs for why that layout admits in-place repair.
#[derive(Debug)]
pub struct FlatDag {
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
    /// Node indices by decreasing distance (the demand-push order),
    /// ties in ascending node order: what a stable sort from the
    /// identity yields, and the unique permutation sorted by that key.
    pub order: Vec<u32>,
}

impl Clone for FlatDag {
    fn clone(&self) -> Self {
        FlatDag {
            dest: self.dest,
            dist: self.dist.clone(),
            ecmp: self.ecmp.clone(),
            ecmp_len: self.ecmp_len.clone(),
            order: self.order.clone(),
        }
    }

    /// Four flat memcpys — the reusable-scratch-DAG path of
    /// `FlowState::eval_candidate` leans on this.
    fn clone_from(&mut self, src: &Self) {
        self.dest = src.dest;
        self.dist.clone_from(&src.dist);
        self.ecmp.clone_from(&src.ecmp);
        self.ecmp_len.clone_from(&src.ecmp_len);
        self.order.clone_from(&src.order);
    }
}

impl FlatDag {
    /// An empty DAG shell sized for `ft` (all-unreachable); fill it with
    /// [`FlatDag::compute_into`].
    pub fn empty(ft: &FlatTopo) -> Self {
        FlatDag {
            dest: 0,
            dist: vec![UNREACHABLE; ft.node_count()],
            ecmp: vec![0; ft.link_count()],
            ecmp_len: vec![0; ft.node_count()],
            order: (0..ft.node_count() as u32).collect(),
        }
    }

    /// Computes the DAG for `dest` under `weights`, reusing `self`'s
    /// buffers. Produces exactly the structure
    /// [`ShortestPathDag::compute_with`] produces (same relaxations,
    /// same ECMP scan order, same stable sort), flattened.
    pub fn compute_into(
        &mut self,
        ft: &FlatTopo,
        weights: &[Weight],
        dest: u32,
        mask: Option<&LinkMask>,
        ws: &mut FlatSpfWorkspace,
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

    /// ECMP branches of node `v`.
    #[inline]
    pub fn branches<'d>(&'d self, ft: &FlatTopo, v: u32) -> &'d [u32] {
        let slot = ft.ecmp_slot(v);
        &self.ecmp[slot..slot + self.ecmp_len[v as usize] as usize]
    }

    /// Structural equality. Not derived `PartialEq`: an in-place repair
    /// that shrinks a node's branch list leaves stale entries in the
    /// arena slack beyond `ecmp_len`, which never affect behavior but
    /// would fail a whole-arena comparison.
    pub fn same_structure(&self, ft: &FlatTopo, other: &FlatDag) -> bool {
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

    /// Materializes the pointer-y [`ShortestPathDag`] equivalent, for
    /// the structural tests: what a fresh
    /// [`ShortestPathDag::compute_with`] under the same weights and mask
    /// returns.
    #[cfg(test)]
    pub fn to_dag(&self, ft: &FlatTopo) -> ShortestPathDag {
        let n = ft.node_count();
        let mut ecmp_out: Vec<Vec<LinkId>> = Vec::with_capacity(n);
        for v in 0..n as u32 {
            ecmp_out.push(self.branches(ft, v).iter().map(|&l| LinkId(l)).collect());
        }
        ShortestPathDag {
            dest: dtr_graph::NodeId(self.dest),
            dist: self.dist.clone(),
            ecmp_out,
            order: self.order.clone(),
        }
    }

    /// Flattens a [`ShortestPathDag`] — how the full backend hands out
    /// the DAGs it routed on.
    pub fn from_dag(ft: &FlatTopo, dag: &ShortestPathDag) -> Self {
        let mut flat = FlatDag::empty(ft);
        flat.dest = dag.dest.0;
        flat.dist.clone_from(&dag.dist);
        flat.order.clone_from(&dag.order);
        for (v, branches) in dag.ecmp_out.iter().enumerate() {
            let slot = ft.ecmp_slot(v as u32);
            for (k, lid) in branches.iter().enumerate() {
                flat.ecmp[slot + k] = lid.0;
            }
            flat.ecmp_len[v] = branches.len() as u32;
        }
        flat
    }
}

/// A [`FlatDag`] read through the [`FlatTopo`] its branch slots index —
/// the [`DagView`] the SLA walk reads the engine's DAGs by.
#[derive(Clone, Copy)]
pub struct FlatView<'a>(pub &'a FlatTopo, pub &'a FlatDag);

impl DagView for FlatView<'_> {
    fn order(&self) -> &[u32] {
        &self.1.order
    }

    fn reachable(&self, v: u32) -> bool {
        self.1.dist[v as usize] != UNREACHABLE
    }

    fn branches(&self, v: u32) -> impl ExactSizeIterator<Item = LinkId> + '_ {
        self.1.branches(self.0, v).iter().map(|&l| LinkId(l))
    }
}

/// The demand `m` carries towards `t` as a dense per-source column of
/// length `n` — what [`push_demand_flat`] seeds its per-node flow from.
/// Empty when no source sends anything to `t`.
pub fn demand_column(m: &TrafficMatrix, t: u32, n: usize) -> Vec<f64> {
    let mut col = Vec::new();
    for (s, v) in m.demands_to(t as usize) {
        col.resize(n, 0.0);
        col[s] += v;
    }
    col
}

/// Pushes the demand column `demand` (see [`demand_column`]) down the
/// flat DAG towards `dag.dest`, reporting every `+= share` a link
/// receives to `add(link, share)` — the flat mirror of
/// [`dtr_routing::push_demand_down_dag_with`], with the identical
/// floating-point expressions evaluated in the identical order, so an
/// `add` that accumulates into a per-link vector yields bit-identical
/// loads for structurally identical DAGs. Each DAG link is reported at
/// most once (it is a branch of its unique tail node).
/// `override_branches` substitutes one node's branch list for this walk
/// (the fast-rebranch path). `flow` is caller scratch, overwritten.
pub fn push_demand_flat(
    ft: &FlatTopo,
    dag: &FlatDag,
    demand: &[f64],
    flow: &mut Vec<f64>,
    override_branches: Option<(u32, &[u32])>,
    mut add: impl FnMut(u32, f64),
) {
    debug_assert_eq!(demand.len(), ft.node_count());
    flow.clear();
    flow.extend_from_slice(demand);
    // Decreasing-distance order guarantees every contributor to a
    // node's flow is processed before the node itself.
    for &v in &dag.order {
        let vi = v as usize;
        let f = flow[vi];
        if f <= 0.0 || v == dag.dest {
            continue;
        }
        let branches: &[u32] = match override_branches {
            Some((ov, b)) if ov == v => b,
            _ => dag.branches(ft, v),
        };
        if branches.is_empty() {
            // Unreachable under a link mask: the demand is dropped
            // (validated topologies are strongly connected, so this
            // only happens in failure scenarios).
            continue;
        }
        let share = f / branches.len() as f64;
        for &lid in branches {
            add(lid, share);
            flow[ft.dst(lid) as usize] += share;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_graph::{NodeId, SpfWorkspace, TopologyBuilder, WeightVector};

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
    fn flat_compute_matches_pointer_compute() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 16,
            directed_links: 64,
            seed: 5,
        });
        let ft = FlatTopo::new(&topo);
        let mut w = WeightVector::uniform(&topo, 1);
        for (lid, _) in topo.links() {
            w.set(lid, 1 + (lid.0 * 7) % 9);
        }
        let mut ws = FlatSpfWorkspace::new();
        let mut flat = FlatDag::empty(&ft);
        for dest in topo.nodes() {
            flat.compute_into(&ft, w.as_slice(), dest.0, None, &mut ws);
            let fresh = ShortestPathDag::compute(&topo, &w, dest);
            let dag = flat.to_dag(&ft);
            assert_eq!(dag.dist, fresh.dist);
            assert_eq!(dag.ecmp_out, fresh.ecmp_out);
            assert_eq!(dag.order, fresh.order);
            assert!(flat.same_structure(&ft, &FlatDag::from_dag(&ft, &fresh)));
        }
    }

    #[test]
    fn flat_compute_matches_pointer_compute_masked() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 9,
        });
        let ft = FlatTopo::new(&topo);
        let w = WeightVector::uniform(&topo, 2);
        let mut up = vec![true; topo.link_count()];
        up[3] = false;
        up[10] = false;
        up[11] = false;
        let mask = LinkMask::from_up_slice(&up);
        let mut pws = SpfWorkspace::new();
        let mut ws = FlatSpfWorkspace::new();
        let mut flat = FlatDag::empty(&ft);
        for dest in topo.nodes() {
            flat.compute_into(&ft, w.as_slice(), dest.0, Some(&mask), &mut ws);
            let fresh = ShortestPathDag::compute_with(&topo, &w, dest, Some(&up), &mut pws);
            let dag = flat.to_dag(&ft);
            assert_eq!(dag.dist, fresh.dist);
            assert_eq!(dag.ecmp_out, fresh.ecmp_out);
            assert_eq!(dag.order, fresh.order);
        }
    }

    #[test]
    fn flat_push_matches_pointer_push_bitwise() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 14,
            directed_links: 56,
            seed: 3,
        });
        let ft = FlatTopo::new(&topo);
        let w = WeightVector::uniform(&topo, 1);
        let demands = dtr_traffic::DemandSet::generate(
            &topo,
            &dtr_traffic::TrafficCfg {
                seed: 3,
                ..Default::default()
            },
        );
        let mut ws = FlatSpfWorkspace::new();
        let mut flat = FlatDag::empty(&ft);
        let mut flow_a = Vec::new();
        let mut flow_b = Vec::new();
        for t in topo.nodes() {
            let col = demand_column(&demands.high, t.0, topo.node_count());
            if col.is_empty() {
                continue;
            }
            flat.compute_into(&ft, w.as_slice(), t.0, None, &mut ws);
            let dag = ShortestPathDag::compute(&topo, &w, t);
            let mut a = vec![0.0; topo.link_count()];
            let mut b = vec![0.0; topo.link_count()];
            push_demand_flat(&ft, &flat, &col, &mut flow_a, None, |l, share| {
                a[l as usize] += share
            });
            dtr_routing::push_demand_down_dag(&topo, &dag, &demands.high, t, &mut flow_b, &mut b);
            assert_eq!(a, b);
        }
    }
}
