//! Dynamic maintenance of per-destination ECMP shortest-path DAGs under
//! single-link weight changes (Ramalingam–Reps-style dynamic Dijkstra),
//! operating on the flat arena storage of [`crate::flat`].
//!
//! The weight search's neighborhood moves perturb one or two link
//! weights, so most destinations' DAGs are untouched and the affected
//! ones change only in a small region. This module provides:
//!
//! - [`delta_affects_dag`] — an O(1) test of whether a single-weight
//!   delta can change a given destination's DAG at all (the filter that
//!   lets the engine skip most destinations outright);
//! - [`apply_weight_delta`] — in-place repair of a [`FlatDag`] after
//!   one weight change, touching only the affected region;
//! - [`link_down_affects_dag`] / [`apply_link_down`] /
//!   [`apply_link_up`] — the same affected-region machinery for
//!   **link-up-mask deltas**: removing a link from the topology (a
//!   failed duplex pair is two such removals) behaves like a weight
//!   increase to ∞ on a tight link, and restoring it behaves like a
//!   decrease from ∞. The failure-sweep backend uses apply + revert
//!   pairs of these to evaluate every single-pair failure scenario of a
//!   candidate against one intact SPF state.
//!
//! # Exactness
//!
//! Distances are integers, so the repaired `dist` is exactly what a
//! fresh reverse-Dijkstra would produce. The repaired ECMP arena slots
//! are rebuilt by the same out-link scan (in out-link order) the full
//! computation uses. `order` is the **unique** permutation sorted by
//! (distance descending, node id ascending) — what the full
//! computation's stable sort from the identity yields — so a repair
//! only has to move the nodes whose distance changed: it sorts those by
//! the same key and merges them back among the rest, whose relative
//! order cannot have changed. The repaired DAG is therefore
//! **structurally identical** to a freshly computed one, not merely
//! equivalent, and downstream load pushes produce bit-identical
//! floating-point results.
//!
//! # Algorithm
//!
//! For a weight *increase* on link `l = (u, v)`: if `l` is not on the
//! DAG (not tight), nothing changes. Otherwise every node whose every
//! shortest path might lengthen is a DAG-ancestor of `u`; that ancestor
//! set `S` is found by a reverse BFS over tight links, its distances are
//! invalidated, and a Dijkstra restricted to `S` re-settles them from
//! the boundary (out-links leaving `S`).
//!
//! For a *decrease*: the only new candidate path enters through `l`, so
//! a Dijkstra seeded with `dist'(u) = w' + dist(v)` propagates strictly
//! improving distances upstream.
//!
//! In both cases, ECMP is rebuilt exactly for the changed link's tail,
//! the nodes whose own distance changed and their in-neighbors
//! (tightness of a link `(p, x)` depends only on `dist(p)`, `dist(x)`
//! and its weight) — an invalidated ancestor that re-settles at its old
//! distance costs nothing further.

use crate::flat::{FlatDag, FlatTopo, LinkMask};
use dtr_graph::spf::{Dist, UNREACHABLE};
use dtr_graph::Weight;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Reusable scratch for DAG repairs (no allocation on the hot path after
/// the first use).
#[derive(Debug, Default, Clone)]
pub struct DynSpfScratch {
    heap: BinaryHeap<Reverse<(Dist, u32)>>,
    /// Membership bitmap for the affected set; entries listed in
    /// `touched` are reset before the next repair. While a repair runs
    /// the set is the invalidated region; once its Dijkstra is done it
    /// is exactly the nodes whose distance changed.
    in_set: Vec<bool>,
    touched: Vec<u32>,
    /// BFS/iteration worklist.
    stack: Vec<u32>,
    /// Nodes whose ECMP slot must be rebuilt.
    recompute: Vec<u32>,
    recompute_flag: Vec<bool>,
    /// `(node, old_dist)` snapshot of the invalidated ancestor set.
    old_dist: Vec<(u32, Dist)>,
}

impl DynSpfScratch {
    /// Creates empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn reset(&mut self, n: usize) {
        self.heap.clear();
        self.stack.clear();
        self.recompute.clear();
        self.old_dist.clear();
        if self.in_set.len() < n {
            self.in_set.resize(n, false);
            self.recompute_flag.resize(n, false);
        }
        for &v in &self.touched {
            self.in_set[v as usize] = false;
        }
        self.touched.clear();
    }

    fn mark_set(&mut self, v: u32) {
        if !self.in_set[v as usize] {
            self.in_set[v as usize] = true;
            self.touched.push(v);
        }
    }

    fn mark_recompute(&mut self, v: u32) {
        if !self.recompute_flag[v as usize] {
            self.recompute_flag[v as usize] = true;
            self.recompute.push(v);
        }
    }
}

/// O(1) test: can changing `link`'s weight from `old_w` to `new_w` alter
/// `dag` (distances **or** ECMP membership)? `false` guarantees the DAG
/// is unaffected; `true` means the repair must run (it may still turn
/// out to be a no-op for equal-distance corner cases).
#[inline]
pub fn delta_affects_dag(
    ft: &FlatTopo,
    dag: &FlatDag,
    link: u32,
    old_w: Weight,
    new_w: Weight,
) -> bool {
    endpoints_delta_affects_dag(dag, ft.src(link), ft.dst(link), old_w, new_w)
}

/// [`delta_affects_dag`] for a link `(u, v)` whose endpoints the caller
/// already holds — candidate evaluation asks this of every destination
/// for the same one or two links.
#[inline]
pub(crate) fn endpoints_delta_affects_dag(
    dag: &FlatDag,
    u: u32,
    v: u32,
    old_w: Weight,
    new_w: Weight,
) -> bool {
    if old_w == new_w {
        return false;
    }
    let du = dag.dist[u as usize];
    let dv = dag.dist[v as usize];
    if dv == UNREACHABLE {
        // The link leads nowhere useful; its weight is irrelevant.
        return false;
    }
    if new_w > old_w {
        // An increase matters only if the link is currently tight.
        du != UNREACHABLE && du == dv + old_w as Dist
    } else {
        // A decrease matters if the new candidate path through the link
        // ties or beats the current distance.
        du == UNREACHABLE || dv + new_w as Dist <= du
    }
}

/// If the delta's **entire** effect on `dag` is replacing the ECMP
/// branch list of the link's tail node `u` (all distances unchanged),
/// writes the new branch list into `branches` and returns `Some(u)`;
/// otherwise returns `None` and the caller must run the full repair.
///
/// This is the dominant case with small integer weights, where ECMP
/// ties abound: a tight link's weight rises but the tail keeps its
/// distance through a sibling branch, or a decrease exactly ties the
/// current distance. The caller can then reuse the cached DAG with a
/// one-node override (see [`crate::flat::push_demand_flat`]) instead of
/// cloning and repairing it.
///
/// `weights` must hold the new weight vector values (as in
/// [`apply_weight_delta`]); the caller must already have established
/// that the delta affects the DAG ([`delta_affects_dag`]).
pub fn fast_rebranch(
    ft: &FlatTopo,
    dag: &FlatDag,
    weights: &[Weight],
    link: u32,
    old_w: Weight,
    new_w: Weight,
    branches: &mut Vec<u32>,
) -> Option<u32> {
    let (u, v) = (ft.src(link), ft.dst(link));
    let du = dag.dist[u as usize];
    let dv = dag.dist[v as usize];
    if dv == UNREACHABLE || du == UNREACHABLE {
        return None;
    }
    let distance_preserved = if new_w > old_w {
        // Tight-link increase: `u` must keep its distance via a sibling.
        debug_assert!(du == dv + old_w as Dist);
        has_alternate_tight_branch(ft, &dag.dist, weights, None, u, link)
    } else {
        // Decrease: only the exact-tie case leaves distances alone.
        dv + new_w as Dist == du
    };
    if !distance_preserved {
        return None;
    }
    branches.clear();
    scan_tight_branches(ft, &dag.dist, weights, None, u, |lid| branches.push(lid));
    Some(u)
}

/// Is `lid` usable under the (optional) link-up mask?
#[inline]
fn link_usable(mask: Option<&LinkMask>, lid: u32) -> bool {
    mask.is_none_or(|mk| mk.is_up(lid))
}

/// Does `u` reach its current distance through some tight up out-link
/// other than `exclude`? (The keeps-distance predicate of the
/// fast-rebranch / fast-repair increase paths.)
fn has_alternate_tight_branch(
    ft: &FlatTopo,
    dist: &[Dist],
    weights: &[Weight],
    mask: Option<&LinkMask>,
    u: u32,
    exclude: u32,
) -> bool {
    let du = dist[u as usize];
    ft.out_links(u).iter().any(|&lid| {
        if lid == exclude || !link_usable(mask, lid) {
            return false;
        }
        let dy = dist[ft.dst(lid) as usize];
        dy != UNREACHABLE && du == dy + weights[lid as usize] as Dist
    })
}

/// Feeds `u`'s tight up out-links to `sink` — the **single** scan (same
/// order, same predicate) behind both [`rebuild_ecmp`] and
/// [`fast_rebranch`], and the masked counterpart of the scan
/// [`FlatDag::compute_into`] / `ShortestPathDag::compute_with` run; the
/// engine's bit-identical contract depends on these never drifting
/// apart.
#[inline]
fn scan_tight_branches(
    ft: &FlatTopo,
    dist: &[Dist],
    weights: &[Weight],
    mask: Option<&LinkMask>,
    u: u32,
    mut sink: impl FnMut(u32),
) {
    let du = dist[u as usize];
    for &lid in ft.out_links(u) {
        if !link_usable(mask, lid) {
            continue;
        }
        let dy = dist[ft.dst(lid) as usize];
        if dy != UNREACHABLE && du == dy + weights[lid as usize] as Dist {
            sink(lid);
        }
    }
}

/// Repairs `dag` in place after the weight of `link` changed from
/// `old_w` to `new_w`. `weights` must hold the **new** weight vector
/// values (i.e. `weights[link] == new_w`, all other entries as the DAG's
/// previous weights). Returns `true` if any distance changed (callers
/// then know load pushes must be redone even for equal-cost-only
/// membership changes, which also return `true`).
pub fn apply_weight_delta(
    ft: &FlatTopo,
    dag: &mut FlatDag,
    weights: &[Weight],
    link: u32,
    old_w: Weight,
    new_w: Weight,
    scratch: &mut DynSpfScratch,
) -> bool {
    debug_assert_eq!(weights[link as usize], new_w);
    if old_w == new_w {
        return false;
    }
    let n = ft.node_count();
    scratch.reset(n);

    let (u, v) = (ft.src(link), ft.dst(link));
    let dv = dag.dist[v as usize];
    let du = dag.dist[u as usize];

    if dv == UNREACHABLE {
        return false;
    }

    if new_w > old_w {
        let was_tight = du != UNREACHABLE && du == dv + old_w as Dist;
        if !was_tight {
            return false;
        }
        // Fast path: if `u` keeps its distance through another tight
        // out-link, no distance changes anywhere — the link merely
        // leaves the DAG at `u` (common with small integer weights,
        // where ECMP ties abound).
        if has_alternate_tight_branch(ft, &dag.dist, weights, None, u, link) {
            rebuild_ecmp(ft, dag, weights, None, u);
            return true;
        }
        repair_increase(ft, dag, weights, None, u, scratch);
    } else {
        let cand = dv + new_w as Dist;
        if du != UNREACHABLE && cand > du {
            return false;
        }
        if du != UNREACHABLE && cand == du {
            // Distances unchanged; the link merely joins the DAG at `u`.
            rebuild_ecmp(ft, dag, weights, None, u);
            return true;
        }
        repair_decrease(ft, dag, weights, None, u, cand, scratch);
    }

    finish_repair(ft, dag, weights, None, u, scratch)
}

/// Returns true iff **removing** `link` can alter `dag`: a removal
/// matters exactly when the link is currently tight (on the DAG).
/// `weights` holds the link's weight (masks never change weights).
/// Restorations have a different condition (`dist(v) + w ≤ dist(u)`,
/// tie *or* improvement) — [`apply_link_up`] checks it itself, so there
/// is no separate filter to misuse.
#[inline]
pub fn link_down_affects_dag(ft: &FlatTopo, dag: &FlatDag, weights: &[Weight], link: u32) -> bool {
    let du = dag.dist[ft.src(link) as usize];
    let dv = dag.dist[ft.dst(link) as usize];
    du != UNREACHABLE && dv != UNREACHABLE && du == dv + weights[link as usize] as Dist
}

/// Repairs `dag` in place after `link` went **down**. `mask` must be
/// the post-change link-up mask (`mask.is_up(link) == false`, and every
/// other already-down link down as well); `weights` is unchanged by
/// masking. Returns `true` if the DAG changed at all. Semantically this
/// is [`apply_weight_delta`] with `new_w = ∞`: a removal of a non-tight
/// link is a no-op, a removal of a tight link invalidates the
/// DAG-ancestors of its tail and re-settles them from the boundary.
pub fn apply_link_down(
    ft: &FlatTopo,
    dag: &mut FlatDag,
    weights: &[Weight],
    mask: &LinkMask,
    link: u32,
    scratch: &mut DynSpfScratch,
) -> bool {
    debug_assert!(!mask.is_up(link));
    let n = ft.node_count();
    let (u, v) = (ft.src(link), ft.dst(link));
    let du = dag.dist[u as usize];
    let dv = dag.dist[v as usize];
    if dv == UNREACHABLE || du == UNREACHABLE || du != dv + weights[link as usize] as Dist {
        // Not tight: the link is on no shortest path, so removing it
        // changes neither distances nor ECMP membership.
        return false;
    }
    scratch.reset(n);
    // Fast path: `u` keeps its distance through a sibling branch — the
    // link merely leaves the DAG at `u`. (The down link itself is
    // excluded by the mask.)
    if has_alternate_tight_branch(ft, &dag.dist, weights, Some(mask), u, link) {
        rebuild_ecmp(ft, dag, weights, Some(mask), u);
        return true;
    }
    repair_increase(ft, dag, weights, Some(mask), u, scratch);
    finish_repair(ft, dag, weights, Some(mask), u, scratch)
}

/// Repairs `dag` in place after `link` came back **up**. `mask` must be
/// the post-change link-up mask (`mask.is_up(link) == true`). Returns
/// `true` if the DAG changed. Semantically [`apply_weight_delta`] with
/// `old_w = ∞`: the only new candidate paths enter through the restored
/// link, so a seeded decrease-repair propagates any improvement
/// upstream. Applying [`apply_link_down`] and then `apply_link_up` for
/// the same link (under matching staged masks) restores the DAG to a
/// structure identical to a fresh computation — the failure sweep's
/// revert step.
pub fn apply_link_up(
    ft: &FlatTopo,
    dag: &mut FlatDag,
    weights: &[Weight],
    mask: &LinkMask,
    link: u32,
    scratch: &mut DynSpfScratch,
) -> bool {
    debug_assert!(mask.is_up(link));
    let n = ft.node_count();
    let (u, v) = (ft.src(link), ft.dst(link));
    let dv = dag.dist[v as usize];
    if dv == UNREACHABLE {
        // The link still leads nowhere useful.
        return false;
    }
    let du = dag.dist[u as usize];
    let cand = dv + weights[link as usize] as Dist;
    if du != UNREACHABLE && cand > du {
        return false;
    }
    scratch.reset(n);
    if du != UNREACHABLE && cand == du {
        // Distances unchanged; the link merely joins the DAG at `u`.
        rebuild_ecmp(ft, dag, weights, Some(mask), u);
        return true;
    }
    repair_decrease(ft, dag, weights, Some(mask), u, cand, scratch);
    finish_repair(ft, dag, weights, Some(mask), u, scratch)
}

/// Shared repair tail. `scratch.touched` holds exactly the nodes whose
/// distance changed; ECMP membership is rebuilt for them, for their
/// in-neighbors (whose tight-link sets reference those distances) and
/// for `u` itself (the changed link's tail), and the changed nodes are
/// moved to their new places in `order`. Always returns `true` (the
/// repair ran).
fn finish_repair(
    ft: &FlatTopo,
    dag: &mut FlatDag,
    weights: &[Weight],
    mask: Option<&LinkMask>,
    u: u32,
    scratch: &mut DynSpfScratch,
) -> bool {
    scratch.mark_recompute(u);
    for i in 0..scratch.touched.len() {
        let x = scratch.touched[i];
        scratch.mark_recompute(x);
        for &lid in ft.in_links(x) {
            scratch.mark_recompute(ft.src(lid));
        }
    }
    let recompute = std::mem::take(&mut scratch.recompute);
    for &x in &recompute {
        scratch.recompute_flag[x as usize] = false;
        rebuild_ecmp(ft, dag, weights, mask, x);
    }
    scratch.recompute = recompute;
    scratch.recompute.clear();

    if !scratch.touched.is_empty() {
        reorder_changed(dag, scratch);
    }
    true
}

/// Restores `dag.order` after the distances of exactly the nodes in
/// `scratch.touched` changed. `order` is the unique permutation sorted
/// by (distance descending, node id ascending), and the unchanged nodes
/// are still sorted among themselves: compact them to the front, sort
/// the changed ones by the same key, and merge backward into the freed
/// tail. Once the changed nodes run out, the unchanged ones that remain
/// are already in place.
fn reorder_changed(dag: &mut FlatDag, scratch: &mut DynSpfScratch) {
    let FlatDag { dist, order, .. } = dag;
    let key = |x: u32| (Reverse(dist[x as usize]), x);
    let mut kept = 0;
    for i in 0..order.len() {
        let x = order[i];
        if !scratch.in_set[x as usize] {
            order[kept] = x;
            kept += 1;
        }
    }
    scratch.touched.sort_unstable_by_key(|&x| key(x));
    let mut changed = scratch.touched.len();
    while changed > 0 {
        let c = scratch.touched[changed - 1];
        let at = kept + changed - 1;
        if kept > 0 && key(order[kept - 1]) > key(c) {
            order[at] = order[kept - 1];
            kept -= 1;
        } else {
            order[at] = c;
            changed -= 1;
        }
    }
}

/// Rebuilds node `x`'s ECMP arena slot by the same (optionally masked)
/// out-link scan the full SPF uses.
fn rebuild_ecmp(
    ft: &FlatTopo,
    dag: &mut FlatDag,
    weights: &[Weight],
    mask: Option<&LinkMask>,
    x: u32,
) {
    let FlatDag {
        dest,
        dist,
        ecmp,
        ecmp_len,
        ..
    } = dag;
    let xi = x as usize;
    let mut len = 0usize;
    if dist[xi] != UNREACHABLE && x != *dest {
        let slot = ft.ecmp_slot(x);
        scan_tight_branches(ft, dist, weights, mask, x, |lid| {
            ecmp[slot + len] = lid;
            len += 1;
        });
    }
    ecmp_len[xi] = len as u32;
}

/// Weight increase on a tight link out of `u`: invalidate the ancestor
/// set of `u` and re-settle it from its boundary. The invalidated set
/// is a superset of the nodes that end up at a different distance; on
/// return `scratch.touched` (and `in_set`) is narrowed to those.
fn repair_increase(
    ft: &FlatTopo,
    dag: &mut FlatDag,
    weights: &[Weight],
    mask: Option<&LinkMask>,
    u: u32,
    scratch: &mut DynSpfScratch,
) {
    // Ancestor set S = nodes with a DAG path to u (including u): reverse
    // BFS over tight up in-links. Tightness is judged on the pre-change
    // distances; the changed link itself points *out of* u and is never
    // traversed upward. Down links are skipped — after earlier repairs
    // a removed link's endpoints can still satisfy the tightness
    // arithmetic without the link being on any path.
    scratch.mark_set(u);
    scratch.stack.push(u);
    while let Some(x) = scratch.stack.pop() {
        let dx = dag.dist[x as usize];
        for &lid in ft.in_links(x) {
            if !link_usable(mask, lid) {
                continue;
            }
            let p = ft.src(lid);
            if scratch.in_set[p as usize] {
                continue;
            }
            let dp = dag.dist[p as usize];
            if dp != UNREACHABLE && dx != UNREACHABLE && dp == dx + weights[lid as usize] as Dist {
                scratch.mark_set(p);
                scratch.stack.push(p);
            }
        }
    }

    // Snapshot old distances of S, then invalidate.
    scratch.old_dist.clear();
    scratch
        .old_dist
        .extend(scratch.touched.iter().map(|&x| (x, dag.dist[x as usize])));
    for i in 0..scratch.old_dist.len() {
        let (x, _) = scratch.old_dist[i];
        dag.dist[x as usize] = UNREACHABLE;
    }

    // Seed the heap from the boundary: for x ∈ S, any up out-link to a
    // node outside S (whose distance is still valid) offers a path.
    for i in 0..scratch.old_dist.len() {
        let (x, _) = scratch.old_dist[i];
        for &lid in ft.out_links(x) {
            if !link_usable(mask, lid) {
                continue;
            }
            let y = ft.dst(lid);
            if scratch.in_set[y as usize] {
                continue;
            }
            let dy = dag.dist[y as usize];
            if dy == UNREACHABLE {
                continue;
            }
            let cand = dy + weights[lid as usize] as Dist;
            if cand < dag.dist[x as usize] {
                dag.dist[x as usize] = cand;
                scratch.heap.push(Reverse((cand, x)));
            }
        }
    }

    // Dijkstra restricted to S. Nodes never re-settled stay
    // UNREACHABLE — exactly what a fresh masked computation produces
    // when a mask disconnects part of the graph from the destination.
    while let Some(Reverse((d, x))) = scratch.heap.pop() {
        if d > dag.dist[x as usize] {
            continue;
        }
        for &lid in ft.in_links(x) {
            if !link_usable(mask, lid) {
                continue;
            }
            let p = ft.src(lid);
            if !scratch.in_set[p as usize] {
                continue;
            }
            let cand = d + weights[lid as usize] as Dist;
            if cand < dag.dist[p as usize] {
                dag.dist[p as usize] = cand;
                scratch.heap.push(Reverse((cand, p)));
            }
        }
    }

    // `old_dist` lists S in `touched` order: filter both in step.
    scratch.touched.clear();
    for &(x, d) in &scratch.old_dist {
        if dag.dist[x as usize] != d {
            scratch.touched.push(x);
        } else {
            scratch.in_set[x as usize] = false;
        }
    }
}

/// Weight decrease: propagate the strictly improving candidate
/// `dist'(u) = cand` upstream (the caller pre-checks `cand < dist(u)`).
/// Marks the improved nodes in `scratch.touched`.
fn repair_decrease(
    ft: &FlatTopo,
    dag: &mut FlatDag,
    weights: &[Weight],
    mask: Option<&LinkMask>,
    u: u32,
    cand: Dist,
    scratch: &mut DynSpfScratch,
) {
    debug_assert!(dag.dist[u as usize] == UNREACHABLE || cand < dag.dist[u as usize]);
    dag.dist[u as usize] = cand;
    scratch.mark_set(u);
    scratch.heap.push(Reverse((cand, u)));
    while let Some(Reverse((d, x))) = scratch.heap.pop() {
        if d > dag.dist[x as usize] {
            continue;
        }
        for &lid in ft.in_links(x) {
            if !link_usable(mask, lid) {
                continue;
            }
            let p = ft.src(lid);
            let nd = d + weights[lid as usize] as Dist;
            if nd < dag.dist[p as usize] {
                dag.dist[p as usize] = nd;
                scratch.mark_set(p);
                scratch.heap.push(Reverse((nd, p)));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatSpfWorkspace;
    use dtr_graph::{NodeId, ShortestPathDag, Topology, TopologyBuilder, WeightVector};

    fn diamond() -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_nodes(4);
        b.add_duplex(NodeId(0), NodeId(1), 500.0, 0.001);
        b.add_duplex(NodeId(0), NodeId(2), 500.0, 0.001);
        b.add_duplex(NodeId(1), NodeId(3), 500.0, 0.001);
        b.add_duplex(NodeId(2), NodeId(3), 500.0, 0.001);
        b.build().unwrap()
    }

    fn flat_compute(ft: &FlatTopo, w: &WeightVector, dest: u32) -> FlatDag {
        let mut ws = FlatSpfWorkspace::new();
        let mut dag = FlatDag::empty(ft);
        dag.compute_into(ft, w.as_slice(), dest, None, &mut ws);
        dag
    }

    /// Structural equality against a fresh computation.
    fn assert_matches_fresh(topo: &Topology, ft: &FlatTopo, dag: &FlatDag, w: &WeightVector) {
        let fresh = ShortestPathDag::compute(topo, w, NodeId(dag.dest));
        let got = dag.to_dag(ft);
        assert_eq!(got.dist, fresh.dist, "dist mismatch");
        assert_eq!(got.ecmp_out, fresh.ecmp_out, "ecmp mismatch");
        assert_eq!(got.order, fresh.order, "order mismatch");
    }

    #[test]
    fn increase_and_decrease_roundtrip() {
        let topo = diamond();
        let ft = FlatTopo::new(&topo);
        let mut w = WeightVector::uniform(&topo, 1);
        let mut dag = flat_compute(&ft, &w, 3);
        let mut scratch = DynSpfScratch::new();

        let l01 = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        // Increase 0→1 from 1 to 5: path via 2 only.
        w.set(l01, 5);
        apply_weight_delta(&ft, &mut dag, w.as_slice(), l01.0, 1, 5, &mut scratch);
        assert_matches_fresh(&topo, &ft, &dag, &w);
        assert_eq!(dag.ecmp_len[0], 1);

        // Decrease back to 1: ECMP split returns.
        w.set(l01, 1);
        apply_weight_delta(&ft, &mut dag, w.as_slice(), l01.0, 5, 1, &mut scratch);
        assert_matches_fresh(&topo, &ft, &dag, &w);
        assert_eq!(dag.ecmp_len[0], 2);
    }

    #[test]
    fn unaffected_deltas_are_detected() {
        let topo = diamond();
        let ft = FlatTopo::new(&topo);
        let w = WeightVector::uniform(&topo, 1);
        let dag = flat_compute(&ft, &w, 3);
        // The reverse link 3→0-side weights never matter for paths *to* 3
        // from 0 unless tight; check a non-tight increase is filtered.
        let l31 = topo.find_link(NodeId(3), NodeId(1)).unwrap();
        assert!(!delta_affects_dag(&ft, &dag, l31.0, 1, 9));
        // A tight link increase is flagged.
        let l13 = topo.find_link(NodeId(1), NodeId(3)).unwrap();
        assert!(delta_affects_dag(&ft, &dag, l13.0, 1, 2));
        // A decrease creating a tie is flagged (ECMP membership change).
        let l02 = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        assert!(!delta_affects_dag(&ft, &dag, l02.0, 1, 1));
    }

    /// Structural equality against a fresh masked computation.
    fn assert_matches_fresh_masked(
        topo: &Topology,
        ft: &FlatTopo,
        dag: &FlatDag,
        w: &WeightVector,
        up: &[bool],
    ) {
        let mut ws = dtr_graph::SpfWorkspace::new();
        let fresh = ShortestPathDag::compute_with(topo, w, NodeId(dag.dest), Some(up), &mut ws);
        let got = dag.to_dag(ft);
        assert_eq!(got.dist, fresh.dist, "masked dist mismatch");
        assert_eq!(got.ecmp_out, fresh.ecmp_out, "masked ecmp mismatch");
        assert_eq!(got.order, fresh.order, "masked order mismatch");
    }

    #[test]
    fn duplex_down_then_up_roundtrips() {
        let topo = diamond();
        let ft = FlatTopo::new(&topo);
        let w = WeightVector::uniform(&topo, 1);
        let mut dag = flat_compute(&ft, &w, 3);
        let original = dag.clone();
        let mut scratch = DynSpfScratch::new();

        // Fail duplex 0↔1: apply the two directed removals staged.
        let a = topo.find_link(NodeId(0), NodeId(1)).unwrap().0;
        let b = topo.find_link(NodeId(1), NodeId(0)).unwrap().0;
        let mut up = vec![true; topo.link_count()];
        let mut mask = LinkMask::all_up(topo.link_count());
        up[a as usize] = false;
        mask.set_down(a);
        if link_down_affects_dag(&ft, &dag, w.as_slice(), a) {
            apply_link_down(&ft, &mut dag, w.as_slice(), &mask, a, &mut scratch);
        }
        up[b as usize] = false;
        mask.set_down(b);
        if link_down_affects_dag(&ft, &dag, w.as_slice(), b) {
            apply_link_down(&ft, &mut dag, w.as_slice(), &mask, b, &mut scratch);
        }
        assert_matches_fresh_masked(&topo, &ft, &dag, &w, &up);
        // Node 0 lost its ECMP split towards 3.
        assert_eq!(dag.ecmp_len[0], 1);

        // Revert in reverse order under staged masks.
        mask.set_up(b);
        apply_link_up(&ft, &mut dag, w.as_slice(), &mask, b, &mut scratch);
        mask.set_up(a);
        apply_link_up(&ft, &mut dag, w.as_slice(), &mask, a, &mut scratch);
        assert!(dag.same_structure(&ft, &original));
    }

    #[test]
    fn isolating_removal_marks_unreachable_and_recovers() {
        // A 2-node duplex: cutting it makes node 1 unreachable from 0.
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_duplex(NodeId(0), NodeId(1), 1.0, 0.001);
        let topo = b.build().unwrap();
        let ft = FlatTopo::new(&topo);
        let w = WeightVector::uniform(&topo, 1);
        let mut dag = flat_compute(&ft, &w, 1);
        let original = dag.clone();
        let mut scratch = DynSpfScratch::new();
        let l01 = topo.find_link(NodeId(0), NodeId(1)).unwrap().0;
        let l10 = topo.find_link(NodeId(1), NodeId(0)).unwrap().0;
        let mut up = vec![true; topo.link_count()];
        let mut mask = LinkMask::all_up(topo.link_count());
        up[l01 as usize] = false;
        mask.set_down(l01);
        if link_down_affects_dag(&ft, &dag, w.as_slice(), l01) {
            apply_link_down(&ft, &mut dag, w.as_slice(), &mask, l01, &mut scratch);
        }
        up[l10 as usize] = false;
        mask.set_down(l10);
        if link_down_affects_dag(&ft, &dag, w.as_slice(), l10) {
            apply_link_down(&ft, &mut dag, w.as_slice(), &mask, l10, &mut scratch);
        }
        assert_eq!(dag.dist[0], UNREACHABLE);
        assert_matches_fresh_masked(&topo, &ft, &dag, &w, &up);
        mask.set_up(l10);
        apply_link_up(&ft, &mut dag, w.as_slice(), &mask, l10, &mut scratch);
        mask.set_up(l01);
        apply_link_up(&ft, &mut dag, w.as_slice(), &mask, l01, &mut scratch);
        assert!(dag.same_structure(&ft, &original));
    }

    #[test]
    fn randomized_duplex_mask_roundtrips_match_fresh() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let topo = dtr_graph::gen::random_topology(&dtr_graph::gen::RandomTopologyCfg {
            nodes: 14,
            directed_links: 56,
            seed: 21,
        });
        let ft = FlatTopo::new(&topo);
        let mut rng = StdRng::seed_from_u64(77);
        let mut w = WeightVector::uniform(&topo, 3);
        for (lid, _) in topo.links() {
            w.set(lid, rng.random_range(1u32..=8));
        }
        let mut scratch = DynSpfScratch::new();
        for dest_seed in 0..4u32 {
            let dest = dest_seed * 3 % topo.node_count() as u32;
            let mut dag = flat_compute(&ft, &w, dest);
            let original = dag.clone();
            for _ in 0..60 {
                let a = rng.random_range(0..topo.link_count() as u32);
                let b = topo.reverse_link(dtr_graph::LinkId(a)).unwrap().0;
                let mut up = vec![true; topo.link_count()];
                let mut mask = LinkMask::all_up(topo.link_count());
                for l in [a, b] {
                    up[l as usize] = false;
                    mask.set_down(l);
                    if link_down_affects_dag(&ft, &dag, w.as_slice(), l) {
                        apply_link_down(&ft, &mut dag, w.as_slice(), &mask, l, &mut scratch);
                    }
                }
                assert_matches_fresh_masked(&topo, &ft, &dag, &w, &up);
                for l in [b, a] {
                    mask.set_up(l);
                    apply_link_up(&ft, &mut dag, w.as_slice(), &mask, l, &mut scratch);
                }
                assert!(dag.same_structure(&ft, &original));
            }
        }
    }

    #[test]
    fn randomized_repairs_match_fresh() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let topo = dtr_graph::gen::random_topology(&dtr_graph::gen::RandomTopologyCfg {
            nodes: 14,
            directed_links: 56,
            seed: 11,
        });
        let ft = FlatTopo::new(&topo);
        let mut rng = StdRng::seed_from_u64(99);
        let mut w = WeightVector::uniform(&topo, 5);
        let mut dag = flat_compute(&ft, &w, 0);
        let mut scratch = DynSpfScratch::new();
        for _ in 0..500 {
            let lid = rng.random_range(0..topo.link_count() as u32);
            let old = w.get(dtr_graph::LinkId(lid));
            let new = rng.random_range(1u32..=10);
            w.set(dtr_graph::LinkId(lid), new);
            if delta_affects_dag(&ft, &dag, lid, old, new) {
                apply_weight_delta(&ft, &mut dag, w.as_slice(), lid, old, new, &mut scratch);
            }
            assert_matches_fresh(&topo, &ft, &dag, &w);
        }
    }
    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(12))]

        /// Long in-place walks where ties are everywhere (weights from
        /// 1..=3) and, in between, every out-link of some node goes down
        /// and comes back, which cuts that node (and whatever hangs off
        /// it) from the destination. After every single repair the DAG
        /// (`dist`, `order`, every branch list) equals a fresh one.
        #[test]
        fn tied_walks_with_disconnections_match_fresh(
            seed in 0u64..10_000,
            nodes in 20usize..=60,
        ) {
            use proptest::prelude::*;
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let topo = dtr_graph::gen::random_topology(&dtr_graph::gen::RandomTopologyCfg {
                nodes,
                directed_links: nodes * 4,
                seed,
            });
            let ft = FlatTopo::new(&topo);
            let m = topo.link_count() as u32;
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
            let mut w: Vec<Weight> = (0..m).map(|_| rng.random_range(1u32..=3)).collect();
            let dest = rng.random_range(0..nodes as u32);
            let mut ws = FlatSpfWorkspace::new();
            let mut dag = FlatDag::empty(&ft);
            dag.compute_into(&ft, &w, dest, None, &mut ws);
            let mut fresh = FlatDag::empty(&ft);
            let mut scratch = DynSpfScratch::new();
            let mut mask = LinkMask::all_up(m as usize);
            let mut cut_nodes = 0usize;

            for step in 0..240usize {
                if step % 8 == 7 {
                    let x = rng.random_range(0..nodes as u32);
                    let downs = ft.out_links(x).to_vec();
                    for &l in &downs {
                        mask.set_down(l);
                        if link_down_affects_dag(&ft, &dag, &w, l) {
                            apply_link_down(&ft, &mut dag, &w, &mask, l, &mut scratch);
                        }
                        fresh.compute_into(&ft, &w, dest, Some(&mask), &mut ws);
                        prop_assert!(dag.same_structure(&ft, &fresh), "step {}", step);
                    }
                    if x != dest {
                        prop_assert_eq!(dag.dist[x as usize], UNREACHABLE);
                        cut_nodes += 1;
                    }
                    for &l in downs.iter().rev() {
                        mask.set_up(l);
                        apply_link_up(&ft, &mut dag, &w, &mask, l, &mut scratch);
                        fresh.compute_into(&ft, &w, dest, Some(&mask), &mut ws);
                        prop_assert!(dag.same_structure(&ft, &fresh), "step {}", step);
                    }
                    continue;
                }
                let lid = rng.random_range(0..m);
                let old = w[lid as usize];
                let new = rng.random_range(1u32..=3);
                w[lid as usize] = new;
                if delta_affects_dag(&ft, &dag, lid, old, new) {
                    apply_weight_delta(&ft, &mut dag, &w, lid, old, new, &mut scratch);
                }
                fresh.compute_into(&ft, &w, dest, None, &mut ws);
                prop_assert!(dag.same_structure(&ft, &fresh), "step {}", step);
            }
            prop_assert!(cut_nodes >= 25);
        }
    }
}
