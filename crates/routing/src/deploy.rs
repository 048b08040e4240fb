//! Partial deployment: which routers are multi-topology capable.
//!
//! The paper assumes every router understands two topologies. A real
//! migration upgrades routers incrementally, and until the last router
//! flips, the network is **mixed**: upgraded nodes hold two FIBs and
//! bifurcate traffic by class, while legacy nodes run plain single-
//! topology OSPF on the default topology — they forward *both* classes
//! on the high-priority weight vector's shortest paths. (This is the
//! overlay/bifurcation deployment model of Paschos & Modiano, applied
//! to the paper's dual-topology scheme; see PAPERS.md.)
//!
//! [`DeploymentSet`] is the bitset of upgraded nodes. The high class is
//! untouched by deployment — every node forwards it on the high
//! topology. The low class follows a **hybrid** forwarding graph: at an
//! upgraded node its next hops come from the low-topology DAG, at a
//! legacy node from the high-topology DAG.
//!
//! ## The walk, and trapped demand
//!
//! Mixing two per-destination DAGs can create forwarding loops: each
//! DAG is acyclic on its own, but a legacy hop "towards t on the high
//! topology" can point back at an upgraded hop "towards t on the low
//! topology". Real mixed networks hit exactly this failure mode
//! (packets ping-pong until TTL expiry), so it must be *modeled*, not
//! assumed away. One deterministic Kahn walk over the hybrid next hops
//! decides who forwards. A node other than the destination is placed
//! once every hybrid edge into it comes from a placed node, ready nodes
//! by ascending index, and only if it has next hops; the destination
//! waits for no one and is placed last. Put the other way, the rule
//! is:
//!
//! - a node other than the destination forwards only if it has next
//!   hops and no node with a path into it (itself included) lies on a
//!   cycle;
//! - demand parks on the first node that does not forward, and the
//!   parked volume is the **trapped** volume;
//! - the destination absorbs whatever reaches it: flow there is
//!   delivered, never trapped, even when a loop feeds into it.
//!
//! The second clause is conservative: a node downstream of a loop
//! traps flow that reaches it from elsewhere, although that flow itself
//! never loops.
//!
//! The walk has two callers:
//!
//! - [`push_hybrid`] pushes one destination's demand as it places each
//!   node and returns the trapped volume, building no DAG.
//!   `Evaluator::low_loads_deployed` and `dtr-engine`'s cached hybrid
//!   loads both call it.
//! - [`hybrid_low_dag`] folds the placement into a [`ShortestPathDag`]
//!   for the fluid solver and the DES: nodes the walk leaves out are
//!   [`UNREACHABLE`] with no branches. The one demand push
//!   ([`crate::loads::push_demand_flat`]) over it makes `push_hybrid`'s
//!   adds in the same order.
//!
//! `tests/oracle.rs` checks the loads and trapped volume against a path
//! enumeration that implements the rule above on its own.
//!
//! The evaluator charges trapped demand at `Φ`'s steepest slope
//! (`phi(u, 0) = 5000·u`), so weight searches under partial deployment
//! steer away from loop-inducing settings instead of silently dropping
//! traffic.

use dtr_graph::spf::{Dist, UNREACHABLE};
use dtr_graph::{FlatTopo, ShortestPathDag};

/// The set of multi-topology-capable (upgraded) routers, as a bitset
/// over node indices. Nodes outside the set are legacy single-topology
/// routers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeploymentSet {
    words: Vec<u64>,
    nodes: usize,
    upgraded: usize,
}

impl DeploymentSet {
    /// The empty deployment: every router is legacy (DTR degenerates to
    /// routing both classes on the high topology).
    pub fn empty(nodes: usize) -> Self {
        DeploymentSet {
            words: vec![0; nodes.div_ceil(64)],
            nodes,
            upgraded: 0,
        }
    }

    /// The full deployment: every router is upgraded — the paper's
    /// assumption, and the evaluator's bit-identical legacy path.
    pub fn full(nodes: usize) -> Self {
        let mut s = Self::empty(nodes);
        for v in 0..nodes {
            s.insert(v);
        }
        s
    }

    /// Builds a deployment from a list of upgraded node indices.
    /// Duplicates are harmless; out-of-range indices panic.
    pub fn from_upgraded(nodes: usize, upgraded: &[u32]) -> Self {
        let mut s = Self::empty(nodes);
        for &v in upgraded {
            s.insert(v as usize);
        }
        s
    }

    /// Number of nodes in the universe.
    pub fn node_count(&self) -> usize {
        self.nodes
    }

    /// Number of upgraded nodes.
    pub fn upgraded_count(&self) -> usize {
        self.upgraded
    }

    /// Whether every router is upgraded.
    pub fn is_full(&self) -> bool {
        self.upgraded == self.nodes
    }

    /// Whether node `v` is upgraded.
    #[inline]
    pub fn contains(&self, v: usize) -> bool {
        debug_assert!(v < self.nodes, "node {v} outside universe {}", self.nodes);
        self.words[v / 64] & (1u64 << (v % 64)) != 0
    }

    /// Upgrades node `v`; returns whether the set changed.
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(v < self.nodes, "node {v} outside universe {}", self.nodes);
        let w = &mut self.words[v / 64];
        let bit = 1u64 << (v % 64);
        if *w & bit != 0 {
            return false;
        }
        *w |= bit;
        self.upgraded += 1;
        true
    }

    /// Downgrades node `v`; returns whether the set changed.
    pub fn remove(&mut self, v: usize) -> bool {
        assert!(v < self.nodes, "node {v} outside universe {}", self.nodes);
        let w = &mut self.words[v / 64];
        let bit = 1u64 << (v % 64);
        if *w & bit == 0 {
            return false;
        }
        *w &= !bit;
        self.upgraded -= 1;
        true
    }

    /// The upgraded node indices, ascending — the canonical
    /// serialization of a deployment (manifests, reports).
    pub fn upgraded_nodes(&self) -> Vec<u32> {
        (0..self.nodes as u32)
            .filter(|&v| self.contains(v as usize))
            .collect()
    }
}

/// Buffers the hybrid walk reuses from one destination to the next:
/// node flow, in-degree over unplaced branches (`u32::MAX` once
/// placed), the ready nodes as a bitset.
#[derive(Debug, Clone, Default)]
pub struct HybridScratch {
    flow: Vec<f64>,
    indeg: Vec<u32>,
    ready: Vec<u64>,
}

/// The one Kahn walk over the hybrid next hops of `high` and `low`
/// towards their destination (see the module docs). Calls `place(v,
/// branches)` for every node it places, in placement order: the ready
/// node of lowest index first, the destination last. Afterwards
/// `indeg[v] == u32::MAX` exactly for the placed nodes.
fn walk(
    ft: &FlatTopo,
    dep: &DeploymentSet,
    [high, low]: [&ShortestPathDag; 2],
    indeg: &mut Vec<u32>,
    ready: &mut Vec<u64>,
    mut place: impl FnMut(usize, &[u32]),
) {
    debug_assert_eq!(high.dest, low.dest);
    debug_assert_eq!(dep.node_count(), ft.node_count());
    let (n, t) = (ft.node_count(), high.dest as usize);
    // Low branches at upgraded nodes, high ones at legacy nodes; neither
    // DAG gives the destination any.
    let governing = |v: usize| (if dep.contains(v) { low } else { high }).branches(ft, v as u32);
    debug_assert!(governing(t).is_empty(), "the destination forwards nothing");
    indeg.clear();
    indeg.resize(n, 0);
    for &l in (0..n).flat_map(governing) {
        indeg[ft.dst(l) as usize] += 1;
    }
    // A node without branches never forwards; `t`, which has none,
    // waits for no one and is placed last.
    let forwards = |v: usize| !governing(v).is_empty();
    ready.clear();
    ready.resize(n.div_ceil(64), 0);
    for v in (0..n).filter(|&v| indeg[v] == 0 && forwards(v)) {
        ready[v / 64] |= 1 << (v % 64);
    }
    while let Some(w) = ready.iter().position(|&bits| bits != 0) {
        let v = w * 64 + ready[w].trailing_zeros() as usize;
        ready[w] &= ready[w] - 1;
        indeg[v] = u32::MAX;
        place(v, governing(v));
        for &l in governing(v) {
            let u = ft.dst(l) as usize;
            indeg[u] -= 1;
            if indeg[u] == 0 && forwards(u) {
                ready[u / 64] |= 1 << (u % 64);
            }
        }
    }
    indeg[t] = u32::MAX;
    place(t, &[]);
}

/// Pushes `demand`'s `(source, volume)` pairs towards the common
/// destination of `high` and `low` down their hybrid under `dep`,
/// reporting every `+= share` a link receives to `add(link, share)`,
/// and returns the trapped volume (see the module docs). Each node's
/// flow splits evenly over its branches as the walk places it, so the
/// adds come in [`push_demand_flat`](crate::push_demand_flat)'s order
/// over [`hybrid_low_dag`]'s DAG, without building it. The flow left on
/// unplaced nodes, summed in index order, is the trapped volume:
/// exactly `0.0` when every node is placed. Flow at the destination is
/// never part of it.
pub fn push_hybrid(
    ft: &FlatTopo,
    dep: &DeploymentSet,
    dags: [&ShortestPathDag; 2],
    demand: impl IntoIterator<Item = (usize, f64)>,
    scratch: &mut HybridScratch,
    mut add: impl FnMut(u32, f64),
) -> f64 {
    let HybridScratch { flow, indeg, ready } = scratch;
    flow.clear();
    flow.resize(ft.node_count(), 0.0);
    for (s, v) in demand {
        flow[s] += v;
    }
    walk(ft, dep, dags, indeg, ready, |v, branches| {
        let f = flow[v];
        if f > 0.0 {
            let share = f / branches.len() as f64;
            for &l in branches {
                add(l, share);
                flow[ft.dst(l) as usize] += share;
            }
        }
    });
    let unplaced = (0..flow.len()).filter(|&v| indeg[v] != u32::MAX);
    unplaced.map(|v| flow[v]).sum()
}

/// Folds the per-destination high and low DAGs into the hybrid
/// forwarding DAG the low class follows under `dep` (see the module
/// docs), for the consumers that need the DAG itself: the fluid solver
/// and the DES. `high` and `low` must both target the same destination,
/// and `ft` must be the view of the topology they were computed on.
///
/// The result is a structurally valid [`ShortestPathDag`]: `order`
/// lists the nodes the walk leaves out ([`UNREACHABLE`], no branches),
/// then the placed ones in placement order with strictly decreasing
/// synthetic ranks, down to the destination at rank 0 (only their
/// relative order is meaningful). All DAG
/// consumers work on it unchanged, and it is a pure function of `(dep,
/// high, low)`.
pub fn hybrid_low_dag(
    ft: &FlatTopo,
    dep: &DeploymentSet,
    high: &ShortestPathDag,
    low: &ShortestPathDag,
) -> ShortestPathDag {
    let mut hybrid = ShortestPathDag::empty(ft);
    hybrid.dest = high.dest;
    let mut placed = Vec::with_capacity(ft.node_count());
    let (mut indeg, mut ready) = (Vec::new(), Vec::new());
    walk(
        ft,
        dep,
        [high, low],
        &mut indeg,
        &mut ready,
        |v, branches| {
            hybrid.set_branches(ft, v as u32, branches);
            placed.push(v as u32);
        },
    );
    for (rank, &v) in placed.iter().rev().enumerate() {
        hybrid.dist[v as usize] = rank as Dist;
    }
    hybrid
        .order
        .retain(|&v| hybrid.dist[v as usize] == UNREACHABLE);
    hybrid.order.extend_from_slice(&placed);
    hybrid
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loads::{demand_column, push_demand_flat};
    use dtr_graph::gen::triangle_topology;
    use dtr_graph::{NodeId, Topology, WeightVector};
    use dtr_traffic::TrafficMatrix;

    fn dags_for(
        topo: &Topology,
        wh: &WeightVector,
        wl: &WeightVector,
        t: NodeId,
    ) -> (ShortestPathDag, ShortestPathDag) {
        (
            ShortestPathDag::compute(topo, wh, t),
            ShortestPathDag::compute(topo, wl, t),
        )
    }

    /// Pushes `m`'s demand towards `dag.dest` down `dag`: the per-link
    /// loads and the per-node flow left after the push.
    fn push(ft: &FlatTopo, dag: &ShortestPathDag, m: &TrafficMatrix) -> (Vec<f64>, Vec<f64>) {
        let mut out = vec![0.0; ft.link_count()];
        let mut flow = Vec::new();
        let col = demand_column(m, dag.dest, ft.node_count());
        push_demand_flat(ft, dag, &col, &mut flow, None, |l, share| {
            out[l as usize] += share
        });
        (out, flow)
    }

    /// [`push_hybrid`] of `m`'s demand towards `dh.dest`: the per-link
    /// loads and the trapped volume.
    fn push_mixed(
        ft: &FlatTopo,
        dep: &DeploymentSet,
        dh: &ShortestPathDag,
        dl: &ShortestPathDag,
        m: &TrafficMatrix,
    ) -> (Vec<f64>, f64) {
        let mut out = vec![0.0; ft.link_count()];
        let demand = m.demands_to(dh.dest as usize);
        let mut scratch = HybridScratch::default();
        let trapped = push_hybrid(ft, dep, [dh, dl], demand, &mut scratch, |l, share| {
            out[l as usize] += share
        });
        (out, trapped)
    }

    #[test]
    fn bitset_basics() {
        let mut s = DeploymentSet::empty(70);
        assert_eq!(s.upgraded_count(), 0);
        assert!(!s.is_full());
        assert!(s.insert(0));
        assert!(s.insert(69));
        assert!(!s.insert(69), "double insert is a no-op");
        assert!(s.contains(69) && s.contains(0) && !s.contains(33));
        assert_eq!(s.upgraded_nodes(), vec![0, 69]);
        assert!(s.remove(0));
        assert!(!s.remove(0));
        assert_eq!(s.upgraded_count(), 1);
        let full = DeploymentSet::full(70);
        assert!(full.is_full());
        assert_eq!(full.upgraded_count(), 70);
        assert_eq!(
            DeploymentSet::from_upgraded(70, &[69, 0, 69]).upgraded_nodes(),
            vec![0, 69]
        );
    }

    #[test]
    fn full_deployment_reproduces_the_low_dag_forwarding() {
        // Under full deployment every node follows the low DAG, so the
        // hybrid push must move flow exactly like the low DAG push.
        let topo = triangle_topology(1.0);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let wh = WeightVector::uniform(&topo, 1);
        let t = NodeId(2);
        let (dh, dl) = dags_for(&topo, &wh, &wl, t);
        let ft = FlatTopo::new(&topo);

        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 2.0 / 3.0);
        let (out_h, trapped) = push_mixed(&ft, &DeploymentSet::full(3), &dh, &dl, &m);
        assert_eq!(trapped, 0.0);
        let (out_l, _) = push(&ft, &dl, &m);
        assert_eq!(out_h, out_l, "full deployment must match the low DAG");
    }

    #[test]
    fn empty_deployment_reproduces_the_high_dag_forwarding() {
        let topo = triangle_topology(1.0);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let wh = WeightVector::uniform(&topo, 1);
        let t = NodeId(2);
        let (dh, dl) = dags_for(&topo, &wh, &wl, t);
        let ft = FlatTopo::new(&topo);

        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 1.0);
        let (out_h, trapped) = push_mixed(&ft, &DeploymentSet::empty(3), &dh, &dl, &m);
        assert_eq!(trapped, 0.0);
        let (out_high, _) = push(&ft, &dh, &m);
        assert_eq!(out_h, out_high, "all-legacy must match the high DAG");
    }

    #[test]
    fn mixed_deployment_can_loop_and_traps_the_demand_exactly() {
        // The canonical counterexample: legacy A forwards "towards C on
        // the high topology" via B; upgraded B forwards "towards C on
        // the low topology" via A. A → B → A is a forwarding loop, so
        // every unit of low demand A→C (and B→C) is trapped.
        let topo = triangle_topology(1.0);
        let a = NodeId(0);
        let b = NodeId(1);
        let c = NodeId(2);
        let mut wh = WeightVector::uniform(&topo, 1);
        wh.set(topo.find_link(a, c).unwrap(), 10); // high: A → B → C
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(b, c).unwrap(), 10); // low: B → A → C
        let (dh, dl) = dags_for(&topo, &wh, &wl, c);
        // B upgraded, A legacy.
        let dep = DeploymentSet::from_upgraded(3, &[1]);
        let ft = FlatTopo::new(&topo);
        let hybrid = hybrid_low_dag(&ft, &dep, &dh, &dl);
        assert_eq!(hybrid.dist[a.index()], UNREACHABLE);
        assert_eq!(hybrid.dist[b.index()], UNREACHABLE);
        assert!(hybrid.branches(&ft, a.0).is_empty());
        assert!(hybrid.branches(&ft, b.0).is_empty());
        assert_ne!(hybrid.dist[c.index()], UNREACHABLE);

        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 0.25);
        m.set(1, 2, 0.5);
        let (out, trapped) = push_mixed(&ft, &dep, &dh, &dl, &m);
        assert!((trapped - 0.75).abs() < 1e-15);
        assert!(out.iter().all(|&x| x == 0.0), "trapped flow moves nowhere");
    }

    #[test]
    fn loop_free_mixed_deployment_delivers_everything() {
        // Same weights, but A upgraded and B legacy: A forwards low
        // traffic directly (low DAG: A → C), B forwards on the high
        // DAG (B → C). No loop, everything delivered.
        let topo = triangle_topology(1.0);
        let a = NodeId(0);
        let b = NodeId(1);
        let c = NodeId(2);
        let mut wh = WeightVector::uniform(&topo, 1);
        wh.set(topo.find_link(a, c).unwrap(), 10);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(b, c).unwrap(), 10);
        let (dh, dl) = dags_for(&topo, &wh, &wl, c);
        let dep = DeploymentSet::from_upgraded(3, &[0]);
        let ft = FlatTopo::new(&topo);

        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 1.0);
        m.set(1, 2, 1.0);
        let (out, trapped) = push_mixed(&ft, &dep, &dh, &dl, &m);
        assert_eq!(trapped, 0.0);
        // A's unit goes A→C (low DAG, upgraded); B's goes B→C (high
        // DAG, legacy). Pushed down the hybrid DAG, flow[c] accumulates
        // both.
        let (_, flow) = push(&ft, &hybrid_low_dag(&ft, &dep, &dh, &dl), &m);
        assert!((flow[c.index()] - 2.0).abs() < 1e-15);
        let ac = topo.find_link(a, c).unwrap();
        let bc = topo.find_link(b, c).unwrap();
        assert!((out[ac.index()] - 1.0).abs() < 1e-15);
        assert!((out[bc.index()] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn order_is_topological_and_dist_decreases() {
        let topo = triangle_topology(1.0);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let (dh, dl) = dags_for(&topo, &wh, &wl, NodeId(2));
        let ft = FlatTopo::new(&topo);
        for upgraded in [vec![], vec![0], vec![1], vec![0, 1], vec![0, 1, 2]] {
            let dep = DeploymentSet::from_upgraded(3, &upgraded);
            let hybrid = hybrid_low_dag(&ft, &dep, &dh, &dl);
            // dist never increases along `order`.
            for w in hybrid.order.windows(2) {
                assert!(hybrid.dist[w[0] as usize] >= hybrid.dist[w[1] as usize]);
            }
            // Every forwarding edge points forward in `order`.
            let pos: Vec<usize> = (0..3)
                .map(|v| hybrid.order.iter().position(|&o| o == v as u32).unwrap())
                .collect();
            for v in 0..3usize {
                for &lid in hybrid.branches(&ft, v as u32) {
                    let u = ft.dst(lid) as usize;
                    assert!(pos[v] < pos[u], "edge {v}→{u} must respect order");
                }
            }
        }
    }
}
