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
//! upgraded node its next-hops come from the low-topology DAG, at a
//! legacy node from the high-topology DAG. [`hybrid_low_dag`] folds the
//! two per-destination DAGs into one [`ShortestPathDag`], so the one
//! demand push ([`crate::loads::push_demand_flat`]), the fluid solver and
//! the DES walk the mixed network exactly as they walk a full
//! deployment. `tests/oracle.rs` checks the loads and trapped volume it
//! yields against a path enumeration that implements the rule below on
//! its own.
//!
//! ## Loops and trapped demand
//!
//! Mixing two per-destination DAGs can create forwarding loops: each
//! DAG is acyclic on its own, but a legacy hop "towards t on the high
//! topology" can point back at an upgraded hop "towards t on the low
//! topology". Real mixed networks hit exactly this failure mode
//! (packets ping-pong until TTL expiry), so it must be *modeled*, not
//! assumed away. The hybrid DAG is built by a deterministic Kahn
//! topological sort over the hybrid next-hop edges:
//!
//! - nodes the sort orders are **forwarding** nodes: they get a
//!   synthetic rank distance (decreasing along `order`) and keep their
//!   governing branch lists;
//! - nodes caught in a loop — and nodes downstream of one, whose
//!   position relative to the loop is undefined — are marked
//!   [`UNREACHABLE`] with **cleared** branch lists, as are non-
//!   destination nodes whose governing DAG gave them no out-branches.
//!   Put the other way: a node forwards only if no node with a path
//!   into it lies on a cycle. This covers the destination too: when a
//!   loop feeds into it, what reaches it counts as trapped;
//! - demand that reaches an `UNREACHABLE` node parks there: the load
//!   push never forwards out of such a node, so after a push the flow
//!   sitting on excluded nodes *is* the trapped volume, summed exactly
//!   by [`trapped_flow`] (an empty exclusion set sums to exactly
//!   `0.0` — no float subtraction involved).
//!
//! The evaluator charges trapped demand at `Φ`'s steepest slope
//! (`phi(u, 0) = 5000·u`), so weight searches under partial deployment
//! steer away from loop-inducing settings instead of silently dropping
//! traffic.

use dtr_graph::spf::{Dist, UNREACHABLE};
use dtr_graph::{FlatTopo, ShortestPathDag};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// Folds the per-destination high and low DAGs into the hybrid
/// forwarding DAG the low class actually follows under `dep` (see the
/// module docs). `high` and `low` must both target the same
/// destination, and `ft` must be the view of the topology they were
/// computed on.
///
/// The result is a structurally valid [`ShortestPathDag`]: `order` is a
/// topological order of the forwarding edges (sources first), `dist`
/// decreases along it (synthetic ranks — only the relative order and
/// the [`UNREACHABLE`] marker are meaningful), and a node's branches are
/// empty exactly for the destination and every `UNREACHABLE` node. All
/// DAG consumers work on it unchanged.
///
/// Determinism: the Kahn sort breaks ties by ascending node index, so
/// the hybrid DAG is a pure function of `(dep, high, low)` — no
/// iteration-order or scheduling dependence.
pub fn hybrid_low_dag(
    ft: &FlatTopo,
    dep: &DeploymentSet,
    high: &ShortestPathDag,
    low: &ShortestPathDag,
) -> ShortestPathDag {
    debug_assert_eq!(high.dest, low.dest);
    debug_assert_eq!(dep.node_count(), ft.node_count());
    let n = ft.node_count();
    let dest = high.dest;

    // Governing branch list per node: low DAG at upgraded nodes, high
    // DAG at legacy nodes; nothing at the destination.
    let governing = |v: usize| -> &[u32] {
        if v as u32 == dest {
            &[]
        } else if dep.contains(v) {
            low.branches(ft, v as u32)
        } else {
            high.branches(ft, v as u32)
        }
    };

    // Non-destination nodes with no governing branches can never
    // forward: excluded up front (their governing DAG already marked
    // them unreachable, or a link mask emptied them).
    let mut excluded = vec![false; n];
    for (v, ex) in excluded.iter_mut().enumerate() {
        if v as u32 != dest && governing(v).is_empty() {
            *ex = true;
        }
    }

    // Kahn over the hybrid edges. In-degrees count every governing
    // edge; a node is orderable once all its upstream contributors are
    // placed. Loop members never reach in-degree zero; neither do
    // nodes downstream of a loop — both stay excluded.
    let mut indeg = vec![0u32; n];
    for (v, &ex) in excluded.iter().enumerate() {
        if ex {
            continue;
        }
        for &lid in governing(v) {
            indeg[ft.dst(lid) as usize] += 1;
        }
    }
    let mut heap: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
    for v in 0..n {
        if !excluded[v] && indeg[v] == 0 {
            heap.push(Reverse(v as u32));
        }
    }
    let mut processed: Vec<u32> = Vec::with_capacity(n);
    while let Some(Reverse(v)) = heap.pop() {
        processed.push(v);
        for &lid in governing(v as usize) {
            let u = ft.dst(lid) as usize;
            indeg[u] -= 1;
            if indeg[u] == 0 && !excluded[u] {
                heap.push(Reverse(u as u32));
            }
        }
    }

    // Assemble: excluded (and loop-stuck) nodes first in `order` with
    // UNREACHABLE rank and no branches, then the processed nodes with
    // strictly decreasing synthetic ranks.
    let mut hybrid = ShortestPathDag::empty(ft);
    hybrid.dest = dest;
    for (i, &v) in processed.iter().enumerate() {
        hybrid.dist[v as usize] = (processed.len() - 1 - i) as Dist;
        hybrid.set_branches(ft, v, governing(v as usize));
    }
    hybrid.order = (0..n as u32)
        .filter(|&v| hybrid.dist[v as usize] == UNREACHABLE)
        .collect();
    hybrid.order.extend_from_slice(&processed);
    hybrid
}

/// Sums the flow parked on `UNREACHABLE` nodes of `dag` after a demand
/// push — exactly the volume the hybrid forwarding graph cannot
/// deliver (see the module docs). With no excluded nodes the sum is
/// empty and therefore exactly `0.0`.
pub fn trapped_flow(dag: &ShortestPathDag, node_flow: &[f64]) -> f64 {
    dag.dist
        .iter()
        .zip(node_flow)
        .filter(|(&d, _)| d == UNREACHABLE)
        .map(|(_, &f)| f)
        .sum()
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
        let hybrid = hybrid_low_dag(&ft, &DeploymentSet::full(3), &dh, &dl);

        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 2.0 / 3.0);
        let (out_h, flow) = push(&ft, &hybrid, &m);
        assert_eq!(trapped_flow(&hybrid, &flow), 0.0);
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
        let hybrid = hybrid_low_dag(&ft, &DeploymentSet::empty(3), &dh, &dl);

        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 1.0);
        let (out_h, flow) = push(&ft, &hybrid, &m);
        assert_eq!(trapped_flow(&hybrid, &flow), 0.0);
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
        let (out, flow) = push(&ft, &hybrid, &m);
        assert!((trapped_flow(&hybrid, &flow) - 0.75).abs() < 1e-15);
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
        let hybrid = hybrid_low_dag(&ft, &dep, &dh, &dl);

        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 1.0);
        m.set(1, 2, 1.0);
        let (out, flow) = push(&ft, &hybrid, &m);
        assert_eq!(trapped_flow(&hybrid, &flow), 0.0);
        // A's unit goes A→C (low DAG, upgraded); B's goes B→C (high
        // DAG, legacy). flow[c] accumulates both.
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
