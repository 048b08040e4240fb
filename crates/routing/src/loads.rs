//! ECMP link-load computation.
//!
//! For one destination `t`, all traffic `r(·, t)` flows down the
//! shortest-path DAG towards `t`; each node splits its accumulated flow
//! evenly over its ECMP out-links. Summing over destinations gives the
//! per-link load vector of a traffic class. This is the standard
//! destination-based SPF forwarding model of OSPF/IS-IS with ECMP
//! (Fortz–Thorup \[2\], §2).

use dtr_graph::{NodeId, ShortestPathDag, SpfWorkspace, Topology, WeightVector};
use dtr_traffic::TrafficMatrix;

/// Per-link load of one traffic class, in the traffic matrix's units
/// (Mbit/s), indexed by `LinkId`.
pub type ClassLoads = Vec<f64>;

/// Reusable calculator; owns the SPF scratch space and the per-node flow
/// buffer so repeated evaluations don't allocate.
#[derive(Debug, Default)]
pub struct LoadCalculator {
    ws: SpfWorkspace,
    node_flow: Vec<f64>,
}

impl LoadCalculator {
    /// Creates a calculator (scratch grows on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the per-link loads of one class routed on `weights`.
    pub fn class_loads(
        &mut self,
        topo: &Topology,
        weights: &WeightVector,
        demands: &TrafficMatrix,
    ) -> ClassLoads {
        let mut loads = vec![0.0; topo.link_count()];
        self.accumulate(topo, weights, None, &[demands], &mut [&mut loads]);
        loads
    }

    /// Like [`Self::class_loads`] but with down links masked out
    /// (`link_up[l] == false` removes link `l`), for failure-scenario
    /// evaluation. Demand towards destinations that become unreachable
    /// is dropped silently (it is the caller's job to check
    /// connectivity if that matters).
    pub fn class_loads_masked(
        &mut self,
        topo: &Topology,
        weights: &WeightVector,
        link_up: &[bool],
        demands: &TrafficMatrix,
    ) -> ClassLoads {
        let mut loads = vec![0.0; topo.link_count()];
        self.accumulate(topo, weights, Some(link_up), &[demands], &mut [&mut loads]);
        loads
    }

    /// Computes loads for **two classes sharing one weight vector**
    /// (single-topology routing) with one SPF pass per destination.
    pub fn joint_loads(
        &mut self,
        topo: &Topology,
        weights: &WeightVector,
        high: &TrafficMatrix,
        low: &TrafficMatrix,
    ) -> (ClassLoads, ClassLoads) {
        let mut h = vec![0.0; topo.link_count()];
        let mut l = vec![0.0; topo.link_count()];
        self.accumulate(topo, weights, None, &[high, low], &mut [&mut h, &mut l]);
        (h, l)
    }

    /// Shared inner loop: routes each matrix in `demands` on `weights`,
    /// accumulating into the parallel `outs` slot. All matrices share the
    /// per-destination DAG, so passing both classes at once halves SPF
    /// work for STR evaluation.
    fn accumulate(
        &mut self,
        topo: &Topology,
        weights: &WeightVector,
        link_up: Option<&[bool]>,
        demands: &[&TrafficMatrix],
        outs: &mut [&mut ClassLoads],
    ) {
        debug_assert_eq!(demands.len(), outs.len());
        let n = topo.node_count();
        self.node_flow.resize(n, 0.0);

        for t in topo.nodes() {
            // Skip destinations with no demand in any class.
            let any = demands
                .iter()
                .any(|m| m.demands_to(t.index()).next().is_some());
            if !any {
                continue;
            }
            let dag = ShortestPathDag::compute_with(topo, weights, t, link_up, &mut self.ws);
            for (m, out) in demands.iter().zip(outs.iter_mut()) {
                if m.demands_to(t.index()).next().is_none() {
                    continue;
                }
                self.push_down_dag(topo, &dag, m, t, out);
            }
        }
    }

    /// Pushes all of `m`'s demand towards `t` down `dag`, adding to `out`.
    fn push_down_dag(
        &mut self,
        topo: &Topology,
        dag: &ShortestPathDag,
        m: &TrafficMatrix,
        t: NodeId,
        out: &mut ClassLoads,
    ) {
        push_demand_down_dag(topo, dag, m, t, &mut self.node_flow, out);
    }
}

/// Pushes all of `m`'s demand towards `t` down `dag`, **adding** into
/// `out` (indexed by link id). `flow` is caller-provided scratch of at
/// least `node_count` entries; its prior contents are overwritten.
///
/// This is the single forwarding-model primitive shared by
/// [`LoadCalculator`] and the incremental evaluation engine
/// (`dtr-engine`), so both produce bit-identical loads for identical
/// DAGs.
pub fn push_demand_down_dag(
    topo: &Topology,
    dag: &ShortestPathDag,
    m: &TrafficMatrix,
    t: NodeId,
    flow: &mut Vec<f64>,
    out: &mut [f64],
) {
    push_demand_down_dag_with(topo, dag, m, t, flow, out, None)
}

/// Like [`push_demand_down_dag`], but with one node's ECMP branch list
/// optionally **overridden** (`Some((node, branches))` replaces
/// `dag.ecmp_out[node]` for this walk only). The incremental engine
/// uses this for the common weight deltas whose entire effect is an
/// ECMP-membership change at a single node: the walk runs on the cached
/// DAG without copying it, and because the shares are computed by the
/// identical expressions, the result is bit-identical to pushing down a
/// repaired DAG.
pub fn push_demand_down_dag_with(
    topo: &Topology,
    dag: &ShortestPathDag,
    m: &TrafficMatrix,
    t: NodeId,
    flow: &mut Vec<f64>,
    out: &mut [f64],
    override_branches: Option<(u32, &[dtr_graph::LinkId])>,
) {
    flow.resize(topo.node_count(), 0.0);
    flow.fill(0.0);
    for (s, v) in m.demands_to(t.index()) {
        flow[s] += v;
    }
    // Decreasing-distance order guarantees every contributor to a
    // node's flow is processed before the node itself.
    for &v in &dag.order {
        let vi = v as usize;
        let f = flow[vi];
        if f <= 0.0 || NodeId(v) == t {
            continue;
        }
        let branches: &[dtr_graph::LinkId] = match override_branches {
            Some((ov, b)) if ov == v => b,
            _ => &dag.ecmp_out[vi],
        };
        if branches.is_empty() {
            // Unreachable under a link mask: the demand is dropped
            // (validated topologies are strongly connected, so this
            // only happens in failure scenarios).
            continue;
        }
        let share = f / branches.len() as f64;
        for &lid in branches {
            out[lid.index()] += share;
            flow[topo.link(lid).dst.index()] += share;
        }
    }
}

/// Average link utilization `AD` over all links given total per-link loads
/// — the x-axis of the paper's Fig. 2/4/5 and Table 1's `AD` row.
pub fn avg_utilization(topo: &Topology, total_loads: &[f64]) -> f64 {
    let s: f64 = topo
        .links()
        .map(|(lid, l)| total_loads[lid.index()] / l.capacity)
        .sum();
    s / topo.link_count() as f64
}

/// Maximum link utilization (Fig. 9(c)).
pub fn max_utilization(topo: &Topology, total_loads: &[f64]) -> f64 {
    topo.links()
        .map(|(lid, l)| total_loads[lid.index()] / l.capacity)
        .fold(0.0, f64::max)
}

/// Element-wise sum of the two class load vectors.
pub fn total_loads(high: &[f64], low: &[f64]) -> Vec<f64> {
    high.iter().zip(low).map(|(h, l)| h + l).collect()
}

/// Element-wise sum of any number of class load vectors (at least one),
/// accumulated in priority order.
pub fn sum_class_loads(classes: &[ClassLoads]) -> Vec<f64> {
    let mut out = vec![0.0; classes[0].len()];
    for class in classes {
        for (o, l) in out.iter_mut().zip(class) {
            *o += l;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::triangle_topology;
    use dtr_graph::topology::TopologyBuilder;
    use dtr_graph::NodeId;

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
    fn ecmp_splits_evenly_on_diamond() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let mut m = TrafficMatrix::zeros(4);
        m.set(0, 3, 100.0);
        let loads = LoadCalculator::new().class_loads(&t, &w, &m);
        let l01 = t.find_link(NodeId(0), NodeId(1)).unwrap();
        let l02 = t.find_link(NodeId(0), NodeId(2)).unwrap();
        let l13 = t.find_link(NodeId(1), NodeId(3)).unwrap();
        let l23 = t.find_link(NodeId(2), NodeId(3)).unwrap();
        for l in [l01, l02, l13, l23] {
            assert!((loads[l.index()] - 50.0).abs() < 1e-9);
        }
        // Reverse-direction links carry nothing.
        let total: f64 = loads.iter().sum();
        assert!((total - 200.0).abs() < 1e-9);
    }

    #[test]
    fn single_path_carries_all() {
        let t = diamond();
        let mut w = WeightVector::uniform(&t, 1);
        w.set(t.find_link(NodeId(0), NodeId(1)).unwrap(), 5);
        let mut m = TrafficMatrix::zeros(4);
        m.set(0, 3, 100.0);
        let loads = LoadCalculator::new().class_loads(&t, &w, &m);
        let l02 = t.find_link(NodeId(0), NodeId(2)).unwrap();
        let l23 = t.find_link(NodeId(2), NodeId(3)).unwrap();
        assert!((loads[l02.index()] - 100.0).abs() < 1e-9);
        assert!((loads[l23.index()] - 100.0).abs() < 1e-9);
        let l01 = t.find_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(loads[l01.index()], 0.0);
    }

    #[test]
    fn transit_flow_conservation() {
        // Multi-source demand to one destination: flow into node 3 equals
        // total demand.
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let mut m = TrafficMatrix::zeros(4);
        m.set(0, 3, 60.0);
        m.set(1, 3, 30.0);
        m.set(2, 3, 10.0);
        let loads = LoadCalculator::new().class_loads(&t, &w, &m);
        let into3: f64 = t
            .in_links(NodeId(3))
            .iter()
            .map(|&l| loads[l.index()])
            .sum();
        assert!((into3 - 100.0).abs() < 1e-9);
    }

    #[test]
    fn joint_matches_separate_for_shared_weights() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let mut h = TrafficMatrix::zeros(4);
        h.set(0, 3, 40.0);
        h.set(3, 0, 10.0);
        let mut l = TrafficMatrix::zeros(4);
        l.set(1, 2, 25.0);
        l.set(0, 3, 5.0);
        let mut calc = LoadCalculator::new();
        let (jh, jl) = calc.joint_loads(&t, &w, &h, &l);
        let sh = calc.class_loads(&t, &w, &h);
        let sl = calc.class_loads(&t, &w, &l);
        for i in 0..t.link_count() {
            assert!((jh[i] - sh[i]).abs() < 1e-12);
            assert!((jl[i] - sl[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn triangle_direct_routing() {
        // Unit weights on the triangle: A→C goes direct (1 hop beats 2).
        let t = triangle_topology(1.0);
        let w = WeightVector::uniform(&t, 1);
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 1.0);
        let loads = LoadCalculator::new().class_loads(&t, &w, &m);
        let ac = t.find_link(NodeId(0), NodeId(2)).unwrap();
        assert!((loads[ac.index()] - 1.0).abs() < 1e-12);
        assert!((loads.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_helpers() {
        let t = diamond();
        let loads = vec![250.0; t.link_count()];
        assert!((avg_utilization(&t, &loads) - 0.5).abs() < 1e-12);
        let mut loads2 = loads.clone();
        loads2[0] = 600.0;
        assert!((max_utilization(&t, &loads2) - 1.2).abs() < 1e-12);
        let sum = total_loads(&loads, &loads2);
        assert!((sum[0] - 850.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_zero_loads() {
        let t = diamond();
        let w = WeightVector::uniform(&t, 1);
        let m = TrafficMatrix::zeros(4);
        let loads = LoadCalculator::new().class_loads(&t, &w, &m);
        assert!(loads.iter().all(|&x| x == 0.0));
    }
}
