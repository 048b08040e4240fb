//! ECMP link-load computation.
//!
//! For one destination `t`, all traffic `r(·, t)` flows down the
//! shortest-path DAG towards `t`; each node splits its accumulated flow
//! evenly over its ECMP out-links. Summing over destinations gives the
//! per-link load vector of a traffic class. This is the standard
//! destination-based SPF forwarding model of OSPF/IS-IS with ECMP
//! (Fortz–Thorup \[2\], §2).
//!
//! [`push_demand_flat`] is the one implementation of that split in the
//! workspace, and [`LoadCalculator::route`] the one routing pass over
//! destinations that calls it: the evaluator, both engine backends'
//! full evaluations, the simulators' forwarding tables and the fluid
//! backend's loads all run that pass, while the evaluator's hybrid low
//! push under partial deployment and the incremental engine's repairs
//! call the split directly. `tests/oracle.rs` checks both against an
//! independent path enumeration.

use dtr_graph::{
    FlatTopo, LinkMask, ShortestPathDag, SpfWorkspace, Topology, Weight, WeightVector,
};
use dtr_traffic::TrafficMatrix;

/// Per-link load of one traffic class, in the traffic matrix's units
/// (Mbit/s), indexed by `LinkId`.
pub type ClassLoads = Vec<f64>;

/// Reusable calculator; owns the SPF scratch space, the DAG and the
/// per-node flow buffer so repeated evaluations allocate little.
#[derive(Debug, Default)]
pub struct LoadCalculator {
    ws: SpfWorkspace,
    dag: ShortestPathDag,
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
        let spf = DagSource::Spf(weights.as_slice(), None);
        self.route(&FlatTopo::new(topo), spf, &[demands], None)
            .swap_remove(0)
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
        let (ft, mask) = (FlatTopo::new(topo), LinkMask::from_up_slice(link_up));
        let spf = DagSource::Spf(weights.as_slice(), Some(&mask));
        self.route(&ft, spf, &[demands], None).swap_remove(0)
    }

    /// The routing pass: for each destination `t` in ascending order,
    /// takes the DAG towards `t` from `dags` and pushes each matrix's
    /// column towards `t` down it with [`push_demand_flat`], into that
    /// matrix's row of the returned loads. All matrices share the DAG,
    /// so routing both classes at once halves SPF work for STR. A
    /// destination no matrix sends to is skipped, unless `keep` is
    /// given: then every destination's DAG is appended to it.
    pub fn route(
        &mut self,
        ft: &FlatTopo,
        dags: DagSource<'_>,
        demands: &[&TrafficMatrix],
        mut keep: Option<&mut Vec<ShortestPathDag>>,
    ) -> Vec<ClassLoads> {
        let n = ft.node_count();
        let mut loads = vec![vec![0.0; ft.link_count()]; demands.len()];
        for t in 0..n as u32 {
            let cols: Vec<Vec<f64>> = demands.iter().map(|m| demand_column(m, t, n)).collect();
            if cols.iter().all(Vec::is_empty) && keep.is_none() {
                continue;
            }
            let dag = match dags {
                DagSource::Spf(weights, mask) => {
                    self.dag.compute_into(ft, weights, t, mask, &mut self.ws);
                    &self.dag
                }
                DagSource::Prebuilt(dags) => &dags[t as usize],
            };
            for (col, out) in cols.iter().zip(loads.iter_mut()) {
                if col.is_empty() {
                    continue;
                }
                push_demand_flat(ft, dag, col, &mut self.node_flow, None, |l, share| {
                    out[l as usize] += share
                });
            }
            if let Some(keep) = keep.as_mut() {
                keep.push(dag.clone());
            }
        }
        loads
    }
}

/// Where [`LoadCalculator::route`] takes each destination's ECMP DAG
/// from.
#[derive(Debug, Clone, Copy)]
pub enum DagSource<'a> {
    /// One reverse Dijkstra per destination on these weights, with the
    /// links the mask marks down removed (`None` keeps all).
    Spf(&'a [Weight], Option<&'a LinkMask>),
    /// Prebuilt DAGs indexed by destination, such as forwarding tables.
    Prebuilt(&'a [ShortestPathDag]),
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

/// Pushes the demand column `demand` (see [`demand_column`]) down `dag`
/// towards `dag.dest`, reporting every `+= share` a link receives to
/// `add(link, share)`. Each node's accumulated flow splits evenly over
/// its branches, nodes taken in `dag.order`; an `add` that accumulates
/// into a per-link vector therefore yields bit-identical loads for
/// structurally identical DAGs, whoever calls it. Each DAG link is
/// reported at most once (it is a branch of its unique tail node).
///
/// Flow that reaches a node without branches other than the destination
/// (unreachable under a link mask, or left out of a hybrid DAG) parks
/// there: afterwards `flow` holds every node's parked or delivered
/// volume. Over [`crate::hybrid_low_dag`]'s DAG the adds are
/// [`crate::push_hybrid`]'s, and the flow parked on `UNREACHABLE` nodes
/// is its trapped volume.
/// `override_branches` substitutes one node's branch list for this walk
/// (the engine's fast-rebranch path). `flow` is caller scratch,
/// overwritten.
pub fn push_demand_flat(
    ft: &FlatTopo,
    dag: &ShortestPathDag,
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
            // Unreachable: the demand stays at this node.
            continue;
        }
        let share = f / branches.len() as f64;
        for &lid in branches {
            add(lid, share);
            flow[ft.dst(lid) as usize] += share;
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
        let spf = DagSource::Spf(w.as_slice(), None);
        let joint = calc.route(&FlatTopo::new(&t), spf, &[&h, &l], None);
        let (jh, jl) = (&joint[0], &joint[1]);
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
