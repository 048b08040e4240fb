//! The strict-priority residual-capacity cascade of k-class evaluation.
//!
//! Class `c` on link `l` sees the residual capacity left by all
//! higher-priority classes, `C̃_c = max(C_l − Σ_{j<c} load_j, 0)`, and is
//! charged the Fortz–Thorup `Φ(load_c, C̃_c)`. This module owns the one
//! canonical loop (link-major, classes in priority order, running
//! `used` accumulator), restartable below an already priced prefix of
//! classes; its one caller outside this crate is
//! `dtr-engine`'s k-class kernel, which every k-class search and report
//! evaluates through.
//!
//! For `k = 2` the cascade reproduces the two-class
//! [`Evaluator`](crate::Evaluator) exactly: class 0 sees `(C − 0).max(0) = C`
//! bitwise, class 1 sees `(C − H).max(0)` — the same expressions the
//! legacy high/low code paths evaluate.

use crate::loads::ClassLoads;
use dtr_cost::phi;
use dtr_graph::Topology;

/// Per-class outputs of one cascade pass.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassCascade {
    /// `Φ_c = Σ_l Φ(load_c,l, C̃_c,l)` per class.
    pub phis: Vec<f64>,
    /// Per-class, per-link `Φ` terms (`phi_per_link[c][l]`).
    pub phi_per_link: Vec<Vec<f64>>,
    /// Per-class, per-link residual capacity `C̃_c,l` — what each class's
    /// queueing model (SLA link delays) should be evaluated against.
    pub residuals: Vec<Vec<f64>>,
}

/// Runs the strict-priority cascade over `loads` (highest priority
/// first, each `ClassLoads` indexed by link) below the classes already
/// priced: `used[l]` is their load on link `l`, summed in priority order
/// (all zeros when `loads` starts at class 0). Returns the rows of
/// `loads` and adds their loads to `used`, so pricing a prefix of the
/// classes once and each suffix on a copy of its `used` is bit-identical
/// to one pass over all of them.
pub fn cascade_classes(topo: &Topology, loads: &[ClassLoads], used: &mut [f64]) -> ClassCascade {
    let k = loads.len();
    let m = topo.link_count();
    let mut phis = vec![0.0; k];
    let mut phi_per_link = vec![vec![0.0; m]; k];
    let mut residuals = vec![vec![0.0; m]; k];
    for (lid, link) in topo.links() {
        let i = lid.index();
        for c in 0..k {
            let residual = (link.capacity - used[i]).max(0.0);
            residuals[c][i] = residual;
            let p = phi(loads[c][i], residual);
            phi_per_link[c][i] = p;
            phis[c] += p;
            used[i] += loads[c][i];
        }
    }
    ClassCascade {
        phis,
        phi_per_link,
        residuals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Evaluator;
    use dtr_cost::Objective;
    use dtr_graph::gen::triangle_topology;
    use dtr_graph::weights::DualWeights;
    use dtr_graph::{NodeId, WeightVector};
    use dtr_traffic::{DemandSet, TrafficMatrix};

    fn triangle_instance() -> (Topology, DemandSet) {
        let topo = triangle_topology(1.0);
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0 / 3.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0 / 3.0);
        (topo, DemandSet { high, low })
    }

    #[test]
    fn two_class_cascade_matches_evaluator_bitwise() {
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w = WeightVector::uniform(&topo, 1);
        let e = ev.eval_dual(&DualWeights::replicated(w));
        let loads = [e.high_loads.clone(), e.low_loads.clone()];
        let cascade = cascade_classes(&topo, &loads, &mut vec![0.0; topo.link_count()]);
        assert_eq!(cascade.phis[0], e.phi_h);
        assert_eq!(cascade.phis[1], e.phi_l);
        assert_eq!(cascade.phi_per_link[0], e.phi_h_per_link);
        assert_eq!(cascade.phi_per_link[1], e.phi_l_per_link);
    }

    #[test]
    fn class0_residual_is_raw_capacity_bitwise() {
        let (topo, demands) = triangle_instance();
        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let w = WeightVector::uniform(&topo, 1);
        let h = ev.high_loads(&w);
        let l = ev.low_loads(&w);
        let cascade = cascade_classes(&topo, &[h.clone(), l], &mut vec![0.0; topo.link_count()]);
        for (lid, link) in topo.links() {
            assert_eq!(cascade.residuals[0][lid.index()], link.capacity);
            let expect = (link.capacity - h[lid.index()]).max(0.0);
            assert_eq!(cascade.residuals[1][lid.index()], expect);
        }
    }

    #[test]
    fn saturated_link_floors_residual_at_zero() {
        let (topo, _) = triangle_instance();
        let m = topo.link_count();
        let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
        let mut c0 = vec![0.0; m];
        c0[ac.index()] = 1.5; // over unit capacity
        let c1 = vec![0.1; m];
        let c2 = vec![0.0; m];
        let mut used = vec![0.0; m];
        let cascade = cascade_classes(&topo, &[c0.clone(), c1.clone(), c2.clone()], &mut used);
        assert_eq!(cascade.residuals[1][ac.index()], 0.0);
        assert_eq!(cascade.residuals[2][ac.index()], 0.0);
        // Φ at zero residual uses the steepest slope: 5000·load.
        assert!((cascade.phi_per_link[1][ac.index()] - 500.0).abs() < 1e-9);

        // Restarted below class 0, the cascade gives classes 1 and 2 the
        // same rows bit for bit and leaves the same `used`.
        let mut below = vec![0.0; m];
        let head = cascade_classes(&topo, &[c0], &mut below);
        let tail = cascade_classes(&topo, &[c1, c2], &mut below);
        assert_eq!(head.phis[..], cascade.phis[..1]);
        assert_eq!(tail.phis[..], cascade.phis[1..]);
        assert_eq!(tail.phi_per_link[..], cascade.phi_per_link[1..]);
        assert_eq!(tail.residuals[..], cascade.residuals[1..]);
        assert_eq!(below, used);
    }
}
