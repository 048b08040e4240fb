//! The strict-priority residual-capacity cascade of k-class evaluation.
//!
//! Class `c` on link `l` sees the residual capacity left by all
//! higher-priority classes, `C̃_c = max(C_l − Σ_{j<c} load_j, 0)`, and is
//! charged the Fortz–Thorup `Φ(load_c, C̃_c)`. [`cascade_each`] is the
//! one loop that prices it (link-major, classes in priority order,
//! running `used` sum), and every Φ of an ECMP class load in the
//! workspace is charged through it: the evaluator's `Φ_H` and `Φ_L`,
//! the robust search's per-scenario costs and, through
//! [`cascade_classes`], `dtr-engine`'s k-class kernel, which every
//! k-class search and report evaluates through.
//!
//! For `k = 2` the cascade is the two-class
//! [`Evaluator`](crate::Evaluator)'s pricing: class 0 sees
//! `(C − 0).max(0) = C` bitwise, class 1 sees `(C − H).max(0)`.

use crate::loads::ClassLoads;
use dtr_cost::load::residual_capacity;
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
/// first, each row indexed by link) below the classes already priced:
/// `used[l]` is their load on link `l`, summed in priority order (all
/// zeros when `loads` starts at class 0). Returns the rows of `loads`
/// and adds their loads to `used`, so pricing a prefix of the classes
/// once and each suffix on a copy of its `used` is bit-identical to one
/// pass over all of them.
pub fn cascade_classes(topo: &Topology, loads: &[ClassLoads], used: &mut [f64]) -> ClassCascade {
    let k = loads.len();
    let m = topo.link_count();
    let mut out = ClassCascade {
        phis: vec![0.0; k],
        phi_per_link: vec![vec![0.0; m]; k],
        residuals: vec![vec![0.0; m]; k],
    };
    let rows: Vec<&[f64]> = std::iter::once(&*used)
        .chain(loads.iter().map(Vec::as_slice))
        .collect();
    cascade_each(topo, &rows, 1, |c, i, residual, p| {
        out.residuals[c - 1][i] = residual;
        out.phi_per_link[c - 1][i] = p;
        out.phis[c - 1] += p;
    });
    for row in loads {
        for (u, l) in used.iter_mut().zip(row) {
            *u += l;
        }
    }
    out
}

/// The cascade's one loop. On every link, in link order, walks the
/// classes of `loads` (highest priority first, each row indexed by
/// link) with the running sum `used` of the loads above, and charges
/// each class from `priced` on: `charge(c, l, C̃, Φ)` gets its residual
/// capacity `C̃ = max(C_l − used, 0)` and `Φ(load_c,l, C̃)`. The first
/// `priced` rows are priced elsewhere and only fill the capacity.
pub fn cascade_each(
    topo: &Topology,
    loads: &[&[f64]],
    priced: usize,
    mut charge: impl FnMut(usize, usize, f64, f64),
) {
    for (lid, link) in topo.links() {
        let i = lid.index();
        let mut used = 0.0;
        for (c, row) in loads.iter().enumerate() {
            if c >= priced {
                let residual = residual_capacity(link.capacity, used);
                charge(c, i, residual, phi(row[i], residual));
            }
            used += row[i];
        }
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
