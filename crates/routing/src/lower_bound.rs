//! Optimal-routing lower bounds via Frank–Wolfe.
//!
//! SPF/ECMP routing can only realize flow patterns expressible as
//! shortest paths under *some* weight setting; the unconstrained optimum
//! of the load-based cost over **all** flow assignments (the
//! multicommodity-flow relaxation) is therefore a lower bound on what any
//! weight search — STR or DTR — can achieve. Related work approaches this
//! bound by splitting the traffic matrix over many topologies (Balon &
//! Leduc \[6\]); computing it directly calibrates how much of the gap DTR
//! closes.
//!
//! The classic Frank–Wolfe (flow-deviation) algorithm fits perfectly
//! here because its linearized subproblem *is* shortest-path routing:
//!
//! 1. compute marginal link costs `Φ′(load)` at the current flow;
//! 2. route all demand on shortest paths under those marginals
//!    (an all-or-nothing assignment);
//! 3. line-search a convex combination of current and all-or-nothing
//!    flow; repeat.
//!
//! For the two-priority structure the bound is computed
//! lexicographically: first minimize `Φ_H` over high-class flows, then
//! fix the high loads (hence residual capacities) and minimize `Φ_L`
//! over low-class flows. Both stages are convex.

use crate::loads::{ClassLoads, LoadCalculator};
use dtr_cost::load::residual_capacity;
use dtr_cost::phi;
use dtr_graph::{Topology, WeightVector};
use dtr_traffic::{DemandSet, TrafficMatrix};

/// [`frank_wolfe`] stops when the relative cost improvement of a step
/// falls below this.
const TOLERANCE: f64 = 1e-6;

/// Golden-section line-search iterations per Frank–Wolfe step.
const LINE_SEARCH_ITERS: usize = 40;

/// Convergence controls for [`frank_wolfe`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FwParams {
    /// Maximum Frank–Wolfe iterations (default 200). Kept settable for
    /// `tests::fw_cost_decreases_monotonically_in_iterations`, which
    /// runs 2 and 50 iterations on one instance.
    pub max_iters: usize,
}

impl Default for FwParams {
    fn default() -> Self {
        FwParams { max_iters: 200 }
    }
}

/// Result of one Frank–Wolfe minimization.
///
/// The optimum is bracketed: `lower_bound ≤ optimum ≤ cost`. The
/// `cost` is the achieved (feasible) flow's objective — an **upper**
/// bound on the optimum; `lower_bound` is the best Frank–Wolfe duality
/// bound `f(x) + ⟨∂f(x), y_AON − x⟩` seen across iterations, valid by
/// convexity because the all-or-nothing flow minimizes the linearization
/// exactly (the Φ slopes are integers, so the SPF weights are the exact
/// subgradient).
#[derive(Debug, Clone)]
pub struct FwResult {
    /// The optimized per-link loads (a feasible routing).
    pub loads: ClassLoads,
    /// The achieved cost `Σ_l Φ(load_l, cap_l)` (upper bound).
    pub cost: f64,
    /// The duality lower bound on the optimal cost.
    pub lower_bound: f64,
    /// Iterations executed.
    pub iters: usize,
}

/// Total Φ cost of `loads` against `caps`.
fn total_phi(loads: &[f64], caps: &[f64]) -> f64 {
    loads.iter().zip(caps).map(|(&x, &c)| phi(x, c)).sum()
}

/// Marginal link costs `∂Φ/∂load` at `loads`, mapped to integer SPF
/// weights by rank (Dijkstra needs integers; the all-or-nothing step only
/// cares about path-cost ordering, so we scale the six known slopes onto
/// distinct integers).
fn marginal_weights(topo: &Topology, loads: &[f64], caps: &[f64]) -> WeightVector {
    let w: Vec<u32> = topo
        .links()
        .map(|(lid, _)| {
            let i = lid.index();
            // Slopes are 1,3,10,70,500,5000 — already integral and
            // ordering-faithful; cap at u32 range trivially.
            dtr_cost::phi_derivative(loads[i], caps[i]) as u32
        })
        .collect();
    WeightVector::from_vec(w)
}

/// Minimizes `Σ_l Φ(load_l, caps_l)` over all routings of `demands`.
///
/// `caps` are the capacities the class is charged against (raw for high
/// priority, residual for low priority).
pub fn frank_wolfe(
    topo: &Topology,
    demands: &TrafficMatrix,
    caps: &[f64],
    params: &FwParams,
) -> FwResult {
    assert_eq!(caps.len(), topo.link_count());
    let mut calc = LoadCalculator::new();

    // Start from shortest-path routing under unit weights.
    let mut loads = calc.class_loads(topo, &WeightVector::uniform(topo, 1), demands);
    let mut cost = total_phi(&loads, caps);
    let mut lower_bound = 0.0f64;
    let mut iters = 0;

    for _ in 0..params.max_iters {
        iters += 1;
        // All-or-nothing assignment under marginal costs.
        let weights = marginal_weights(topo, &loads, caps);
        let aon = calc.class_loads(topo, &weights, demands);

        // Duality bound: the AON flow minimizes the linearized objective,
        // so f(x) + ∂f(x)·(aon − x) lower-bounds the optimum.
        let gap_term: f64 = topo
            .links()
            .map(|(lid, _)| {
                let i = lid.index();
                dtr_cost::phi_derivative(loads[i], caps[i]) * (aon[i] - loads[i])
            })
            .sum();
        lower_bound = lower_bound.max(cost + gap_term);

        // Golden-section line search over θ ∈ [0, 1]:
        // f(θ) = Φ((1−θ)·loads + θ·aon).
        let blend_cost = |theta: f64| -> f64 {
            let mixed: Vec<f64> = loads
                .iter()
                .zip(&aon)
                .map(|(&a, &b)| (1.0 - theta) * a + theta * b)
                .collect();
            total_phi(&mixed, caps)
        };
        let inv_phi_ratio = (5f64.sqrt() - 1.0) / 2.0;
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        let mut x1 = hi - inv_phi_ratio * (hi - lo);
        let mut x2 = lo + inv_phi_ratio * (hi - lo);
        let (mut f1, mut f2) = (blend_cost(x1), blend_cost(x2));
        for _ in 0..LINE_SEARCH_ITERS {
            if f1 <= f2 {
                hi = x2;
                x2 = x1;
                f2 = f1;
                x1 = hi - inv_phi_ratio * (hi - lo);
                f1 = blend_cost(x1);
            } else {
                lo = x1;
                x1 = x2;
                f1 = f2;
                x2 = lo + inv_phi_ratio * (hi - lo);
                f2 = blend_cost(x2);
            }
        }
        let theta = 0.5 * (lo + hi);
        let new_cost = blend_cost(theta);

        if new_cost >= cost * (1.0 - TOLERANCE) {
            // No meaningful progress; converged.
            if new_cost < cost {
                for (l, &a) in loads.iter_mut().zip(&aon) {
                    *l = (1.0 - theta) * *l + theta * a;
                }
                cost = new_cost;
            }
            break;
        }
        for (l, &a) in loads.iter_mut().zip(&aon) {
            *l = (1.0 - theta) * *l + theta * a;
        }
        cost = new_cost;
    }

    FwResult {
        loads,
        cost,
        lower_bound: lower_bound.min(cost),
        iters,
    }
}

/// Lexicographic lower bound for the two-class load objective
/// `⟨Φ_H, Φ_L⟩`: the high class is optimized against raw capacity, then
/// the low class against the resulting residuals.
///
/// Caveats on interpretation:
///
/// - `phi_h` is a true lower bound on **any** routing's `Φ_H` (duality
///   bound over all flows).
/// - `phi_l` is **conditional**: it bounds the low-class cost *given the
///   FW high-class placement's residuals*. A heuristic whose high class
///   sits on different links can see different residuals and land below
///   `phi_l`; to bound a specific solution's low side, run
///   [`frank_wolfe`] against *that* solution's residuals.
#[derive(Debug, Clone)]
pub struct DualLowerBound {
    /// Duality lower bound on the high-class cost.
    pub phi_h: f64,
    /// Duality lower bound on the low-class cost, conditional on the FW
    /// high placement.
    pub phi_l: f64,
    /// Near-optimal high-class loads (feasible flow).
    pub high_loads: ClassLoads,
    /// Near-optimal low-class loads against residual capacity.
    pub low_loads: ClassLoads,
    /// Achieved (upper-bound) costs of the returned flows.
    pub achieved: (f64, f64),
}

/// Computes the lexicographic Frank–Wolfe bound for `demands` on `topo`.
pub fn dual_lower_bound(topo: &Topology, demands: &DemandSet, params: &FwParams) -> DualLowerBound {
    let caps: Vec<f64> = topo.links().map(|(_, l)| l.capacity).collect();
    let high = frank_wolfe(topo, &demands.high, &caps, params);
    let residual: Vec<f64> = caps
        .iter()
        .zip(&high.loads)
        .map(|(&c, &h)| residual_capacity(c, h))
        .collect();
    let low = frank_wolfe(topo, &demands.low, &residual, params);
    DualLowerBound {
        phi_h: high.lower_bound,
        phi_l: low.lower_bound,
        achieved: (high.cost, low.cost),
        high_loads: high.loads,
        low_loads: low.loads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
    use dtr_graph::NodeId;
    use dtr_traffic::TrafficCfg;

    #[test]
    fn triangle_bound_matches_hand_optimum() {
        // One unit of demand A→C over a unit-capacity triangle: the
        // unconstrained optimum splits 2/3 direct, 1/3 via B... actually
        // the split θ minimizing Φ(1−θ) + 2·Φ(θ/1)·(detour has 2 links):
        // by symmetry of the piecewise function the optimizer balances
        // marginal costs; we simply check FW beats all-direct and
        // all-detour and is a valid lower bound.
        let topo = triangle_topology(1.0);
        let mut m = TrafficMatrix::zeros(3);
        m.set(0, 2, 1.0);
        let caps = vec![1.0; 6];
        let fw = frank_wolfe(&topo, &m, &caps, &FwParams::default());
        let direct = phi(1.0, 1.0); // 70−178/3 ≈ 10.67
        let detour = 2.0 * phi(1.0, 1.0);
        assert!(
            fw.cost < direct.min(detour),
            "fw {} direct {direct}",
            fw.cost
        );
        // Flow conservation: total load equals demand × mean path length
        // ∈ [1, 2].
        let total: f64 = fw.loads.iter().sum();
        assert!((1.0 - 1e-9..=2.0 + 1e-9).contains(&total));
    }

    #[test]
    fn bound_is_below_any_spf_routing() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 3,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 3,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let caps: Vec<f64> = topo.links().map(|(_, l)| l.capacity).collect();
        let fw = frank_wolfe(&topo, &demands.high, &caps, &FwParams::default());
        // Compare against a handful of SPF routings.
        let mut calc = LoadCalculator::new();
        for w in [
            WeightVector::uniform(&topo, 1),
            WeightVector::delay_proportional(&topo, 30),
        ] {
            let loads = calc.class_loads(&topo, &w, &demands.high);
            let cost = total_phi(&loads, &caps);
            assert!(
                fw.cost <= cost + 1e-6,
                "bound {} above SPF cost {cost}",
                fw.cost
            );
        }
    }

    #[test]
    fn fw_cost_decreases_monotonically_in_iterations() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 4,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 4,
                ..Default::default()
            },
        )
        .scaled(5.0);
        let caps: Vec<f64> = topo.links().map(|(_, l)| l.capacity).collect();
        let short = frank_wolfe(&topo, &demands.low, &caps, &FwParams { max_iters: 2 });
        let long = frank_wolfe(&topo, &demands.low, &caps, &FwParams { max_iters: 50 });
        assert!(long.cost <= short.cost + 1e-9);
    }

    #[test]
    fn dual_bound_orders_against_heuristic_evaluations() {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 10,
            directed_links: 40,
            seed: 5,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 5,
                ..Default::default()
            },
        )
        .scaled(4.0);
        let bound = dual_lower_bound(&topo, &demands, &FwParams::default());
        // Any STR evaluation dominates the bound on the primary
        // component.
        let mut ev = crate::Evaluator::new(&topo, &demands, dtr_cost::Objective::LoadBased);
        let e = ev.eval_str(&WeightVector::uniform(&topo, 1));
        assert!(bound.phi_h <= e.phi_h + 1e-6);
        assert!(bound.phi_h > 0.0);
        assert!(bound.phi_l > 0.0);
        let _ = NodeId(0);
    }
}
