//! Traffic-matrix slicing over many topologies (related work \[6\]).
//!
//! Balon & Leduc approach optimal traffic engineering by dividing the
//! traffic matrix into `S` slices, each routed on its own topology: "the
//! greater the number of slices, the better the performance as it
//! increases the ability to approximate optimal routing". In the paper's
//! two-class setting the natural generalization keeps the high-priority
//! class on its own topology (exactly as in DTR) and splits the
//! **low-priority** matrix into `S` equal slices, each with an
//! independently optimized weight vector:
//!
//! - `S = 1` is precisely DTR;
//! - `S → ∞` approaches the Frank–Wolfe optimum of
//!   [`dtr_routing::lower_bound`], at a linear cost in configuration
//!   state and SPF work (MTR hardware supports tens of topologies).
//!
//! The search freezes the high topology at its DTR-optimized setting
//! (priority isolation makes the high subproblem independent). It is
//! one stage of `2·(N+K)` iterations on the shared
//! [`descent`](crate::descent) driver: step `it` is a `FindL`-style pass
//! over slice `it mod S`, a diversification perturbs `g2` of that
//! slice's vector.

use crate::descent::{best_improving, Descent, Step, Walk};
use crate::neighborhood::{perturb_weights, NeighborhoodSampler, RankTable};
use crate::params::SearchParams;
use crate::telemetry::{Phase, SearchTrace};
use dtr_cost::{phi, Lex2, Objective};
use dtr_graph::{Topology, WeightVector};
use dtr_routing::{ClassLoads, Evaluator, LoadCalculator};
use dtr_traffic::{DemandSet, TrafficMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of a sliced search.
#[derive(Debug, Clone)]
pub struct SlicedResult {
    /// The (frozen) high-priority weight vector.
    pub high_weights: WeightVector,
    /// One weight vector per low-priority slice.
    pub slice_weights: Vec<WeightVector>,
    /// Final `⟨Φ_H, Φ_L⟩`.
    pub cost: Lex2,
    /// Final total low-priority link loads.
    pub low_loads: ClassLoads,
    /// Telemetry.
    pub trace: SearchTrace,
}

/// Multi-topology sliced optimizer for the low-priority class.
pub struct SlicedSearch<'a> {
    topo: &'a Topology,
    demands: &'a DemandSet,
    params: SearchParams,
    slices: usize,
    high_weights: WeightVector,
}

impl<'a> SlicedSearch<'a> {
    /// Prepares a search with `slices` low-priority topologies. The
    /// high topology must be supplied (typically from a finished
    /// [`crate::DtrSearch`]); priority isolation makes it independent of
    /// everything done here.
    pub fn new(
        topo: &'a Topology,
        demands: &'a DemandSet,
        params: SearchParams,
        slices: usize,
        high_weights: WeightVector,
    ) -> Self {
        assert!(slices >= 1, "need at least one slice");
        assert_eq!(high_weights.len(), topo.link_count());
        params.validate();
        SlicedSearch {
            topo,
            demands,
            params,
            slices,
            high_weights,
        }
    }

    /// Runs the slice-coordinate local search: one stage of `2·(N+K)`
    /// slice-moves (matching the other searches' counts), spent
    /// round-robin over slices.
    pub fn run(self) -> SlicedResult {
        let params = self.params;
        // Frozen high side.
        let high = Evaluator::new(self.topo, self.demands, Objective::LoadBased)
            .eval_high_side(&self.high_weights);
        let mut walk = SlicedWalk {
            topo: self.topo,
            params,
            sampler: NeighborhoodSampler::new(self.topo.link_count(), &params),
            rng: StdRng::seed_from_u64(params.seed),
            calc: LoadCalculator::new(),
            residual: self
                .topo
                .links()
                .map(|(lid, link)| (link.capacity - high.loads[lid.index()]).max(0.0))
                .collect(),
            slice_demand: self.demands.low.scaled(1.0 / self.slices as f64),
            weights: vec![WeightVector::uniform(self.topo, 1); self.slices],
            slice_loads: Vec::new(),
            total: Vec::new(),
            cost: Lex2::new(high.phi, 0.0),
            slice: 0,
        };
        walk.reroute_all();
        let mut descent = Descent::start(&walk, params.diversify_after, Phase::OptimizeLow, 0);
        descent.stage(
            &mut walk,
            2 * (params.n_iters + params.k_iters),
            Phase::OptimizeLow,
        );

        // Rebuild the best configuration's loads for the report.
        let (_, slice_weights, trace) = descent.finish();
        walk.weights = slice_weights;
        walk.reroute_all();
        SlicedResult {
            high_weights: self.high_weights,
            slice_weights: walk.weights,
            cost: walk.cost,
            low_loads: walk.total,
            trace,
        }
    }
}

/// The per-slice weights with their cached loads, so one slice move
/// re-routes one slice.
struct SlicedWalk<'a> {
    topo: &'a Topology,
    params: SearchParams,
    sampler: NeighborhoodSampler,
    rng: StdRng,
    calc: LoadCalculator,
    /// Per-link capacity the frozen high class leaves.
    residual: Vec<f64>,
    /// The low matrix's equal share every slice carries.
    slice_demand: TrafficMatrix,
    weights: Vec<WeightVector>,
    slice_loads: Vec<ClassLoads>,
    /// Total low load per link (the sum of `slice_loads`).
    total: ClassLoads,
    /// `⟨Φ_H, Φ_L⟩`; the primary never moves.
    cost: Lex2,
    /// The slice the running iteration moves.
    slice: usize,
}

impl SlicedWalk<'_> {
    /// Per-link `Φ_L,l` of `low_loads` against the residual capacity.
    fn phi_l_per_link<'s>(&'s self, low_loads: &'s [f64]) -> impl Iterator<Item = f64> + 's {
        low_loads
            .iter()
            .zip(&self.residual)
            .map(|(&load, &residual)| phi(load, residual))
    }

    /// `total` with slice `s`'s loads swapped for `loads`.
    fn total_with(&self, s: usize, loads: &[f64]) -> ClassLoads {
        let mut total = self.total.clone();
        for ((t, old), new) in total.iter_mut().zip(&self.slice_loads[s]).zip(loads) {
            *t = (*t + new - old).max(0.0);
        }
        total
    }

    /// Routes every slice from scratch and re-sums the totals.
    fn reroute_all(&mut self) {
        self.slice_loads = self
            .weights
            .iter()
            .map(|w| self.calc.class_loads(self.topo, w, &self.slice_demand))
            .collect();
        self.resum();
    }

    fn resum(&mut self) {
        self.total = vec![0.0; self.topo.link_count()];
        for loads in &self.slice_loads {
            for (t, l) in self.total.iter_mut().zip(loads) {
                *t += l;
            }
        }
        self.cost.secondary = self.phi_l_per_link(&self.total).sum();
    }
}

impl Walk for SlicedWalk<'_> {
    type Cost = Lex2;
    type Point = Vec<WeightVector>;

    fn cost(&self) -> &Lex2 {
        &self.cost
    }

    fn snapshot(&self) -> Vec<WeightVector> {
        self.weights.clone()
    }

    /// One `FindL`-style pass over slice `it mod S`.
    fn step(&mut self, it: usize) -> Step {
        let s = it % self.weights.len();
        self.slice = s;
        // Rank links by their current low-class cost contribution.
        let keys: Vec<f64> = self.phi_l_per_link(&self.total).collect();
        let neighbors = self.sampler.neighbors(
            &RankTable::new(&keys),
            &self.weights[s],
            &self.params,
            &mut self.rng,
        );
        let mut cands: Vec<(Lex2, WeightVector, ClassLoads, ClassLoads)> = Vec::new();
        for w in neighbors {
            let loads = self.calc.class_loads(self.topo, &w, &self.slice_demand);
            let total = self.total_with(s, &loads);
            let phi_l = self.phi_l_per_link(&total).sum();
            cands.push((Lex2::new(self.cost.primary, phi_l), w, loads, total));
        }
        let evaluated = cands.len();
        let best = best_improving(cands, self.cost(), |c| &c.0);
        let moved = best.is_some();
        if let Some((cost, w, loads, total)) = best {
            self.weights[s] = w;
            self.slice_loads[s] = loads;
            self.total = total;
            self.cost = cost;
        }
        Step::of(evaluated, moved)
    }

    fn diversify(&mut self, _best: &Vec<WeightVector>) -> usize {
        let s = self.slice;
        perturb_weights(
            &mut self.weights[s],
            self.params.g2,
            &self.params,
            &mut self.rng,
        );
        self.slice_loads[s] =
            self.calc
                .class_loads(self.topo, &self.weights[s], &self.slice_demand);
        self.resum();
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};
    use dtr_routing::lower_bound::{dual_lower_bound, FwParams};
    use dtr_traffic::TrafficCfg;

    fn instance() -> (Topology, DemandSet) {
        let topo = random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 6,
        });
        let demands = DemandSet::generate(
            &topo,
            &TrafficCfg {
                seed: 6,
                ..Default::default()
            },
        )
        .scaled(4.0);
        (topo, demands)
    }

    #[test]
    fn one_slice_matches_findl_quality_roughly() {
        // S = 1 is DTR's low-side search; costs should land in the same
        // ballpark as DtrSearch's Φ_L for the same high weights.
        let (topo, demands) = instance();
        let params = SearchParams::quick().with_seed(6);
        let dtr = crate::DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
        let sliced = SlicedSearch::new(&topo, &demands, params, 1, dtr.weights.high.clone()).run();
        assert!(
            (sliced.cost.primary - dtr.eval.phi_h).abs() < 1e-9,
            "same high side"
        );
        assert!(sliced.cost.secondary <= dtr.eval.phi_l * 1.5);
    }

    #[test]
    fn more_slices_never_hurt_much_and_eventually_help() {
        let (topo, demands) = instance();
        let params = SearchParams::quick().with_seed(7);
        let dtr = crate::DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
        let run = |s| {
            SlicedSearch::new(&topo, &demands, params, s, dtr.weights.high.clone())
                .run()
                .cost
                .secondary
        };
        let s1 = run(1);
        let s4 = run(4);
        // The slice decomposition strictly enlarges the feasible flow
        // set; with equal budgets the search realizes most of it. Allow
        // modest noise but require no catastrophic regression.
        assert!(s4 <= s1 * 1.2, "S=4 ({s4}) much worse than S=1 ({s1})");
    }

    #[test]
    fn slices_stay_above_conditional_frank_wolfe_bound() {
        // The correct lower bound for a sliced solution's Φ_L conditions
        // on ITS high-class placement: run Frank–Wolfe on the low class
        // against the residual capacities that placement leaves behind.
        // (The unconditional `dual_lower_bound` uses FW-optimal high
        // loads, whose residual pattern can differ enough that sliced
        // solutions dip below it — observed in the optimality experiment
        // at high load.)
        use dtr_routing::lower_bound::frank_wolfe;
        let (topo, demands) = instance();
        let params = SearchParams::quick().with_seed(8);
        let dtr = crate::DtrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
        let sliced = SlicedSearch::new(&topo, &demands, params, 4, dtr.weights.high.clone()).run();

        let mut ev = Evaluator::new(&topo, &demands, Objective::LoadBased);
        let high_loads = ev.high_loads(&dtr.weights.high);
        let residuals: Vec<f64> = topo
            .links()
            .map(|(lid, l)| (l.capacity - high_loads[lid.index()]).max(0.0))
            .collect();
        let bound = frank_wolfe(&topo, &demands.low, &residuals, &FwParams::default());
        assert!(
            sliced.cost.secondary >= bound.lower_bound - 1e-6,
            "sliced {} below conditional duality bound {}",
            sliced.cost.secondary,
            bound.lower_bound
        );
        assert!(bound.lower_bound <= bound.cost + 1e-9, "bracket must hold");
        // The unconditional bound still exists and is positive.
        let un = dual_lower_bound(&topo, &demands, &FwParams::default());
        assert!(un.phi_l > 0.0);
    }

    #[test]
    fn conservation_across_slices() {
        let (topo, demands) = instance();
        let params = SearchParams::tiny().with_seed(9);
        let w = WeightVector::uniform(&topo, 1);
        let sliced = SlicedSearch::new(&topo, &demands, params, 3, w).run();
        // Total low load must equal demand × expected hops, i.e. at least
        // the total offered volume (every packet crosses ≥ 1 link).
        let total: f64 = sliced.low_loads.iter().sum();
        assert!(total >= demands.low.total() - 1e-6);
        assert_eq!(sliced.slice_weights.len(), 3);
    }
}
