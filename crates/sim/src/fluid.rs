//! The deterministic flow-level fluid backend.
//!
//! Where the discrete-event engine pushes individual packets through
//! event queues, [`FluidSim`] pushes per-class *arrival rates* down the
//! same per-destination ECMP DAGs and closes the loop with the exact
//! non-preemptive priority-queue formulas from [`crate::queueing`]:
//!
//! 1. **Loads** — each class's demand is routed exactly like the
//!    analytic evaluator routes it: one shortest-path DAG per
//!    destination, even splitting over equal-cost branches, implemented
//!    by the *same* primitive (`dtr_routing::push_demand_down_dag`) on
//!    DAGs from the *same* [`ForwardingState`] the DES forwards on.
//!    Identical DAGs + identical arithmetic ⇒ the loads are
//!    bit-identical to `Evaluator::eval_dual`'s — the structural
//!    agreement the validation harness asserts at 1e-9.
//! 2. **Per-link delays** — Cobham's closed-form mean waits for the
//!    k-priority M/M/1 (or M/D/1) link at those loads; no event loop,
//!    no sampling noise, unstable links report infinity.
//! 3. **End-to-end delays** — a dynamic program over each destination
//!    DAG: ξ(v→t) averages branch sojourn + propagation + downstream ξ
//!    over the ECMP branches, mirroring the evaluator's SLA walk but
//!    with the exact priority-queue sojourns instead of the paper's
//!    Eq. 3 surrogate.
//!
//! The whole computation is `O(dests · (SPF + links))` — orders of
//! magnitude faster than a statistically meaningful DES run, and exactly
//! reproducible (no RNG anywhere).

use crate::backend::{BackendReport, SimBackend};
use crate::forwarding::ForwardingState;
use crate::queueing::{cobham_k, PriorityLink};
use crate::stats::PairKey;
use dtr_graph::weights::DualWeights;
use dtr_graph::{NodeId, Topology, WeightVector};
use dtr_routing::push_demand_down_dag;
use dtr_traffic::{DemandSet, TrafficMatrix};
use std::collections::{BTreeMap, BTreeSet};

/// Fluid-model parameters — the packet-size model the closed-form link
/// delays assume (loads don't depend on it).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FluidCfg {
    /// Mean packet size in bits (default 8000, matching [`crate::SimConfig`]).
    pub mean_packet_bits: f64,
    /// `false` → exponential sizes (M/M/1), `true` → constant (M/D/1).
    pub deterministic_size: bool,
    /// Total-utilization threshold above which a link is considered
    /// **near-saturated**: pairs whose expected path crosses one are
    /// flagged in [`BackendReport::hot_pairs`], because closed-form
    /// steady-state delays there diverge while any finite-horizon
    /// measurement stays finite — the two are incomparable by
    /// construction. Default 0.95.
    pub hot_util: f64,
}

impl Default for FluidCfg {
    fn default() -> Self {
        FluidCfg {
            mean_packet_bits: 8000.0,
            deterministic_size: false,
            hot_util: 0.95,
        }
    }
}

/// The fluid backend. Stateless between runs; construct once and reuse.
#[derive(Debug, Clone, Copy, Default)]
pub struct FluidSim {
    /// Packet-size model for the closed-form delays.
    pub cfg: FluidCfg,
}

impl FluidSim {
    /// A fluid backend with the default packet-size model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes one class's demand down its DAGs, accumulating loads in
    /// ascending-destination order — the same iteration order and the
    /// same pushing primitive as `dtr_routing::LoadCalculator`, so the
    /// floating-point sums are bit-identical.
    fn class_loads(
        &self,
        topo: &Topology,
        fwd: &ForwardingState,
        class: usize,
        m: &TrafficMatrix,
        flow: &mut Vec<f64>,
    ) -> Vec<f64> {
        let mut loads = vec![0.0; topo.link_count()];
        for t in topo.nodes() {
            if m.demands_to(t.index()).next().is_none() {
                continue;
            }
            push_demand_down_dag(topo, fwd.dag(class, t), m, t, flow, &mut loads);
        }
        loads
    }

    /// The fluid run: `matrices[c]` is the demand of priority class `c`
    /// (0 served first), routed on `weights[c]`. Per-link delays come
    /// from [`cobham_k`].
    pub fn run_classes(
        &self,
        topo: &Topology,
        matrices: &[&TrafficMatrix],
        weights: &[WeightVector],
    ) -> BackendReport {
        assert_eq!(matrices.len(), weights.len(), "one weight vector per class");
        let fwd = ForwardingState::with_class_weights(topo, weights);
        self.run_classes_on(topo, matrices, &fwd)
    }

    /// [`FluidSim::run_classes`] on **prebuilt** forwarding tables —
    /// the injection point for non-shortest-path routing such as the
    /// partial-deployment hybrid DAGs
    /// ([`ForwardingState::with_deployment`]). Sources that cannot
    /// reach a destination in their class's DAG report an infinite
    /// pair delay and carry no load, exactly like saturated pairs.
    pub fn run_classes_on(
        &self,
        topo: &Topology,
        matrices: &[&TrafficMatrix],
        fwd: &ForwardingState,
    ) -> BackendReport {
        assert!(!matrices.is_empty(), "need at least one class");
        assert_eq!(matrices.len(), fwd.classes(), "one DAG table per class");
        let k = matrices.len();
        let m = topo.link_count();
        let mut flow = Vec::new();
        let loads: Vec<Vec<f64>> = (0..k)
            .map(|c| self.class_loads(topo, fwd, c, matrices[c], &mut flow))
            .collect();

        // Closed-form per-link waits and sojourns at those loads, plus
        // the near-saturation flags for the hot-pair scan.
        let mut wait = vec![vec![0.0; m]; k];
        let mut sojourn = vec![vec![0.0; m]; k];
        let mut link_hot = vec![false; m];
        let mut offered = vec![0.0; k];
        for (lid, link) in topo.links() {
            let i = lid.index();
            let pl = PriorityLink {
                capacity_mbps: link.capacity,
                mean_packet_bits: self.cfg.mean_packet_bits,
                deterministic: self.cfg.deterministic_size,
            };
            let mut total = 0.0;
            for c in 0..k {
                offered[c] = loads[c][i];
                total += loads[c][i];
            }
            let delays = cobham_k(&pl, &offered);
            for c in 0..k {
                wait[c][i] = delays[c].wait_s;
                sojourn[c][i] = delays[c].sojourn_s;
            }
            link_hot[i] = total / link.capacity >= self.cfg.hot_util;
        }

        // End-to-end expected delays: ξ dynamic program per destination
        // DAG, exactly the evaluator's SLA walk shape but with the
        // class's priority-queue sojourn at every link. A parallel
        // boolean DP marks nodes whose flow can touch a near-saturated
        // link on the way to `t`.
        let mut pair_delays = BTreeMap::new();
        let mut hot_pairs = BTreeSet::new();
        let mut xi = vec![0.0f64; topo.node_count()];
        let mut hot = vec![false; topo.node_count()];
        for (c, matrix) in matrices.iter().enumerate() {
            for t in topo.nodes() {
                if matrix.demands_to(t.index()).next().is_none() {
                    continue;
                }
                let dag = fwd.dag(c, t);
                xi.fill(0.0);
                hot.fill(false);
                // A source that cannot reach `t` has no delay, not a
                // zero delay: report infinity so undeliverable pairs
                // are excluded from means exactly like saturated ones.
                for v in topo.nodes() {
                    if v != t && !dag.reachable(v) {
                        xi[v.index()] = f64::INFINITY;
                    }
                }
                for &v in dag.order.iter().rev() {
                    let vi = v as usize;
                    if NodeId(v) == t || !dag.reachable(NodeId(v)) {
                        continue;
                    }
                    let branches = &dag.ecmp_out[vi];
                    let mut acc = 0.0;
                    for &lid in branches {
                        let link = topo.link(lid);
                        acc += sojourn[c][lid.index()] + link.prop_delay + xi[link.dst.index()];
                        hot[vi] |= link_hot[lid.index()] || hot[link.dst.index()];
                    }
                    xi[vi] = acc / branches.len() as f64;
                }
                for (s, _vol) in matrix.demands_to(t.index()) {
                    let key = PairKey {
                        class: c as u8,
                        src: s as u32,
                        dst: t.index() as u32,
                    };
                    pair_delays.insert(key, xi[s]);
                    if hot[s] {
                        hot_pairs.insert(key);
                    }
                }
            }
        }

        BackendReport {
            backend: "fluid",
            class_loads: loads,
            link_wait_s: wait,
            // Exact, not sampled: report saturation so significance
            // filters never discard fluid predictions.
            link_wait_samples: vec![vec![u64::MAX; m]; k],
            pair_delays,
            hot_pairs,
            packets: 0,
        }
    }
}

impl SimBackend for FluidSim {
    fn name(&self) -> &'static str {
        "fluid"
    }

    fn run(&self, topo: &Topology, demands: &DemandSet, weights: &DualWeights) -> BackendReport {
        self.run_classes(
            topo,
            &[&demands.high, &demands.low],
            &[weights.high.clone(), weights.low.clone()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queueing::cobham;
    use crate::stats::PairKey;
    use dtr_graph::{NodeId, TopologyBuilder, WeightVector};

    fn two_node(capacity: f64, prop: f64) -> Topology {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_duplex(NodeId(0), NodeId(1), capacity, prop);
        b.build().unwrap()
    }

    fn demands(h: f64, l: f64, n: usize) -> DemandSet {
        let mut high = TrafficMatrix::zeros(n);
        if h > 0.0 {
            high.set(0, n - 1, h);
        }
        let mut low = TrafficMatrix::zeros(n);
        if l > 0.0 {
            low.set(0, n - 1, l);
        }
        DemandSet { high, low }
    }

    #[test]
    fn single_link_matches_cobham_exactly() {
        let topo = two_node(10.0, 0.002);
        let d = demands(3.0, 4.0, 2);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let r = FluidSim::new().run(&topo, &d, &w);
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(r.class_loads[0][link.index()], 3.0);
        assert_eq!(r.class_loads[1][link.index()], 4.0);
        let pl = PriorityLink {
            capacity_mbps: 10.0,
            mean_packet_bits: 8000.0,
            deterministic: false,
        };
        let (dh, dl) = cobham(&pl, 3.0, 4.0);
        let key = |class| PairKey {
            class,
            src: 0,
            dst: 1,
        };
        // End-to-end = sojourn + propagation, exactly.
        assert!((r.pair_delays[&key(0)] - (dh.sojourn_s + 0.002)).abs() < 1e-15);
        assert!((r.pair_delays[&key(1)] - (dl.sojourn_s + 0.002)).abs() < 1e-15);
        assert_eq!(r.packets, 0);
    }

    #[test]
    fn deployed_fluid_loads_match_the_deployment_aware_evaluator() {
        use dtr_cost::Objective;
        use dtr_graph::gen::triangle_topology;
        use dtr_routing::{DeploymentSet, Evaluator};

        // Loop-free partial deployment on the triangle: only A (node 0)
        // is upgraded; the fluid loads routed on the hybrid tables must
        // be bit-identical to the deployment-aware evaluator's.
        let topo = triangle_topology(10.0);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let w = DualWeights { high: wh, low: wl };
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0);
        high.set(1, 2, 0.5);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0);
        low.set(1, 0, 0.25);
        let d = DemandSet { high, low };
        let dep = DeploymentSet::from_upgraded(3, &[0]);

        let fwd = ForwardingState::with_deployment(&topo, &w, &dep);
        let r = FluidSim::new().run_classes_on(&topo, &[&d.high, &d.low], &fwd);

        let mut ev = Evaluator::new(&topo, &d, Objective::LoadBased);
        ev.set_deployment(Some(dep)).unwrap();
        let e = ev.eval_dual(&w);
        assert_eq!(r.class_loads[0], e.high_loads);
        assert_eq!(r.class_loads[1], e.low_loads);
    }

    #[test]
    fn diamond_splits_evenly_and_averages_delay() {
        // 0 —(via 1 or 2)— 3 with equal weights: each branch carries
        // half, and the pair delay is the branch average.
        let mut b = TopologyBuilder::new();
        b.add_nodes(4);
        b.add_duplex(NodeId(0), NodeId(1), 10.0, 0.001);
        b.add_duplex(NodeId(0), NodeId(2), 10.0, 0.001);
        b.add_duplex(NodeId(1), NodeId(3), 10.0, 0.001);
        b.add_duplex(NodeId(2), NodeId(3), 10.0, 0.001);
        let topo = b.build().unwrap();
        let d = demands(4.0, 0.0, 4);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let r = FluidSim::new().run(&topo, &d, &w);
        for (a, z) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
            let l = topo.find_link(NodeId(a), NodeId(z)).unwrap();
            assert!((r.class_loads[0][l.index()] - 2.0).abs() < 1e-12);
        }
        let pl = PriorityLink {
            capacity_mbps: 10.0,
            mean_packet_bits: 8000.0,
            deterministic: false,
        };
        let (dh, _) = cobham(&pl, 2.0, 0.0);
        let key = PairKey {
            class: 0,
            src: 0,
            dst: 3,
        };
        // Two identical hops on every branch.
        assert!((r.pair_delays[&key] - 2.0 * (dh.sojourn_s + 0.001)).abs() < 1e-12);
    }

    #[test]
    fn near_saturated_paths_are_flagged_hot() {
        let topo = two_node(10.0, 0.0);
        // ρ = 0.97: stable, but past the 0.95 hot threshold.
        let d = demands(3.0, 6.7, 2);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let r = FluidSim::new().run(&topo, &d, &w);
        assert_eq!(r.hot_pairs.len(), 2, "both classes cross the hot link");
        // Everything cools down below the threshold.
        let cool = FluidSim::new().run(&topo, &demands(3.0, 3.0, 2), &w);
        assert!(cool.hot_pairs.is_empty());
    }

    #[test]
    fn unstable_link_reports_infinite_delay() {
        let topo = two_node(10.0, 0.0);
        let d = demands(4.0, 8.0, 2); // ρ = 1.2: low class unstable
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let r = FluidSim::new().run(&topo, &d, &w);
        let key = PairKey {
            class: 1,
            src: 0,
            dst: 1,
        };
        assert!(r.pair_delays[&key].is_infinite());
        // The high class stays finite (ρ_H = 0.4).
        let kh = PairKey {
            class: 0,
            src: 0,
            dst: 1,
        };
        assert!(r.pair_delays[&kh].is_finite());
        // Flow-weighted mean skips the infinite pair.
        assert!(r.mean_class_delay(1, &d.low).is_none());
    }

    #[test]
    fn unreachable_pair_reports_infinite_delay_not_zero() {
        // Two disconnected islands (0–1 and 2–3) with demand across
        // them: the pair must report ∞, and the class mean must not be
        // dragged toward zero by an undeliverable pair. The builder
        // rejects disconnected graphs, but `Topology`'s `Deserialize`
        // checks links and adjacency, not connectivity — a hand-edited
        // topo.json reaches the backends exactly like this.
        let json = r#"{
            "node_count": 4,
            "links": [
                { "src": 0, "dst": 1, "capacity": 10.0, "prop_delay": 0.001 },
                { "src": 1, "dst": 0, "capacity": 10.0, "prop_delay": 0.001 },
                { "src": 2, "dst": 3, "capacity": 10.0, "prop_delay": 0.001 },
                { "src": 3, "dst": 2, "capacity": 10.0, "prop_delay": 0.001 }
            ],
            "out_links": [[0], [1], [2], [3]],
            "in_links": [[1], [0], [3], [2]],
            "names": ["n0", "n1", "n2", "n3"]
        }"#;
        let topo: Topology = serde_json::from_str(json).unwrap();
        let mut high = TrafficMatrix::zeros(4);
        high.set(0, 3, 2.0); // crosses the gap
        high.set(2, 3, 2.0); // deliverable
        let d = DemandSet {
            high,
            low: TrafficMatrix::zeros(4),
        };
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let r = FluidSim::new().run(&topo, &d, &w);
        let cross = PairKey {
            class: 0,
            src: 0,
            dst: 3,
        };
        assert!(r.pair_delays[&cross].is_infinite());
        // The mean covers only the deliverable pair.
        let local = PairKey {
            class: 0,
            src: 2,
            dst: 3,
        };
        let mean = r.mean_class_delay(0, &d.high).unwrap();
        assert_eq!(mean, r.pair_delays[&local]);
    }

    #[test]
    fn three_class_single_link_matches_cobham_k() {
        use crate::queueing::cobham_k;
        let topo = two_node(10.0, 0.002);
        let mut mats = Vec::new();
        for mbps in [2.0, 3.0, 3.0] {
            let mut m = TrafficMatrix::zeros(2);
            m.set(0, 1, mbps);
            mats.push(m);
        }
        let w = WeightVector::uniform(&topo, 1);
        let r = FluidSim::new().run_classes(
            &topo,
            &[&mats[0], &mats[1], &mats[2]],
            &[w.clone(), w.clone(), w],
        );
        assert_eq!(r.classes(), 3);
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let pl = PriorityLink {
            capacity_mbps: 10.0,
            mean_packet_bits: 8000.0,
            deterministic: false,
        };
        let theory = cobham_k(&pl, &[2.0, 3.0, 3.0]);
        for c in 0..3 {
            assert_eq!(r.class_loads[c][link.index()], [2.0, 3.0, 3.0][c]);
            assert_eq!(r.link_wait_s[c][link.index()], theory[c].wait_s);
            let key = PairKey {
                class: c as u8,
                src: 0,
                dst: 1,
            };
            assert!(
                (r.pair_delays[&key] - (theory[c].sojourn_s + 0.002)).abs() < 1e-15,
                "class {c}"
            );
        }
    }

    #[test]
    fn two_class_run_classes_is_run_bitwise() {
        let topo = two_node(10.0, 0.001);
        let d = demands(3.0, 4.0, 2);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let a = FluidSim::new().run(&topo, &d, &w);
        let b = FluidSim::new().run_classes(
            &topo,
            &[&d.high, &d.low],
            &[w.high.clone(), w.low.clone()],
        );
        assert_eq!(a, b);
    }

    #[test]
    fn deterministic_across_runs() {
        let topo = two_node(10.0, 0.001);
        let d = demands(3.0, 3.0, 2);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let a = FluidSim::new().run(&topo, &d, &w);
        let b = FluidSim::new().run(&topo, &d, &w);
        assert_eq!(a, b);
    }
}
