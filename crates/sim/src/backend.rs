//! The [`SimBackend`] abstraction: one contract, two simulators.
//!
//! Both the packet-level discrete-event engine ([`crate::Simulation`],
//! wrapped by [`DesBackend`]) and the deterministic flow-level fluid
//! model ([`crate::FluidSim`]) answer the same question — *given a
//! topology, one demand matrix per priority class and one weight vector
//! per class, what are the per-class link loads and end-to-end delays?*
//! — so they share one report shape, [`BackendReport`], indexed by
//! class (0 served first; the paper's high class is 0, its low class
//! 1). The differential-validation harness (`dtr-scenario`) runs the
//! analytic evaluator, the fluid backend and a budgeted DES side by
//! side and gates their agreement.
//!
//! [`BackendReport`] deliberately uses sorted maps ([`BTreeMap`]) for
//! the per-pair delays: aggregations iterate in a fixed order, so
//! downstream reports are byte-identical across runs — a property the
//! validation harness tests for.

use crate::engine::{SimConfig, Simulation};
use crate::forwarding::ForwardingState;
use crate::queueing::MEAN_PACKET_BITS;
use crate::stats::PairKey;
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_traffic::{DemandSet, TrafficMatrix};
use std::collections::{BTreeMap, BTreeSet};

/// The two-class entry point both backends share: routes `demands` on
/// `weights` over `topo`, high class at priority 0. Each backend's
/// `run_classes` is the same run for any class count.
pub trait SimBackend {
    /// Machine-readable backend name (`"fluid"`, `"des"`).
    fn name(&self) -> &'static str;

    /// Runs the backend to completion.
    fn run(&self, topo: &Topology, demands: &DemandSet, weights: &DualWeights) -> BackendReport;
}

/// What every backend reports. Loads are in Mbit/s, times in seconds;
/// the outer index of every vector is the priority class (0 served
/// first), the inner one the `LinkId`.
#[derive(Debug, Clone, PartialEq)]
pub struct BackendReport {
    /// The producing backend's [`SimBackend::name`].
    pub backend: &'static str,
    /// Per-class per-link carried load (Mbit/s). For the fluid backend
    /// these are exact expected arrival rates; for the DES, measured
    /// throughput over the measurement window.
    pub class_loads: Vec<Vec<f64>>,
    /// Per-class per-link mean queueing wait (seconds). Fluid: the
    /// closed-form non-preemptive priority wait (infinite when the
    /// class is unstable at that link). DES: the sample mean (0 when no
    /// packet of the class was served there).
    pub link_wait_s: Vec<Vec<f64>>,
    /// DES wait-sample counts per class per link (`u64::MAX` for the
    /// fluid backend, whose waits are exact rather than sampled). Lets
    /// consumers require statistical significance before comparing.
    pub link_wait_samples: Vec<Vec<u64>>,
    /// Mean end-to-end delay per (class, src, dst) pair, seconds.
    /// Sorted map so aggregation order is deterministic.
    pub pair_delays: BTreeMap<PairKey, f64>,
    /// Pairs whose expected forwarding path crosses a near-saturated
    /// link (total utilization ≥ [`crate::HOT_UTIL`]). Finite-horizon
    /// measurements of such pairs are not steady-state; differential
    /// comparisons exclude them. Always empty for the DES backend (it
    /// measures, it doesn't predict).
    pub hot_pairs: BTreeSet<PairKey>,
    /// Packets generated (0 for the fluid backend).
    pub packets: u64,
}

impl BackendReport {
    /// Number of priority classes covered.
    pub fn classes(&self) -> usize {
        self.class_loads.len()
    }

    /// Flow-weighted mean end-to-end delay of class `class` over the
    /// pairs this report measured with a finite delay, weighted by
    /// `matrix`'s volumes. `None` when no pair of the class qualifies.
    pub fn mean_class_delay(&self, class: usize, matrix: &TrafficMatrix) -> Option<f64> {
        let mut sum = 0.0;
        let mut vol = 0.0;
        // Iterate the sorted map (not the matrix) so the accumulation
        // order is fixed regardless of how the matrix stores pairs.
        for (key, &d) in &self.pair_delays {
            if key.class as usize != class || !d.is_finite() {
                continue;
            }
            let v = matrix.get(key.src as usize, key.dst as usize);
            if v > 0.0 {
                sum += d * v;
                vol += v;
            }
        }
        (vol > 0.0).then_some(sum / vol)
    }
}

/// The packet-level discrete-event engine behind the [`SimBackend`]
/// contract. Wraps a [`SimConfig`]; each [`SimBackend::run`] call builds
/// and runs one [`Simulation`] and condenses its [`crate::SimReport`].
#[derive(Debug, Clone, Copy)]
pub struct DesBackend {
    /// The engine configuration (seed, window, packet sizes, buffers).
    pub cfg: SimConfig,
}

impl DesBackend {
    /// A DES backend whose measurement window is sized so the run
    /// generates roughly `packets` packets: `duration = packets /
    /// total_pps`, with a 10% warmup prepended. This is the budgeted
    /// mode the validation harness uses — cost is bounded by the packet
    /// budget, not by the instance's absolute traffic volume.
    pub fn budgeted(demands: &DemandSet, packets: u64, seed: u64) -> Self {
        Self::budgeted_classes(&[&demands.high, &demands.low], packets, seed)
    }

    /// [`DesBackend::budgeted`] for k priority classes: the packet
    /// budget is shared across all classes' offered volume.
    pub fn budgeted_classes(matrices: &[&TrafficMatrix], packets: u64, seed: u64) -> Self {
        let volume: f64 = matrices.iter().map(|m| m.total()).sum();
        let total_pps = volume * 1e6 / MEAN_PACKET_BITS;
        assert!(total_pps > 0.0, "budgeted DES needs positive demand");
        let duration_s = packets as f64 / total_pps;
        DesBackend {
            cfg: SimConfig {
                warmup_s: 0.1 * duration_s,
                duration_s,
                seed,
                ..SimConfig::default()
            },
        }
    }

    /// One packet-level simulation of all classes under strict
    /// priority, condensed to a [`BackendReport`]: `matrices[c]` is the
    /// demand of priority class `c`, routed on `weights[c]`.
    pub fn run_classes(
        &self,
        topo: &Topology,
        matrices: &[&TrafficMatrix],
        weights: &[WeightVector],
    ) -> BackendReport {
        self.run_classes_on(
            topo,
            matrices,
            &ForwardingState::with_class_weights(topo, weights),
        )
    }

    /// [`DesBackend::run_classes`] on **prebuilt** forwarding tables —
    /// the injection point for the partial-deployment hybrid DAGs
    /// ([`ForwardingState::with_deployment`]). Every flow must be
    /// deliverable under the tables (see
    /// [`Simulation::with_forwarding`]).
    pub fn run_classes_on(
        &self,
        topo: &Topology,
        matrices: &[&TrafficMatrix],
        fwd: &ForwardingState,
    ) -> BackendReport {
        let report = Simulation::with_forwarding(topo, matrices, fwd, self.cfg).run();
        let k = matrices.len();
        let m = topo.link_count();
        let mut class_loads = vec![vec![0.0; m]; k];
        let mut link_wait_s = vec![vec![0.0; m]; k];
        let mut link_wait_samples = vec![vec![0u64; m]; k];
        for i in 0..m {
            for c in 0..k {
                let cs = &report.link_stats[i].per_class[c];
                class_loads[c][i] = cs.bits / report.duration_s / 1e6;
                link_wait_s[c][i] = cs.wait.mean();
                link_wait_samples[c][i] = cs.wait.count;
            }
        }
        let pair_delays = report
            .pair_delays
            .iter()
            .filter(|(_, acc)| acc.count > 0)
            .map(|(key, acc)| (*key, acc.mean()))
            .collect();
        BackendReport {
            backend: "des",
            class_loads,
            link_wait_s,
            link_wait_samples,
            pair_delays,
            hot_pairs: BTreeSet::new(),
            packets: report.generated,
        }
    }
}

impl SimBackend for DesBackend {
    fn name(&self) -> &'static str {
        "des"
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
    use dtr_graph::{NodeId, TopologyBuilder, WeightVector};

    fn two_node_instance() -> (Topology, DemandSet, DualWeights) {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_duplex(NodeId(0), NodeId(1), 10.0, 0.001);
        let topo = b.build().unwrap();
        let mut high = TrafficMatrix::zeros(2);
        high.set(0, 1, 2.0);
        let mut low = TrafficMatrix::zeros(2);
        low.set(0, 1, 3.0);
        let w = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        (topo, DemandSet { high, low }, w)
    }

    #[test]
    fn des_backend_reports_loads_and_delays() {
        let (topo, demands, w) = two_node_instance();
        let des = DesBackend::budgeted(&demands, 20_000, 1);
        let r = des.run(&topo, &demands, &w);
        assert_eq!(r.backend, "des");
        assert!(r.packets > 10_000);
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        assert!((r.class_loads[0][link.index()] - 2.0).abs() < 0.3);
        assert!((r.class_loads[1][link.index()] - 3.0).abs() < 0.4);
        let dh = r.mean_class_delay(0, &demands.high).unwrap();
        // ≥ propagation + transmission.
        assert!(dh > 0.001, "high delay {dh}");
        assert!(r.mean_class_delay(1, &demands.low).unwrap() >= dh * 0.5);
    }

    #[test]
    fn k_class_des_agrees_with_k_class_fluid() {
        // Three classes on one bottleneck: the budgeted DES's measured
        // loads and waits track the fluid (Cobham) predictions.
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_duplex(NodeId(0), NodeId(1), 10.0, 0.001);
        let topo = b.build().unwrap();
        let mut mats = Vec::new();
        for mbps in [2.0, 3.0, 2.0] {
            let mut m = TrafficMatrix::zeros(2);
            m.set(0, 1, mbps);
            mats.push(m);
        }
        let refs: Vec<&TrafficMatrix> = mats.iter().collect();
        let w = WeightVector::uniform(&topo, 1);
        let weights = vec![w.clone(), w.clone(), w];
        let fluid = crate::FluidSim::new().run_classes(&topo, &refs, &weights);
        let des =
            DesBackend::budgeted_classes(&refs, 60_000, 5).run_classes(&topo, &refs, &weights);
        assert_eq!(fluid.classes(), 3);
        assert_eq!(des.classes(), 3);
        let link = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        for (c, mat) in mats.iter().enumerate() {
            let lf = fluid.class_loads[c][link.index()];
            let ld = des.class_loads[c][link.index()];
            assert!((lf - ld).abs() / lf < 0.15, "class {c} load {ld} vs {lf}");
            let df = fluid.mean_class_delay(c, mat).unwrap();
            let dd = des.mean_class_delay(c, mat).unwrap();
            assert!((df - dd).abs() / df < 0.25, "class {c} delay {dd} vs {df}");
        }
    }

    #[test]
    fn deployed_des_tracks_the_hybrid_fluid_loads() {
        use dtr_graph::gen::triangle_topology;
        use dtr_routing::DeploymentSet;
        let topo = triangle_topology(10.0);
        let wh = WeightVector::uniform(&topo, 1);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 30);
        let w = DualWeights { high: wh, low: wl };
        let mut high = TrafficMatrix::zeros(3);
        high.set(0, 2, 1.0);
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 2.0);
        let d = DemandSet { high, low };
        // Only A upgraded: loop-free, everything deliverable.
        let dep = DeploymentSet::from_upgraded(3, &[0]);
        let fwd = crate::ForwardingState::with_deployment(&topo, &w, &dep);
        let mats = [&d.high, &d.low];
        let fluid = crate::FluidSim::new().run_classes_on(&topo, &mats, &fwd);
        let des = DesBackend::budgeted(&d, 30_000, 7).run_classes_on(&topo, &mats, &fwd);
        for c in 0..2 {
            for (lid, _) in topo.links() {
                let f = fluid.class_loads[c][lid.index()];
                let m = des.class_loads[c][lid.index()];
                if f > 0.1 {
                    assert!(
                        (m - f).abs() / f < 0.15,
                        "class {c} link {lid:?}: {m} vs {f}"
                    );
                } else {
                    assert!(m < 0.1, "class {c} link {lid:?} should be idle, got {m}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "undeliverable")]
    fn des_rejects_undeliverable_flows_up_front() {
        use dtr_graph::gen::triangle_topology;
        use dtr_routing::DeploymentSet;
        // The cross-topology loop from the deploy module: high detours
        // A→C via B, low detours B→C via A, only B upgraded — low
        // traffic towards C ping-pongs between A and B forever.
        let topo = triangle_topology(10.0);
        let mut wh = WeightVector::uniform(&topo, 1);
        wh.set(topo.find_link(NodeId(0), NodeId(2)).unwrap(), 10);
        let mut wl = WeightVector::uniform(&topo, 1);
        wl.set(topo.find_link(NodeId(1), NodeId(2)).unwrap(), 10);
        let w = DualWeights { high: wh, low: wl };
        let mut low = TrafficMatrix::zeros(3);
        low.set(0, 2, 1.0);
        let d = DemandSet {
            high: TrafficMatrix::zeros(3),
            low,
        };
        let dep = DeploymentSet::from_upgraded(3, &[1]);
        let fwd = crate::ForwardingState::with_deployment(&topo, &w, &dep);
        let _ = Simulation::with_forwarding(&topo, &[&d.high, &d.low], &fwd, SimConfig::default());
    }

    #[test]
    fn budgeted_window_scales_inversely_with_volume() {
        let (_, demands, _) = two_node_instance();
        let a = DesBackend::budgeted(&demands, 10_000, 1);
        let b = DesBackend::budgeted(&demands.clone().scaled(2.0), 10_000, 1);
        assert!((a.cfg.duration_s / b.cfg.duration_s - 2.0).abs() < 1e-9);
    }
}
