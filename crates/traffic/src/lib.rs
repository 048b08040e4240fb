//! # dtr-traffic — traffic-matrix generation (paper §5.1.2)
//!
//! Two matrices drive every experiment:
//!
//! - **Low priority** `T_L` comes from a gravity model ([`gravity`]):
//!   node `s` originates a total volume `d_s` drawn from a three-level
//!   mixture (60 % low, 35 % medium, 5 % hot-spot), spread over
//!   destinations proportionally to `e^{V_t}` with node masses
//!   `V_t ~ U[1, 1.5]` (Eqs. 6–7).
//! - **High priority** `T_H` follows one of two patterns ([`highpri`]):
//!   the *random* model (a fraction `k` of SD pairs carries high-priority
//!   traffic) or the *sink* model (a few highest-degree nodes act as data
//!   centers exchanging traffic bidirectionally with client nodes, either
//!   `Uniform`ly spread or `Local` to the sinks). Volumes are coupled to
//!   the low-priority total so that high priority is a fraction `f` of all
//!   traffic: `r_H(s,t) = η_L · f/(1−f) · m(s,t)/Σm`, `m ~ U[1, 4]`.
//!
//! [`TrafficMatrix`] is a dense `|V|×|V|` array (demands are dense at the
//! 16–30 node scale of the paper); [`DemandSet`] bundles both classes and
//! supports uniform scaling, which is how the experiments sweep network
//! load.

pub mod families;
pub mod gravity;
pub mod highpri;
pub mod matrix;

pub use families::{
    family_demands, hotspot_matrix, skewed_gravity_matrix, stride_matrix, FamilyTrafficCfg,
    HotspotCfg, SkewedGravityCfg, StrideCfg, TrafficFamily,
};
pub use gravity::gravity_matrix;
pub use highpri::{random_highpri, sink_highpri, HighPriModel, SinkPattern};
pub use matrix::TrafficMatrix;

use dtr_graph::Topology;
use serde::{Deserialize, Serialize};

/// Configuration for a complete two-class demand set.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficCfg {
    /// Fraction `f ∈ (0, 1)` of total volume that is high priority
    /// (paper sweeps 20–40 %, default 30 %).
    pub f: f64,
    /// Density `k ∈ (0, 1]` of high-priority SD pairs (random model) or
    /// the equivalent pair budget (sink model). Default 10 %.
    pub k: f64,
    /// High-priority pattern.
    pub model: HighPriModel,
    /// RNG seed; all generation is deterministic given the seed.
    pub seed: u64,
}

impl Default for TrafficCfg {
    fn default() -> Self {
        TrafficCfg {
            f: 0.30,
            k: 0.10,
            model: HighPriModel::Random,
            seed: 1,
        }
    }
}

/// The two traffic matrices of one experiment instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DemandSet {
    /// High-priority demands `T_H`.
    pub high: TrafficMatrix,
    /// Low-priority demands `T_L`.
    pub low: TrafficMatrix,
}

impl DemandSet {
    /// Generates a demand set per §5.1.2 for `topo` under `cfg`: the
    /// [`TrafficFamily::Gravity`] instance of [`family_demands`].
    pub fn generate(topo: &Topology, cfg: &TrafficCfg) -> DemandSet {
        family_demands(
            topo,
            &FamilyTrafficCfg {
                family: TrafficFamily::Gravity,
                f: cfg.f,
                k: cfg.k,
                model: cfg.model,
                seed: cfg.seed,
            },
        )
    }

    /// Total volume of both classes.
    pub fn total_volume(&self) -> f64 {
        self.high.total() + self.low.total()
    }

    /// Achieved high-priority fraction `η_H / (η_H + η_L)`.
    pub fn high_fraction(&self) -> f64 {
        let h = self.high.total();
        h / (h + self.low.total())
    }

    /// Returns a copy with both matrices scaled by `gamma` — the
    /// mechanism the experiments use to sweep average link utilization
    /// ("the total traffic demand ... is varied by scaling the traffic
    /// matrix", §5.2).
    pub fn scaled(&self, gamma: f64) -> DemandSet {
        DemandSet {
            high: self.high.scaled(gamma),
            low: self.low.scaled(gamma),
        }
    }

    /// Number of SD pairs with strictly positive high-priority demand.
    pub fn high_pair_count(&self) -> usize {
        self.high.positive_pairs().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};

    fn topo() -> Topology {
        random_topology(&RandomTopologyCfg::default())
    }

    #[test]
    fn generate_respects_f() {
        let t = topo();
        let d = DemandSet::generate(&t, &TrafficCfg::default());
        assert!((d.high_fraction() - 0.30).abs() < 1e-9);
    }

    #[test]
    fn generate_respects_k_random_model() {
        let t = topo();
        let d = DemandSet::generate(&t, &TrafficCfg::default());
        let pairs = t.node_count() * (t.node_count() - 1);
        let expect = (0.10 * pairs as f64).round() as usize;
        assert_eq!(d.high_pair_count(), expect);
    }

    #[test]
    fn scaling_scales_everything_preserving_f() {
        let t = topo();
        let d = DemandSet::generate(&t, &TrafficCfg::default());
        let s = d.scaled(2.5);
        assert!((s.total_volume() - 2.5 * d.total_volume()).abs() < 1e-6);
        assert!((s.high_fraction() - d.high_fraction()).abs() < 1e-12);
    }

    #[test]
    fn deterministic_in_seed() {
        let t = topo();
        let a = DemandSet::generate(
            &t,
            &TrafficCfg {
                seed: 5,
                ..Default::default()
            },
        );
        let b = DemandSet::generate(
            &t,
            &TrafficCfg {
                seed: 5,
                ..Default::default()
            },
        );
        let c = DemandSet::generate(
            &t,
            &TrafficCfg {
                seed: 6,
                ..Default::default()
            },
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn sink_model_generates_demand() {
        let t = topo();
        let d = DemandSet::generate(
            &t,
            &TrafficCfg {
                model: HighPriModel::Sink {
                    sinks: 3,
                    pattern: SinkPattern::Uniform,
                },
                ..Default::default()
            },
        );
        assert!(d.high.total() > 0.0);
        assert!((d.high_fraction() - 0.30).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "f must be in (0,1)")]
    fn rejects_bad_f() {
        let t = topo();
        DemandSet::generate(
            &t,
            &TrafficCfg {
                f: 1.0,
                ..Default::default()
            },
        );
    }
}
