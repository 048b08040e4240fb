//! k-class demand sets.
//!
//! Generation generalizes §5.1.2: the lowest class carries a base
//! matrix (gravity by default, any traffic family's low matrix through
//! [`MultiDemand::coupled`]), and every higher class `i` is a
//! random-pair matrix whose
//! volume is a configured fraction `f_i` of the total, with per-pair
//! multipliers `m ~ U[1, 4]` — the same coupling rule as the paper's
//! high-priority generator, applied per class.

use dtr_graph::Topology;
use dtr_traffic::{gravity_matrix, random_highpri, TrafficMatrix};
use serde::{Deserialize, Serialize};

/// Configuration for a k-class demand set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiTrafficCfg {
    /// Volume fraction per **priority class above the base**, highest
    /// first; must sum to < 1. The base (lowest) class receives the
    /// remainder. `vec![0.3]` reproduces the paper's `f = 30 %`.
    pub fractions: Vec<f64>,
    /// SD-pair density per priority class (aligned with `fractions`).
    pub densities: Vec<f64>,
    /// RNG seed.
    pub seed: u64,
}

impl MultiTrafficCfg {
    /// Total number of classes (priority classes + the base class).
    pub fn class_count(&self) -> usize {
        self.fractions.len() + 1
    }
}

/// Demands for `k` strictly ordered classes; index 0 is the highest
/// priority, the last entry the base class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiDemand {
    /// Per-class matrices, highest priority first.
    pub classes: Vec<TrafficMatrix>,
}

impl MultiDemand {
    /// Generates a k-class demand set for `topo` over the gravity base.
    pub fn generate(topo: &Topology, cfg: &MultiTrafficCfg) -> MultiDemand {
        let base = gravity_matrix(topo.node_count(), cfg.seed);
        Self::coupled(base, cfg)
    }

    /// Couples `cfg`'s priority classes to the given `base` (lowest)
    /// class matrix.
    pub fn coupled(base: TrafficMatrix, cfg: &MultiTrafficCfg) -> MultiDemand {
        assert_eq!(
            cfg.fractions.len(),
            cfg.densities.len(),
            "fractions and densities must align"
        );
        let fsum: f64 = cfg.fractions.iter().sum();
        assert!(
            cfg.fractions.iter().all(|&f| f > 0.0) && fsum < 1.0,
            "priority fractions must be positive and sum below 1"
        );
        // `random_highpri(low, f, k, seed)` produces volume f/(1−f)·η_low.
        // To make class i's share of the *grand* total equal fᵢ with the
        // base at 1 − Σf, generate against the base with the adjusted
        // fraction fᵢ' = fᵢ / (fᵢ + base_share).
        let base_share = 1.0 - fsum;
        let mut classes = Vec::with_capacity(cfg.class_count());
        for (i, (&f, &k)) in cfg.fractions.iter().zip(&cfg.densities).enumerate() {
            let f_adj = f / (f + base_share);
            classes.push(random_highpri(
                &base,
                f_adj,
                k,
                cfg.seed ^ (0x9e3779b97f4a7c15u64.rotate_left(i as u32 + 1)),
            ));
        }
        classes.push(base);
        MultiDemand { classes }
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Total volume across classes.
    pub fn total_volume(&self) -> f64 {
        self.classes.iter().map(|m| m.total()).sum()
    }

    /// Volume share of class `i`.
    pub fn fraction(&self, i: usize) -> f64 {
        self.classes[i].total() / self.total_volume()
    }

    /// Uniformly scaled copy.
    pub fn scaled(&self, gamma: f64) -> MultiDemand {
        MultiDemand {
            classes: self.classes.iter().map(|m| m.scaled(gamma)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};

    fn topo() -> Topology {
        random_topology(&RandomTopologyCfg {
            nodes: 12,
            directed_links: 48,
            seed: 1,
        })
    }

    #[test]
    fn fractions_are_respected() {
        let t = topo();
        let d = MultiDemand::generate(
            &t,
            &MultiTrafficCfg {
                fractions: vec![0.2, 0.3],
                densities: vec![0.1, 0.2],
                seed: 5,
            },
        );
        assert_eq!(d.class_count(), 3);
        assert!((d.fraction(0) - 0.2).abs() < 1e-9, "got {}", d.fraction(0));
        assert!((d.fraction(1) - 0.3).abs() < 1e-9, "got {}", d.fraction(1));
        assert!((d.fraction(2) - 0.5).abs() < 1e-9, "got {}", d.fraction(2));
    }

    #[test]
    fn two_class_case_matches_paper_coupling() {
        let t = topo();
        let d = MultiDemand::generate(
            &t,
            &MultiTrafficCfg {
                fractions: vec![0.3],
                densities: vec![0.1],
                seed: 7,
            },
        );
        assert_eq!(d.class_count(), 2);
        assert!((d.fraction(0) - 0.3).abs() < 1e-9);
    }

    #[test]
    fn scaling_preserves_fractions() {
        let t = topo();
        let d = MultiDemand::generate(
            &t,
            &MultiTrafficCfg {
                fractions: vec![0.25],
                densities: vec![0.15],
                seed: 2,
            },
        );
        let s = d.scaled(4.0);
        assert!((s.total_volume() - 4.0 * d.total_volume()).abs() < 1e-6);
        assert!((s.fraction(0) - d.fraction(0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sum below 1")]
    fn rejects_overfull_fractions() {
        let t = topo();
        MultiDemand::generate(
            &t,
            &MultiTrafficCfg {
                fractions: vec![0.6, 0.5],
                densities: vec![0.1, 0.1],
                seed: 1,
            },
        );
    }
}
