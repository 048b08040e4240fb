//! Structured traffic-matrix families beyond the paper's gravity model.
//!
//! The scenario corpus pairs the datacenter/expander topologies with the
//! demand shapes they are actually benchmarked under:
//!
//! - [`stride_matrix`] — the classic permutation workload: node `i`
//!   sends one flow to node `(i + stride) mod n`. Fully deterministic;
//!   the adversarial case for structured fabrics.
//! - [`hotspot_matrix`] — a handful of hot destination nodes attract a
//!   configurable share of every source's volume (incast-style storage
//!   or service tiers); the remainder spreads uniformly.
//! - [`skewed_gravity_matrix`] — the paper's gravity model with
//!   Zipf-distributed node masses instead of the narrow `U[1, 1.5]`
//!   band, producing the heavy-tailed popularity mix measured in ISP
//!   and CDN matrices.
//!
//! [`TrafficFamily`] names one low-priority family declaratively (the
//! form the scenario manifests store), and [`family_demands`] builds the
//! full two-class [`DemandSet`]: the family generates the low-priority
//! matrix and the paper's §5.1.2 coupling derives high-priority demands
//! from it, so every family gets the same high/low split semantics
//! (`f` volume fraction, `k` pair density, random or sink placement).

use crate::gravity::gravity_matrix;
use crate::highpri::{random_highpri, sink_highpri, HighPriModel};
use crate::matrix::TrafficMatrix;
use crate::DemandSet;
use dtr_graph::Topology;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Parameters for [`stride_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StrideCfg {
    /// Destination offset: node `i` sends to `(i + stride) mod n`.
    /// `stride mod n` must be non-zero.
    pub stride: usize,
    /// Per-flow volume (Mbit/s).
    pub volume: f64,
}

impl Default for StrideCfg {
    fn default() -> Self {
        StrideCfg {
            stride: 1,
            volume: 100.0,
        }
    }
}

/// Generates the stride-`s` permutation matrix: exactly `n` flows of
/// equal volume, node `i → (i + s) mod n`.
pub fn stride_matrix(n: usize, cfg: &StrideCfg) -> TrafficMatrix {
    assert!(n >= 2, "stride model needs at least two nodes");
    assert!(
        !cfg.stride.is_multiple_of(n),
        "stride ≡ 0 (mod n) would be self-traffic"
    );
    assert!(cfg.volume > 0.0, "volume must be positive");
    let mut m = TrafficMatrix::zeros(n);
    for s in 0..n {
        m.set(s, (s + cfg.stride) % n, cfg.volume);
    }
    m
}

/// Parameters for [`hotspot_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HotspotCfg {
    /// Number of hot destination nodes.
    pub hotspots: usize,
    /// Fraction of every source's volume sent to the hot set (split
    /// evenly among the hotspots); the rest spreads uniformly over all
    /// other destinations.
    pub hot_share: f64,
}

impl Default for HotspotCfg {
    fn default() -> Self {
        HotspotCfg {
            hotspots: 3,
            hot_share: 0.6,
        }
    }
}

/// Generates a hotspot matrix: origination volumes follow the paper's
/// three-level mixture (as in the gravity model); `hot_share` of each
/// row concentrates on `hotspots` randomly chosen destinations.
pub fn hotspot_matrix(n: usize, cfg: &HotspotCfg, seed: u64) -> TrafficMatrix {
    assert!(n >= 3, "hotspot model needs at least three nodes");
    assert!(
        cfg.hotspots >= 1 && cfg.hotspots < n,
        "need 1 ≤ hotspots < n"
    );
    assert!(
        (0.0..=1.0).contains(&cfg.hot_share),
        "hot_share must be in [0,1]"
    );
    // Decorrelated stream: the base gravity matrix consumes the seed's
    // stream itself, and reusing it here would couple which nodes are
    // hot to how much they originate.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(&mut rng);
    let hot: Vec<usize> = perm[..cfg.hotspots].to_vec();
    // Reuse the gravity mixture for row volumes so load levels stay
    // comparable across families.
    let base = gravity_matrix(n, seed);

    let mut m = TrafficMatrix::zeros(n);
    for s in 0..n {
        let d_s = base.row_total(s);
        let hot_others = hot.iter().filter(|&&h| h != s).count();
        let cold_others = (n - 1) - hot_others;
        // A hot source redistributes its hot share over the remaining
        // hotspots (or everywhere, if it is the only one).
        let (hot_part, cold_part) = if hot_others == 0 {
            (0.0, d_s)
        } else if cold_others == 0 {
            (d_s, 0.0)
        } else {
            (d_s * cfg.hot_share, d_s * (1.0 - cfg.hot_share))
        };
        for t in 0..n {
            if t == s {
                continue;
            }
            let v = if hot.contains(&t) {
                hot_part / hot_others as f64
            } else {
                cold_part / cold_others as f64
            };
            if v > 0.0 {
                m.set(s, t, v);
            }
        }
    }
    m
}

/// Parameters for [`skewed_gravity_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SkewedGravityCfg {
    /// Zipf exponent `α ≥ 0` of the node-mass distribution: the node of
    /// popularity rank `j` (1-based) has attraction weight `j^{−α}`.
    /// `α = 0` degenerates to uniform attraction; the web-traffic
    /// classic is `α ≈ 1`.
    pub alpha: f64,
}

impl Default for SkewedGravityCfg {
    fn default() -> Self {
        SkewedGravityCfg { alpha: 1.0 }
    }
}

/// Generates a gravity matrix with Zipf-skewed attraction: origination
/// volumes follow the paper's mixture, destinations attract
/// proportionally to `rank^{−α}` with ranks assigned by a seeded random
/// permutation.
pub fn skewed_gravity_matrix(n: usize, cfg: &SkewedGravityCfg, seed: u64) -> TrafficMatrix {
    assert!(n >= 2, "gravity model needs at least two nodes");
    assert!(
        cfg.alpha.is_finite() && cfg.alpha >= 0.0,
        "α must be finite and ≥ 0"
    );
    // Decorrelated stream, as in `hotspot_matrix`: popularity ranks
    // must not mirror the volume draws of the base gravity matrix.
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd1b5_4a32_d192_ed03);
    let mut rank: Vec<usize> = (0..n).collect();
    rank.shuffle(&mut rng);
    let mut weight = vec![0.0; n];
    for (j, &node) in rank.iter().enumerate() {
        weight[node] = ((j + 1) as f64).powf(-cfg.alpha);
    }
    let total_weight: f64 = weight.iter().sum();
    let base = gravity_matrix(n, seed);

    let mut m = TrafficMatrix::zeros(n);
    for s in 0..n {
        let d_s = base.row_total(s);
        let denom = total_weight - weight[s];
        for (t, &wt) in weight.iter().enumerate() {
            if s == t {
                continue;
            }
            m.set(s, t, d_s * wt / denom);
        }
    }
    m
}

/// A declarative low-priority matrix family, as stored by scenario
/// manifests.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TrafficFamily {
    /// The paper's gravity model (§5.1.2, Eqs. 6–7).
    Gravity,
    /// Zipf-skewed gravity ([`skewed_gravity_matrix`]).
    SkewedGravity {
        /// Zipf exponent of the attraction weights.
        alpha: f64,
    },
    /// Hot destination set ([`hotspot_matrix`]).
    Hotspot {
        /// Number of hot destinations.
        hotspots: usize,
        /// Row-volume fraction sent to the hot set.
        hot_share: f64,
    },
    /// Permutation workload ([`stride_matrix`]).
    Stride {
        /// Destination offset.
        stride: usize,
        /// Per-flow volume (Mbit/s).
        volume: f64,
    },
}

impl TrafficFamily {
    /// Short machine-readable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            TrafficFamily::Gravity => "gravity",
            TrafficFamily::SkewedGravity { .. } => "skewed-gravity",
            TrafficFamily::Hotspot { .. } => "hotspot",
            TrafficFamily::Stride { .. } => "stride",
        }
    }

    /// Builds the family's low-priority matrix for `n` nodes.
    pub fn low_matrix(&self, n: usize, seed: u64) -> TrafficMatrix {
        match *self {
            TrafficFamily::Gravity => gravity_matrix(n, seed),
            TrafficFamily::SkewedGravity { alpha } => {
                skewed_gravity_matrix(n, &SkewedGravityCfg { alpha }, seed)
            }
            TrafficFamily::Hotspot {
                hotspots,
                hot_share,
            } => hotspot_matrix(
                n,
                &HotspotCfg {
                    hotspots,
                    hot_share,
                },
                seed,
            ),
            TrafficFamily::Stride { stride, volume } => {
                stride_matrix(n, &StrideCfg { stride, volume })
            }
        }
    }
}

/// Configuration of a complete two-class demand set over any family.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FamilyTrafficCfg {
    /// Low-priority matrix family.
    pub family: TrafficFamily,
    /// High-priority volume fraction `f ∈ (0, 1)`.
    pub f: f64,
    /// High-priority SD-pair density `k ∈ (0, 1]`.
    pub k: f64,
    /// High-priority placement model.
    pub model: HighPriModel,
    /// RNG seed.
    pub seed: u64,
}

/// Builds the two-class demand set of one family instance: the family
/// generates `T_L` and the §5.1.2 coupling derives `T_H` from it, so
/// the achieved high-priority fraction is exactly `f` for every family.
pub fn family_demands(topo: &Topology, cfg: &FamilyTrafficCfg) -> DemandSet {
    assert!(cfg.f > 0.0 && cfg.f < 1.0, "f must be in (0,1)");
    assert!(cfg.k > 0.0 && cfg.k <= 1.0, "k must be in (0,1]");
    let low = cfg.family.low_matrix(topo.node_count(), cfg.seed);
    let hseed = cfg.seed ^ 0x9e3779b97f4a7c15;
    let high = match cfg.model {
        HighPriModel::Random => random_highpri(&low, cfg.f, cfg.k, hseed),
        HighPriModel::Sink { sinks, pattern } => {
            sink_highpri(topo, &low, cfg.f, cfg.k, sinks, pattern, hseed)
        }
    };
    DemandSet { high, low }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::highpri::SinkPattern;
    use dtr_graph::gen::{random_topology, RandomTopologyCfg};

    #[test]
    fn stride_is_a_permutation() {
        let m = stride_matrix(8, &StrideCfg::default());
        assert_eq!(m.positive_pairs().len(), 8);
        for s in 0..8 {
            assert_eq!(m.get(s, (s + 1) % 8), 100.0);
            assert!((m.row_total(s) - 100.0).abs() < 1e-12);
            assert!((m.col_total(s) - 100.0).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "self-traffic")]
    fn stride_rejects_wraparound_identity() {
        stride_matrix(
            6,
            &StrideCfg {
                stride: 12,
                volume: 1.0,
            },
        );
    }

    #[test]
    fn hotspots_attract_the_configured_share() {
        let cfg = HotspotCfg {
            hotspots: 2,
            hot_share: 0.7,
        };
        let m = hotspot_matrix(20, &cfg, 5);
        // Identify the hot set as the two largest column totals.
        let mut cols: Vec<(f64, usize)> = (0..20).map(|t| (m.col_total(t), t)).collect();
        cols.sort_by(|a, b| b.0.total_cmp(&a.0));
        let hot_total: f64 = cols[..2].iter().map(|&(c, _)| c).sum();
        let share = hot_total / m.total();
        assert!(
            (share - 0.7).abs() < 0.02,
            "hot share {share} far from configured 0.7"
        );
    }

    #[test]
    fn hotspot_rows_keep_gravity_volumes() {
        let m = hotspot_matrix(20, &HotspotCfg::default(), 5);
        for s in 0..20 {
            let d = m.row_total(s);
            let in_band = (10.0..=50.0).contains(&d)
                || (80.0..=130.0).contains(&d)
                || (150.0..=200.0).contains(&d);
            assert!(in_band, "row {s} sums to {d}, outside all mixture bands");
        }
    }

    #[test]
    fn skewed_gravity_is_heavier_tailed_than_gravity() {
        let skew = skewed_gravity_matrix(30, &SkewedGravityCfg { alpha: 1.2 }, 7);
        let base = gravity_matrix(30, 7);
        let spread = |m: &TrafficMatrix| {
            let cols: Vec<f64> = (0..30).map(|t| m.col_total(t)).collect();
            let max = cols.iter().cloned().fold(f64::MIN, f64::max);
            let min = cols.iter().cloned().fold(f64::MAX, f64::min);
            max / min
        };
        assert!(
            spread(&skew) > 3.0 * spread(&base),
            "zipf columns should dominate: {} vs {}",
            spread(&skew),
            spread(&base)
        );
    }

    #[test]
    fn zero_alpha_degenerates_to_uniform_attraction() {
        let m = skewed_gravity_matrix(10, &SkewedGravityCfg { alpha: 0.0 }, 3);
        for s in 0..10 {
            let row: Vec<f64> = (0..10).filter(|&t| t != s).map(|t| m.get(s, t)).collect();
            for v in &row {
                assert!((v - row[0]).abs() < 1e-12, "row {s} not uniform");
            }
        }
    }

    #[test]
    fn family_demands_hit_f_for_every_family() {
        let topo = random_topology(&RandomTopologyCfg::default());
        for family in [
            TrafficFamily::Gravity,
            TrafficFamily::SkewedGravity { alpha: 1.0 },
            TrafficFamily::Hotspot {
                hotspots: 3,
                hot_share: 0.5,
            },
            TrafficFamily::Stride {
                stride: 7,
                volume: 50.0,
            },
        ] {
            let d = family_demands(
                &topo,
                &FamilyTrafficCfg {
                    family,
                    f: 0.3,
                    k: 0.1,
                    model: HighPriModel::Random,
                    seed: 4,
                },
            );
            assert!(
                (d.high_fraction() - 0.3).abs() < 1e-9,
                "{}: f missed",
                family.name()
            );
            assert!(d.low.total() > 0.0);
        }
    }

    #[test]
    fn family_demands_support_sink_model() {
        let topo = random_topology(&RandomTopologyCfg::default());
        let d = family_demands(
            &topo,
            &FamilyTrafficCfg {
                family: TrafficFamily::Hotspot {
                    hotspots: 2,
                    hot_share: 0.6,
                },
                f: 0.25,
                k: 0.1,
                model: HighPriModel::Sink {
                    sinks: 3,
                    pattern: SinkPattern::Uniform,
                },
                seed: 9,
            },
        );
        assert!((d.high_fraction() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn families_are_deterministic_in_seed() {
        for family in [
            TrafficFamily::SkewedGravity { alpha: 0.8 },
            TrafficFamily::Hotspot {
                hotspots: 2,
                hot_share: 0.5,
            },
        ] {
            let a = family.low_matrix(15, 11);
            let b = family.low_matrix(15, 11);
            let c = family.low_matrix(15, 12);
            assert_eq!(a, b);
            assert_ne!(a, c);
        }
    }
}
