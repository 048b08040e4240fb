//! The gravity model for low-priority traffic (paper Eqs. 6–7).
//!
//! Node `s` originates a total volume `d_s`; destination `t` attracts a
//! share proportional to `e^{V_t}` where the mass `V_t ~ U[1, 1.5]`:
//!
//! ```text
//! r_L(s, t) = d_s · e^{V_t} / Σ_{i ∈ V \ {s}} e^{V_i}
//! ```
//!
//! The origination volumes follow the paper's three-level mixture,
//! emulating hot spots:
//!
//! ```text
//! d_s = U(10, 50)    with prob. 0.60   (low)
//!     = U(80, 130)   with prob. 0.35   (medium)
//!     = U(150, 200)  with prob. 0.05   (hot spot)
//! ```

use crate::matrix::TrafficMatrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `(low, high, probability)` rows of the paper's `d_s` mixture.
const VOLUME_LEVELS: [(f64, f64, f64); 3] = [
    (10.0, 50.0, 0.60),
    (80.0, 130.0, 0.35),
    (150.0, 200.0, 0.05),
];

/// The paper's node-mass range for `V_t`.
const MASS_RANGE: (f64, f64) = (1.0, 1.5);

/// Draws one `d_s` from the mixture.
fn draw_volume(rng: &mut StdRng) -> f64 {
    let u: f64 = rng.random_range(0.0..1.0);
    let mut acc = 0.0;
    for &(lo, hi, p) in &VOLUME_LEVELS {
        acc += p;
        if u < acc {
            return rng.random_range(lo..=hi);
        }
    }
    // Floating-point slack: fall into the last level.
    let (lo, hi, _) = VOLUME_LEVELS[2];
    rng.random_range(lo..=hi)
}

/// Generates the low-priority gravity matrix for `n` nodes.
pub fn gravity_matrix(n: usize, seed: u64) -> TrafficMatrix {
    assert!(n >= 2, "gravity model needs at least two nodes");
    let mut rng = StdRng::seed_from_u64(seed);
    let masses: Vec<f64> = (0..n)
        .map(|_| rng.random_range(MASS_RANGE.0..=MASS_RANGE.1))
        .collect();
    let weights: Vec<f64> = masses.iter().map(|&v| v.exp()).collect();
    let total_weight: f64 = weights.iter().sum();
    let volumes: Vec<f64> = (0..n).map(|_| draw_volume(&mut rng)).collect();

    let mut m = TrafficMatrix::zeros(n);
    for s in 0..n {
        let denom = total_weight - weights[s];
        for (t, wt) in weights.iter().enumerate() {
            if s == t {
                continue;
            }
            m.set(s, t, volumes[s] * wt / denom);
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixture_probabilities_sum_to_one_and_bands_ascend() {
        let psum: f64 = VOLUME_LEVELS.iter().map(|&(_, _, p)| p).sum();
        assert!((psum - 1.0).abs() < 1e-9, "probabilities sum to {psum}");
        for pair in VOLUME_LEVELS.windows(2) {
            let ((lo, hi, _), (next_lo, next_hi, _)) = (pair[0], pair[1]);
            assert!(lo < hi && hi < next_lo && next_lo < next_hi, "{pair:?}");
        }
    }

    #[test]
    fn row_sums_equal_origination_volume() {
        // Eq. 6 normalizes over V\{s}, so each row sums to d_s exactly,
        // and every d_s lies in one of the three mixture bands.
        let m = gravity_matrix(30, 7);
        for s in 0..30 {
            let d = m.row_total(s);
            let in_band = (10.0..=50.0).contains(&d)
                || (80.0..=130.0).contains(&d)
                || (150.0..=200.0).contains(&d);
            assert!(in_band, "row {s} sums to {d}, outside all bands");
        }
    }

    #[test]
    fn all_off_diagonal_positive() {
        let m = gravity_matrix(10, 3);
        for s in 0..10 {
            for t in 0..10 {
                if s == t {
                    assert_eq!(m.get(s, t), 0.0);
                } else {
                    assert!(m.get(s, t) > 0.0);
                }
            }
        }
    }

    #[test]
    fn hot_spots_emerge_at_scale() {
        // With 200 nodes the 5% hot-spot band should be populated.
        let m = gravity_matrix(200, 11);
        let hot = (0..200).filter(|&s| m.row_total(s) >= 150.0).count();
        assert!(hot >= 2, "expected a few hot spots, got {hot}");
        let low = (0..200).filter(|&s| m.row_total(s) <= 50.0).count();
        assert!(low > 80, "expected the low band to dominate, got {low}");
    }

    #[test]
    fn deterministic_in_seed() {
        let a = gravity_matrix(12, 42);
        let b = gravity_matrix(12, 42);
        assert_eq!(a, b);
    }

    #[test]
    fn heavier_masses_attract_more() {
        // Compare column totals against masses: the heaviest-mass node
        // must attract more than the lightest.
        let m = gravity_matrix(40, 9);
        let cols: Vec<f64> = (0..40).map(|t| m.col_total(t)).collect();
        let max = cols.iter().cloned().fold(f64::MIN, f64::max);
        let min = cols.iter().cloned().fold(f64::MAX, f64::min);
        // e^{1.5}/e^{1.0} ≈ 1.65 bounds the ideal ratio; randomness in d_s
        // adds variance, so only require a clear spread.
        assert!(max / min > 1.2, "max {max} min {min}");
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_tiny_networks() {
        gravity_matrix(1, 1);
    }
}
