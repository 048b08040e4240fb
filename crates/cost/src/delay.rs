//! Per-link delay model for the SLA objective (paper Eq. 3).
//!
//! The average delay seen by high-priority traffic on link `l` is
//!
//! ```text
//! D_l = (s / C_l) · (H_l / (C_l − H_l) + 1) + p_l
//!     ≈ (s / C_l) · (Φ_H,l / C_l + 1) + p_l
//! ```
//!
//! where `s` is the average packet size, `C_l` capacity, `H_l` the
//! high-priority load and `p_l` propagation delay. Following the paper
//! (and \[18\]), the M/M/1 occupancy term `H/(C−H)` is approximated by
//! `Φ(H, C)/C`, which remains finite at and above saturation.
//!
//! A link whose capacity is used up (a lower class's **residual**
//! capacity under the k-class cascade can be exactly zero) has no finite
//! M/M/1 delay: the class is starved there. The model caps the queueing
//! and transmission term at [`MAX_QUEUEING_DELAY_S`] instead, so every
//! delay is finite, a zero capacity costs exactly the cap, and the delay
//! never falls as the capacity shrinks (both terms only grow as `C_l`
//! falls, and the cap is the limit at `C_l → 0`). A pair crossing such a
//! link exceeds any SLA bound below the cap and pays Eq. 4's penalty on
//! it, proportional term included, rather than an infinite (or `0/0`)
//! cost.
//!
//! Units: capacities and loads in Mbit/s, delays in seconds, packet size in
//! bits. The paper does not state `s`; we use 1000-byte packets (8000
//! bits), which with 500 Mbit/s links makes the transmission term 16 µs —
//! small against 1.2–15 ms propagation delays except near overload,
//! matching the paper's observation in §5.2.2.

use crate::load::phi;
use serde::{Deserialize, Serialize};

/// Parameters of the Eq. 3 delay model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayParams {
    /// Average packet size in **bits** (default 8000 = 1000 bytes).
    pub packet_size_bits: f64,
}

impl Default for DelayParams {
    fn default() -> Self {
        DelayParams {
            packet_size_bits: 8000.0,
        }
    }
}

/// Ceiling on a link's queueing-plus-transmission delay, in seconds: the
/// delay of a link with no capacity left (see the module docs). A packet
/// held this long is as good as lost — it is TCP's minimum
/// retransmission timeout (RFC 6298).
pub const MAX_QUEUEING_DELAY_S: f64 = 1.0;

/// Average link delay in seconds for high-priority load `high_mbps` on a
/// link of `capacity_mbps` with propagation delay `prop_delay_s`; the
/// queueing and transmission term is capped at [`MAX_QUEUEING_DELAY_S`],
/// which a capacity of 0 costs outright.
#[inline]
pub fn link_delay(
    params: &DelayParams,
    high_mbps: f64,
    capacity_mbps: f64,
    prop_delay_s: f64,
) -> f64 {
    debug_assert!(capacity_mbps >= 0.0, "negative capacity {capacity_mbps}");
    let queued_s = if capacity_mbps > 0.0 {
        let service_s = params.packet_size_bits / (capacity_mbps * 1e6);
        let occupancy = phi(high_mbps, capacity_mbps) / capacity_mbps;
        (service_s * (occupancy + 1.0)).min(MAX_QUEUEING_DELAY_S)
    } else {
        MAX_QUEUEING_DELAY_S
    };
    queued_s + prop_delay_s
}

/// The exact M/M/1 version of Eq. 3 (left-hand expression), defined only
/// below saturation; used by tests and by the simulator cross-validation.
#[inline]
pub fn link_delay_mm1(
    params: &DelayParams,
    high_mbps: f64,
    capacity_mbps: f64,
    prop_delay_s: f64,
) -> f64 {
    debug_assert!(
        high_mbps < capacity_mbps,
        "M/M/1 delay undefined at/above saturation"
    );
    let service_s = params.packet_size_bits / (capacity_mbps * 1e6);
    service_s * (high_mbps / (capacity_mbps - high_mbps) + 1.0) + prop_delay_s
}

#[cfg(test)]
mod tests {
    use super::*;

    const C: f64 = 500.0;
    const P: f64 = 0.010; // 10 ms

    #[test]
    fn empty_link_is_propagation_plus_transmission() {
        let p = DelayParams::default();
        let d = link_delay(&p, 0.0, C, P);
        let service = 8000.0 / (C * 1e6);
        assert!((d - (P + service)).abs() < 1e-15);
    }

    #[test]
    fn delay_grows_with_load() {
        let p = DelayParams::default();
        let mut prev = 0.0;
        for i in 0..12 {
            let d = link_delay(&p, C * i as f64 / 10.0, C, P);
            assert!(d >= prev);
            prev = d;
        }
    }

    #[test]
    fn approximation_tracks_mm1_at_moderate_load() {
        // At u = 1/3 the Φ approximation gives occupancy 1/3 versus the
        // true 0.5; both are dominated by propagation delay.
        let p = DelayParams::default();
        let approx = link_delay(&p, C / 3.0, C, P);
        let exact = link_delay_mm1(&p, C / 3.0, C, P);
        assert!((approx - exact).abs() / exact < 0.01);
    }

    #[test]
    fn overload_remains_finite_and_large() {
        let p = DelayParams::default();
        let d = link_delay(&p, 1.2 * C, C, P);
        assert!(d.is_finite());
        // Occupancy term: Φ(1.2C, C)/C = 5000·1.2 − 16318/3 ≈ 560.7 —
        // service time inflates by ~560× ≈ 9 ms on top of propagation.
        assert!(d > P + 5e-3, "got {d}");
    }

    /// Shrinking the capacity to nothing raises the delay monotonically
    /// up to the cap, which zero capacity costs, loaded or not.
    #[test]
    fn zero_capacity_costs_the_cap() {
        let p = DelayParams::default();
        for load in [0.0, 0.3, 600.0] {
            assert_eq!(link_delay(&p, load, 0.0, P), MAX_QUEUEING_DELAY_S + P);
            let mut prev = 0.0;
            for c in [C, 10.0, 1.0, 1e-3, 1e-9, 1e-300, 0.0] {
                let d = link_delay(&p, load, c, P);
                assert!(d.is_finite() && d >= prev, "load {load}, capacity {c}: {d}");
                prev = d;
            }
        }
    }

    #[test]
    fn queueing_negligible_against_propagation_when_lightly_loaded() {
        // The paper argues (§5.2.2) the queueing term is nearly
        // insignificant vs propagation for lightly loaded links.
        let p = DelayParams::default();
        let d = link_delay(&p, 0.2 * C, C, 0.0012);
        assert!((d - 0.0012) / 0.0012 < 0.02);
    }
}
