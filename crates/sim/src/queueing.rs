//! Exact queueing theory for the two-priority link (Cobham's formulas).
//!
//! The paper models each class's per-link delay with *single-class*
//! M/M/1 surrogates: the high class sees the full capacity `C` (Eq. 3)
//! and the low class an M/M/1 queue over the residual capacity
//! `C̃ = C − H` (§3.1). The exact model of the §3 link — one
//! non-preemptive server, high queue always served first — is the
//! two-class priority M/M/1, whose mean waits are Cobham's classic
//! formulas:
//!
//! ```text
//! W₀ = Σ_i λ_i·E[S_i²]/2          (mean residual work at arrival)
//! W_H = W₀ / (1 − ρ_H)
//! W_L = W₀ / ((1 − ρ_H)(1 − ρ_H − ρ_L))
//! ```
//!
//! This module provides both the exact formulas and the paper's
//! surrogates so the gap can be quantified (and is, in the tests and the
//! `validate_model` example): the residual-capacity surrogate coincides
//! with the exact low-class delay when `ρ_H = 0` and *underestimates* it
//! otherwise — it accounts for the stolen bandwidth but not for waits
//! behind queued high-priority bursts. The discrete-event engine
//! ([`crate::Simulation`]) closes the loop by reproducing the exact
//! formulas empirically.
//!
//! Units follow the rest of the workspace: capacities and loads in
//! Mbit/s, packet sizes in bits, times in seconds.

use serde::{Deserialize, Serialize};

/// A two-priority link's static parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PriorityLink {
    /// Link capacity in Mbit/s.
    pub capacity_mbps: f64,
    /// Mean packet size in bits.
    pub mean_packet_bits: f64,
    /// `false` → exponential packet sizes (M/M/1), `true` → constant
    /// (M/D/1). Affects only the residual-work term `W₀`.
    pub deterministic: bool,
}

impl PriorityLink {
    /// Mean service (transmission) time in seconds.
    pub fn service_s(&self) -> f64 {
        self.mean_packet_bits / (self.capacity_mbps * 1e6)
    }
}

/// Mean delays of one class at one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClassDelays {
    /// Mean queueing wait (seconds); infinite when the class is unstable.
    pub wait_s: f64,
    /// Mean sojourn = wait + transmission (seconds).
    pub sojourn_s: f64,
    /// Offered utilization of this class (`ρ_i`).
    pub rho: f64,
}

/// Exact mean delays of the non-preemptive two-priority queue under
/// Poisson arrivals (Cobham). `high_mbps`/`low_mbps` are the offered bit
/// rates. Unstable classes report infinite waits: the high class is
/// unstable when `ρ_H ≥ 1`, the low class when `ρ_H + ρ_L ≥ 1`.
pub fn cobham(link: &PriorityLink, high_mbps: f64, low_mbps: f64) -> (ClassDelays, ClassDelays) {
    assert!(link.capacity_mbps > 0.0, "capacity must be positive");
    assert!(link.mean_packet_bits > 0.0, "packet size must be positive");
    assert!(high_mbps >= 0.0 && low_mbps >= 0.0, "loads must be ≥ 0");
    let es = link.service_s();
    let rho_h = high_mbps / link.capacity_mbps;
    let rho_l = low_mbps / link.capacity_mbps;
    let rho = rho_h + rho_l;

    // W₀ = Σ λ_i E[S²]/2: exponential E[S²] = 2E[S]², deterministic E[S]².
    let w0 = if link.deterministic {
        rho * es / 2.0
    } else {
        rho * es
    };

    let w_h = if rho_h < 1.0 {
        w0 / (1.0 - rho_h)
    } else {
        f64::INFINITY
    };
    let w_l = if rho_h < 1.0 && rho < 1.0 {
        w0 / ((1.0 - rho_h) * (1.0 - rho))
    } else {
        f64::INFINITY
    };

    (
        ClassDelays {
            wait_s: w_h,
            sojourn_s: w_h + es,
            rho: rho_h,
        },
        ClassDelays {
            wait_s: w_l,
            sojourn_s: w_l + es,
            rho: rho_l,
        },
    )
}

/// Cobham's formulas for **k** non-preemptive priority classes at one
/// link: `loads_mbps[c]` is the offered bit rate of priority `c`
/// (0 = served first), and class `c`'s mean wait is
///
/// ```text
/// W_c = W₀ / ((1 − σ_{c−1})(1 − σ_c)),   σ_c = Σ_{j ≤ c} ρ_j
/// ```
///
/// with `σ_{−1} = 0`. A class is unstable (infinite wait) as soon as
/// `σ_c ≥ 1`. With two classes this is **bit-identical** to [`cobham`]
/// — `W₀` sums the same ρ sequence, and `(1 − 0)·x == x` exactly — so
/// the k-class fluid backend degenerates to the two-class one without a
/// tolerance.
pub fn cobham_k(link: &PriorityLink, loads_mbps: &[f64]) -> Vec<ClassDelays> {
    assert!(link.capacity_mbps > 0.0, "capacity must be positive");
    assert!(link.mean_packet_bits > 0.0, "packet size must be positive");
    assert!(!loads_mbps.is_empty(), "need at least one class");
    let es = link.service_s();
    let rhos: Vec<f64> = loads_mbps
        .iter()
        .map(|&l| {
            assert!(l >= 0.0, "loads must be ≥ 0");
            l / link.capacity_mbps
        })
        .collect();
    // W₀ over ALL classes: a non-preemptive arrival can find any
    // class's packet in service, lower priorities included.
    let mut total = 0.0;
    for &r in &rhos {
        total += r;
    }
    let w0 = if link.deterministic {
        total * es / 2.0
    } else {
        total * es
    };

    let mut sigma = 0.0;
    rhos.iter()
        .map(|&rho_c| {
            let above = sigma; // σ_{c−1}
            sigma += rho_c; // σ_c
            let wait_s = if above < 1.0 && sigma < 1.0 {
                w0 / ((1.0 - above) * (1.0 - sigma))
            } else {
                f64::INFINITY
            };
            ClassDelays {
                wait_s,
                sojourn_s: wait_s + es,
                rho: rho_c,
            }
        })
        .collect()
}

/// Plain M/M/1 mean sojourn time `E[S]/(1 − ρ)` (seconds); infinite at
/// `ρ ≥ 1`. This is what the paper's Eq. 3 computes for the high class:
/// `s/C·(H/(C−H) + 1) = E[S]/(1 − ρ_H)`.
pub fn mm1_sojourn(capacity_mbps: f64, load_mbps: f64, mean_packet_bits: f64) -> f64 {
    assert!(capacity_mbps > 0.0 && mean_packet_bits > 0.0);
    assert!(load_mbps >= 0.0);
    let rho = load_mbps / capacity_mbps;
    if rho >= 1.0 {
        return f64::INFINITY;
    }
    (mean_packet_bits / (capacity_mbps * 1e6)) / (1.0 - rho)
}

/// The paper's **high-class** surrogate (Eq. 3 without propagation):
/// an M/M/1 queue at full capacity, low class invisible.
pub fn paper_high_sojourn(link: &PriorityLink, high_mbps: f64) -> f64 {
    mm1_sojourn(link.capacity_mbps, high_mbps, link.mean_packet_bits)
}

/// The paper's **low-class** surrogate (§3.1): an M/M/1 queue over the
/// residual capacity `C̃ = max(C − H, 0)`. Infinite when the residual is
/// exhausted.
pub fn residual_low_sojourn(link: &PriorityLink, high_mbps: f64, low_mbps: f64) -> f64 {
    let residual = (link.capacity_mbps - high_mbps).max(0.0);
    if residual <= 0.0 {
        return f64::INFINITY;
    }
    mm1_sojourn(residual, low_mbps, link.mean_packet_bits)
}

/// Relative error of the paper's low-class surrogate against the exact
/// Cobham sojourn, `(exact − approx)/exact ∈ [0, 1)` for stable loads
/// (the surrogate never overestimates — see the module docs). Returns 0
/// when both are infinite.
pub fn residual_approx_error(link: &PriorityLink, high_mbps: f64, low_mbps: f64) -> f64 {
    let exact = cobham(link, high_mbps, low_mbps).1.sojourn_s;
    let approx = residual_low_sojourn(link, high_mbps, low_mbps);
    if exact.is_infinite() && approx.is_infinite() {
        return 0.0;
    }
    (exact - approx) / exact
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{SimConfig, Simulation};
    use dtr_graph::topology::TopologyBuilder;
    use dtr_graph::weights::DualWeights;
    use dtr_graph::{NodeId, WeightVector};
    use dtr_traffic::{DemandSet, TrafficMatrix};

    fn link_10mbps() -> PriorityLink {
        PriorityLink {
            capacity_mbps: 10.0,
            mean_packet_bits: 8000.0,
            deterministic: false,
        }
    }

    #[test]
    fn cobham_hand_computed_point() {
        // ρ_H = ρ_L = 0.3, E[S] = 0.8 ms: W₀ = 0.6·0.8 ms = 0.48 ms;
        // W_H = 0.48/0.7; W_L = 0.48/(0.7·0.4).
        let l = link_10mbps();
        let (h, lo) = cobham(&l, 3.0, 3.0);
        assert!((l.service_s() - 0.0008).abs() < 1e-12);
        assert!((h.wait_s - 0.00048 / 0.7).abs() < 1e-9, "{}", h.wait_s);
        assert!((lo.wait_s - 0.00048 / 0.28).abs() < 1e-9, "{}", lo.wait_s);
        assert!((h.sojourn_s - (h.wait_s + 0.0008)).abs() < 1e-15);
        assert!((h.rho - 0.3).abs() < 1e-12);
        assert!((lo.rho - 0.3).abs() < 1e-12);
    }

    #[test]
    fn high_always_waits_less_than_low() {
        let l = link_10mbps();
        for (h, lo) in [(1.0, 1.0), (3.0, 4.0), (5.0, 4.0), (0.5, 8.0)] {
            let (dh, dl) = cobham(&l, h, lo);
            assert!(dh.wait_s < dl.wait_s, "h={h} l={lo}");
        }
    }

    #[test]
    fn near_saturation_blowup_is_finite_and_monotone() {
        // ρ → 1 from below: waits blow up but must stay finite, and
        // must be strictly monotone in the load all the way up — the
        // validation harness leans on this when it classifies
        // near-saturated links.
        let l = link_10mbps();
        let mut prev_h = 0.0;
        let mut prev_l = 0.0;
        for rho in [0.9, 0.99, 0.999, 0.9999, 0.999999] {
            let (h, lo) = cobham(&l, 5.0, rho * 10.0 - 5.0);
            assert!(
                h.wait_s.is_finite() && lo.wait_s.is_finite(),
                "ρ={rho}: finite below saturation"
            );
            assert!(h.wait_s > prev_h && lo.wait_s > prev_l, "ρ={rho}: monotone");
            prev_h = h.wait_s;
            prev_l = lo.wait_s;
        }
        // Exactly at ρ = 1 the low class diverges; the high class (at
        // ρ_H = 0.5) stays finite.
        let (h, lo) = cobham(&l, 5.0, 5.0);
        assert!(h.wait_s.is_finite());
        assert!(lo.wait_s.is_infinite());
        // And the low-class wait just below saturation exceeds any
        // moderate-load wait by orders of magnitude.
        assert!(prev_l > 1e3 * cobham(&l, 3.0, 3.0).1.wait_s);
    }

    #[test]
    fn zero_demand_class_degenerates_to_single_class_queue() {
        let l = link_10mbps();
        // No high traffic: the low class sees a plain M/M/1 —
        // W = ρE[S]/(1−ρ) — and the idle high class still pays the
        // residual of low packets in service (PASTA): W_H = ρ_L·E[S].
        let (h, lo) = cobham(&l, 0.0, 4.0);
        let es = l.service_s();
        assert!((lo.wait_s - 0.4 * es / 0.6).abs() < 1e-15, "{}", lo.wait_s);
        assert!((h.wait_s - 0.4 * es).abs() < 1e-15, "{}", h.wait_s);
        assert_eq!(h.rho, 0.0);
        // No low traffic: the high class is the whole M/M/1 queue —
        // W_H = ρE[S]/(1−ρ) — while a (hypothetical) low arrival would
        // still pay the extra 1/(1−ρ) factor for high packets that
        // arrive during its wait.
        let (h2, lo2) = cobham(&l, 4.0, 0.0);
        assert!((h2.wait_s - 0.4 * es / 0.6).abs() < 1e-15);
        assert!(
            (lo2.wait_s - 0.4 * es / 0.36).abs() < 1e-15,
            "{}",
            lo2.wait_s
        );
        assert_eq!(lo2.rho, 0.0);
    }

    #[test]
    fn deterministic_variant_halves_w0_across_the_load_range() {
        // W₀(M/D/1) = W₀(M/M/1)/2 exactly — for BOTH classes, at every
        // stable operating point, because the packet-size model enters
        // Cobham's formulas only through the residual-work term.
        let exp = link_10mbps();
        let det = PriorityLink {
            deterministic: true,
            ..exp
        };
        for (h, lo) in [(0.5, 0.5), (2.0, 6.0), (6.0, 2.0), (4.5, 4.5), (0.0, 9.0)] {
            let (he, le) = cobham(&exp, h, lo);
            let (hd, ld) = cobham(&det, h, lo);
            assert!((hd.wait_s - he.wait_s / 2.0).abs() < 1e-12, "h={h} l={lo}");
            assert!((ld.wait_s - le.wait_s / 2.0).abs() < 1e-12, "h={h} l={lo}");
            // Sojourns differ by the same E[S], so the ratio does NOT
            // hold for sojourns — guard against that misreading.
            assert!((hd.sojourn_s - (hd.wait_s + exp.service_s())).abs() < 1e-15);
        }
        // Instability classification ignores the size model entirely.
        assert!(cobham(&det, 11.0, 0.0).0.wait_s.is_infinite());
        assert!(cobham(&det, 4.0, 7.0).1.wait_s.is_infinite());
    }

    #[test]
    fn cobham_k_two_classes_bit_identical_to_cobham() {
        for link in [
            link_10mbps(),
            PriorityLink {
                deterministic: true,
                ..link_10mbps()
            },
        ] {
            for (h, lo) in [
                (0.0, 0.0),
                (3.0, 3.0),
                (0.0, 4.0),
                (4.0, 0.0),
                (5.0, 4.999),
                (4.0, 7.0),  // low unstable
                (11.0, 1.0), // both unstable
            ] {
                let (eh, el) = cobham(&link, h, lo);
                let k = cobham_k(&link, &[h, lo]);
                assert_eq!(k.len(), 2);
                // Bitwise, not approximate: total_cmp on every field.
                assert_eq!(k[0].wait_s.total_cmp(&eh.wait_s), std::cmp::Ordering::Equal);
                assert_eq!(
                    k[0].sojourn_s.total_cmp(&eh.sojourn_s),
                    std::cmp::Ordering::Equal
                );
                assert_eq!(k[0].rho.to_bits(), eh.rho.to_bits());
                assert_eq!(k[1].wait_s.total_cmp(&el.wait_s), std::cmp::Ordering::Equal);
                assert_eq!(
                    k[1].sojourn_s.total_cmp(&el.sojourn_s),
                    std::cmp::Ordering::Equal
                );
                assert_eq!(k[1].rho.to_bits(), el.rho.to_bits());
            }
        }
    }

    #[test]
    fn cobham_k_three_classes_hand_computed() {
        // ρ = (0.2, 0.3, 0.3), E[S] = 0.8 ms: W₀ = 0.8·0.8 ms = 0.64 ms.
        // W₀' = W₀/((1−0)(1−0.2)), W₁ = W₀/((1−0.2)(1−0.5)),
        // W₂ = W₀/((1−0.5)(1−0.8)).
        let l = link_10mbps();
        let k = cobham_k(&l, &[2.0, 3.0, 3.0]);
        let w0 = 0.8 * 0.0008;
        assert!((k[0].wait_s - w0 / 0.8).abs() < 1e-12, "{}", k[0].wait_s);
        assert!((k[1].wait_s - w0 / (0.8 * 0.5)).abs() < 1e-12);
        assert!((k[2].wait_s - w0 / (0.5 * 0.2)).abs() < 1e-12);
        // Waits are monotone in priority, sojourns add one E[S].
        assert!(k[0].wait_s < k[1].wait_s && k[1].wait_s < k[2].wait_s);
        for d in &k {
            assert!((d.sojourn_s - (d.wait_s + l.service_s())).abs() < 1e-15);
        }
    }

    #[test]
    fn cobham_k_instability_cascades_down_priorities() {
        let l = link_10mbps();
        // σ₀ = 0.4, σ₁ = 0.9, σ₂ = 1.3: only the last class diverges.
        let k = cobham_k(&l, &[4.0, 5.0, 4.0]);
        assert!(k[0].wait_s.is_finite());
        assert!(k[1].wait_s.is_finite());
        assert!(k[2].wait_s.is_infinite());
        // Once σ crosses 1, every lower priority is unstable too.
        let k = cobham_k(&l, &[11.0, 0.0, 1.0]);
        assert!(k.iter().all(|d| d.wait_s.is_infinite()));
    }

    #[test]
    fn instability_reports_infinity() {
        let l = link_10mbps();
        let (h, lo) = cobham(&l, 11.0, 1.0);
        assert!(h.wait_s.is_infinite() && lo.wait_s.is_infinite());
        // High stable, total unstable: only the low class blows up.
        let (h, lo) = cobham(&l, 4.0, 7.0);
        assert!(h.wait_s.is_finite());
        assert!(lo.wait_s.is_infinite());
    }

    #[test]
    fn deterministic_service_halves_residual_work() {
        let exp = link_10mbps();
        let det = PriorityLink {
            deterministic: true,
            ..exp
        };
        let (he, _) = cobham(&exp, 3.0, 3.0);
        let (hd, _) = cobham(&det, 3.0, 3.0);
        assert!((hd.wait_s - he.wait_s / 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_load_is_pure_transmission() {
        let l = link_10mbps();
        let (h, lo) = cobham(&l, 0.0, 0.0);
        assert_eq!(h.wait_s, 0.0);
        assert_eq!(lo.wait_s, 0.0);
        assert!((h.sojourn_s - l.service_s()).abs() < 1e-15);
    }

    #[test]
    fn paper_high_surrogate_is_mm1_at_full_capacity() {
        let l = link_10mbps();
        // Eq. 3 with H = 3 Mbit/s on 10 Mbit/s: E[S]/(1−0.3).
        let s = paper_high_sojourn(&l, 3.0);
        assert!((s - 0.0008 / 0.7).abs() < 1e-12);
        // And it coincides with Cobham when there is no low traffic and
        // service is exponential? No — Cobham's W uses residual work, the
        // M/M/1 surrogate is the full queue: they agree at ρ_L = 0 only
        // in sojourn for M/M/1 (PASTA): W = ρE[S]/(1−ρ), sojourn equal.
        let (h, _) = cobham(&l, 3.0, 0.0);
        assert!((h.sojourn_s - s).abs() < 1e-12);
    }

    #[test]
    fn residual_surrogate_exact_without_high_traffic() {
        let l = link_10mbps();
        let exact = cobham(&l, 0.0, 4.0).1.sojourn_s;
        let approx = residual_low_sojourn(&l, 0.0, 4.0);
        assert!((exact - approx).abs() < 1e-12);
        assert!(residual_approx_error(&l, 0.0, 4.0).abs() < 1e-9);
    }

    #[test]
    fn residual_surrogate_underestimates_with_high_traffic() {
        // The modeling gap the paper accepts: the surrogate ignores waits
        // behind queued high-priority bursts.
        let l = link_10mbps();
        for (h, lo) in [(2.0, 2.0), (3.0, 3.0), (5.0, 2.0), (6.0, 3.0)] {
            let err = residual_approx_error(&l, h, lo);
            assert!(err > 0.0, "h={h} l={lo}: err {err}");
            assert!(err < 1.0);
        }
        // The gap grows with high-priority share at fixed total load.
        let e1 = residual_approx_error(&l, 2.0, 4.0);
        let e2 = residual_approx_error(&l, 4.0, 2.0);
        assert!(e2 > e1, "{e2} vs {e1}");
    }

    #[test]
    fn exhausted_residual_is_infinite_for_both() {
        let l = link_10mbps();
        assert!(residual_low_sojourn(&l, 10.0, 0.1).is_infinite());
        assert_eq!(residual_approx_error(&l, 12.0, 0.1), 0.0);
    }

    /// End-to-end check: the discrete-event engine reproduces Cobham on a
    /// single bottleneck link.
    #[test]
    fn des_engine_matches_cobham() {
        let mut b = TopologyBuilder::new();
        b.add_nodes(2);
        b.add_duplex(NodeId(0), NodeId(1), 10.0, 0.0);
        let topo = b.build().unwrap();
        let mut high = TrafficMatrix::zeros(2);
        high.set(0, 1, 3.0);
        let mut low = TrafficMatrix::zeros(2);
        low.set(0, 1, 3.0);
        let demands = DemandSet { high, low };
        let weights = DualWeights::replicated(WeightVector::uniform(&topo, 1));
        let report = Simulation::new(
            &topo,
            &demands,
            &weights,
            SimConfig {
                warmup_s: 2.0,
                duration_s: 60.0,
                seed: 13,
                ..Default::default()
            },
        )
        .run();

        let lid = topo.find_link(NodeId(0), NodeId(1)).unwrap();
        let (th, tl) = cobham(&link_10mbps(), 3.0, 3.0);
        let sh = report.link_stats[lid.index()].per_class[0].wait.mean();
        let sl = report.link_stats[lid.index()].per_class[1].wait.mean();
        assert!(
            (sh - th.wait_s).abs() / th.wait_s < 0.10,
            "W_H sim {sh} vs {}",
            th.wait_s
        );
        assert!(
            (sl - tl.wait_s).abs() / tl.wait_s < 0.10,
            "W_L sim {sl} vs {}",
            tl.wait_s
        );
    }
}
