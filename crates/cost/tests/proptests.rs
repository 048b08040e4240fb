//! Property-based tests for the cost functions: convexity and
//! monotonicity of Φ, totality of the lexicographic order, monotonicity of
//! SLA penalties and delays.

use dtr_cost::{link_delay, phi, phi_derivative, sla_penalty, DelayParams, Lex2, LexCost};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn phi_nonnegative_and_finite(load in 0.0f64..1e7, cap in 0.0f64..1e7) {
        let v = phi(load, cap);
        prop_assert!(v.is_finite());
        prop_assert!(v >= 0.0);
    }

    #[test]
    fn phi_monotone_in_load(l1 in 0.0f64..1e6, l2 in 0.0f64..1e6, cap in 1.0f64..1e6) {
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        prop_assert!(phi(lo, cap) <= phi(hi, cap) + 1e-9);
    }

    #[test]
    fn phi_antitone_in_capacity(load in 0.0f64..1e6, c1 in 0.0f64..1e6, c2 in 0.0f64..1e6) {
        let (lo, hi) = if c1 <= c2 { (c1, c2) } else { (c2, c1) };
        // More capacity never increases cost.
        prop_assert!(phi(load, hi) <= phi(load, lo) + 1e-9);
    }

    #[test]
    fn phi_convex_in_load(a in 0.0f64..1e6, b in 0.0f64..1e6, t in 0.0f64..=1.0, cap in 1.0f64..1e6) {
        let mid = t * a + (1.0 - t) * b;
        let lhs = phi(mid, cap);
        let rhs = t * phi(a, cap) + (1.0 - t) * phi(b, cap);
        prop_assert!(lhs <= rhs + 1e-6 * rhs.abs().max(1.0));
    }

    #[test]
    fn phi_lower_bounded_by_load(load in 0.0f64..1e6, cap in 0.0f64..1e6) {
        // Slope ≥ 1 everywhere and Φ(0) = 0 ⇒ Φ(x) ≥ x.
        prop_assert!(phi(load, cap) + 1e-9 >= load);
    }

    #[test]
    fn phi_derivative_is_a_valid_slope(load in 0.0f64..1e6, cap in 0.0f64..1e6) {
        let d = phi_derivative(load, cap);
        prop_assert!(dtr_cost::PHI_SLOPES.contains(&d));
    }

    #[test]
    fn lex_order_matches_tuple_order(
        a1 in -1e9f64..1e9, a2 in -1e9f64..1e9,
        b1 in -1e9f64..1e9, b2 in -1e9f64..1e9,
    ) {
        let x = Lex2::new(a1, a2);
        let y = Lex2::new(b1, b2);
        let tuple_lt = (a1, a2) < (b1, b2);
        prop_assert_eq!(x < y, tuple_lt);
    }

    #[test]
    fn lex_order_is_antisymmetric(
        a1 in -1e9f64..1e9, a2 in -1e9f64..1e9,
        b1 in -1e9f64..1e9, b2 in -1e9f64..1e9,
    ) {
        let x = Lex2::new(a1, a2);
        let y = Lex2::new(b1, b2);
        prop_assert_eq!(x < y, y > x);
        prop_assert_eq!(x == y, y == x);
    }

    #[test]
    fn lexcost_order_agrees_with_slice_order(
        a in proptest::collection::vec(0.0f64..1e6, 3),
        b in proptest::collection::vec(0.0f64..1e6, 3),
    ) {
        let la = LexCost::new(a.clone());
        let lb = LexCost::new(b.clone());
        prop_assert_eq!(la < lb, a < b);
    }

    #[test]
    fn sla_penalty_monotone_and_bounded_below(
        d1 in 0.0f64..1.0, d2 in 0.0f64..1.0, bound in 0.001f64..0.1,
    ) {
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let plo = sla_penalty(lo, bound, 100.0, 1.0);
        let phi_ = sla_penalty(hi, bound, 100.0, 1.0);
        prop_assert!(plo <= phi_ + 1e-9);
        // Any violation costs at least `a`.
        if phi_ > 0.0 {
            prop_assert!(phi_ >= 100.0);
        }
    }

    #[test]
    fn link_delay_at_least_propagation(
        load in 0.0f64..1000.0, cap in 1.0f64..1000.0, p in 0.0f64..0.1,
    ) {
        let d = link_delay(&DelayParams::default(), load, cap, p);
        prop_assert!(d.is_finite());
        prop_assert!(d >= p);
    }

    #[test]
    fn link_delay_monotone_in_load(
        l1 in 0.0f64..1000.0, l2 in 0.0f64..1000.0, cap in 1.0f64..1000.0,
    ) {
        let (lo, hi) = if l1 <= l2 { (l1, l2) } else { (l2, l1) };
        let p = DelayParams::default();
        prop_assert!(link_delay(&p, lo, cap, 0.01) <= link_delay(&p, hi, cap, 0.01) + 1e-15);
    }
}
