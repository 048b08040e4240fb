//! Smoke-level integration of every experiment harness: each figure
//! module runs end to end at tiny budget and produces structurally valid
//! output, and every STR/DTR point of Figs. 2, 4, 5 and 8 on seeds 1–3
//! reads `R_H ≥ 1`. (The byte-exact values of the same smoke pass are frozen by
//! `crates/experiments/tests/golden.rs`; full-budget runs are
//! `cargo run --release -p dtr-experiments`.)

use dtr::core::Objective;
use dtr::experiments::*;

fn ctx() -> ExperimentCtx {
    ExperimentCtx::smoke()
}

/// The smoke context at `seed`, set the way `dtr-experiments --quick
/// --seed S` sets it.
fn seeded(seed: u64) -> ExperimentCtx {
    let mut ctx = ctx();
    ctx.seed = seed;
    ctx.params = ctx.params.with_seed(seed);
    ctx
}

/// The seeds the paper readings are checked on.
const SEEDS: [u64; 3] = [1, 2, 3];

/// DTR starts from STR's incumbent, so it never loses on the high class:
/// asserts `R_H ≥ 1` at every point and returns how many points read
/// `R_L < 1` (DTR may trade `Φ_L` for a lower `Φ_H`).
fn check_pairs(what: &str, points: &[PairOutcome]) -> usize {
    for p in points {
        assert!(p.r_h >= 1.0, "{what}: R_H < 1 at {p:?}");
        assert!(p.r_l.is_finite() && p.r_l > 0.0, "{what}: {p:?}");
    }
    points.iter().filter(|p| p.r_l < 1.0).count()
}

#[test]
fn fig2_all_panels() {
    let mut low_losses = 0;
    for seed in SEEDS {
        let panels = fig2::run_all(&seeded(seed), &fig2::Fig2Cfg::default());
        assert_eq!(panels.len(), 6);
        let names: Vec<String> = panels
            .iter()
            .map(|p| format!("{}/{}", p.topology.name(), p.objective))
            .collect();
        assert!(names.contains(&"random/load".to_string()));
        assert!(names.contains(&"isp/sla".to_string()));
        for (p, name) in panels.iter().zip(&names) {
            assert_eq!(p.points.len(), 2);
            low_losses += check_pairs(&format!("fig2 {name} seed {seed}"), &p.points);
        }
    }
    println!("fig2: {low_losses} of 36 points read R_L < 1");
}

#[test]
fn fig3_histograms_cover_all_links() {
    let panels = fig3::run_all(&ctx());
    assert_eq!(panels.len(), 3);
    for p in &panels {
        let s: usize = p.bins.iter().map(|b| b.1).sum();
        let d: usize = p.bins.iter().map(|b| b.2).sum();
        assert_eq!(s, 150);
        assert_eq!(d, 150);
    }
}

#[test]
fn fig4_fig5_fig6_curves() {
    let mut low_losses = 0;
    for seed in SEEDS {
        let ctx = seeded(seed);
        let c4 = fig4::run_all(&ctx);
        assert_eq!(c4.len(), 2);
        for c in &c4 {
            let what = format!("fig4 f={} seed {seed}", c.f);
            low_losses += check_pairs(&what, &c.points);
        }
        let c5 = fig5::run_all(&ctx);
        assert_eq!(c5.len(), 4);
        for c in &c5 {
            let what = format!("fig5 {} k={} seed {seed}", c.objective, c.k);
            low_losses += check_pairs(&what, &c.points);
        }
    }
    println!("fig4, fig5: {low_losses} of 36 points read R_L < 1");
    let c6 = fig6::run_all(&ctx());
    assert_eq!(c6.len(), 2);
    assert!(c6.iter().all(|c| c.sorted_h_utils.len() == 150));
}

#[test]
fn fig7_fig8_fig9() {
    let d7 = fig7::run(&ctx());
    assert_eq!(d7.str_points.len(), 150);
    let mut low_losses = 0;
    for seed in SEEDS {
        let c8 = fig8::run_all(&seeded(seed));
        assert_eq!(c8.len(), 4);
        for c in &c8 {
            let what = format!("fig8 {} {} seed {seed}", c.objective, c.pattern);
            low_losses += check_pairs(&what, &c.points);
        }
    }
    println!("fig8: {low_losses} of 24 points read R_L < 1");
    let p9 = fig9::run(&ctx());
    assert_eq!(p9.len(), 5);
    // Violations monotone non-increasing as the bound loosens, for both
    // schemes (more slack can only satisfy more pairs at equal routing
    // quality; small budget noise tolerated via +1).
    for w in p9.windows(2) {
        assert!(w[1].violations.0 <= w[0].violations.0 + 1);
        assert!(w[1].violations.1 <= w[0].violations.1 + 1);
    }
}

#[test]
fn table1_blocks() {
    let mut c = ctx();
    c.load_points = 2;
    let blocks = table1::run(&c);
    assert_eq!(blocks.len(), 3);
}

#[test]
fn triangle_report_is_exact() {
    let r = triangle::run(&ctx());
    assert!((r.joint_alpha35.0 - 1.0 / 3.0).abs() < 1e-9);
    assert!((r.joint_alpha30.1 - 4.0 / 3.0).abs() < 1e-9);
}

#[test]
fn ratio_convention_consistency() {
    // The helper used across all figures.
    assert_eq!(cost_ratio(0.0, 0.0), 1.0);
    assert!(cost_ratio(5.0, 1.0) > 1.0);
    let _ = Objective::LoadBased;
}
