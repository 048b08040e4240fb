//! Smoke-level integration of every experiment harness: each figure
//! module runs end to end at tiny budget and produces structurally valid
//! output. (The byte-exact values of the same smoke pass are frozen by
//! `crates/experiments/tests/golden.rs`; full-budget runs are
//! `cargo run --release -p dtr-experiments`.)

use dtr::core::Objective;
use dtr::experiments::*;

fn ctx() -> ExperimentCtx {
    ExperimentCtx::smoke()
}

#[test]
fn fig2_all_panels() {
    let panels = fig2::run_all(&ctx(), &fig2::Fig2Cfg::default());
    assert_eq!(panels.len(), 6);
    let names: Vec<String> = panels
        .iter()
        .map(|p| format!("{}/{}", p.topology.name(), p.objective))
        .collect();
    assert!(names.contains(&"random/load".to_string()));
    assert!(names.contains(&"isp/sla".to_string()));
    for p in &panels {
        assert_eq!(p.points.len(), 2);
        for pt in &p.points {
            assert!(pt.r_h.is_finite() && pt.r_h > 0.0);
            assert!(pt.r_l.is_finite() && pt.r_l > 0.0);
        }
    }
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
    let c4 = fig4::run_all(&ctx());
    assert_eq!(c4.len(), 2);
    let c5 = fig5::run_all(&ctx());
    assert_eq!(c5.len(), 4);
    let c6 = fig6::run_all(&ctx());
    assert_eq!(c6.len(), 2);
    assert!(c6.iter().all(|c| c.sorted_h_utils.len() == 150));
}

#[test]
fn fig7_fig8_fig9() {
    let d7 = fig7::run(&ctx());
    assert_eq!(d7.str_points.len(), 150);
    let c8 = fig8::run_all(&ctx());
    assert_eq!(c8.len(), 4);
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
