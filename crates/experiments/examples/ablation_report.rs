//! Search-design ablations at realistic budget (3 seeds each) on the
//! paper's 30-node / 150-link random topology: mean DTR cost per
//! setting of `tau`, the diversification rates and the refinement stage.
use dtr_core::{DtrSearch, Objective, SearchParams};
use dtr_experiments::TopologyKind;
use dtr_traffic::{DemandSet, TrafficCfg};

fn main() {
    let topo = TopologyKind::Random.build(1);
    let demands = DemandSet::generate(&topo, &TrafficCfg::default()).scaled(6.0);
    let mean = |mk: &dyn Fn(u64) -> SearchParams| -> (f64, f64) {
        let (mut h, mut l) = (0.0, 0.0);
        for seed in [11, 22, 33] {
            let r = DtrSearch::new(&topo, &demands, Objective::LoadBased, mk(seed)).run();
            h += r.best_cost.primary / 3.0;
            l += r.best_cost.secondary / 3.0;
        }
        (h, l)
    };
    for tau in [0.0, 0.75, 1.5, 4.0] {
        let (h, l) = mean(&|s| {
            let mut p = SearchParams::experiment().with_seed(s);
            p.tau = tau;
            p
        });
        println!("tau={tau}: mean cost ⟨{h:.0}, {l:.0}⟩");
    }
    for (label, g) in [
        ("paper_g", (0.05, 0.05, 0.03)),
        ("no_diversification", (0.0, 0.0, 0.0)),
    ] {
        let (h, l) = mean(&|s| {
            let mut p = SearchParams::experiment().with_seed(s);
            (p.g1, p.g2, p.g3) = g;
            p
        });
        println!("{label}: mean cost ⟨{h:.0}, {l:.0}⟩");
    }
    for (label, k) in [("with_refinement", 2000usize), ("no_refinement", 0)] {
        let (h, l) = mean(&|s| {
            let mut p = SearchParams::experiment().with_seed(s);
            p.k_iters = k;
            p
        });
        println!("{label}: mean cost ⟨{h:.0}, {l:.0}⟩");
    }
}
