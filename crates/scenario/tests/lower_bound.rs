//! The Frank–Wolfe duality bound on `Φ_H` holds under every two-class
//! smoke incumbent of the corpus: no routing carries the high class more
//! cheaply than the fluid optimum, so neither the STR baseline nor DTR
//! may report a lower `Φ_H` than `dual_lower_bound`. `phi_l` is not
//! checked: that bound is conditional on the Frank–Wolfe high placement.

use dtr_routing::{dual_lower_bound, FwParams};
use dtr_scenario::{load_corpus, search_incumbents};
use dtr_traffic::DemandSet;
use std::path::Path;

#[test]
fn the_high_class_bound_holds_under_every_two_class_smoke_incumbent() {
    let corpus = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus");
    let specs = load_corpus(&corpus).expect("the corpus loads");
    let mut checked = 0;
    for spec in specs
        .iter()
        .filter(|s| s.is_smoke() && s.objective().class_count() == 2)
    {
        let run = search_incumbents(spec, true);
        let pair = DemandSet {
            high: run.demands.classes[0].clone(),
            low: run.demands.classes[1].clone(),
        };
        let bound = dual_lower_bound(&run.topo, &pair, &FwParams::default()).phi_h;
        let best = run.baseline.phi_h.min(run.dtr.phi_h);
        assert!(
            bound <= (1.0 + 1e-9) * best,
            "{}: Φ_H bound {bound} above the best incumbent's {best}",
            spec.name
        );
        checked += 1;
    }
    assert!(checked > 0, "no two-class smoke instance in the corpus");
}
