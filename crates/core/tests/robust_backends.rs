//! End-to-end backend equivalence and cap-soundness regression for the
//! failure-aware search.
//!
//! 1. Seeded [`RobustSearch`] runs must produce **identical** incumbents
//!    and telemetry under the full and incremental backends, in both
//!    [`Scheme::Str`] and [`Scheme::Dtr`], with and without a
//!    scenario cap — the failure-sweep engine's bit-identical contract
//!    lifted to the whole search trajectory.
//! 2. The scenario cap is a real approximation (a move can improve every
//!    retained scenario while degrading a dropped one): on a crafted
//!    asymmetric triangle-family instance, the capped search must end
//!    **strictly worse on the full scenario set** than the uncapped
//!    search, and the dropped pairs must be recorded in the trace.

use dtr_core::robust::{RobustEvaluator, RobustResult, RobustSearch, ScenarioCombine};
use dtr_core::{BackendKind, Scheme, SearchParams};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::topology::TopologyBuilder;
use dtr_graph::NodeId;
use dtr_traffic::{DemandSet, TrafficCfg, TrafficMatrix};

fn small_instance(seed: u64) -> (dtr_graph::Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 9,
        directed_links: 36,
        seed,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed,
            ..Default::default()
        },
    )
    .scaled(3.0);
    (topo, demands)
}

fn run_robust(
    topo: &dtr_graph::Topology,
    demands: &DemandSet,
    mode: Scheme,
    backend: BackendKind,
    cap: Option<usize>,
) -> RobustResult {
    let params = SearchParams::tiny().with_seed(23).with_backend(backend);
    let mut search = RobustSearch::new(
        topo,
        demands,
        ScenarioCombine::Blend { beta: 0.5 },
        params,
        mode,
    );
    if let Some(c) = cap {
        search = search.with_scenario_cap(c);
    }
    search.run()
}

#[test]
fn backends_produce_identical_incumbents_and_traces() {
    let (topo, demands) = small_instance(31);
    for mode in [Scheme::Str, Scheme::Dtr] {
        for cap in [None, Some(5)] {
            let full = run_robust(&topo, &demands, mode, BackendKind::Full, cap);
            let incr = run_robust(&topo, &demands, mode, BackendKind::Incremental, cap);
            assert_eq!(
                full.weights, incr.weights,
                "incumbent weights diverged (mode {mode:?}, cap {cap:?})"
            );
            assert_eq!(full.cost, incr.cost, "costs diverged (mode {mode:?})");
            assert_eq!(full.scenarios_used, incr.scenarios_used);
            // The whole telemetry — iteration counts, accepted moves,
            // every improvement's phase and cost, and the dropped
            // scenario ids — must match, not just the endpoint.
            assert_eq!(full.trace, incr.trace, "traces diverged (mode {mode:?})");
            if let Some(c) = cap {
                assert_eq!(full.scenarios_used, c);
                assert!(!full.trace.dropped_scenarios.is_empty());
            } else {
                assert!(full.trace.dropped_scenarios.is_empty());
            }
        }
    }
}

/// The triangle-family counterexample topology: two triangles (0-1-2,
/// 3-4-5) joined by one `fat` rung 0↔3 and two `thin` rungs 1↔4, 2↔5.
/// Unlike a single triangle — where every post-cut path is forced, so
/// scenario costs barely depend on weights — the prism keeps real
/// routing choice under every cut: cross traffic can ride the fat rung
/// (intact-optimal) or pre-spread over the thin rungs (robust). That
/// tension is exactly what the scenario cap mis-prices.
fn prism(fat: f64, thin: f64) -> dtr_graph::Topology {
    let mut b = TopologyBuilder::new();
    b.add_nodes(6);
    for (x, y, cap) in [
        (0, 1, 1.0),
        (1, 2, 1.0),
        (0, 2, 1.0),
        (3, 4, 1.0),
        (4, 5, 1.0),
        (3, 5, 1.0),
        (0, 3, fat),
        (1, 4, thin),
        (2, 5, thin),
    ] {
        b.add_duplex(NodeId(x), NodeId(y), cap, 0.001);
    }
    b.build().unwrap()
}

/// Cross demands (between the triangles) plus local demands inside
/// each; all low-priority so the Φ_L component carries the story.
fn prism_demands(cross: f64, local: f64) -> DemandSet {
    let high = TrafficMatrix::zeros(6);
    let mut low = TrafficMatrix::zeros(6);
    low.set(0, 3, cross);
    low.set(3, 0, cross);
    low.set(1, 4, cross * 0.6);
    low.set(4, 1, cross * 0.6);
    low.set(2, 5, cross * 0.5);
    low.set(0, 1, local);
    low.set(1, 2, local * 0.8);
    low.set(3, 4, local);
    low.set(4, 5, local * 0.7);
    DemandSet { high, low }
}

#[test]
fn uncapped_run_dominates_capped_on_triangle_family() {
    let topo = prism(1.6, 0.5);
    let demands = prism_demands(0.4, 0.5);
    let combine = ScenarioCombine::Blend { beta: 0.5 };
    let run = |cap: Option<usize>| {
        let mut s = RobustSearch::new(
            &topo,
            &demands,
            combine,
            SearchParams::tiny().with_seed(0),
            Scheme::Dtr,
        );
        if let Some(c) = cap {
            s = s.with_scenario_cap(c);
        }
        s.run()
    };
    let uncapped = run(None);
    let capped = run(Some(1));
    assert_eq!(uncapped.scenarios_used, 9, "all prism cuts are survivable");
    assert_eq!(capped.scenarios_used, 1);
    assert_eq!(
        capped.trace.dropped_scenarios.len(),
        8,
        "the cap's blind spots are recorded in the trace"
    );
    assert!(uncapped.trace.dropped_scenarios.is_empty());

    // Re-evaluate both incumbents on the FULL scenario set.
    let mut full_eval = RobustEvaluator::new(&topo, &demands, combine);
    let capped_true = full_eval.eval(&capped.weights);
    let uncapped_true = full_eval.eval(&uncapped.weights);

    // The unsoundness witness: the capped search reported a far better
    // cost than its incumbent actually has — it pulled the cross demand
    // onto the fat rung (intact-optimal, invisible to the one kept
    // scenario), and the dropped fat-rung cut became the binding
    // scenario.
    assert!(
        capped_true.combined > capped.cost.combined,
        "cap hid the binding scenario: true {:?} vs reported {:?}",
        capped_true.combined,
        capped.cost.combined
    );
    // The regression gate: optimizing against the full set (affordable
    // via the incremental sweep) strictly dominates the capped run on
    // the true objective — here by more than an order of magnitude on
    // the low-priority component.
    assert!(
        uncapped_true.combined < capped_true.combined,
        "uncapped {:?} must dominate capped {:?} on the full set",
        uncapped_true.combined,
        capped_true.combined
    );
    assert!(capped_true.combined.secondary > 10.0 * uncapped_true.combined.secondary);
}
