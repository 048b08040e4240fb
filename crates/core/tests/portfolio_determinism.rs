//! Determinism property tests for the portfolio orchestrator.
//!
//! The contract under test: the portfolio result is a pure function of
//! `(instance, objective, per-arm params, portfolio spec)` — the worker
//! count and thread schedule change wall-clock only. Concretely, for
//! random small instances:
//!
//! - `workers = 1` and `workers = 4` produce **identical** incumbents
//!   (weights and canonical cost),
//! - repeated 4-worker runs are **byte-identical** across everything the
//!   reproducibility contract covers (winner, per-task outcomes, wave
//!   curve, pruning decisions), via [`PortfolioResult::fingerprint`].
//!
//! The tests sweep both routing schemes, pruning on/off, multiple waves,
//! and the robust mode — the configurations where a scheduling
//! dependency could plausibly hide (pruning reads finished arms at
//! barriers; robust arms warm-start from nominal pre-runs).

use dtr_core::portfolio::{PortfolioMode, PortfolioParams, PortfolioSearch, StrategyKind};
use dtr_core::{Objective, ScenarioCombine, Scheme, SearchParams};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::Topology;
use dtr_traffic::{DemandSet, TrafficCfg};
use proptest::prelude::*;

fn instance(seed: u64, nodes: usize) -> (Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes,
        directed_links: nodes * 4,
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

fn run_portfolio(
    topo: &Topology,
    demands: &DemandSet,
    seed: u64,
    scheme: Scheme,
    workers: usize,
    restarts: usize,
    prune_margin: f64,
) -> dtr_core::PortfolioResult {
    PortfolioSearch::new(
        topo,
        demands,
        Objective::LoadBased,
        SearchParams::tiny().with_seed(seed),
        PortfolioMode::Nominal(scheme),
        PortfolioParams {
            strategies: StrategyKind::ALL.to_vec(),
            restarts,
            workers,
            prune_margin,
        },
    )
    .run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Nominal portfolios: 1-worker and 4-worker runs agree on the
    /// incumbent, and repeated 4-worker runs are byte-identical —
    /// including with aggressive pruning, whose decisions must read
    /// only barrier-complete data.
    #[test]
    fn workers_and_schedule_never_change_the_result(
        seed in 0u64..200,
        search_seed in 0u64..1000,
        scheme_dtr in any::<bool>(),
        prune in any::<bool>(),
    ) {
        let (topo, demands) = instance(seed, 7);
        let scheme = if scheme_dtr { Scheme::Dtr } else { Scheme::Str };
        let margin = if prune { 0.05 } else { f64::INFINITY };

        let serial = run_portfolio(&topo, &demands, search_seed, scheme, 1, 2, margin);
        let par_a = run_portfolio(&topo, &demands, search_seed, scheme, 4, 2, margin);
        let par_b = run_portfolio(&topo, &demands, search_seed, scheme, 4, 2, margin);

        // Identical incumbents between 1 and 4 workers…
        prop_assert_eq!(&serial.weights, &par_a.weights);
        prop_assert_eq!(serial.cost, par_a.cost);
        // …and the full reproducibility fingerprint matches, including
        // per-task outcomes, the wave curve, and pruning decisions.
        prop_assert_eq!(serial.fingerprint(), par_a.fingerprint());
        // Repeated 4-worker runs are byte-identical.
        prop_assert_eq!(par_a.fingerprint(), par_b.fingerprint());
    }

    /// Robust portfolios (nominal warm starts + failure sweeps) under
    /// the same invariant.
    #[test]
    fn robust_portfolio_is_schedule_free(seed in 0u64..100, search_seed in 0u64..1000) {
        let (topo, demands) = instance(seed, 6);
        let run = |workers: usize| {
            PortfolioSearch::new(
                &topo,
                &demands,
                Objective::LoadBased,
                SearchParams::tiny().with_seed(search_seed),
                PortfolioMode::Robust {
                    combine: ScenarioCombine::Blend { beta: 0.5 },
                    cap: Some(6),
                    scheme: Scheme::Dtr,
                },
                PortfolioParams {
                    strategies: StrategyKind::ALL.to_vec(),
                    restarts: 1,
                    workers,
                    prune_margin: f64::INFINITY,
                },
            )
            .run()
        };
        let serial = run(1);
        let par_a = run(4);
        let par_b = run(4);
        prop_assert_eq!(&serial.weights, &par_a.weights);
        prop_assert_eq!(serial.cost, par_a.cost);
        prop_assert_eq!(serial.fingerprint(), par_a.fingerprint());
        prop_assert_eq!(par_a.fingerprint(), par_b.fingerprint());
    }
}
