//! Determinism property tests for the upgrade-placement search.
//!
//! The contract under test: an [`UpgradeSearch`] outcome is a pure
//! function of `(instance, search params, portfolio spec, upgrade
//! params)` — the portfolio worker count changes wall-clock only, and
//! the full-budget step is the plain full-deployment incumbent, bit for
//! bit. Concretely, for random small instances:
//!
//! - `workers` = 1, 2 and 3 produce **byte-identical** outcomes
//!   (baseline, every step's placement/weights/cost, probe count), via
//!   [`UpgradeOutcome::fingerprint`];
//! - with `budget = n` the final step's weights and cost equal those of
//!   a plain [`PortfolioSearch`] run with the caller's exact params —
//!   greedy always reaches the full set, and a full `DeploymentSet`
//!   normalizes to no deployment at all.

use dtr_core::portfolio::{PortfolioMode, PortfolioParams, PortfolioSearch, StrategyKind};
use dtr_core::{Objective, Scheme, SearchParams, UpgradeParams, UpgradeSearch};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::Topology;
use dtr_traffic::{DemandSet, TrafficCfg};
use proptest::prelude::*;

fn instance(seed: u64) -> (Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 6,
        directed_links: 22,
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

fn cfg(workers: usize) -> PortfolioParams {
    PortfolioParams {
        strategies: vec![StrategyKind::Descent],
        restarts: 1,
        workers,
        prune_margin: f64::INFINITY,
    }
}

fn up(budget: usize) -> UpgradeParams {
    UpgradeParams {
        budget,
        swap_passes: 1,
        probe: SearchParams::tiny().with_seed(99),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The outcome fingerprint is invariant under the worker count. The
    /// probes of a greedy round and of a swap pass (`swap_passes: 1`)
    /// fan out over the workers, and their costs are reduced in
    /// candidate order; the definitive per-budget portfolio is
    /// schedule-independent too.
    #[test]
    fn worker_count_never_changes_the_upgrade_outcome(
        seed in 0u64..200,
        search_seed in 0u64..1000,
        budget in 1usize..=2,
    ) {
        let (topo, demands) = instance(seed);
        let params = SearchParams::tiny().with_seed(search_seed);
        let run = |workers: usize| {
            UpgradeSearch::new(&topo, &demands, params, cfg(workers), up(budget)).run()
        };
        let solo = run(1).fingerprint();
        for workers in [2, 3] {
            prop_assert_eq!(&solo, &run(workers).fingerprint(), "workers = {}", workers);
        }
    }

    /// Budget = n ends at full deployment, whose definitive portfolio
    /// must reproduce the plain full-deployment incumbent bit for bit.
    #[test]
    fn full_budget_reproduces_the_plain_incumbent(
        seed in 0u64..200,
        search_seed in 0u64..1000,
    ) {
        let (topo, demands) = instance(seed);
        let n = topo.node_count();
        let params = SearchParams::tiny().with_seed(search_seed);
        let outcome =
            UpgradeSearch::new(&topo, &demands, params, cfg(2), up(n)).run();
        let plain = PortfolioSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            params,
            PortfolioMode::Nominal(Scheme::Dtr),
            cfg(2),
        )
        .run();
        let last = outcome.last();
        prop_assert_eq!(last.budget, n);
        prop_assert_eq!(last.upgraded.len(), n);
        prop_assert_eq!(&last.weights, &plain.weights);
        prop_assert_eq!(last.cost, plain.cost);
    }
}
