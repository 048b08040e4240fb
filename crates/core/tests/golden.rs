//! Frozen seeded incumbents of every descent-shaped search (ROADMAP
//! items 1a and 3): weights, cost bits, trace counters and the
//! improvement log's `(iteration, evaluations, phase)` triples of
//! `tiny` runs on 10–12-node instances, plus one portfolio fingerprint
//! per mode and one upgrade fingerprint. Recorded before the searches
//! moved onto one descent driver; the RNG draw order of every search is
//! part of what these files pin, so a refactor of the search stack must
//! reproduce them byte for byte. The annealing runs (`anneal_*`) were
//! recorded while annealing still costed candidates through the
//! full-recompute `Evaluator`, so they also pin the engine's
//! bit-identity to it along whole runs.
//!
//! After an intended behaviour change, rewrite the files with
//! `cargo test -p dtr-core --test golden -- --ignored bless`.

use dtr_core::portfolio::{PortfolioMode, PortfolioParams, PortfolioSearch, StrategyKind};
use dtr_core::{
    AnnealSearch, DtrSearch, Objective, ReoptSearch, ReoptSession, RobustSearch, ScenarioCombine,
    Scheme, SearchParams, SearchResult, SearchTrace, StrSearch, UpgradeParams, UpgradeSearch,
};
use dtr_cost::{Lex2, SlaParams};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, Topology, WeightVector};
use dtr_routing::{survivable_duplex_failures, DeploymentSet};
use dtr_traffic::{DemandSet, TrafficCfg};
use std::fmt::Write;
use std::path::PathBuf;

fn instance(nodes: usize, seed: u64, scale: f64) -> (Topology, DemandSet) {
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
    .scaled(scale);
    (topo, demands)
}

/// A bound tight enough that some pairs violate it on these instances,
/// so Λ (not only Φ_L) steers the search.
fn tight_sla() -> Objective {
    Objective::SlaBased(SlaParams {
        bound_s: 0.012,
        ..Default::default()
    })
}

fn tiny(seed: u64) -> SearchParams {
    SearchParams::tiny().with_seed(seed)
}

/// One frozen case, as the text its golden file holds.
#[derive(Default)]
struct Record(String);

impl Record {
    fn line(&mut self, key: &str, value: impl std::fmt::Display) {
        writeln!(self.0, "{key}: {value}").unwrap();
    }

    fn weights(&mut self, key: &str, w: &WeightVector) {
        let ws: Vec<String> = w.as_slice().iter().map(|x| x.to_string()).collect();
        self.line(key, ws.join(" "));
    }

    fn dual(&mut self, w: &DualWeights) {
        self.weights("weights.high", &w.high);
        self.weights("weights.low", &w.low);
    }

    /// Exact bits first, the readable value after.
    fn cost(&mut self, key: &str, components: &[f64]) {
        let bits: Vec<String> = components
            .iter()
            .map(|c| format!("{:016x}", c.to_bits()))
            .collect();
        self.line(key, format!("{} {components:?}", bits.join(" ")));
    }

    fn lex2(&mut self, key: &str, c: Lex2) {
        self.cost(key, &[c.primary, c.secondary]);
    }

    fn trace(&mut self, t: &SearchTrace) {
        self.line(
            "counters",
            format!(
                "iterations={} evaluations={} diversifications={} moves_accepted={}",
                t.iterations, t.evaluations, t.diversifications, t.moves_accepted
            ),
        );
        let log: Vec<String> = t
            .improvements
            .iter()
            .map(|i| format!("{}/{}/{:?}", i.iteration, i.evaluations, i.phase))
            .collect();
        self.line("improvements", log.join(" "));
        self.line("dropped_scenarios", format!("{:?}", t.dropped_scenarios));
    }
}

/// A run of any strategy-table row: the dual setting (one vector
/// written twice for the single-vector strategies), cost bits and trace.
fn search_record(res: &SearchResult) -> Record {
    let mut r = Record::default();
    r.dual(&res.weights);
    r.lex2("best_cost", res.best_cost);
    r.trace(&res.trace);
    r
}

fn dtr_case(search: DtrSearch<'_>) -> String {
    search_record(&search.run()).0
}

fn anneal_case(search: AnnealSearch<'_>) -> String {
    let res = search.run();
    let mut r = search_record(&res);
    r.line("uphill_accepted", res.trace.uphill_accepted);
    r.0
}

fn str_case(search: StrSearch<'_>) -> String {
    let res = search.run();
    let mut r = Record::default();
    r.weights("weights", &res.weights);
    r.lex2("best_cost", res.best_cost);
    for rb in &res.relaxed {
        let w = rb.weights.as_ref().expect("every ε ≥ 0 has an answer");
        r.weights(&format!("relaxed[{}].weights", rb.eps), w);
        r.cost(&format!("relaxed[{}].phi", rb.eps), &[rb.phi_h, rb.phi_l]);
    }
    r.trace(&res.trace);
    r.0
}

/// A drifted 10-node instance with an optimized incumbent per scheme.
fn reopt_instance(scheme: Scheme) -> (Topology, DemandSet, DualWeights) {
    let (topo, base) = instance(10, 8, 4.0);
    let (_, drifted) = instance(10, 9, 4.0);
    let incumbent = match scheme {
        Scheme::Dtr => {
            DtrSearch::new(&topo, &base, Objective::LoadBased, tiny(8))
                .run()
                .weights
        }
        Scheme::Str => DualWeights::replicated(
            StrSearch::new(&topo, &base, Objective::LoadBased, tiny(8))
                .run()
                .weights,
        ),
    };
    // `random_topology` is a pure function of its config, so the
    // drifted matrix belongs to the same graph.
    (topo, drifted, incumbent)
}

fn reopt_record(res: &dtr_core::ReoptResult) -> Record {
    let mut r = Record::default();
    r.dual(&res.weights);
    r.lex2("best_cost", res.best_cost);
    r.line(
        "changes",
        format!("{} of {}", res.changes_used, res.max_changes),
    );
    r.trace(&res.trace);
    r
}

fn reopt_case(scheme: Scheme, h: usize) -> String {
    let (topo, demands, incumbent) = reopt_instance(scheme);
    let res = ReoptSearch::new(
        &topo,
        &demands,
        Objective::LoadBased,
        tiny(21),
        scheme,
        incumbent,
        h,
    )
    .run();
    reopt_record(&res).0
}

fn reopt_session_case() -> String {
    let (topo, demands, incumbent) = reopt_instance(Scheme::Dtr);
    let mask = survivable_duplex_failures(&topo).swap_remove(2).link_up;
    let mut session = ReoptSession::new(incumbent, Objective::LoadBased, tiny(5), Scheme::Dtr);
    // Position 1 of the seed stream, under a cut.
    session.step(&topo, &demands, 4);
    let res = session.step_masked(&topo, &demands, &mask, 6);
    let mut r = reopt_record(&res);
    r.line("steps", session.steps());
    r.0
}

fn robust_case(scheme: Scheme, cap: Option<usize>) -> String {
    let (topo, demands) = instance(10, 11, 3.0);
    let mut search = RobustSearch::new(
        &topo,
        &demands,
        ScenarioCombine::Blend { beta: 0.5 },
        tiny(23),
        scheme,
    );
    if let Some(cap) = cap {
        search = search.with_scenario_cap(cap);
    }
    let res = search.run();
    let mut r = Record::default();
    r.dual(&res.weights);
    r.lex2("cost.intact", res.cost.intact);
    r.lex2("cost.worst", res.cost.worst);
    r.lex2("cost.average", res.cost.average);
    r.lex2("cost.combined", res.cost.combined);
    r.line("scenarios_used", res.scenarios_used);
    r.trace(&res.trace);
    r.0
}

fn portfolio_case(mode: PortfolioMode, restarts: usize, prune_margin: f64) -> String {
    let (topo, demands) = instance(10, 14, 3.0);
    let mut out = PortfolioSearch::new(
        &topo,
        &demands,
        Objective::LoadBased,
        tiny(31),
        mode,
        PortfolioParams {
            strategies: StrategyKind::ALL.to_vec(),
            restarts,
            workers: 2,
            prune_margin,
        },
    )
    .run()
    .fingerprint();
    out.push('\n');
    out
}

fn upgrade_case() -> String {
    let (topo, demands) = instance(10, 17, 3.0);
    let mut out = UpgradeSearch::new(
        &topo,
        &demands,
        tiny(13),
        PortfolioParams {
            strategies: vec![StrategyKind::Descent],
            restarts: 1,
            workers: 1,
            prune_margin: f64::INFINITY,
        },
        UpgradeParams {
            budget: 2,
            swap_passes: 1,
            probe: tiny(99),
        },
    )
    .run()
    .fingerprint();
    out.push('\n');
    out
}

/// `(golden file, regenerated contents)` for every frozen case.
fn regenerate() -> Vec<(PathBuf, String)> {
    let mut cases: Vec<(&str, String)> = Vec::new();

    let (topo, demands) = instance(12, 4, 3.0);
    cases.push((
        "dtr_load",
        dtr_case(DtrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            tiny(7),
        )),
    ));
    let (topo, demands) = instance(12, 6, 4.0);
    cases.push((
        "dtr_sla",
        dtr_case(DtrSearch::new(&topo, &demands, tight_sla(), tiny(1))),
    ));
    let (topo, demands) = instance(12, 11, 3.0);
    let upgraded: Vec<u32> = (0..12).step_by(3).collect();
    cases.push((
        "dtr_deployed",
        dtr_case(
            DtrSearch::new(&topo, &demands, Objective::LoadBased, tiny(5))
                .with_deployment(DeploymentSet::from_upgraded(12, &upgraded)),
        ),
    ));
    let (topo, demands) = instance(10, 5, 3.0);
    let mut w0 = DualWeights::replicated(WeightVector::uniform(&topo, 3));
    w0.high.set(LinkId(2), 9);
    w0.low.set(LinkId(7), 14);
    cases.push((
        "dtr_warm",
        dtr_case(DtrSearch::new(&topo, &demands, Objective::LoadBased, tiny(9)).with_initial(w0)),
    ));

    let (topo, demands) = instance(12, 3, 4.0);
    cases.push((
        "str_relaxed",
        str_case(
            StrSearch::new(&topo, &demands, Objective::LoadBased, tiny(2))
                .with_relaxations(&[0.05, 0.3]),
        ),
    ));
    let (topo, demands) = instance(12, 8, 4.0);
    cases.push((
        "str_sla",
        str_case(StrSearch::new(&topo, &demands, tight_sla(), tiny(3))),
    ));

    // The non-descent strategies, on the DTR fixtures above.
    let (topo, demands) = instance(12, 4, 3.0);
    let load = Objective::LoadBased;
    cases.push((
        "anneal_str_load",
        anneal_case(AnnealSearch::new(
            &topo,
            &demands,
            load,
            tiny(7),
            Scheme::Str,
        )),
    ));
    cases.push((
        "anneal_dtr_load",
        anneal_case(AnnealSearch::new(
            &topo,
            &demands,
            load,
            tiny(7),
            Scheme::Dtr,
        )),
    ));
    let (topo, demands) = instance(12, 11, 3.0);
    cases.push((
        "anneal_dtr_deployed",
        anneal_case(
            AnnealSearch::new(&topo, &demands, load, tiny(5), Scheme::Dtr)
                .with_deployment(DeploymentSet::from_upgraded(12, &upgraded)),
        ),
    ));
    let (topo, demands) = instance(12, 6, 4.0);
    cases.push((
        "anneal_dtr_sla",
        anneal_case(AnnealSearch::new(
            &topo,
            &demands,
            tight_sla(),
            tiny(1),
            Scheme::Dtr,
        )),
    ));

    cases.push(("reopt_dtr_h2", reopt_case(Scheme::Dtr, 2)));
    cases.push(("reopt_dtr_h12", reopt_case(Scheme::Dtr, 12)));
    cases.push(("reopt_str_h2", reopt_case(Scheme::Str, 2)));
    cases.push(("reopt_str_h12", reopt_case(Scheme::Str, 12)));
    cases.push(("reopt_session_step_masked", reopt_session_case()));

    cases.push(("robust_dtr_full", robust_case(Scheme::Dtr, None)));
    cases.push(("robust_dtr_capped", robust_case(Scheme::Dtr, Some(5))));
    cases.push(("robust_str_full", robust_case(Scheme::Str, None)));
    cases.push(("robust_str_capped", robust_case(Scheme::Str, Some(5))));

    cases.push((
        "portfolio_nominal",
        portfolio_case(PortfolioMode::Nominal(Scheme::Dtr), 2, 0.25),
    ));
    cases.push((
        "portfolio_robust",
        portfolio_case(
            PortfolioMode::Robust {
                combine: ScenarioCombine::Blend { beta: 0.5 },
                cap: Some(4),
                scheme: Scheme::Dtr,
            },
            1,
            f64::INFINITY,
        ),
    ));
    cases.push(("upgrade", upgrade_case()));

    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/search");
    cases
        .into_iter()
        .map(|(name, text)| (dir.join(format!("{name}.txt")), text))
        .collect()
}

#[path = "../../../tests/support/freeze.rs"]
mod freeze;
