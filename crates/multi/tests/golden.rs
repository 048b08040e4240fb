//! Frozen seeded incumbents of the k-class search (ROADMAP items 1a and
//! 3): weights, cost bits, trace counters and the improvement log's
//! `(iteration, evaluations, phase)` triples of two 3-class `tiny` runs
//! on a 10-node instance, recorded before `MultiSearch` moved onto the
//! shared descent driver. The sibling of `dtr-core`'s
//! `tests/golden.rs`; the RNG draw order is part of what the files pin.
//!
//! After an intended behaviour change, rewrite the files with
//! `cargo test -p dtr-multi --test golden -- --ignored bless`.

use dtr_core::SearchParams;
use dtr_cost::{ObjectiveSpec, SlaParams};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_multi::{MultiDemand, MultiSearch, MultiTrafficCfg};
use std::fmt::Write;
use std::path::PathBuf;

fn case(spec: &ObjectiveSpec, seed: u64) -> String {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 10,
        directed_links: 40,
        seed: 13,
    });
    let demands = MultiDemand::generate(
        &topo,
        &MultiTrafficCfg {
            fractions: vec![0.2, 0.15],
            densities: vec![0.3, 0.3],
            seed: 13,
        },
    )
    .scaled(4.0);
    let res = MultiSearch::with_spec(&topo, &demands, spec, SearchParams::tiny().with_seed(seed))
        .unwrap()
        .run();

    let mut out = String::new();
    for (c, w) in res.weights.iter().enumerate() {
        let ws: Vec<String> = w.as_slice().iter().map(|x| x.to_string()).collect();
        writeln!(out, "weights[{c}]: {}", ws.join(" ")).unwrap();
    }
    // Exact bits first, the readable value after.
    let bits: Vec<String> = res
        .best_cost
        .as_slice()
        .iter()
        .map(|c| format!("{:016x}", c.to_bits()))
        .collect();
    writeln!(
        out,
        "best_cost: {} {:?}",
        bits.join(" "),
        res.best_cost.as_slice()
    )
    .unwrap();
    let t = &res.trace;
    writeln!(
        out,
        "counters: iterations={} evaluations={} diversifications={} moves_accepted={}",
        t.iterations, t.evaluations, t.diversifications, t.moves_accepted
    )
    .unwrap();
    let log: Vec<String> = t
        .improvements
        .iter()
        .map(|i| format!("{}/{}/{:?}", i.iteration, i.evaluations, i.phase))
        .collect();
    writeln!(out, "improvements: {}", log.join(" ")).unwrap();
    out
}

/// `(golden file, regenerated contents)` for every frozen case.
fn regenerate() -> Vec<(PathBuf, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/search");
    vec![
        (
            dir.join("multi_load3.txt"),
            case(&ObjectiveSpec::load(3), 13),
        ),
        (
            dir.join("multi_sla3.txt"),
            // A bound tight enough that some pairs violate it, so the Λ
            // components (not only the base class's Φ) steer the search.
            case(
                &ObjectiveSpec::uniform_sla(
                    3,
                    SlaParams {
                        bound_s: 0.012,
                        ..Default::default()
                    },
                ),
                17,
            ),
        ),
    ]
}

#[path = "../../../tests/support/freeze.rs"]
mod freeze;
