//! Frozen measurements of two seeded packet-level runs. The validate
//! goldens of `dtr-scenario` see the DES only through condensed means;
//! these files pin what the engine itself measures — packet counters,
//! per-link per-class bits and wait accumulators, per-pair delay
//! accumulators — with every float written as its bit pattern, so a
//! refactor of the report types or the event loop must reproduce the
//! RNG draw order and every accumulation exactly.
//!
//! After an intended behaviour change, rewrite the files with
//! `cargo test -p dtr-sim --test golden -- --ignored bless`.

use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_sim::{SimConfig, SimReport, Simulation};
use dtr_traffic::{DemandSet, TrafficCfg};
use std::fmt::Write;
use std::path::PathBuf;

fn instance() -> (Topology, DemandSet, DualWeights, SimConfig) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 10,
        directed_links: 40,
        seed: 3,
    });
    let demands = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 4,
            k: 0.3,
            ..Default::default()
        },
    )
    .scaled(2.0);
    // Genuinely dual weights, so the classes take different paths.
    let weights = DualWeights {
        high: WeightVector::uniform(&topo, 1),
        low: WeightVector::delay_proportional(&topo, 30),
    };
    let cfg = SimConfig {
        warmup_s: 0.05,
        duration_s: 0.25,
        seed: 9,
        ..Default::default()
    };
    (topo, demands, weights, cfg)
}

/// One line per counter, per (link, class) and per measured pair, pairs
/// in sorted key order.
fn fingerprint(r: &SimReport) -> String {
    let mut out = String::new();
    writeln!(out, "generated {}", r.generated).unwrap();
    writeln!(out, "delivered {}", r.delivered).unwrap();
    writeln!(out, "dropped {}", r.dropped).unwrap();
    writeln!(out, "inflight_at_end {}", r.inflight_at_end).unwrap();
    for (i, link) in r.link_stats.iter().enumerate() {
        for (c, stats) in link.per_class.iter().enumerate() {
            writeln!(
                out,
                "link {i} class {c} bits {:016x} wait {} {:016x}",
                stats.bits.to_bits(),
                stats.wait.count,
                stats.wait.sum.to_bits()
            )
            .unwrap();
        }
    }
    let mut pairs: Vec<_> = r.pair_delays.iter().collect();
    pairs.sort_by_key(|(key, _)| **key);
    for (key, acc) in pairs {
        writeln!(
            out,
            "pair {} {} {} delay {} {:016x}",
            key.class,
            key.src,
            key.dst,
            acc.count,
            acc.sum.to_bits()
        )
        .unwrap();
    }
    out
}

/// `(golden file, regenerated contents)` for both frozen runs.
fn regenerate() -> Vec<(PathBuf, String)> {
    let (topo, demands, weights, cfg) = instance();
    let two = Simulation::new(&topo, &demands, &weights, cfg).run();
    // A third, lowest class: another seed's high matrix on its own
    // weight vector.
    let third = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 5,
            k: 0.2,
            ..Default::default()
        },
    )
    .high;
    let three = Simulation::with_classes(
        &topo,
        &[&demands.high, &demands.low, &third],
        &[
            weights.high.clone(),
            weights.low.clone(),
            WeightVector::uniform(&topo, 3),
        ],
        cfg,
    )
    .run();
    let file = |name: &str| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(name)
    };
    vec![
        (file("two_class.txt"), fingerprint(&two)),
        (file("three_class.txt"), fingerprint(&three)),
    ]
}

#[path = "../../../tests/support/freeze.rs"]
mod freeze;
