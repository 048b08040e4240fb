//! Frozen measurements of three seeded packet-level runs. The validate
//! goldens of `dtr-scenario` see the DES only through condensed means;
//! these files pin every field the engine itself measures — packet
//! counters, per-link busy time, per-link per-class bits and sojourn and
//! wait accumulators, per-pair delay accumulators, the hop accumulator —
//! with every float written as its bit pattern, so a refactor of the
//! report types or the event loop must reproduce the RNG draw order, the
//! pop order of simultaneous events and every accumulation exactly.
//!
//! The third run is built to stress that order: fixed-size packets on
//! equal-capacity links with zero propagation delay make many events
//! fall on the same instant, and four-packet buffers under overload
//! make tail drops depend on which of them is handled first.
//!
//! After an intended behaviour change, rewrite the files with
//! `cargo test -p dtr-sim --test golden -- --ignored bless`.

use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{NodeId, Topology, TopologyBuilder, WeightVector};
use dtr_sim::stats::Acc;
use dtr_sim::{SimConfig, SimReport, Simulation};
use dtr_traffic::{DemandSet, TrafficCfg, TrafficMatrix};
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

/// `count sum max` of an accumulator, floats as bit patterns.
fn acc(a: &Acc) -> String {
    format!(
        "{} {:016x} {:016x}",
        a.count,
        a.sum.to_bits(),
        a.max.to_bits()
    )
}

/// One line per counter, per link, per (link, class) and per measured
/// pair, pairs in sorted key order.
fn fingerprint(r: &SimReport) -> String {
    let mut out = String::new();
    writeln!(out, "generated {}", r.generated).unwrap();
    writeln!(out, "delivered {}", r.delivered).unwrap();
    writeln!(out, "dropped {}", r.dropped).unwrap();
    writeln!(out, "inflight_at_end {}", r.inflight_at_end).unwrap();
    writeln!(out, "hops {}", acc(&r.hops)).unwrap();
    for (i, link) in r.link_stats.iter().enumerate() {
        writeln!(out, "link {i} busy {:016x}", link.busy_s.to_bits()).unwrap();
        for (c, stats) in link.per_class.iter().enumerate() {
            writeln!(
                out,
                "link {i} class {c} bits {:016x} sojourn {} wait {}",
                stats.bits.to_bits(),
                acc(&stats.sojourn),
                acc(&stats.wait)
            )
            .unwrap();
        }
    }
    let mut pairs: Vec<_> = r.pair_delays.iter().collect();
    pairs.sort_by_key(|(key, _)| **key);
    for (key, delay) in pairs {
        writeln!(
            out,
            "pair {} {} {} delay {}",
            key.class,
            key.src,
            key.dst,
            acc(delay)
        )
        .unwrap();
    }
    out
}

/// Six nodes on equal 10 Mbit/s links, half of them without
/// propagation delay, three classes offering about twice what the
/// busiest links carry, fixed-size packets and four-packet buffers.
fn tied_run() -> SimReport {
    let mut b = TopologyBuilder::new();
    b.add_nodes(6);
    for (a, z, prop) in [
        (0, 1, 0.0),
        (1, 2, 0.0),
        (2, 3, 0.001),
        (3, 4, 0.0),
        (4, 5, 0.002),
        (5, 0, 0.0),
        (0, 3, 0.0),
        (1, 4, 0.0005),
    ] {
        b.add_duplex(NodeId(a), NodeId(z), 10.0, prop);
    }
    let topo = b.build().unwrap();
    let matrices: Vec<TrafficMatrix> = [0.4, 0.8, 1.2]
        .iter()
        .map(|&mbps| {
            let mut m = TrafficMatrix::zeros(6);
            for s in 0..6 {
                for t in 0..6 {
                    if s != t {
                        m.set(s, t, mbps);
                    }
                }
            }
            m
        })
        .collect();
    let mut detour = WeightVector::uniform(&topo, 1);
    detour.set(topo.find_link(NodeId(0), NodeId(3)).unwrap(), 3);
    let cfg = SimConfig {
        deterministic_size: true,
        warmup_s: 0.02,
        duration_s: 0.2,
        seed: 13,
        buffer_packets: Some(4),
        ..Default::default()
    };
    Simulation::with_classes(
        &topo,
        &[&matrices[0], &matrices[1], &matrices[2]],
        &[
            WeightVector::uniform(&topo, 1),
            detour,
            WeightVector::uniform(&topo, 2),
        ],
        cfg,
    )
    .run()
}

/// `(golden file, regenerated contents)` for the three frozen runs.
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
        (file("tied_drops.txt"), fingerprint(&tied_run())),
    ]
}

#[path = "../../../tests/support/freeze.rs"]
mod freeze;
