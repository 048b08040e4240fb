//! Integration tests for the differential-validation harness:
//! byte-identical repeat runs (the derived-seed determinism contract)
//! and corpus-regime coverage beyond the unit tests' single instance.

use dtr_scenario::{
    run_validation, validate_instance, ScenarioSpec, SearchSpec, TopologySpec, TrafficSpec,
    ValidateCfg,
};
use dtr_traffic::TrafficFamily;

fn cfg(packets: u64) -> ValidateCfg {
    ValidateCfg {
        smoke: true,
        only: None,
        des_packets: packets,
    }
}

fn spec(name: &str, topology: TopologySpec, family: TrafficFamily, seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: name.into(),
        description: None,
        smoke: Some(true),
        topology,
        traffic: TrafficSpec {
            family,
            f: None,
            k: Some(0.2),
            model: None,
            scale: Some(3.0),
            seed: Some(seed),
            fractions: None,
            densities: None,
        },
        failures: None,
        search: Some(SearchSpec {
            budget: Some("tiny".into()),
            seed: Some(seed),
            beta: None,
            portfolio: None,
        }),
        objective: None,
        deployment: None,
    }
}

/// The satellite contract: validation reports are **byte-identical**
/// across repeat runs — the DES seed is derived from the manifest seed
/// via `derive_stream_seed`, nothing reads the clock, and every
/// aggregation iterates sorted structures.
#[test]
fn repeat_runs_serialize_byte_identically() {
    let s = spec(
        "repeat",
        TopologySpec::Random {
            nodes: 9,
            links: 36,
            seed: 7,
        },
        TrafficFamily::Gravity,
        7,
    );
    let c = cfg(30_000);
    let a = serde_json::to_string_pretty(&validate_instance(&s, &c).unwrap()).unwrap();
    let b = serde_json::to_string_pretty(&validate_instance(&s, &c).unwrap()).unwrap();
    assert_eq!(a, b, "validation reports must be byte-identical");
}

/// Different manifest seeds must drive different DES streams (the
/// derived seed is injective in the base seed for fixed streams).
#[test]
fn different_manifest_seeds_give_different_des_streams() {
    let topo = TopologySpec::Random {
        nodes: 9,
        links: 36,
        seed: 7,
    };
    let a = validate_instance(&spec("a", topo, TrafficFamily::Gravity, 7), &cfg(20_000)).unwrap();
    let b = validate_instance(&spec("b", topo, TrafficFamily::Gravity, 8), &cfg(20_000)).unwrap();
    assert_ne!(a.baseline.des_seed, b.baseline.des_seed);
    assert_ne!(a.dtr.des_seed, b.dtr.des_seed);
}

/// A mini-corpus spanning three topology regimes (ISP-style random,
/// datacenter Clos, expander) and three traffic families: every
/// instance must clear the gates that `tests/sim_vs_analytic.rs` used
/// to claim for one hand-built graph — structural fluid agreement and
/// zero priority-isolation violations.
#[test]
fn gates_hold_across_topology_and_traffic_regimes() {
    let specs = vec![
        spec(
            "mini-random",
            TopologySpec::Random {
                nodes: 10,
                links: 40,
                seed: 3,
            },
            TrafficFamily::Gravity,
            3,
        ),
        spec(
            "mini-fattree",
            TopologySpec::FatTree { pods: 2 },
            TrafficFamily::Hotspot {
                hotspots: 2,
                hot_share: 0.5,
            },
            4,
        ),
        spec(
            "mini-xpander",
            TopologySpec::Xpander {
                degree: 3,
                lifts: 2,
                seed: 5,
            },
            TrafficFamily::SkewedGravity { alpha: 1.0 },
            5,
        ),
    ];
    let c = cfg(30_000);
    let (reports, summary) = run_validation(&specs, &c).unwrap();
    assert_eq!(reports.len(), 3);
    assert!(
        summary.fluid_ok,
        "fluid load err {}",
        summary.max_fluid_load_rel_err
    );
    assert!(summary.isolation_ok);
    assert_eq!(
        summary.names,
        vec!["mini-random", "mini-fattree", "mini-xpander"]
    );
}

/// The comma-separated `--only` semantics reach the validation runner
/// through the shared suite filter.
#[test]
fn validation_reuses_the_comma_list_filter() {
    let topo = TopologySpec::Random {
        nodes: 8,
        links: 32,
        seed: 2,
    };
    let specs = vec![
        spec("one", topo, TrafficFamily::Gravity, 2),
        spec("two", topo, TrafficFamily::Gravity, 3),
        spec("three", topo, TrafficFamily::Gravity, 4),
    ];
    let c = ValidateCfg {
        smoke: true,
        only: Some("one,three".into()),
        des_packets: 15_000,
    };
    let (reports, summary) = run_validation(&specs, &c).unwrap();
    assert_eq!(summary.names, vec!["one", "three"]);
    assert_eq!(reports.len(), 2);
}
