//! Frozen replay artifacts (ROADMAP item 1a): the `events.jsonl` and
//! `report.json` that `dtrctl replay` writes for the two checked-in
//! traces and one generated demand-only trace under the SLA objective,
//! recorded before `ReoptSearch`/`ReoptSession` moved onto one
//! engine-backed evaluation. Refactors of the reoptimization or daemon
//! evaluation stack must reproduce these files byte for byte.
//!
//! After an intended behaviour change, rewrite the files with
//! `cargo test -p dtr-daemon --test golden -- --ignored bless`.

use dtr_cost::{Objective, SlaParams};
use dtr_daemon::{replay_trace, serve, Daemon, DaemonCfg, Request};
use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_scenario::{generate_churn, ChurnCfg, ChurnTrace};
use dtr_traffic::{DemandSet, TrafficCfg};
use std::path::PathBuf;

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

fn checked_in(name: &str) -> ChurnTrace {
    let path = repo_file(&format!("../../traces/{name}.json"));
    serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap()
}

/// Demand drift and bursts only: masked evaluation is load-only, so an
/// SLA daemon never sees a link event.
fn sla_drift_trace() -> ChurnTrace {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 10,
        directed_links: 40,
        seed: 3,
    });
    let base = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 3,
            ..Default::default()
        },
    )
    .scaled(3.0);
    generate_churn(
        "sla_drift",
        &topo,
        &base,
        &ChurnCfg {
            events: 12,
            seed: 9,
            flap_rate: 0.0,
            whatif_rate: 0.0,
            burst_rate: 0.5,
            ..Default::default()
        },
    )
}

/// One replay per evaluation path the daemon has: per-event searches
/// with link failures and probes, coalesced batches with idle passes,
/// and `step`/`idle_step` under [`Objective::SlaBased`].
fn cases() -> Vec<(&'static str, ChurnTrace, DaemonCfg)> {
    vec![
        ("smoke", checked_in("smoke"), DaemonCfg::default()),
        (
            "smoke_bursty",
            checked_in("smoke_bursty"),
            DaemonCfg {
                coalesce: 4,
                idle_steps: 2,
                ..Default::default()
            },
        ),
        (
            "sla_drift",
            sla_drift_trace(),
            DaemonCfg {
                // 20 ms: tight enough that two pairs of the base
                // matrix violate it, so Λ (not only Φ_L) steers.
                objective: Objective::SlaBased(SlaParams {
                    bound_s: 0.020,
                    ..Default::default()
                }),
                coalesce: 2,
                idle_steps: 1,
                ..Default::default()
            },
        ),
    ]
}

/// `(golden file, regenerated contents)` for every frozen artifact, in
/// the exact serialization `dtrctl replay` writes to `--out`.
fn regenerate() -> Vec<(PathBuf, String)> {
    let mut out = Vec::new();
    for (name, trace, cfg) in cases() {
        let outcome = replay_trace(&trace, cfg, None);
        let mut events = outcome.lines.join("\n");
        events.push('\n');
        out.push((
            repo_file(&format!("tests/golden/replay/{name}/events.jsonl")),
            events,
        ));
        out.push((
            repo_file(&format!("tests/golden/replay/{name}/report.json")),
            serde_json::to_string_pretty(&outcome.report).unwrap(),
        ));
    }
    out
}

/// The smoke trace's requests piped through `serve` as bytes get the
/// frozen `events.jsonl`, byte for byte: the transport adds nothing.
#[test]
fn serve_over_a_byte_pipe_replies_with_the_smoke_golden() {
    let trace = checked_in("smoke");
    let input: String = trace
        .events
        .iter()
        .map(|e| serde_json::to_string(&Request::from_churn(&e.action)).unwrap() + "\n")
        .collect();
    let daemon = Daemon::new(trace.topo, trace.base, None, DaemonCfg::default());
    let mut output = Vec::new();
    serve(daemon, input.as_bytes(), &mut output).unwrap();
    let frozen = std::fs::read(repo_file("tests/golden/replay/smoke/events.jsonl")).unwrap();
    assert!(output == frozen, "serve's replies differ from the golden");
}

#[path = "../../../tests/support/freeze.rs"]
mod freeze;
