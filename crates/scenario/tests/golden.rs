//! Frozen outputs of the suite and validation pipelines (ROADMAP item
//! 1a): the per-instance JSON that `dtrctl suite --smoke` and `dtrctl
//! validate --smoke` write, recorded before the k-class evaluator was
//! ported onto the engine kernel. Refactors of the evaluation stack
//! must reproduce these files byte for byte; the only field zeroed is
//! the suite's wall-clock `elapsed_s`.
//!
//! After an intended behaviour change, rewrite the files with
//! `cargo test -p dtr-scenario --test golden -- --ignored bless`.

use dtr_scenario::{load_spec, run_instance, validate_instance, ValidateCfg};
use std::path::PathBuf;

/// One manifest per path the suite has: two k-class SLA instances, one
/// over a non-gravity base class and one under a `WorstK` failure sweep,
/// a failure-sweep instance, a partial-deployment instance, the
/// portfolio branch of `run_scheme`, a `WorstK` cap on a non-gravity
/// family, a two-class SLA objective, and that objective on a partial
/// deployment. The last two live beside the goldens; the rest are
/// corpus instances.
const INSTANCES: [&str; 10] = [
    "../../corpus/random10-triclass-sla",
    "../../corpus/grid9-quadclass-sla",
    "../../corpus/random10-triclass-hotspot",
    "../../corpus/random10-triclass-worstk",
    "../../corpus/random12-smoke",
    "../../corpus/isp-partial-upgrade",
    "../../corpus/xpander20-portfolio",
    "../../corpus/vl2-hotspot",
    "tests/golden/specs/random10-dual-sla",
    "tests/golden/specs/random10-partial-sla",
];

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel)
}

/// `(golden file, regenerated contents)` for every frozen report.
fn regenerate() -> Vec<(PathBuf, String)> {
    let cfg = ValidateCfg {
        smoke: true,
        only: None,
        des_packets: 0,
    };
    let mut out = Vec::new();
    for manifest in INSTANCES {
        let spec = load_spec(&repo_file(&format!("{manifest}.json"))).unwrap();
        let name = &spec.name;
        let mut suite = run_instance(&spec, true);
        suite.baseline.elapsed_s = 0.0;
        suite.dtr.elapsed_s = 0.0;
        out.push((
            repo_file(&format!("tests/golden/suite/{name}.json")),
            serde_json::to_string_pretty(&suite).unwrap(),
        ));
        out.push((
            repo_file(&format!("tests/golden/validate/{name}.json")),
            serde_json::to_string_pretty(&validate_instance(&spec, &cfg).unwrap()).unwrap(),
        ));
    }
    out
}

#[path = "../../../tests/support/freeze.rs"]
mod freeze;
