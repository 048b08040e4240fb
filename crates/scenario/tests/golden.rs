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

/// Two k-class SLA instances, one failure-sweep instance and one
/// partial-deployment instance — one per evaluation path the suite has.
const INSTANCES: [&str; 4] = [
    "random10-triclass-sla",
    "grid9-quadclass-sla",
    "random12-smoke",
    "isp-partial-upgrade",
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
    for name in INSTANCES {
        let spec = load_spec(&repo_file(&format!("../../corpus/{name}.json"))).unwrap();
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

#[test]
fn suite_and_validate_reports_match_the_frozen_files() {
    for (path, fresh) in regenerate() {
        let frozen =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(fresh, frozen, "{} drifted", path.display());
    }
}

#[test]
#[ignore = "rewrites the golden files"]
fn bless() {
    for (path, fresh) in regenerate() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fresh).unwrap();
    }
}
