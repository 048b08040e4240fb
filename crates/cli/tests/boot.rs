//! `dtrd` start-up: input files that parse but were written for another
//! topology are a usage error (exit 2, `dtrd: FILE: …`), like every
//! other bad flag — not a panic inside `Daemon::new`.

use dtr_graph::gen::{random_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{Topology, WeightVector};
use dtr_traffic::{DemandSet, TrafficCfg};
use std::process::{Command, Stdio};

fn topology(nodes: usize) -> Topology {
    random_topology(&RandomTopologyCfg {
        nodes,
        directed_links: nodes * 4,
        seed: 2,
    })
}

#[test]
fn files_for_another_topology_are_usage_errors_naming_the_file() {
    let dir = std::env::temp_dir().join(format!("dtrd-boot-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, json: String| {
        let path = dir.join(name).to_str().unwrap().to_string();
        std::fs::write(&path, json).unwrap();
        path
    };
    let (big, small) = (topology(20), topology(12));
    let demands = |t: &Topology| DemandSet::generate(t, &TrafficCfg::default());
    let t20 = write("t20.json", serde_json::to_string(&big).unwrap());
    let m20 = write("m20.json", serde_json::to_string(&demands(&big)).unwrap());
    let m12 = write("m12.json", serde_json::to_string(&demands(&small)).unwrap());
    let w12 = write(
        "w12.json",
        serde_json::to_string(&DualWeights::replicated(WeightVector::uniform(&small, 1))).unwrap(),
    );
    for (flags, file) in [
        (vec!["--traffic", &m12], &m12),
        (vec!["--traffic", &m20, "--weights", &w12], &w12),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dtrd"))
            .args(["--topo", &t20])
            .args(&flags)
            .stdin(Stdio::null())
            .output()
            .expect("spawn dtrd");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flags:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("dtrd: {file}: ")) && stderr.contains("usage: dtrd"),
            "{flags:?}: {stderr}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
