//! Frozen stdout of `dtrctl simulate` on a seeded 12-node instance: the
//! one place an operator reads the packet-level engine's report, pinned
//! byte for byte through the real binary.
//!
//! After an intended behaviour change, rewrite the file with
//! `cargo test -p dtr-cli --test simulate_stdout -- --ignored bless`.

use std::path::PathBuf;
use std::process::Command;

fn dtrctl(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_dtrctl"))
        .args(args)
        .output()
        .expect("spawn dtrctl");
    assert!(
        out.status.success(),
        "dtrctl {args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn golden() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/simulate.txt")
}

/// Generates the instance, optimizes it at the `tiny` budget and
/// returns what `simulate` prints for the resulting weights.
fn simulate_stdout(tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("dtrctl-simulate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let (t, m, w) = (file("t.json"), file("m.json"), file("w.json"));
    dtrctl(&[
        "topo", "random", "--nodes", "12", "--links", "48", "--seed", "2", "--out", &t,
    ]);
    dtrctl(&[
        "traffic", "--topo", &t, "--scale", "3", "--seed", "2", "--out", &m,
    ]);
    dtrctl(&[
        "optimize",
        "--topo",
        &t,
        "--traffic",
        &m,
        "--scheme",
        "dtr",
        "--budget",
        "tiny",
        "--out",
        &w,
    ]);
    let out = dtrctl(&[
        "simulate",
        "--topo",
        &t,
        "--traffic",
        &m,
        "--weights",
        &w,
        "--duration",
        "0.1",
        "--warmup",
        "0.05",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn simulate_prints_the_frozen_report() {
    let frozen = std::fs::read_to_string(golden()).expect("golden file");
    assert_eq!(simulate_stdout("check"), frozen);
}

#[test]
#[ignore = "rewrites the golden file"]
fn bless() {
    std::fs::write(golden(), simulate_stdout("bless")).unwrap();
}
