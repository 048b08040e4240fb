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

/// Generates the instance, optimizes it at the `tiny` budget and
/// returns what `simulate` prints for the resulting weights.
fn simulate_stdout() -> String {
    // Per thread as well as per process: the compare and bless tests
    // may run side by side under `--include-ignored`.
    let dir = std::env::temp_dir().join(format!(
        "dtrctl-simulate-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
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

/// `(golden file, regenerated contents)`.
fn regenerate() -> Vec<(PathBuf, String)> {
    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/simulate.txt");
    vec![(golden, simulate_stdout())]
}

#[path = "../../../tests/support/freeze.rs"]
mod freeze;
