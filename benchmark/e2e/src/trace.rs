//! The traced run: hands a captured workload to `dtr-bench-layers`,
//! which replays it in-process under spans and times each crate's
//! public calls.

use crate::host::Checkout;
use crate::json::{self, f, get, obj, s};
use crate::outcome::Run;
use crate::proc;
use crate::stats::median;
use serde::Value;
use std::process::Command;
use std::time::Duration;

/// What the in-process replay reported.
pub struct Layers {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) of every per-layer metric.
    pub metrics: Vec<(String, f64, String)>,
}

/// `dtrctl help` spawn-to-exit, ms: the fixed cost of every command.
fn spawn_ms(co: &Checkout, run: &Run) -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..9 {
        let done = proc::run(
            Command::new(&co.dtrctl).arg("help"),
            &run.dir.join("help.log"),
            Duration::from_secs(10),
        )
        .map_err(|e| format!("dtrctl help: {e}"))?;
        if !done.status.success() {
            return Err(format!("dtrctl help exited with {}", done.status));
        }
        samples.push(done.wall_s * 1e3);
    }
    Ok(median(&samples))
}

pub fn replay(co: &Checkout, run: &Run, smoke: bool) -> Result<Layers, String> {
    let bin = co.build_layers()?;
    let out = &run.outcome;
    let outcome = out.to_json();
    let handoff = obj([
        ("workload", s(&out.workload)),
        ("smoke", Value::Bool(smoke)),
        ("cli_spawn_ms", f(spawn_ms(co, run)?)),
        ("metrics", get(&outcome, "metrics").clone()),
        ("notes", get(&outcome, "notes").clone()),
    ]);
    std::fs::write(run.dir.join("e2e.json"), json::pretty(&handoff)).map_err(|e| e.to_string())?;

    let log = run.dir.join("layers.out");
    let trace_file = co.out.join(format!("trace-{}.jsonl", out.workload));
    let done = proc::run(
        Command::new(&bin)
            .arg("--dir")
            .arg(&run.dir)
            .arg("--trace-out")
            .arg(&trace_file),
        &log,
        Duration::from_secs(170),
    )
    .map_err(|e| format!("dtr-bench-layers: {e}"))?;
    let text = std::fs::read_to_string(&log).map_err(|e| e.to_string())?;
    let (report, last) = match text.trim_end().rsplit_once('\n') {
        Some((head, last)) => (head, last),
        None => ("", text.trim_end()),
    };
    println!("{report}");
    if !done.status.success() {
        return Err(format!(
            "dtr-bench-layers exited with {}: {last}",
            done.status
        ));
    }
    let result = json::parse(last).map_err(|e| format!("dtr-bench-layers result line: {e}"))?;
    let count = |key: &str| {
        json::uint(get(&result, key)).ok_or_else(|| format!("layers result without {key}"))
    };
    let metrics = get(&result, "metrics")
        .as_map()
        .ok_or("layers result without metrics")?
        .iter()
        .map(|(name, m)| {
            let value = json::num(get(m, "value")).ok_or_else(|| format!("{name} has no value"))?;
            Ok((
                name.clone(),
                value,
                get(m, "unit").as_str().unwrap_or("").to_string(),
            ))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(Layers {
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}
