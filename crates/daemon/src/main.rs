//! `dtrd` — the reoptimization daemon binary.
//!
//! ```text
//! dtrd --topo topo.json --traffic traffic.json \
//!      [--weights weights.json] [--budget tiny|quick|experiment|paper] \
//!      [--seed N] [--backend full|incremental] [--changes H] \
//!      [--min-gain-per-churn F] [--objective load|sla[:BOUND_MS]] \
//!      [--coalesce N] [--idle-steps N] [--socket PATH] [--tcp ADDR]
//! ```
//!
//! Serves the line-delimited JSON protocol on stdin/stdout, on a unix
//! socket when `--socket` is given, or on TCP when `--tcp ADDR`
//! (e.g. `--tcp 127.0.0.1:7700`) is given. `--coalesce N` batches
//! state-changing events (send `"Flush"` to close a batch early);
//! `--idle-steps N` spends a background anytime budget at each event
//! boundary. The argument parser is deliberately tiny — `dtrctl` (in
//! `dtr-cli`) is the full-featured front end and drives the same
//! daemon in-process.

use dtr_daemon::{serve_stdio, Daemon, DaemonCfg};
use dtr_engine::BackendKind;
use dtr_graph::weights::DualWeights;
use dtr_graph::Topology;
use dtr_traffic::DemandSet;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "usage: dtrd --topo FILE --traffic FILE [--weights FILE] \
[--budget NAME] [--seed N] [--backend full|incremental] [--changes H] \
[--min-gain-per-churn F] [--objective load|sla[:BOUND_MS]] [--coalesce N] \
[--idle-steps N] [--socket PATH] [--tcp ADDR]";

/// `load`, `sla` (paper-default 25 ms bound) or `sla:<ms>`.
fn parse_objective(value: &str) -> Result<dtr_cost::Objective, String> {
    use dtr_cost::{Objective, SlaParams};
    match value {
        "load" => Ok(Objective::LoadBased),
        "sla" => Ok(Objective::SlaBased(SlaParams::default())),
        other => match other.strip_prefix("sla:") {
            Some(ms) => {
                let bound_ms: f64 = ms
                    .parse()
                    .ok()
                    .filter(|b: &f64| b.is_finite() && *b > 0.0)
                    .ok_or_else(|| format!("bad SLA bound '{ms}' (need positive ms)"))?;
                Ok(Objective::SlaBased(SlaParams {
                    bound_s: bound_ms * 1e-3,
                    ..SlaParams::default()
                }))
            }
            None => Err(format!("unknown objective '{other}'")),
        },
    }
}

fn parse_args() -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument '{arg}'"));
        };
        let (key, value) = match flag.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => {
                let v = args
                    .next()
                    .ok_or_else(|| format!("flag --{flag} needs a value"))?;
                (flag.to_string(), v)
            }
        };
        out.insert(key, value);
    }
    Ok(out)
}

fn load_json<T: serde::de::DeserializeOwned>(path: &str) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let topo: Topology = load_json(args.get("topo").ok_or("missing --topo")?)?;
    let traffic = args.get("traffic").ok_or("missing --traffic")?;
    let demands: DemandSet = load_json(traffic)?;
    // `Daemon::new` indexes the matrices by node and asserts the weight
    // lengths: files written for another topology stop here instead.
    let (n, m) = (topo.node_count(), topo.link_count());
    if demands.high.len() != n || demands.low.len() != n {
        return Err(format!(
            "{traffic}: {0}×{0} high and {1}×{1} low matrices, but the topology has {n} nodes",
            demands.high.len(),
            demands.low.len()
        ));
    }
    let weights: Option<DualWeights> = match args.get("weights") {
        Some(p) => {
            let w: DualWeights = load_json(p)?;
            if w.high.len() != m || w.low.len() != m {
                return Err(format!(
                    "{p}: {} high and {} low weights, but the topology has {m} directed links",
                    w.high.len(),
                    w.low.len()
                ));
            }
            Some(w)
        }
        None => None,
    };

    let budget = args.get("budget").map(String::as_str).unwrap_or("tiny");
    let mut params = dtr_core::SearchParams::preset(budget)
        .ok_or_else(|| format!("unknown budget '{budget}'"))?;
    if let Some(seed) = args.get("seed") {
        params = params.with_seed(seed.parse().map_err(|_| "bad --seed")?);
    }
    if let Some(backend) = args.get("backend") {
        params = params.with_backend(match backend.as_str() {
            "full" => BackendKind::Full,
            "incremental" => BackendKind::Incremental,
            other => return Err(format!("unknown backend '{other}'")),
        });
    }
    let cfg = DaemonCfg {
        params,
        changes_per_event: match args.get("changes") {
            Some(v) => v.parse().map_err(|_| "bad --changes")?,
            None => DaemonCfg::default().changes_per_event,
        },
        min_gain_per_churn: match args.get("min-gain-per-churn") {
            Some(v) => v.parse().map_err(|_| "bad --min-gain-per-churn")?,
            None => 0.0,
        },
        objective: match args.get("objective") {
            Some(v) => parse_objective(v)?,
            None => DaemonCfg::default().objective,
        },
        coalesce: match args.get("coalesce") {
            Some(v) => v.parse().map_err(|_| "bad --coalesce")?,
            None => 0,
        },
        idle_steps: match args.get("idle-steps") {
            Some(v) => v.parse().map_err(|_| "bad --idle-steps")?,
            None => 0,
        },
    };

    if args.contains_key("socket") && args.contains_key("tcp") {
        return Err("--socket and --tcp are mutually exclusive".to_string());
    }
    let mut daemon = Daemon::new(topo, demands, weights, cfg);
    match (args.get("socket"), args.get("tcp")) {
        (Some(path), _) => {
            #[cfg(unix)]
            {
                dtr_daemon::serve_unix(&mut daemon, std::path::Path::new(path))
                    .map_err(|e| format!("socket {path}: {e}"))
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                Err("--socket requires a unix platform".to_string())
            }
        }
        (None, Some(addr)) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("tcp {addr}: {e}"))?;
            eprintln!(
                "dtrd: listening on tcp://{}",
                listener.local_addr().map_err(|e| e.to_string())?
            );
            dtr_daemon::serve_tcp(daemon, listener).map_err(|e| format!("tcp {addr}: {e}"))
        }
        (None, None) => serve_stdio(&mut daemon).map_err(|e| format!("stdio: {e}")),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dtrd: {e}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
