//! `dtr-bench-layers`: the traced, in-process half of the benchmark.
//!
//! ```text
//! dtr-bench-layers --dir WORKDIR --trace-out FILE
//! ```
//!
//! `WORKDIR` is what `dtr-bench --trace 1` captured: the generated
//! inputs of one workload, what the programs answered, and `e2e.json`.
//! The workload is replayed in-process under spans, its replies checked
//! against the captured ones, and every crate's public calls are timed
//! on the workload's reference instance. The last line of the output is
//! `{"attempted", "failed", "metrics"}` with every per-layer metric.

mod adapter;
mod corpus;
mod metrics;
mod probes;
mod session;
mod spans;

use adapter::*;
use probes::{median, per_call, Readings, Reference};
use spans::Recorder;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Untyped view of a JSON file (`e2e.json`), read through the shim's
/// data model.
pub(crate) struct Handoff(serde::Value);

impl serde::Deserialize for Handoff {
    fn from_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        Ok(Handoff(v.clone()))
    }
}

impl Handoff {
    pub(crate) fn at(&self, path: &[&str]) -> &serde::Value {
        static NULL: serde::Value = serde::Value::Null;
        path.iter().fold(&self.0, |v, key| {
            v.as_map().map_or(&NULL, |m| serde::field(m, key))
        })
    }

    fn num(&self, path: &[&str]) -> Option<f64> {
        match *self.at(path) {
            serde::Value::Float(f) => Some(f),
            serde::Value::UInt(u) => Some(u as f64),
            _ => None,
        }
    }

    /// Sum of an object's numeric values (per-instance seconds).
    fn sum(&self, path: &[&str]) -> Option<f64> {
        self.at(path)
            .as_map()?
            .iter()
            .map(|(_, v)| <f64 as serde::Deserialize>::from_value(v).ok())
            .sum()
    }
}

pub(crate) fn load<T: serde::de::DeserializeOwned>(path: &Path) -> Result<T, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_lines(path: &Path) -> Result<Vec<String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// Output checks of the traced run, counted like end-to-end operations.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        println!("  {} {what}", if ok { "ok  " } else { "FAIL" });
    }
}

/// `dtrd`'s flags as the end-to-end run passed them.
fn daemon_cfg(handoff: &Handoff) -> Result<DaemonCfg, String> {
    let flags: Vec<String> = handoff
        .at(&["notes", "dtrd_flags"])
        .as_seq()
        .ok_or("e2e.json carries no dtrd_flags")?
        .iter()
        .filter_map(|v| v.as_str().map(str::to_string))
        .collect();
    let value = |name: &str| {
        flags
            .iter()
            .position(|f| f == name)
            .and_then(|i| flags.get(i + 1))
    };
    let parsed = |name: &str| {
        value(name)
            .map(|v| v.parse::<u64>().map_err(|_| format!("bad {name} {v}")))
            .transpose()
    };
    let budget = value("--budget").map_or("tiny", String::as_str);
    let mut params =
        SearchParams::preset(budget).ok_or_else(|| format!("unknown budget {budget}"))?;
    if let Some(seed) = parsed("--seed")? {
        params = params.with_seed(seed);
    }
    let defaults = DaemonCfg::default();
    Ok(DaemonCfg {
        params,
        changes_per_event: parsed("--changes")?.map_or(defaults.changes_per_event, |c| c as usize),
        coalesce: parsed("--coalesce")?.map_or(0, |c| c as usize),
        idle_steps: parsed("--idle-steps")?.unwrap_or(0),
        ..defaults
    })
}

/// Loopback round trip of a `Status` line through `serve_tcp`, minus
/// the same line through `handle_line`, ms: what the transport adds.
fn tcp_overhead_ms(r: &Reference) -> Result<f64, String> {
    let io = |e: std::io::Error| format!("tcp probe: {e}");
    let boot = || {
        Daemon::new(
            r.topo.clone(),
            r.demands.clone(),
            Some(r.weights.clone()),
            DaemonCfg::default(),
        )
    };
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(io)?;
    let addr = listener.local_addr().map_err(io)?;
    let daemon = boot();
    let server = std::thread::spawn(move || serve_tcp(daemon, listener));
    let stream = std::net::TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = stream;
    let mut ask = |line: &[u8]| -> Result<f64, String> {
        let started = std::time::Instant::now();
        writer.write_all(line).map_err(io)?;
        let mut reply = String::new();
        reader.read_line(&mut reply).map_err(io)?;
        Ok(started.elapsed().as_secs_f64() * 1e3)
    };
    let over_tcp: Vec<f64> = (0..9)
        .map(|_| ask(b"\"Status\"\n"))
        .collect::<Result<_, _>>()?;
    ask(b"\"Shutdown\"\n")?;
    server
        .join()
        .map_err(|_| "tcp probe: server thread panicked")?
        .map_err(io)?;
    let mut local = boot();
    let in_process = 1e3
        * per_call(Duration::from_millis(100), || {
            std::hint::black_box(local.handle_line("\"Status\""));
        });
    Ok(median(&over_tcp).expect("nine samples") - in_process)
}

/// The probe sessions on the reference instance and everything read
/// off them: per-kind `handle_line` medians, the serialization probes.
fn daemon_probes(
    r: &Reference,
    slice: Duration,
    step_ms: f64,
    out: &mut Readings,
) -> Result<(Recorder, session::Session), String> {
    // One round of the two sessions costs about a dozen reoptimization
    // steps (shadows included); spend three seconds (half a second
    // under `--smoke`), at least one round.
    let budget_ms = if r.smoke { 500.0 } else { 3000.0 };
    let rounds = ((budget_ms / (12.0 * step_ms.max(0.1))) as usize).clamp(1, 4);
    let (plain_lines, coalesced_lines) = session::probe_lines(&r.topo, &r.demands, rounds);
    let mut rec = Recorder::new();
    let plain_cfg = DaemonCfg::default();
    let boot = |cfg: DaemonCfg| {
        Daemon::new(
            r.topo.clone(),
            r.demands.clone(),
            Some(r.weights.clone()),
            cfg,
        )
    };
    let mut daemon = boot(plain_cfg);
    let mut all = session::run(&mut rec, "probe", &mut daemon, &plain_cfg, &plain_lines);
    let coalesced_cfg = DaemonCfg {
        coalesce: 4,
        ..plain_cfg
    };
    let mut daemon = boot(coalesced_cfg);
    let coalesced = session::run(
        &mut rec,
        "probe-coalesced",
        &mut daemon,
        &coalesced_cfg,
        &coalesced_lines,
    );
    all.lines.extend(coalesced.lines);
    all.evals_per_step.extend(coalesced.evals_per_step);

    for (name, kind) in [
        ("daemon.handle_ms.demand_update", "demand_update"),
        ("daemon.handle_ms.link_down", "link_down"),
        ("daemon.handle_ms.link_up", "link_up"),
        ("daemon.handle_ms.directed", "directed"),
        ("daemon.handle_ms.flush", "flush"),
        ("daemon.handle_ms.coalesced_ack", "coalesced_ack"),
        ("daemon.handle_ms.whatif_link_down", "whatif_link_down"),
        ("daemon.handle_ms.status", "status"),
        ("daemon.handle_ms.snapshot", "snapshot"),
    ] {
        let ms = median(&all.handle_ms(&rec, kind))
            .ok_or_else(|| format!("the probe sessions sent no {kind} line"))?;
        out.push((name, ms));
    }

    out.push((
        "daemon.clone_us",
        1e6 * per_call(slice, || {
            std::hint::black_box(daemon.clone());
        }),
    ));
    out.push((
        "daemon.boot_ms",
        1e3 * per_call(slice, || {
            std::hint::black_box(boot(plain_cfg));
        }),
    ));
    out.push(("daemon.tcp_overhead_ms", tcp_overhead_ms(r)?));

    let update = &plain_lines[0];
    out.push((
        "shims.parse_demand_update_us",
        1e6 * per_call(slice, || {
            std::hint::black_box(serde_json::from_str::<Request>(update).expect("a request line"));
        }),
    ));
    let reply_of = |kind: &str| -> Result<Reply, String> {
        let line = all
            .lines
            .iter()
            .find(|l| l.kind == kind)
            .ok_or_else(|| format!("no {kind} reply"))?;
        serde_json::from_str(&line.reply).map_err(|e| e.to_string())
    };
    for (name, kind) in [
        ("shims.ser_event_reply_us", "demand_update"),
        ("shims.ser_snapshot_us", "snapshot"),
    ] {
        let reply = reply_of(kind)?;
        out.push((
            name,
            1e6 * per_call(slice, || {
                std::hint::black_box(
                    serde_json::to_string(&reply).expect("replies always serialize"),
                );
            }),
        ));
    }
    Ok((rec, all))
}

struct Args {
    dir: PathBuf,
    trace_out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut dir = None;
    let mut trace_out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--dir" => dir = Some(PathBuf::from(value)),
            "--trace-out" => trace_out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        dir: dir.ok_or("missing --dir")?,
        trace_out: trace_out.ok_or("missing --trace-out")?,
    })
}

/// State of one traced run.
struct Traced {
    dir: PathBuf,
    handoff: Handoff,
    workload: String,
    smoke: bool,
    rec: Recorder,
    checks: Checks,
    out: Readings,
}

impl Traced {
    /// Replays the captured writer lines through an in-process daemon
    /// and checks the replies against the captured ones.
    fn replay_daemon(&mut self) -> Result<(Reference, session::Session), String> {
        let topo: Topology = load(&self.dir.join("topo.json"))?;
        let demands: DemandSet = load(&self.dir.join("traffic.json"))?;
        let weights: DualWeights = load(&self.dir.join("weights.json"))?;
        let cfg = daemon_cfg(&self.handoff)?;
        let lines = read_lines(&self.dir.join("lines.jsonl"))?;
        let captured = read_lines(&self.dir.join("replies.jsonl"))?;
        let mut daemon = Daemon::new(topo.clone(), demands.clone(), Some(weights.clone()), cfg);
        let replayed = session::run(&mut self.rec, "event", &mut daemon, &cfg, &lines);
        let same = replayed.lines.len() == captured.len()
            && replayed
                .lines
                .iter()
                .zip(&captured)
                .all(|(l, c)| l.reply == *c);
        self.checks.check(
            &format!(
                "in-process reply stream is byte-identical to the TCP writer stream ({} lines)",
                captured.len()
            ),
            same,
        );
        self.checks.check(
            "no multi.* or sim.* span in a daemon trace",
            !self.rec.has_prefix("multi.") && !self.rec.has_prefix("sim."),
        );
        if self.workload == "daemon-steady" {
            self.checks.check(
                "no core.idle_step span in daemon-steady",
                self.rec.named("core.idle_step").next().is_none(),
            );
        }
        let e2e_s = self
            .handoff
            .num(&["notes", "writer_total_s"])
            .ok_or("e2e.json carries no writer_total_s")?;
        self.out.push((
            "trace.root_vs_e2e_pct",
            100.0 * replayed.root_total_s(&self.rec) / e2e_s,
        ));
        let spec = random_spec(topo.node_count(), topo.link_count(), 3.0, 1);
        let searched = run_instance(&spec, false);
        self.out
            .push(("scenario.str_search_s", searched.baseline.elapsed_s));
        self.out
            .push(("scenario.dtr_search_s", searched.dtr.elapsed_s));
        Ok((
            Reference::new(topo, demands, weights, spec, self.smoke),
            replayed,
        ))
    }

    /// Replays the generated corpus instance by instance.
    fn replay_corpus(&mut self) -> Result<Reference, String> {
        let specs = load_corpus(&self.dir.join("corpus")).map_err(|e| e.to_string())?;
        let roots = corpus::replay(&mut self.rec, &specs, self.workload == "corpus-mixed");
        if self.workload == "search-scale" {
            self.checks.check(
                "no multi.* or sim.* span in the search-scale trace",
                !self.rec.has_prefix("multi.") && !self.rec.has_prefix("sim."),
            );
        }
        // Compare the suite's share only: `validate` repeats the searches.
        let sims: u64 = self
            .rec
            .spans
            .iter()
            .filter(|s| s.name.starts_with("sim."))
            .map(spans::Span::duration_ns)
            .sum();
        let roots_ns: u64 = roots.iter().map(|&r| self.rec.spans[r].duration_ns()).sum();
        let num = |path: &[&str]| {
            self.handoff
                .num(path)
                .ok_or_else(|| format!("e2e.json carries no {}", path.join(".")))
        };
        let suite_s = num(&["metrics", "suite_s"])?;
        let sum = |path: &[&str]| {
            self.handoff
                .sum(path)
                .ok_or_else(|| format!("e2e.json carries no {}", path.join(".")))
        };
        let (str_s, dtr_s) = (sum(&["notes", "str_s"])?, sum(&["notes", "dtr_s"])?);
        println!(
            "  searches account for {:.1} % of suite_s minus the spawn cost",
            100.0 * (str_s + dtr_s) / (suite_s - num(&["cli_spawn_ms"])? / 1e3)
        );
        self.out.push((
            "trace.root_vs_e2e_pct",
            100.0 * (roots_ns - sims) as f64 / 1e9 / suite_s,
        ));
        self.out.push(("scenario.str_search_s", str_s));
        self.out.push(("scenario.dtr_search_s", dtr_s));
        let spec = specs.into_iter().next().ok_or("empty corpus")?;
        let topo = spec.topology.build();
        let demands = spec.traffic.build(&topo);
        let weights = DtrSearch::new(
            &topo,
            &demands,
            Objective::LoadBased,
            SearchParams::tiny().with_seed(7),
        )
        .run()
        .weights;
        Ok(Reference::new(topo, demands, weights, spec, self.smoke))
    }
}

fn run() -> Result<(Checks, Readings), String> {
    let args = parse_args()?;
    let handoff: Handoff = load(&args.dir.join("e2e.json"))?;
    let workload = handoff
        .at(&["workload"])
        .as_str()
        .ok_or("e2e.json names no workload")?
        .to_string();
    let smoke = matches!(handoff.at(&["smoke"]), serde::Value::Bool(true));
    let slice = Duration::from_millis(if smoke { 20 } else { 150 });
    println!("traced run of {workload}");
    let mut traced = Traced {
        dir: args.dir,
        handoff,
        workload,
        smoke,
        rec: Recorder::new(),
        checks: Checks::default(),
        out: Readings::new(),
    };

    // 1. Replay the captured workload under spans.
    let (reference, workload_session) = if traced.workload.starts_with("daemon-") {
        let (reference, session) = traced.replay_daemon()?;
        (reference, Some(session))
    } else {
        (traced.replay_corpus()?, None)
    };
    let Traced {
        handoff,
        workload,
        rec,
        checks,
        mut out,
        ..
    } = traced;
    std::fs::write(&args.trace_out, rec.to_jsonl())
        .map_err(|e| format!("{}: {e}", args.trace_out.display()))?;
    println!(
        "  {} spans written to {}",
        rec.spans.len(),
        args.trace_out.display()
    );

    // 2. Time each crate's public calls on the reference instance.
    println!(
        "micro-probes on the reference instance ({} nodes, {} links)",
        reference.topo.node_count(),
        reference.topo.link_count()
    );
    probes::graph_traffic_scenario_cost(&reference, slice, &mut out);
    probes::routing(&reference, slice, &mut out);
    probes::engine(&reference, slice, &mut out);
    probes::core(&reference, slice, &mut out);
    probes::multi_sim_mtr(&reference, slice, &mut out);
    let reading = |out: &Readings, name: &str| {
        out.iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
            .expect("probe ran")
    };
    let step_ms = reading(&out, "core.reopt_step_ms");
    let (probe_rec, probe_session) = daemon_probes(&reference, slice, step_ms, &mut out)?;
    out.push((
        "cli.spawn_ms",
        handoff
            .num(&["cli_spawn_ms"])
            .ok_or("e2e.json carries no cli_spawn_ms")?,
    ));

    // 3. Ratios of a daemon session: the workload's own where it has
    // one (and, for the coalescing ratio, coalesces), the probe
    // sessions' otherwise.
    let (session, session_rec) = match &workload_session {
        Some(s) => (s, &rec),
        None => (&probe_session, &probe_rec),
    };
    out.push(("daemon.self_pct", session.self_pct(session_rec)));
    out.push(("daemon.accept_ratio", session.accept_ratio()));
    let coalescing = if workload == "daemon-burst" {
        session
    } else {
        &probe_session
    };
    out.push(("daemon.coalesce_ratio", coalescing.coalesce_ratio()));

    // The step's cost should be its evaluations' (ISSUE 11): print the ratio.
    let predicted_ms =
        reading(&out, "routing.eval_dual_us") * reading(&out, "core.reopt_evals_per_step") / 1e3;
    println!("  eval_dual x evals_per_step = {predicted_ms:.2} ms vs reopt_step {step_ms:.2} ms ({:.0} %)", 100.0 * predicted_ms / step_ms);
    if let Some(counts) = workload_session
        .as_ref()
        .map(|s| &s.evals_per_step)
        .filter(|c| !c.is_empty())
    {
        println!(
            "  evaluations per shadowed step: {}..={}",
            counts.iter().min().expect("non-empty"),
            counts.iter().max().expect("non-empty")
        );
    }
    Ok((checks, out))
}

fn main() -> std::process::ExitCode {
    let (checks, readings) = match run() {
        Ok(done) => done,
        Err(e) => {
            eprintln!("dtr-bench-layers: {e}");
            return std::process::ExitCode::from(2);
        }
    };
    let mut entries = Vec::new();
    for spec in &metrics::CATALOGUE {
        let Some(&(_, value)) = readings.iter().find(|(name, _)| *name == spec.name) else {
            eprintln!("dtr-bench-layers: {} was not measured", spec.name);
            return std::process::ExitCode::from(2);
        };
        println!("  {:<36} {value:>14.4} {}", spec.name, spec.unit);
        entries.push(format!(
            "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            spec.name, spec.unit
        ));
    }
    println!(
        "{{\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        checks.attempted,
        checks.failed,
        entries.join(",")
    );
    std::process::ExitCode::SUCCESS
}
