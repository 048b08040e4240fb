//! The `daemon-steady` and `daemon-burst` workloads: `dtrd --tcp` under
//! one writer connection and, for `daemon-burst`, one probe connection.

use crate::host::Checkout;
use crate::inputs::{daemon_shape, derive, DaemonShape, Fingerprint};
use crate::json::{self, at, get, tagged, u};
use crate::outcome::{Outcome, Run};
use crate::proc;
use crate::stats::{median, percentile};
use serde::Value;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Writer lines slower than this miss the service-level objective
/// (ROADMAP item 2's p99 target).
const SLO_MS: f64 = 150.0;
/// Probe-generator lateness (p95) above this voids a run.
const LATENESS_LIMIT_MS: f64 = 5.0;
const WARMUP_EVENTS: usize = 5;
/// A run is this many sessions. Each boots a `dtrd` of its own on a
/// network, an incumbent and a churn trace drawn from its own seeds and
/// serves a quarter of the run; latencies are pooled. A percentile over
/// four networks and traces moves far less from one `--seed` to the next
/// than a percentile over one.
const SESSIONS: usize = 4;
/// Seed tags a session takes from `derive`: topology, traffic, boot
/// incumbent, churn trace, `dtrd --seed`, probe targets.
const SESSION_TAGS: u64 = 8;
/// Probe targets per session; the schedule cycles them.
const PROBE_TARGETS: u64 = 64;
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One connection to `dtrd`. Requests go out with `TCP_NODELAY` set and
/// one `write` each, so the client adds no coalescing delay of its own.
/// Everything else is a socket's default, delayed ACKs included: a
/// closed-loop client is what Linux calls interactive, it holds each ACK
/// back for 40 ms and more, and `dtrd`, which writes a reply and its
/// newline separately, holds the newline back until that ACK is in
/// (`daemon.tcp_overhead_ms`). That is what a client of `dtrd` sees
/// today, so the writer's latencies carry it.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            stream,
        })
    }

    /// Sends one request; `framed` already ends in the newline.
    pub fn send(&mut self, framed: &[u8]) -> io::Result<()> {
        debug_assert_eq!(framed.last(), Some(&b'\n'));
        self.stream.write_all(framed)
    }

    pub fn recv(&mut self) -> io::Result<String> {
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "dtrd closed the connection",
            ));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }

    pub fn ask(&mut self, framed: &[u8]) -> io::Result<String> {
        self.send(framed)?;
        self.recv()
    }
}

fn framed(request: &Value) -> Vec<u8> {
    let mut bytes = json::line(request).into_bytes();
    bytes.push(b'\n');
    bytes
}

/// Open coalescing batch, mirrored from the replies exactly as the
/// documented replay rule does: a `Coalesced` acknowledgement grows it,
/// a reply whose search covered a batch (`batch ≥ 1`) closes it. When a
/// burst ends with the batch still open the writer owes one `Flush`.
#[derive(Default)]
struct BatchTracker {
    pending: usize,
}

impl BatchTracker {
    fn on_reply(&mut self, action: &str, batch: u64) {
        if action == "Coalesced" {
            self.pending += 1;
        } else if batch >= 1 {
            self.pending = 0;
        }
    }

    fn flush_due(&self) -> bool {
        self.pending > 0
    }
}

/// Index ranges of events that share one timestamp.
fn bursts(at_s: &[f64]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0;
    for i in 1..=at_s.len() {
        if i == at_s.len() || at_s[i] != at_s[start] {
            out.push(start..i);
            start = i;
        }
    }
    out
}

/// The protocol lines of a churn trace (`dtrctl churn --out`), in order.
struct Trace {
    at_s: Vec<f64>,
    lines: Vec<Vec<u8>>,
    /// Offered volume (Mbit/s, both classes) in force once line `i` is
    /// applied: a demand update sets it, a link event keeps it.
    volume: Vec<f64>,
}

fn volume_of(demands: &Value) -> Option<f64> {
    ["high", "low"]
        .iter()
        .map(|class| {
            at(demands, &[class, "data"])
                .as_seq()?
                .iter()
                .map(json::num)
                .sum::<Option<f64>>()
        })
        .sum()
}

fn load_trace(path: &Path) -> Result<Trace, String> {
    let trace = json::read_file(path)?;
    let events = get(&trace, "events")
        .as_seq()
        .ok_or("churn trace has no events")?;
    let mut out = Trace {
        at_s: Vec::new(),
        lines: Vec::new(),
        volume: Vec::new(),
    };
    let mut volume = volume_of(get(&trace, "base")).ok_or("churn trace without base demands")?;
    for e in events {
        let (kind, body) = tagged(get(e, "action")).ok_or("churn event without an action")?;
        // The trace's `Demand` is the protocol's `DemandUpdate`; every
        // other action keeps its name and body (docs/PROTOCOL.md).
        let tag = if kind == "Demand" {
            "DemandUpdate"
        } else {
            kind
        };
        if kind == "Demand" {
            volume = volume_of(get(body, "demands")).ok_or("demand event without matrices")?;
        }
        out.volume.push(volume);
        out.at_s
            .push(json::num(get(e, "at_s")).ok_or("churn event without a timestamp")?);
        out.lines
            .push(framed(&Value::Map(vec![(tag.to_string(), body.clone())])));
    }
    Ok(out)
}

/// A booted `dtrd` child.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Spawns `dtrd --tcp 127.0.0.1:0` and waits for the address it
    /// prints once it listens.
    fn boot(co: &Checkout, dir: &Path, flags: &[String]) -> Result<Daemon, String> {
        let log = dir.join("dtrd.err");
        let err = std::fs::File::create(&log).map_err(|e| e.to_string())?;
        let mut child = Command::new(&co.dtrd)
            .args(flags)
            .args(["--tcp", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("dtrd: {e}"))?;
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            // Only a complete line: the address is written after the prefix.
            let complete = text.split_inclusive('\n').filter(|l| l.ends_with('\n'));
            if let Some(addr) = complete
                .filter_map(|l| l.split_once("listening on tcp://"))
                .next()
            {
                return Ok(Daemon {
                    child,
                    addr: addr.1.trim().to_string(),
                });
            }
            if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("dtrd exited at boot ({status}): {}", text.trim()));
            }
            if started.elapsed() > Duration::from_secs(30) {
                let _ = child.kill();
                let _ = child.wait();
                return Err("dtrd did not listen within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// `Shutdown`, then waits for the process to end.
    fn stop(mut self, conn: &mut Conn) -> Result<(), String> {
        let bye = conn
            .ask(b"\"Shutdown\"\n")
            .map_err(|e| format!("Shutdown: {e}"));
        let waited = proc::wait(&mut self.child, Instant::now(), Duration::from_secs(10));
        let bye = bye?;
        let status = waited.map_err(|e| e.to_string())?.status;
        if !bye.starts_with("{\"Bye\"") {
            return Err(format!("expected Bye, got {bye}"));
        }
        if !status.success() {
            return Err(format!("dtrd exited with {status}"));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Only reached with a live child on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Input files of one daemon workload and the `dtrd` flags.
struct Inputs {
    trace: PathBuf,
    flags: Vec<String>,
}

fn dtrctl(co: &Checkout, dir: &Path, step: &str, args: &[&str]) -> Result<(), String> {
    let done = proc::run(
        Command::new(&co.dtrctl).args(args),
        &dir.join(format!("{step}.log")),
        Duration::from_secs(120),
    )
    .map_err(|e| format!("dtrctl {step}: {e}"))?;
    if done.status.success() {
        Ok(())
    } else {
        Err(format!("dtrctl {step} exited with {}", done.status))
    }
}

/// Generates topology, traffic, the boot incumbent and the churn trace
/// of one session through `dtrctl`, every generator seeded from the
/// workload seed and the session's index.
fn generate(
    co: &Checkout,
    dir: &Path,
    workload: &str,
    seed: u64,
    session: usize,
    shape: &DaemonShape,
) -> Result<Inputs, String> {
    let burst = workload == "daemon-burst";
    let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let (topo, traffic, weights, trace) = (
        path("topo.json"),
        path("traffic.json"),
        path("weights.json"),
        path("churn.json"),
    );
    let sd = |tag| derive(seed, workload, SESSION_TAGS * session as u64 + tag).to_string();
    dtrctl(
        co,
        dir,
        "topo",
        &[
            "topo",
            "random",
            "--nodes",
            &shape.nodes.to_string(),
            "--links",
            &shape.links.to_string(),
            "--seed",
            &sd(1),
            "--out",
            &topo,
        ],
    )?;
    dtrctl(
        co,
        dir,
        "traffic",
        &[
            "traffic",
            "--topo",
            &topo,
            "--scale",
            &shape.demand_scale.to_string(),
            "--seed",
            &sd(2),
            "--out",
            &traffic,
        ],
    )?;
    dtrctl(
        co,
        dir,
        "optimize",
        &[
            "optimize",
            "--topo",
            &topo,
            "--traffic",
            &traffic,
            "--scheme",
            "dtr",
            "--budget",
            "quick",
            "--seed",
            &sd(3),
            "--out",
            &weights,
        ],
    )?;
    let rates: &[&str] = if burst {
        &[
            "--burst-rate",
            "1.5",
            "--burst-max",
            "6",
            "--flap-rate",
            "0.3",
        ]
    } else {
        &[
            "--burst-rate",
            "0",
            "--flap-rate",
            "0.15",
            "--directed-flap-rate",
            "0.05",
        ]
    };
    let mut churn = vec![
        "churn",
        "--topo",
        &topo,
        "--traffic",
        &traffic,
        "--whatif-rate",
        "0",
        "--name",
        workload,
    ];
    let (events, churn_seed) = (shape.events.to_string(), sd(4));
    churn.extend(["--events", &events, "--seed", &churn_seed, "--out", &trace]);
    churn.extend(rates);
    dtrctl(co, dir, "churn", &churn)?;

    let mut flags: Vec<String> = [
        "--topo",
        &topo,
        "--traffic",
        &traffic,
        "--weights",
        &weights,
        "--budget",
        "tiny",
        "--changes",
        "4",
        "--seed",
        &sd(5),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    if burst {
        flags.extend(["--coalesce", "4", "--idle-steps", "2"].map(String::from));
    }
    Ok(Inputs {
        trace: PathBuf::from(trace),
        flags,
    })
}

/// A booted daemon with its inputs and the connection that asked the
/// first `Status`.
struct Booted {
    /// Input generation + boot + first `Status` reply.
    setup_s: f64,
    inputs: Inputs,
    trace: Trace,
    daemon: Daemon,
    conn: Conn,
    status: String,
}

/// One set-up: inputs, boot, first `Status` reply.
fn set_up(
    co: &Checkout,
    dir: &Path,
    workload: &str,
    seed: u64,
    session: usize,
    shape: &DaemonShape,
) -> Result<Booted, String> {
    let started = Instant::now();
    let inputs = generate(co, dir, workload, seed, session, shape)?;
    let trace = load_trace(&inputs.trace)?;
    let daemon = Daemon::boot(co, dir, &inputs.flags)?;
    let mut conn = Conn::open(&daemon.addr).map_err(|e| format!("connect {}: {e}", daemon.addr))?;
    let status = conn
        .ask(b"\"Status\"\n")
        .map_err(|e| format!("first Status: {e}"))?;
    Ok(Booted {
        setup_s: started.elapsed().as_secs_f64(),
        inputs,
        trace,
        daemon,
        conn,
        status,
    })
}

/// The verdict on one reply.
type Checked = Result<(), String>;

/// What the writer connection saw.
#[derive(Default)]
struct WriterLog {
    /// Per line: burst-send → reply, ms.
    latency_ms: Vec<f64>,
    /// Per line: whether the reply was an `Event` carrying the next `seq`.
    checks: Vec<Checked>,
    /// Time the last reply of burst `unit` arrived, s since the start:
    /// the session's fixed unit of work.
    unit_s: f64,
    /// Time the last reply arrived.
    total_s: f64,
    /// `Event` replies seen (= applied events).
    applied: u64,
    /// `(cost_after.phi_h + phi_l) / offered volume` of the applied
    /// events of the unit of work — a fixed prefix, so it repeats exactly.
    cost_per_volume: Vec<f64>,
    actions: Vec<(String, u64)>,
    /// Every line sent and every reply, in order (trace mode only).
    transcript: Option<Vec<(Vec<u8>, String)>>,
}

impl WriterLog {
    fn on_reply(
        &mut self,
        reply: &str,
        volume: f64,
        tracker: &mut BatchTracker,
        next_seq: &mut u64,
        in_unit: bool,
    ) {
        let verdict = (|| {
            let v = json::parse(reply)?;
            let (tag, body) = tagged(&v).ok_or_else(|| format!("untagged reply {reply}"))?;
            if tag != "Event" {
                return Err(format!("expected an Event reply, got {reply}"));
            }
            let seq = json::uint(get(body, "seq")).ok_or("Event without seq")?;
            let action = get(body, "action")
                .as_str()
                .ok_or("Event without action")?
                .to_string();
            let batch = json::uint(get(body, "batch")).ok_or("Event without batch")?;
            let cost = ["phi_h", "phi_l"]
                .iter()
                .map(|c| json::num(at(body, &["cost_after", c])).filter(|x| x.is_finite()))
                .sum::<Option<f64>>()
                .ok_or("Event without a finite cost_after")?;
            Ok((seq, action, batch, cost))
        })();
        match verdict {
            Ok((seq, action, batch, cost)) => {
                self.applied += 1;
                tracker.on_reply(&action, batch);
                if in_unit {
                    self.cost_per_volume.push(cost / volume);
                }
                match self.actions.iter_mut().find(|(a, _)| *a == action) {
                    Some((_, n)) => *n += 1,
                    None => self.actions.push((action, 1)),
                }
                self.checks.push(if seq == *next_seq {
                    Ok(())
                } else {
                    Err(format!("seq gap: expected {next_seq}, got {seq}"))
                });
                *next_seq = seq + 1;
            }
            Err(why) => self.checks.push(Err(why)),
        }
    }
}

/// When the writer may stop, checked at burst boundaries.
struct StopRule<'a> {
    /// Bursts (same-timestamp groups) in the unit of work `wall_s` times.
    /// Time per burst hardly moves with the seed; bursts per event do.
    unit: usize,
    seconds: f64,
    min_probes: usize,
    probes_done: &'a AtomicUsize,
}

impl StopRule<'_> {
    fn met(&self, elapsed_s: f64) -> bool {
        elapsed_s >= self.seconds && self.probes_done.load(Ordering::Relaxed) >= self.min_probes
    }
}

/// Drives the writer connection: each same-timestamp burst goes out
/// back-to-back, then the burst's replies are awaited, then a `Flush`
/// when the batch stayed open, then the next burst at once. The trace is
/// cycled — it ends with every link up, and demand updates are absolute,
/// so its first event applies cleanly after its last.
fn write_events(
    conn: &mut Conn,
    trace: &Trace,
    stop: &StopRule,
    keep_transcript: bool,
) -> io::Result<WriterLog> {
    let groups = bursts(&trace.at_s);
    let mut log = WriterLog {
        transcript: keep_transcript.then(Vec::new),
        ..Default::default()
    };
    let mut tracker = BatchTracker::default();
    let mut next_seq = 1;
    let unit = stop.unit.min(groups.len());
    let started = Instant::now();
    let mut pass = 0;
    loop {
        for (g, group) in groups.iter().enumerate() {
            let in_unit = pass == 0 && g < unit;
            let sent = Instant::now();
            for line in &trace.lines[group.clone()] {
                conn.send(line)?;
            }
            let mut lines: Vec<&[u8]> = trace.lines[group.clone()]
                .iter()
                .map(Vec::as_slice)
                .collect();
            let mut answered = 0;
            while answered < lines.len() {
                let reply = conn.recv()?;
                log.latency_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                // A flush inherits the volume of the burst's last event.
                let volume = trace.volume[(group.start + answered).min(group.end - 1)];
                log.on_reply(&reply, volume, &mut tracker, &mut next_seq, in_unit);
                if let Some(t) = &mut log.transcript {
                    t.push((lines[answered].to_vec(), reply));
                }
                answered += 1;
                if answered == lines.len() && tracker.flush_due() {
                    conn.send(b"\"Flush\"\n")?;
                    lines.push(b"\"Flush\"\n");
                }
            }
            log.total_s = started.elapsed().as_secs_f64();
            if in_unit && g + 1 == unit {
                log.unit_s = log.total_s;
            }
            if log.unit_s > 0.0 && stop.met(log.total_s) {
                return Ok(log);
            }
        }
        pass += 1;
    }
}

/// What the probe connection saw.
struct ProbeLog {
    /// Due time → reply, ms.
    latency_ms: Vec<f64>,
    /// Due time → send, ms: how late the generator itself ran.
    lateness_ms: Vec<f64>,
    checks: Vec<Checked>,
}

fn check_probe(reply: &str, link: u64) -> Result<(), String> {
    let v = json::parse(reply)?;
    let (tag, body) = tagged(&v).ok_or_else(|| format!("untagged reply {reply}"))?;
    if tag != "WhatIf" {
        return Err(format!("expected a WhatIf reply, got {reply}"));
    }
    if get(body, "query").as_str() != Some(&format!("whatif_link_down({link})")) {
        return Err(format!("probe of link {link} answered {reply}"));
    }
    match json::boolean(get(body, "feasible")) {
        Some(false) => Ok(()),
        Some(true) if json::num(at(body, &["cost", "phi_h"])).is_some_and(f64::is_finite) => Ok(()),
        _ => Err(format!("malformed WhatIf reply {reply}")),
    }
}

/// Open-loop prober: one `WhatIfLinkDown` every `interval` on its own
/// connection, sent when due whether or not earlier replies are in, and
/// timed from the due time so a stall is charged to every probe it
/// delays. Runs until the writer is done. Sending and receiving each
/// have a thread: a socket read with a timeout wakes on the kernel's
/// timer tick, which would make the sender milliseconds late.
fn probe(
    conn: &mut Conn,
    links: &[u64],
    interval: Duration,
    writer_done: &AtomicBool,
    done: &AtomicUsize,
) -> io::Result<ProbeLog> {
    let mut sender = conn.stream.try_clone()?;
    let (due_tx, due_rx) = std::sync::mpsc::channel::<(Instant, u64)>();
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || -> io::Result<(Vec<f64>, Vec<Checked>)> {
            let (mut latency_ms, mut checks) = (Vec::new(), Vec::new());
            for (due, link) in due_rx {
                let reply = conn.recv()?;
                latency_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                checks.push(check_probe(&reply, link));
                done.store(checks.len(), Ordering::Relaxed);
            }
            Ok((latency_ms, checks))
        });
        let mut lateness_ms = Vec::new();
        let started = Instant::now();
        let mut send_all = || -> io::Result<()> {
            for k in 0u32.. {
                let due = started + interval * k;
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                if writer_done.load(Ordering::Relaxed) {
                    break;
                }
                let link = links[k as usize % links.len()];
                lateness_ms.push((Instant::now() - due).as_secs_f64() * 1e3);
                sender.write_all(
                    format!("{{\"WhatIfLinkDown\":{{\"link\":{link}}}}}\n").as_bytes(),
                )?;
                if due_tx.send((due, link)).is_err() {
                    break; // the receiver failed; its error is reported below
                }
            }
            Ok(())
        };
        let sent = send_all();
        drop(due_tx);
        let (latency_ms, checks) = receiver.join().expect("probe receiver thread")?;
        sent?;
        Ok(ProbeLog {
            latency_ms,
            lateness_ms,
            checks,
        })
    })
}

/// Seeded probe targets of one session; the schedule cycles them.
fn probe_links(seed: u64, session: usize, shape: &DaemonShape) -> Vec<u64> {
    let base = derive(seed, "daemon-burst", SESSION_TAGS * session as u64 + 6);
    (0..PROBE_TARGETS)
        .map(|i| derive(base + i, "daemon-burst", 6) % shape.links)
        .collect()
}

/// Sends a few events, then restores the pre-warm-up snapshot: the
/// process, its allocator and both TCP stacks are warm, and the daemon's
/// state — `seq` and search-stream position included — is what it was
/// at boot (`Restore` continues byte-identically, docs/PROTOCOL.md).
fn warm_up(conn: &mut Conn, trace: &Trace) -> Result<(), String> {
    let io = |e: io::Error| format!("warm-up: {e}");
    let snap = json::parse(&conn.ask(b"\"Snapshot\"\n").map_err(io)?)?;
    let (tag, body) = tagged(&snap).ok_or("warm-up: untagged Snapshot reply")?;
    if tag != "Snapshot" {
        return Err(format!("warm-up: expected Snapshot, got {tag}"));
    }
    for line in trace.lines.iter().take(WARMUP_EVENTS) {
        conn.ask(line).map_err(io)?;
    }
    let restore = Value::Map(vec![(
        "Restore".to_string(),
        Value::Map(vec![("snapshot".to_string(), body.clone())]),
    )]);
    let reply = conn.ask(&framed(&restore)).map_err(io)?;
    if !reply.starts_with("{\"Restored\"") {
        return Err(format!("warm-up: expected Restored, got {reply}"));
    }
    Ok(())
}

/// The median and the p95 under `names`, each with the quantile
/// actually reported; nothing when the sample supports no percentile at
/// all (a `--smoke` capture of a handful of lines).
fn put_percentiles(out: &mut Outcome, names: [&'static str; 2], latency_ms: &[f64]) {
    for (name, q) in names.into_iter().zip([0.5, 0.95]) {
        if let Some(p) = percentile(latency_ms, q) {
            out.put(name, p.value);
            out.note(&format!("{name}.quantile"), json::f(p.quantile));
        }
    }
}

/// What the sessions of one run share.
struct Plan<'a> {
    co: &'a Checkout,
    workload: &'a str,
    seed: u64,
    shape: DaemonShape,
    /// Each session's share of `--seconds` …
    seconds: f64,
    /// … and of the probes; 0 keeps the prober off.
    probes: usize,
    /// Save the writer's lines and replies for the in-process replay.
    capture: bool,
}

/// What one session measured.
struct SessionLog {
    setup_s: f64,
    writer: WriterLog,
    prober: Option<ProbeLog>,
    peak_rss_kb: u64,
    /// The `dtrd` flags after the three input files.
    flags: Vec<String>,
}

/// Session `index` of a run: generates its inputs in `dir`, boots its
/// `dtrd`, warms it up, drives the writer (and the prober) until its
/// unit of work and its shares are done, checks every reply and shuts
/// the daemon down.
fn session(
    plan: &Plan,
    index: usize,
    dir: &Path,
    out: &mut Outcome,
    fp: &mut Fingerprint,
) -> Result<SessionLog, String> {
    let Plan {
        co,
        workload,
        seed,
        shape,
        ..
    } = plan;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let Booted {
        setup_s,
        inputs,
        trace,
        daemon,
        mut conn,
        status,
    } = set_up(co, dir, workload, *seed, index, shape)?;
    out.check(match json::parse(&status).as_ref().map(tagged) {
        Ok(Some(("Status", body))) if json::uint(get(body, "seq")) == Some(0) => Ok(()),
        _ => Err(format!("first Status reply was {status}")),
    });

    let links = probe_links(*seed, index, shape);
    // Flags 0..6 are the three input paths; their files' bytes count.
    for file in ["topo.json", "weights.json"] {
        fp.feed(&std::fs::read(dir.join(file)).map_err(|e| format!("{file}: {e}"))?);
    }
    let flags: Vec<String> = inputs.flags.iter().skip(6).cloned().collect();
    flags.iter().for_each(|f| fp.feed(f.as_bytes()));
    trace.lines.iter().for_each(|l| fp.feed(l));
    if plan.probes > 0 {
        links.iter().for_each(|l| fp.feed(&l.to_le_bytes()));
    }

    warm_up(&mut conn, &trace)?;

    let probes_done = AtomicUsize::new(0);
    let writer_done = AtomicBool::new(false);
    let stop = StopRule {
        unit: shape.unit_bursts,
        seconds: plan.seconds,
        min_probes: plan.probes,
        probes_done: &probes_done,
    };
    let mut probe_conn = match plan.probes > 0 {
        true => Some(Conn::open(&daemon.addr).map_err(|e| format!("probe connection: {e}"))?),
        false => None,
    };
    let interval = Duration::from_millis(shape.probe_interval_ms);
    let (writer, prober) = std::thread::scope(|scope| {
        let prober = probe_conn
            .as_mut()
            .map(|pc| scope.spawn(|| probe(pc, &links, interval, &writer_done, &probes_done)));
        let writer = write_events(&mut conn, &trace, &stop, plan.capture);
        writer_done.store(true, Ordering::Relaxed);
        (writer, prober.map(|p| p.join().expect("prober thread")))
    });
    let writer = writer.map_err(|e| format!("writer connection: {e}"))?;
    let prober = prober
        .transpose()
        .map_err(|e| format!("probe connection: {e}"))?;

    // Output checks: one operation per writer line and per probe, then
    // the daemon's own count of applied events.
    writer.checks.iter().for_each(|c| out.check(c.clone()));
    if let Some(p) = &prober {
        p.checks.iter().for_each(|c| out.check(c.clone()));
    }
    let status = conn
        .ask(b"\"Status\"\n")
        .map_err(|e| format!("final Status: {e}"))?;
    out.check(match json::parse(&status).as_ref().map(tagged) {
        Ok(Some(("Status", body))) if json::uint(get(body, "seq")) == Some(writer.applied) => {
            Ok(())
        }
        _ => Err(format!(
            "final Status.seq ≠ {} applied lines: {status}",
            writer.applied
        )),
    });
    let peak_rss_kb = proc::peak_rss_kb(daemon.child.id()).unwrap_or(0);
    drop(probe_conn);
    out.check(daemon.stop(&mut conn));

    if let Some(transcript) = &writer.transcript {
        let join = |pick: fn(&(Vec<u8>, String)) -> String| {
            transcript.iter().map(pick).collect::<Vec<_>>().concat()
        };
        let sent = join(|(line, _)| String::from_utf8_lossy(line).into_owned());
        let replies = join(|(_, reply)| format!("{reply}\n"));
        std::fs::write(dir.join("lines.jsonl"), sent).map_err(|e| e.to_string())?;
        std::fs::write(dir.join("replies.jsonl"), replies).map_err(|e| e.to_string())?;
    }
    Ok(SessionLog {
        setup_s,
        writer,
        prober,
        peak_rss_kb,
        flags,
    })
}

/// Runs one daemon workload: [`SESSIONS`] sessions one after the other,
/// each owing its unit of work, a quarter of `seconds` and a quarter of
/// the probes. `wall_s` adds up the units; rates, percentiles and ratios
/// are taken over the lines of all sessions. With `capture` the run is
/// a single session without the prober, saved for the in-process replay.
pub fn run(
    co: &Checkout,
    workload: &str,
    seed: u64,
    seconds: f64,
    smoke: bool,
    capture: bool,
) -> Result<Run, String> {
    let shape = daemon_shape(workload, smoke);
    let probing = workload == "daemon-burst" && !capture;
    let plan = Plan {
        co,
        workload,
        seed,
        seconds: seconds / SESSIONS as f64,
        probes: if probing {
            shape.min_probes.div_ceil(SESSIONS)
        } else {
            0
        },
        shape,
        capture,
    };
    let root = co.out.join(format!("work/{workload}-{seed}"));
    let _ = std::fs::remove_dir_all(&root);
    let mut out = Outcome::new(workload, seed);
    let mut fp = Fingerprint::new();
    let session_dir = |k: usize| root.join(format!("session-{k}"));
    let mut logs = Vec::new();
    for k in 0..if capture { 1 } else { SESSIONS } {
        logs.push(session(&plan, k, &session_dir(k), &mut out, &mut fp)?);
    }
    out.fingerprint = fp.hex();

    let pool = |pick: fn(&SessionLog) -> &[f64]| -> Vec<f64> {
        logs.iter().flat_map(|l| pick(l).iter().copied()).collect()
    };
    let latency_ms = pool(|l| &l.writer.latency_ms);
    let lines = latency_ms.len();
    let total_s: f64 = logs.iter().map(|l| l.writer.total_s).sum();
    let setup_s: Vec<f64> = logs.iter().map(|l| l.setup_s).collect();
    out.put("setup_s", median(&setup_s));
    out.put("wall_s", logs.iter().map(|l| l.writer.unit_s).sum());
    out.put("events_per_s", lines as f64 / total_s);
    put_percentiles(&mut out, ["event_p50_ms", "event_p95_ms"], &latency_ms);
    let slow = logs
        .iter()
        .flat_map(|l| l.writer.latency_ms.iter().zip(&l.writer.checks))
        .filter(|(&ms, c)| ms > SLO_MS || c.is_err())
        .count();
    out.put("slo_miss_ratio", slow as f64 / lines as f64);
    if probing {
        let probes = |pick: fn(&ProbeLog) -> &[f64]| -> Vec<f64> {
            let logs = logs.iter().filter_map(|l| l.prober.as_ref());
            logs.flat_map(|p| pick(p).iter().copied()).collect()
        };
        let probe_ms = probes(|p| &p.latency_ms);
        put_percentiles(&mut out, ["probe_p50_ms", "probe_p95_ms"], &probe_ms);
        let late = percentile(&probes(|p| &p.lateness_ms), 0.95).map_or(0.0, |l| l.value);
        out.void = late > LATENESS_LIMIT_MS;
        out.note("probes", u(probe_ms.len() as u64));
        out.note("probe_lateness_p95_ms", json::f(late));
    }
    let rss_kb = logs.iter().map(|l| l.peak_rss_kb).max().unwrap_or(0);
    out.put("peak_rss_mb", rss_kb as f64 / 1024.0);
    out.put(
        "solution_cost",
        median(&pool(|l| &l.writer.cost_per_volume)),
    );
    out.note("sessions", u(logs.len() as u64));
    out.note("writer_lines", u(lines as u64));
    out.note("writer_total_s", json::f(total_s));
    // Of the first session; the others differ in `--seed` only.
    out.note(
        "dtrd_flags",
        Value::Seq(logs[0].flags.iter().map(|f| json::s(f)).collect()),
    );
    out.note(
        "applied_events",
        u(logs.iter().map(|l| l.writer.applied).sum()),
    );
    let mut actions: Vec<(String, u64)> = Vec::new();
    for (action, n) in logs.iter().flat_map(|l| &l.writer.actions) {
        match actions.iter_mut().find(|(a, _)| a == action) {
            Some((_, sum)) => *sum += n,
            None => actions.push((action.clone(), *n)),
        }
    }
    out.note(
        "actions",
        Value::Map(actions.into_iter().map(|(a, n)| (a, u(n))).collect()),
    );
    out.seal();
    // Every writer latency in order, for a look at the distribution.
    let dump: String = latency_ms.iter().map(|ms| format!("{ms:.3}\n")).collect();
    std::fs::write(root.join("writer_latency_ms.txt"), dump).map_err(|e| e.to_string())?;

    // The in-process replay reads a capture from its session's directory.
    let dir = if capture { session_dir(0) } else { root };
    Ok(Run { dir, outcome: out })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ISSUE 11's floor: a run never measures fewer than 200 writer
    /// lines, and the trace holds the unit of work without cycling.
    #[test]
    fn the_units_of_work_hold_two_hundred_lines() {
        for workload in ["daemon-steady", "daemon-burst"] {
            let shape = daemon_shape(workload, false);
            // A burst is one line at the least.
            assert!(SESSIONS * shape.unit_bursts >= 200, "{workload}");
            // A burst is six events at the most (`--burst-max 6`).
            assert!(shape.events as usize >= shape.unit_bursts, "{workload}");
            assert!(
                SESSION_TAGS * SESSIONS as u64 <= 32,
                "seed tags of {workload}"
            );
        }
    }

    #[test]
    fn bursts_group_equal_timestamps() {
        assert_eq!(
            bursts(&[0.5, 0.5, 0.7, 1.0, 1.0, 1.0]),
            vec![0..2, 2..3, 3..6]
        );
        assert_eq!(bursts(&[0.1]), vec![0..1]);
        assert!(bursts(&[]).is_empty());
    }

    /// The daemon side of the coalescing rule (docs/PROTOCOL.md): with
    /// `--coalesce n`, the n-th pending event closes the batch.
    struct Model {
        n: usize,
        pending: usize,
    }

    impl Model {
        fn event(&mut self) -> (&'static str, u64) {
            if self.n == 0 {
                return ("NoImprovement", 1);
            }
            self.pending += 1;
            if self.pending >= self.n {
                let batch = std::mem::take(&mut self.pending) as u64;
                ("Accepted", batch)
            } else {
                ("Coalesced", 0)
            }
        }

        fn flush(&mut self) -> (&'static str, u64) {
            let batch = std::mem::take(&mut self.pending) as u64;
            (if batch == 0 { "NoOp" } else { "Declined" }, batch)
        }
    }

    /// Lines the writer sends for `at_s`: `e` per event, `F` per flush.
    fn schedule(at_s: &[f64], coalesce: usize) -> String {
        let mut daemon = Model {
            n: coalesce,
            pending: 0,
        };
        let mut tracker = BatchTracker::default();
        let mut sent = String::new();
        for group in bursts(at_s) {
            for _ in group {
                sent.push('e');
                let (action, batch) = daemon.event();
                tracker.on_reply(action, batch);
            }
            if tracker.flush_due() {
                sent.push('F');
                let (action, batch) = daemon.flush();
                assert!(batch >= 1, "a due flush always covers a batch");
                tracker.on_reply(action, batch);
            }
            assert_eq!(
                daemon.pending, 0,
                "no batch stays open across a timestamp change"
            );
        }
        sent
    }

    #[test]
    fn flush_follows_the_replay_rule() {
        // One flush at every timestamp change that leaves a batch open:
        // a burst of 6 under --coalesce 4 closes one batch itself and
        // needs a flush for the other two events; a burst of 4 needs none.
        let at_s = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0, 3.0];
        assert_eq!(schedule(&at_s, 4), "eeeeeeFeFeeee");
        // Coalescing off: nothing is ever pending, no flush is sent.
        assert_eq!(schedule(&at_s, 0), "eeeeeeeeeee");
        // --coalesce 1 closes every batch as it opens.
        assert_eq!(schedule(&at_s, 1), "eeeeeeeeeee");
    }
}
