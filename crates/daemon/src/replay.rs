//! Trace replay: drive a [`Daemon`] through a [`ChurnTrace`]
//! end-to-end, through the same line protocol a live client would use.
//!
//! The outcome separates what must be deterministic from what cannot
//! be: `lines` (one reply per protocol line sent) and `report` are pure
//! functions of the trace and configuration — the CI smoke gate replays
//! twice and asserts byte equality — while `per_event_s` carries
//! wall-clock timings for the bench harness and is never compared.
//!
//! Under coalescing (`DaemonCfg::coalesce > 0`) the driver applies the
//! deterministic batch-boundary rule from `DESIGN.md`: the simulated
//! queue is empty whenever the next trace event carries a *different*
//! timestamp, so a [`Request::Flush`] is injected at every timestamp
//! change that leaves a batch open (and after the final event). The
//! injected flushes are part of the protocol exchange and appear in
//! `lines`; `ReplayReport::flushes` counts them.
//!
//! [`replay_trace_tcp`] runs the same exchange against a real
//! [`serve_tcp`](crate::serve_tcp) server over a loopback socket; its
//! reply lines are byte-identical to the in-process replay's.

use crate::daemon::{Daemon, DaemonCfg};
use crate::event::{CostPair, EventAction, Reply, Request};
use dtr_core::{DtrSearch, ReoptSession, Scheme};
use dtr_graph::weights::DualWeights;
use dtr_graph::WeightVector;
use dtr_scenario::ChurnTrace;
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Deterministic replay summary (see module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReplayReport {
    /// Trace name.
    pub name: String,
    /// Trace events replayed (excludes injected flushes).
    pub events: usize,
    /// Nodes in the trace's network.
    pub nodes: usize,
    /// Directed links in the trace's network.
    pub links: usize,
    /// Reoptimizations accepted.
    pub accepted: u64,
    /// Reoptimizations declined on churn grounds.
    pub declined: u64,
    /// Events refused (would disconnect).
    pub refused: u64,
    /// Events where the search found nothing better.
    pub no_improvement: u64,
    /// Events that changed nothing (e.g. duplicate failures).
    pub noop: u64,
    /// Events applied but deferred to a coalescing batch.
    pub coalesced: u64,
    /// `Flush` requests the driver injected at batch boundaries.
    pub flushes: u64,
    /// What-if probes answered.
    pub whatif: u64,
    /// Directed links still down after the last event.
    pub final_links_down: usize,
    /// Incumbent cost under the end-state network.
    pub final_cost: CostPair,
    /// Cost of a cold batch re-optimization of the end-state network.
    pub batch_cost: CostPair,
    /// `(Φ_H + Φ_L)` ratio of final incumbent over the batch solution.
    pub batch_ratio: f64,
    /// `batch_ratio ≤ 1.05` — the acceptance bar.
    pub batch_ok: bool,
    /// Summed `(Φ_H + Φ_L)` gain of accepted reconfigurations.
    pub total_gain: f64,
    /// Summed LSA messages of accepted reconfigurations.
    pub total_churn_messages: u64,
    /// `total_gain / total_churn_messages` (0 when nothing deployed).
    pub gain_per_churn: f64,
}

/// Per-request-kind slice of the timing breakdown: how much wall clock
/// one kind of protocol line consumed. Makes coalescing wins
/// attributable — a bursty replay shows cheap `demand_update`
/// acknowledgements and a few expensive `flush` lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KindTiming {
    /// Request kind label ([`Request::kind`]).
    pub kind: String,
    /// Lines of this kind.
    pub events: usize,
    /// Total wall-clock seconds across them.
    pub total_s: f64,
    /// Mean per-line latency (seconds).
    pub mean_s: f64,
    /// Worst single line (seconds).
    pub max_s: f64,
}

/// Wall-clock latency summary over per-event replay timings. Written to
/// `timing.json` by `dtrctl replay` and into `BENCH_daemon.json` by the
/// bench harness; never part of the deterministic report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimingSummary {
    /// Events measured.
    pub events: usize,
    /// Total wall-clock seconds across all events.
    pub total_s: f64,
    /// Sustained throughput, events per second.
    pub events_per_sec: f64,
    /// Median per-event latency (seconds).
    pub p50_event_s: f64,
    /// 99th-percentile per-event latency (seconds, nearest-rank).
    pub p99_event_s: f64,
    /// Worst single event (seconds).
    pub max_event_s: f64,
    /// Breakdown by request kind (empty when the caller had no labels).
    pub per_kind: Vec<KindTiming>,
}

impl TimingSummary {
    /// Summarizes raw per-event latencies (e.g. [`ReplayOutcome::per_event_s`]).
    pub fn from_samples(samples: &[f64]) -> TimingSummary {
        Self::from_labeled(samples, &[])
    }

    /// Like [`from_samples`](Self::from_samples) with one request-kind
    /// label per sample (e.g. [`ReplayOutcome::per_event_kind`]),
    /// producing the per-kind breakdown.
    pub fn from_labeled(samples: &[f64], kinds: &[String]) -> TimingSummary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
        let nearest_rank = |q: f64| -> f64 {
            if sorted.is_empty() {
                return 0.0;
            }
            let rank = (q * sorted.len() as f64).ceil() as usize;
            sorted[rank.clamp(1, sorted.len()) - 1]
        };
        let total_s: f64 = samples.iter().sum();
        let per_kind = if kinds.is_empty() {
            Vec::new()
        } else {
            assert_eq!(kinds.len(), samples.len(), "one kind label per sample");
            let mut order: Vec<&String> = Vec::new();
            for k in kinds {
                if !order.contains(&k) {
                    order.push(k);
                }
            }
            order
                .into_iter()
                .map(|kind| {
                    let xs: Vec<f64> = kinds
                        .iter()
                        .zip(samples)
                        .filter(|(k, _)| *k == kind)
                        .map(|(_, &s)| s)
                        .collect();
                    let total: f64 = xs.iter().sum();
                    KindTiming {
                        kind: kind.clone(),
                        events: xs.len(),
                        total_s: total,
                        mean_s: total / xs.len() as f64,
                        max_s: xs.iter().cloned().fold(0.0, f64::max),
                    }
                })
                .collect()
        };
        TimingSummary {
            events: samples.len(),
            total_s,
            events_per_sec: if total_s > 0.0 {
                samples.len() as f64 / total_s
            } else {
                0.0
            },
            p50_event_s: nearest_rank(0.50),
            p99_event_s: nearest_rank(0.99),
            max_event_s: sorted.last().copied().unwrap_or(0.0),
            per_kind,
        }
    }
}

/// Everything one replay produces.
#[derive(Debug)]
pub struct ReplayOutcome {
    /// One serialized reply line per protocol line sent: trace events
    /// plus injected flushes, in order (deterministic).
    pub lines: Vec<String>,
    /// Wall-clock seconds per line (not deterministic, never compared).
    pub per_event_s: Vec<f64>,
    /// Request kind of each line ([`Request::kind`]), aligned with
    /// `per_event_s` — feeds the `timing.json` per-kind breakdown.
    pub per_event_kind: Vec<String>,
    /// Deterministic summary.
    pub report: ReplayReport,
}

/// Replays `trace` through a fresh daemon under `cfg`. `initial` seeds
/// the incumbent; `None` runs a cold batch search first (the daemon's
/// normal boot). The final incumbent is compared against a cold batch
/// re-optimization of the end-state network under the same budget.
pub fn replay_trace(
    trace: &ChurnTrace,
    cfg: DaemonCfg,
    initial: Option<DualWeights>,
) -> ReplayOutcome {
    trace
        .validate()
        .unwrap_or_else(|e| panic!("invalid churn trace: {e}"));
    let mut daemon = Daemon::new(trace.topo.clone(), trace.base.clone(), initial, cfg);
    replay_over(trace, cfg, &mut |line: &str| daemon.handle_line(line))
}

/// Like [`replay_trace`] but over a real TCP round-trip: boots a
/// [`serve_tcp`](crate::serve_tcp) server on an ephemeral loopback
/// port, drives the whole exchange through one client connection, and
/// shuts the server down afterwards. Reply lines are byte-identical to
/// the in-process replay's; timings include the socket round-trip.
pub fn replay_trace_tcp(
    trace: &ChurnTrace,
    cfg: DaemonCfg,
    initial: Option<DualWeights>,
) -> std::io::Result<ReplayOutcome> {
    use std::io::{BufRead, BufReader, Write};

    trace
        .validate()
        .unwrap_or_else(|e| panic!("invalid churn trace: {e}"));
    let daemon = Daemon::new(trace.topo.clone(), trace.base.clone(), initial, cfg);
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let server = std::thread::spawn(move || crate::serve_tcp(daemon, listener));

    let stream = std::net::TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut send = |line: &str| -> String {
        writeln!(writer, "{line}").expect("write to daemon socket");
        writer.flush().expect("flush daemon socket");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read daemon reply");
        assert!(!reply.is_empty(), "daemon closed the connection");
        reply.trim_end().to_string()
    };

    let outcome = replay_over(trace, cfg, &mut send);
    let bye = send(&serde_json::to_string(&Request::Shutdown).expect("serialize"));
    assert!(
        matches!(serde_json::from_str::<Reply>(&bye), Ok(Reply::Bye { .. })),
        "expected Bye, got: {bye}"
    );
    drop(reader);
    drop(writer);
    server.join().expect("server thread")?;
    Ok(outcome)
}

/// The transport-generic replay core: sends each trace event (plus the
/// injected batch-boundary flushes), tallies the replies, then pulls a
/// [`Snapshot`](crate::event::Snapshot) to score the end state.
fn replay_over<F: FnMut(&str) -> String>(
    trace: &ChurnTrace,
    cfg: DaemonCfg,
    send: &mut F,
) -> ReplayOutcome {
    let mut lines = Vec::with_capacity(trace.events.len());
    let mut per_event_s = Vec::with_capacity(trace.events.len());
    let mut per_event_kind = Vec::with_capacity(trace.events.len());
    let mut accepted = 0u64;
    let mut declined = 0u64;
    let mut refused = 0u64;
    let mut no_improvement = 0u64;
    let mut noop = 0u64;
    let mut coalesced = 0u64;
    let mut flushes = 0u64;
    let mut whatif = 0u64;
    let mut total_gain = 0.0f64;
    let mut total_churn_messages = 0u64;
    // Open-batch size, mirrored from the daemon's replies: `Coalesced`
    // acknowledgements grow it, any reply whose search covered a batch
    // (`batch ≥ 1`) closes it.
    let mut pending = 0usize;

    let mut exchange = |req: &Request,
                        lines: &mut Vec<String>,
                        per_event_s: &mut Vec<f64>,
                        per_event_kind: &mut Vec<String>|
     -> Option<(EventAction, usize)> {
        let line = serde_json::to_string(req).expect("requests always serialize");
        let t0 = Instant::now();
        let reply_line = send(&line);
        per_event_s.push(t0.elapsed().as_secs_f64());
        per_event_kind.push(req.kind().to_string());
        let reply = serde_json::from_str::<Reply>(&reply_line).expect("replies always parse");
        let info = match &reply {
            Reply::Event(r) => {
                match r.action {
                    EventAction::Accepted => {
                        accepted += 1;
                        total_gain += r.gain;
                        total_churn_messages += r.churn.as_ref().map_or(0, |c| c.lsa_messages);
                    }
                    EventAction::Declined => declined += 1,
                    EventAction::NoImprovement => no_improvement += 1,
                    EventAction::Refused => refused += 1,
                    EventAction::NoOp => noop += 1,
                    EventAction::Coalesced => coalesced += 1,
                }
                Some((r.action, r.batch))
            }
            Reply::WhatIf(_) => {
                whatif += 1;
                None
            }
            other => panic!("unexpected reply to a trace event: {other:?}"),
        };
        lines.push(reply_line);
        info
    };

    for (i, event) in trace.events.iter().enumerate() {
        let req = Request::from_churn(&event.action);
        let info = exchange(&req, &mut lines, &mut per_event_s, &mut per_event_kind);
        match info {
            Some((EventAction::Coalesced, _)) => pending += 1,
            Some((_, batch)) if batch >= 1 => pending = 0,
            _ => {}
        }
        // Deterministic batch boundary: the queue is empty when the
        // next event arrives later (or the trace ends).
        let boundary = trace
            .events
            .get(i + 1)
            .is_none_or(|next| next.at_s != event.at_s);
        if boundary && pending > 0 {
            flushes += 1;
            exchange(
                &Request::Flush,
                &mut lines,
                &mut per_event_s,
                &mut per_event_kind,
            );
            pending = 0;
        }
    }
    assert_eq!(pending, 0, "replay must end with no open batch");

    // Score the end state from a snapshot — the daemon's whole state,
    // over any transport: its incumbent against a cold batch
    // re-optimization of the same network.
    let snap_line = send(&serde_json::to_string(&Request::Snapshot).expect("serialize"));
    let Ok(Reply::Snapshot(end)) = serde_json::from_str::<Reply>(&snap_line) else {
        panic!("expected Snapshot reply, got: {snap_line}");
    };
    let cost_of = |w: &DualWeights| end.cost_with_mask(cfg.objective, w, &end.link_up);
    let final_cost = cost_of(&end.incumbent);
    let batch_weights = if end.links_down() == 0 {
        DtrSearch::new(&end.topo, &end.demands, cfg.objective, cfg.params)
            .run()
            .weights
    } else {
        // Links still down (hand-written trace): cold masked search from
        // uniform weights with an effectively unlimited change budget.
        // Only reachable under the load objective — the daemon refuses
        // link-down events under the SLA objective, so the mask stays
        // all-up there.
        let uniform = DualWeights::replicated(WeightVector::uniform(&end.topo, 1));
        let mut s = ReoptSession::new(uniform, cfg.objective, cfg.params, Scheme::Dtr);
        let h = 2 * end.topo.link_count();
        s.step_masked(&end.topo, &end.demands, &end.link_up, h)
            .weights
    };
    let batch_cost = cost_of(&batch_weights);
    let num = final_cost.phi_h + final_cost.phi_l;
    let den = batch_cost.phi_h + batch_cost.phi_l;
    let batch_ratio = if den > 0.0 { num / den } else { 1.0 };

    let report = ReplayReport {
        name: trace.name.clone(),
        events: trace.events.len(),
        nodes: trace.topo.node_count(),
        links: trace.topo.link_count(),
        accepted,
        declined,
        refused,
        no_improvement,
        noop,
        coalesced,
        flushes,
        whatif,
        final_links_down: end.links_down(),
        final_cost,
        batch_cost,
        batch_ratio,
        batch_ok: batch_ratio <= 1.05,
        total_gain,
        total_churn_messages,
        gain_per_churn: if total_churn_messages > 0 {
            total_gain / total_churn_messages as f64
        } else {
            0.0
        },
    };
    ReplayOutcome {
        lines,
        per_event_s,
        per_event_kind,
        report,
    }
}
