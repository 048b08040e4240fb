//! End-to-end protocol tests: determinism, snapshot/restore, churn
//! gating, connectivity refusal, and transport behavior.

use dtr_core::SearchParams;
use dtr_daemon::{replay_trace, serve, Daemon, DaemonCfg, EventAction, Reply, Request, Snapshot};
use dtr_graph::gen::{random_topology, triangle_topology, RandomTopologyCfg};
use dtr_graph::weights::DualWeights;
use dtr_graph::{NodeId, Topology, WeightVector};
use dtr_scenario::{generate_churn, ChurnCfg, ChurnTrace};
use dtr_traffic::{DemandSet, TrafficCfg, TrafficMatrix};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Read, Write};

fn instance() -> (Topology, DemandSet) {
    let topo = random_topology(&RandomTopologyCfg {
        nodes: 8,
        directed_links: 32,
        seed: 4,
    });
    let base = DemandSet::generate(
        &topo,
        &TrafficCfg {
            seed: 4,
            ..Default::default()
        },
    )
    .scaled(3.0);
    (topo, base)
}

fn trace(events: usize, seed: u64) -> ChurnTrace {
    let (topo, base) = instance();
    generate_churn(
        "test",
        &topo,
        &base,
        &ChurnCfg {
            events,
            seed,
            ..Default::default()
        },
    )
}

fn cfg() -> DaemonCfg {
    DaemonCfg {
        params: SearchParams::tiny().with_seed(5),
        changes_per_event: 4,
        min_gain_per_churn: 0.0,
        ..Default::default()
    }
}

fn uniform(topo: &Topology) -> DualWeights {
    DualWeights::replicated(WeightVector::uniform(topo, 1))
}

#[test]
fn replaying_a_trace_twice_is_byte_identical() {
    let trace = trace(30, 1);
    let a = replay_trace(&trace, cfg(), None);
    let b = replay_trace(&trace, cfg(), None);
    assert_eq!(a.lines, b.lines, "reply lines must be byte-identical");
    assert_eq!(a.report, b.report);
    // Replies are valid protocol lines.
    for line in &a.lines {
        let _: Reply = serde_json::from_str(line).expect("reply parses");
    }
}

#[test]
fn snapshot_restore_round_trip_is_byte_identical() {
    let trace = trace(24, 2);
    let requests: Vec<String> = trace
        .events
        .iter()
        .map(|e| serde_json::to_string(&Request::from_churn(&e.action)).unwrap())
        .collect();
    let split = 11;

    // Reference: straight through.
    let mut reference = Daemon::new(trace.topo.clone(), trace.base.clone(), None, cfg());
    let all: Vec<String> = requests.iter().map(|r| reference.handle_line(r)).collect();

    // A: first half, then snapshot.
    let mut a = Daemon::new(trace.topo.clone(), trace.base.clone(), None, cfg());
    for r in &requests[..split] {
        a.handle_line(r);
    }
    let snapshot = match a.handle(Request::Snapshot) {
        Reply::Snapshot(s) => s,
        other => panic!("expected snapshot, got {other:?}"),
    };
    // The snapshot survives serialization (a restart would ship JSON).
    let snapshot: Snapshot =
        serde_json::from_str(&serde_json::to_string(&snapshot).unwrap()).unwrap();

    // B: a fresh process restores the snapshot and continues. The boot
    // incumbent is irrelevant — Restore replaces all state.
    let mut b = Daemon::new(
        trace.topo.clone(),
        trace.base.clone(),
        Some(uniform(&trace.topo)),
        cfg(),
    );
    assert!(matches!(
        b.handle(Request::Restore { snapshot }),
        Reply::Restored { .. }
    ));
    let tail: Vec<String> = requests[split..].iter().map(|r| b.handle_line(r)).collect();
    assert_eq!(
        tail,
        all[split..].to_vec(),
        "restored daemon must continue byte-identically"
    );
}

#[test]
fn infinite_churn_floor_declines_every_reconfiguration() {
    let trace = trace(20, 3);
    let strict = DaemonCfg {
        min_gain_per_churn: f64::INFINITY,
        ..cfg()
    };
    let out = replay_trace(&trace, strict, Some(uniform(&trace.topo)));
    assert_eq!(out.report.accepted, 0, "nothing may clear an infinite bar");
    assert_eq!(out.report.total_churn_messages, 0);
    // The searches still found improvements — they were declined.
    assert!(
        out.report.declined > 0,
        "expected declined reconfigurations"
    );
}

#[test]
fn zero_floor_accepts_and_improves() {
    let trace = trace(30, 4);
    let out = replay_trace(&trace, cfg(), Some(uniform(&trace.topo)));
    assert!(
        out.report.accepted > 0,
        "expected accepted reconfigurations"
    );
    assert!(out.report.total_gain > 0.0);
    assert!(out.report.total_churn_messages > 0);
    assert!(out.report.gain_per_churn > 0.0);
    assert!(out.report.batch_ok, "ratio {}", out.report.batch_ratio);
}

#[test]
fn disconnecting_failures_are_refused_and_duplicates_are_noops() {
    let topo = triangle_topology(1.0);
    let mut high = TrafficMatrix::zeros(3);
    high.set(0, 2, 0.3);
    let mut low = TrafficMatrix::zeros(3);
    low.set(0, 2, 0.3);
    let demands = DemandSet { high, low };
    let ab = topo.find_link(NodeId(0), NodeId(1)).unwrap();
    let ac = topo.find_link(NodeId(0), NodeId(2)).unwrap();
    let mut d = Daemon::new(topo.clone(), demands, Some(uniform(&topo)), cfg());

    let first = match d.handle(Request::LinkDown { link: ab.0 }) {
        Reply::Event(r) => r,
        other => panic!("{other:?}"),
    };
    assert_ne!(first.action, EventAction::Refused);
    assert_eq!(first.links_down, 2);

    // Failing the same pair again changes nothing.
    let dup = match d.handle(Request::LinkDown { link: ab.0 }) {
        Reply::Event(r) => r,
        other => panic!("{other:?}"),
    };
    assert_eq!(dup.action, EventAction::NoOp);

    // Failing a second pair would isolate node A: refused, state kept.
    let refused = match d.handle(Request::LinkDown { link: ac.0 }) {
        Reply::Event(r) => r,
        other => panic!("{other:?}"),
    };
    assert_eq!(refused.action, EventAction::Refused);
    assert_eq!(refused.links_down, 2, "mask must be unchanged");

    // Repair brings the network back and out-of-range ids error.
    let up = match d.handle(Request::LinkUp { link: ab.0 }) {
        Reply::Event(r) => r,
        other => panic!("{other:?}"),
    };
    assert_eq!(up.links_down, 0);
    assert!(matches!(
        d.handle(Request::LinkDown { link: 999 }),
        Reply::Error { .. }
    ));
}

#[test]
fn what_if_probes_do_not_mutate_state() {
    let (topo, base) = instance();
    let mut d = Daemon::new(topo.clone(), base, Some(uniform(&topo)), cfg());
    let before = match d.handle(Request::Snapshot) {
        Reply::Snapshot(s) => s,
        other => panic!("{other:?}"),
    };

    let probe = match d.handle(Request::WhatIfLinkDown { link: 0 }) {
        Reply::WhatIf(w) => w,
        other => panic!("{other:?}"),
    };
    assert!(probe.feasible);
    let hypothetical = probe.cost.expect("feasible probes report cost");

    let mut w2 = uniform(&topo);
    w2.low.set(dtr_graph::LinkId(1), 9);
    let weights_probe = match d.handle(Request::WhatIfWeights { weights: w2 }) {
        Reply::WhatIf(w) => w,
        other => panic!("{other:?}"),
    };
    assert_eq!(weights_probe.changes, Some(1));
    let churn = weights_probe.churn.expect("weight probes report churn");
    assert!(churn.lsa_messages > 0);

    let mut after = match d.handle(Request::Snapshot) {
        Reply::Snapshot(s) => s,
        other => panic!("{other:?}"),
    };
    // Probes advance seq but must not touch any other state.
    after.seq = before.seq;
    assert_eq!(before, after);
    // The intact-network cost differs from the hypothetical one.
    let status = match d.handle(Request::Status) {
        Reply::Status(s) => s,
        other => panic!("{other:?}"),
    };
    assert!(status.links_down == 0);
    assert!(
        status.cost.phi_h <= hypothetical.phi_h + 1e-12,
        "losing a link cannot reduce the lexicographic high cost here"
    );
}

#[test]
fn serve_loop_replies_per_line_and_honors_shutdown() {
    let (d, _) = booted();
    // An empty line is skipped, a line that is not UTF-8 is an `Error`
    // that moves nothing, and after `Shutdown` the loop stops: the last
    // line gets no reply.
    let input = b"\"Status\"\n\n\xff\xfe\n\"Status\"\n{\"WhatIfLinkDown\":{\"link\":2}}\n\"Shutdown\"\n\"Status\"\n";
    let mut output = Vec::new();
    serve(d, &input[..], &mut output).unwrap();
    let text = String::from_utf8(output).unwrap();
    let replies: Vec<&str> = text.lines().collect();
    let kinds: Vec<&str> = replies
        .iter()
        .map(|r| r.split('"').nth(1).unwrap())
        .collect();
    assert_eq!(kinds, ["Status", "Error", "Status", "WhatIf", "Bye"]);
    assert_eq!(replies[2], replies[0]);
}

/// On a live connection, `"Status"`, a line that is not UTF-8, and
/// `"Status"` again: the bad line gets an `Error`, and the connection and
/// the state survive it.
fn assert_not_utf8_answered<S: Read + Write>(stream: S) {
    let mut stream = BufReader::new(stream);
    let input = b"\"Status\"\n\xff\xfe\n\"Status\"\n";
    stream.get_mut().write_all(input).unwrap();
    let replies = [(); 3].map(|()| {
        let mut line = String::new();
        stream.read_line(&mut line).unwrap();
        line
    });
    let error = serde_json::from_str(&replies[1]);
    assert!(matches!(error, Ok(Reply::Error { .. })), "{replies:?}");
    assert!(replies[0].starts_with("{\"Status\""), "{replies:?}");
    assert_eq!(replies[2], replies[0]);
}

#[test]
fn sla_objective_daemon_manages_failure_masks() {
    use dtr_cost::{Objective, SlaParams};
    use dtr_graph::LinkId;
    use dtr_routing::Evaluator;

    let (topo, base) = instance();
    let objective = Objective::SlaBased(SlaParams::default());
    let sla_cfg = DaemonCfg { objective, ..cfg() };
    let mut d = Daemon::new(topo.clone(), base.clone(), Some(uniform(&topo)), sla_cfg);
    let Reply::Snapshot(mut snapshot) = d.handle(Request::Snapshot) else {
        panic!("expected a snapshot");
    };
    // `Status` costs the incumbent on the surviving network.
    let status_is_the_masked_evaluation = |d: &mut Daemon| {
        let Reply::Status(status) = d.handle(Request::Status) else {
            panic!("expected a status");
        };
        let ev = Evaluator::new(&topo, d.demands(), objective)
            .eval_dual_masked(d.incumbent(), d.link_up());
        assert_eq!((status.cost.phi_h, status.cost.phi_l), (ev.phi_h, ev.phi_l));
        assert_eq!(status.links_down, 2);
    };

    // Demand updates (and their warm reoptimizations) and weight
    // what-ifs work on the intact network.
    let reply = d.handle(Request::DemandUpdate {
        demands: base.scaled(1.1),
    });
    assert!(matches!(reply, Reply::Event(_)), "{reply:?}");
    let probe = d.handle(Request::WhatIfWeights {
        weights: uniform(&topo),
    });
    assert!(
        matches!(&probe, Reply::WhatIf(w) if w.cost.is_some()),
        "{probe:?}"
    );

    // The SLA walk follows the surviving DAGs: a failure reoptimizes,
    // a probe answers with numbers, and a snapshot may carry a cut pair.
    let reply = d.handle(Request::LinkDown { link: 0 });
    assert!(
        matches!(&reply, Reply::Event(e) if e.links_down == 2),
        "{reply:?}"
    );
    status_is_the_masked_evaluation(&mut d);
    let probe = d.handle(Request::WhatIfLinkDown { link: 2 });
    assert!(
        matches!(&probe, Reply::WhatIf(w) if w.cost.is_some()),
        "{probe:?}"
    );
    let twin = topo.reverse_link(LinkId(2)).expect("duplex topology");
    snapshot.link_up[2] = false;
    snapshot.link_up[twin.index()] = false;
    let restored = d.handle(Request::Restore { snapshot });
    assert!(matches!(restored, Reply::Restored { .. }), "{restored:?}");
    assert!(!d.link_up()[2] && !d.link_up()[twin.index()]);
    status_is_the_masked_evaluation(&mut d);
}

#[test]
fn sla_objective_replays_a_trace_with_link_events() {
    use dtr_cost::{Objective, SlaParams};
    use dtr_scenario::ChurnAction;

    let t = trace(30, 6);
    assert!(
        t.events
            .iter()
            .any(|e| matches!(e.action, ChurnAction::LinkDown { .. })),
        "trace must hold link failures"
    );
    let sla_cfg = DaemonCfg {
        objective: Objective::SlaBased(SlaParams::default()),
        ..cfg()
    };
    let a = replay_trace(&t, sla_cfg, Some(uniform(&t.topo)));
    let b = replay_trace(&t, sla_cfg, Some(uniform(&t.topo)));
    assert_eq!(a.lines, b.lines, "SLA replay must stay deterministic");
    assert_eq!(a.report.events, t.events.len());
    for line in &a.lines {
        let reply: Reply = serde_json::from_str(line).expect("reply parses");
        assert!(!matches!(reply, Reply::Error { .. }), "{line}");
    }
}

/// `line` with the one occurrence of `from` replaced by `to`.
fn edited(line: &str, from: &str, to: &str) -> String {
    assert_eq!(line.matches(from).count(), 1, "{from:?} in {line}");
    line.replace(from, to)
}

/// The hostile lines of ROADMAP item 5(c), by what is wrong with them:
/// demand updates that are ragged, negative or sized for another
/// network, and snapshots whose parts do not fit each other or describe
/// a state no event sequence reaches.
fn hostile_lines() -> Vec<(&'static str, String)> {
    let (topo, base) = instance();
    let (n, m) = (topo.node_count(), topo.link_count());
    let json = |req: &Request| serde_json::to_string(req).unwrap();
    let update = json(&Request::DemandUpdate {
        demands: base.clone(),
    });
    // Entry (0, 1) of the high matrix, as it is written on the wire.
    let head = format!(
        "{{\"high\":{{\"n\":{n},\"data\":[0.0,{:?},",
        base.high.get(0, 1)
    );
    let ragged_head = head.replace("[0.0,", "[");
    let negative_head = format!("{{\"high\":{{\"n\":{n},\"data\":[0.0,-1.0,");
    let absurd_head = format!("{{\"high\":{{\"n\":{n},\"data\":[0.0,1e308,");
    let probe = |high: WeightVector, low: WeightVector| {
        json(&Request::WhatIfWeights {
            weights: DualWeights { high, low },
        })
    };
    let mut zero_on_one_link = WeightVector::uniform(&topo, 1);
    zero_on_one_link.set(dtr_graph::LinkId(0), 0);
    let small = DemandSet {
        high: TrafficMatrix::zeros(3),
        low: TrafficMatrix::zeros(3),
    };

    let mut booted = Daemon::new(topo.clone(), base.clone(), Some(uniform(&topo)), cfg());
    let snapshot = match booted.handle(Request::Snapshot) {
        Reply::Snapshot(s) => s,
        other => panic!("expected snapshot, got {other:?}"),
    };
    let restore = |change: &dyn Fn(&mut Snapshot)| {
        let mut snapshot = snapshot.clone();
        change(&mut snapshot);
        json(&Request::Restore { snapshot })
    };
    let intact = restore(&|_| ());
    let first = topo.link(dtr_graph::LinkId(0));
    let first_link = format!(
        "\"links\":[{{\"src\":{},\"dst\":{},",
        first.src.0, first.dst.0
    );

    vec![
        ("ragged demand update", edited(&update, &head, &ragged_head)),
        (
            "negative demand update",
            edited(&update, &head, &negative_head),
        ),
        (
            "mis-sized demand update",
            json(&Request::DemandUpdate {
                demands: small.clone(),
            }),
        ),
        // Each entry finite, the costs not: Φ overflowed to ∞ and the
        // reply carried `null` where a number belongs.
        ("absurd demand update", edited(&update, &head, &absurd_head)),
        // Priced as if it were a routing; weights, like a `Restore`'s,
        // must lie in the search range.
        (
            "zero weight probe",
            probe(zero_on_one_link, WeightVector::uniform(&topo, 1)),
        ),
        (
            "weight probe above max_weight",
            probe(
                WeightVector::uniform(&topo, 1),
                WeightVector::uniform(&topo, cfg().params.max_weight + 1),
            ),
        ),
        (
            "short low weight vector",
            restore(&|s| {
                let low = s.incumbent.low.as_slice()[..m - 1].to_vec();
                s.incumbent.low = WeightVector::from_vec(low);
            }),
        ),
        (
            "zero weight",
            restore(&|s| s.incumbent.high = WeightVector::uniform(&topo, 0)),
        ),
        (
            "dangling link endpoint",
            edited(
                &intact,
                &first_link,
                &format!("\"links\":[{{\"src\":{},\"dst\":99,", first.src.0),
            ),
        ),
        (
            "3x3 low matrix",
            restore(&|s| s.demands.low = small.low.clone()),
        ),
        ("ragged high matrix", edited(&intact, &head, &ragged_head)),
        ("every link down", restore(&|s| s.link_up = vec![false; m])),
    ]
}

/// A daemon on [`instance`] and the `Status` line of its untouched state.
fn booted() -> (Daemon, String) {
    let (topo, base) = instance();
    let mut d = Daemon::new(topo.clone(), base, Some(uniform(&topo)), cfg());
    let untouched = d.handle_line("\"Status\"");
    (d, untouched)
}

/// `line` gets exactly one reply line, an `Error`, and leaves no trace:
/// the `Status` line after it is `untouched`, byte for byte.
fn assert_rejected(d: &mut Daemon, untouched: &str, what: &str, line: &str) {
    let reply = d.handle_line(line);
    assert!(!reply.contains('\n'), "{what}: {reply:?}");
    assert!(
        matches!(serde_json::from_str(&reply), Ok(Reply::Error { .. })),
        "{what}: {line:?} -> {reply}"
    );
    assert_eq!(d.handle_line("\"Status\""), untouched, "{what}: {line:?}");
}

/// The hand-picked hostile lines, then every request example of
/// `docs/PROTOCOL.md` cut off at every byte.
#[test]
fn hostile_lines_are_errors_and_leave_state_untouched() {
    let (mut d, untouched) = booted();
    for (what, line) in hostile_lines() {
        assert_rejected(&mut d, &untouched, what, &line);
    }

    let path = format!("{}/../../docs/PROTOCOL.md", env!("CARGO_MANIFEST_DIR"));
    let doc = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let is_request = |line: &str| serde_json::from_str::<Request>(line).is_ok();
    let examples: Vec<&str> = doc.lines().filter(|line| is_request(line)).collect();
    assert!(examples.len() >= 12, "one example per request variant");
    for example in examples {
        for cut in 0..example.len() {
            let line = String::from_utf8_lossy(&example.as_bytes()[..cut]);
            // A cut that happens to leave a complete request is not hostile.
            if !is_request(&line) {
                assert_rejected(&mut d, &untouched, "truncated example", &line);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The fuzzer of ROADMAP item 5(c): any byte string, raw, through
    /// `serve`: every non-empty line of it gets one `Error` reply, and
    /// the `Status` after them is `untouched`, byte for byte.
    #[test]
    fn arbitrary_bytes_are_errors_and_leave_state_untouched(
        bytes in proptest::collection::vec(any::<u8>(), 0..200),
    ) {
        let (d, untouched) = booted();
        let input = [&bytes[..], b"\n\"Status\"\n"].concat();
        let mut output = Vec::new();
        serve(d, input.as_slice(), &mut output).unwrap();
        let text = String::from_utf8(output).unwrap();
        let mut replies: Vec<&str> = text.lines().collect();
        assert_eq!(replies.pop(), Some(untouched.as_str()), "{bytes:?}");
        let blank = |line: &[u8]| std::str::from_utf8(line).is_ok_and(|l| l.trim().is_empty());
        let lines = bytes.split(|&b| b == b'\n').filter(|line| !blank(line)).count();
        assert_eq!(replies.len(), lines, "{bytes:?}");
        for reply in replies {
            assert!(matches!(serde_json::from_str(reply), Ok(Reply::Error { .. })), "{reply}");
        }
    }
}

/// Over TCP a line that is not UTF-8 used to close its connection
/// unanswered, and the same ragged update used to panic under the writer
/// lock and take every later connection down with it.
#[test]
fn a_ragged_update_over_tcp_leaves_the_server_answering() {
    let (topo, base) = instance();
    let d = Daemon::new(topo.clone(), base, Some(uniform(&topo)), cfg());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || dtr_daemon::serve_tcp(d, listener));
    let ask = |line: &str| {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        serde_json::from_str::<Reply>(reply.trim()).unwrap_or_else(|e| panic!("{reply:?}: {e}"))
    };

    assert_not_utf8_answered(&std::net::TcpStream::connect(addr).unwrap());
    let (_, ragged) = hostile_lines().swap_remove(0);
    assert!(matches!(ask(&ragged), Reply::Error { .. }));
    let json = |req: &Request| serde_json::to_string(req).unwrap();
    match ask(&json(&Request::Status)) {
        Reply::Status(s) => assert_eq!(s.seq, 0),
        other => panic!("expected a status on the second connection, got {other:?}"),
    }
    assert!(matches!(ask(&json(&Request::Shutdown)), Reply::Bye { .. }));
    server.join().unwrap().unwrap();
}
