//! Tier-1 coverage of `dtrd` (ROADMAP item 5(d), short form): the
//! checked-in smoke trace replayed in-process through the line protocol,
//! with the daemon's invariants asserted after every line.

use dtr::core::SearchParams;
use dtr::graph::weights::DualWeights;
use dtr::graph::WeightVector;
use dtr::routing::Evaluator;
use dtr_daemon::{Daemon, DaemonCfg, EventAction, Reply, Request};
use dtr_scenario::{ChurnAction, ChurnTrace};

fn json(req: &Request) -> String {
    serde_json::to_string(req).unwrap()
}

fn links_down(mask: &[bool]) -> usize {
    mask.iter().filter(|&&up| !up).count()
}

#[test]
fn smoke_trace_holds_the_daemon_invariants_after_every_line() {
    let path = format!("{}/traces/smoke.json", env!("CARGO_MANIFEST_DIR"));
    let trace: ChurnTrace = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
    let cfg = DaemonCfg {
        params: SearchParams::tiny().with_seed(trace.seed),
        idle_steps: 1,
        ..Default::default()
    };
    let boot = || {
        let uniform = DualWeights::replicated(WeightVector::uniform(&trace.topo, 1));
        Daemon::new(trace.topo.clone(), trace.base.clone(), Some(uniform), cfg)
    };
    let mut daemon = boot();
    // A second daemon, restored from the first one's snapshot halfway
    // through, must be indistinguishable from it afterwards.
    let mut restored: Option<Daemon> = None;
    let mut mask = vec![true; trace.topo.link_count()];
    let mut applied = 0u64;

    for (i, event) in trace.events.iter().enumerate() {
        if i == trace.events.len() / 2 {
            let Reply::Snapshot(snapshot) = daemon.handle(Request::Snapshot) else {
                panic!("expected a snapshot");
            };
            assert!(
                snapshot.link_up.contains(&false),
                "cut while a link is down"
            );
            let mut fresh = boot();
            let reply = fresh.handle(Request::Restore { snapshot });
            assert_eq!(reply, Reply::Restored { seq: applied });
            restored = Some(fresh);
        }

        let line = json(&Request::from_churn(&event.action));
        let reply_line = daemon.handle_line(&line);
        if let Some(twin) = &mut restored {
            assert_eq!(
                twin.handle_line(&line),
                reply_line,
                "line {i} after restore"
            );
        }
        match serde_json::from_str(&reply_line).unwrap() {
            Reply::Event(report) => {
                applied += 1;
                assert_eq!(report.seq, applied, "line {i}");
                let flip = match event.action {
                    ChurnAction::LinkDown { link } => Some((link, false)),
                    ChurnAction::LinkUp { link } => Some((link, true)),
                    _ => None,
                };
                if let Some((link, up)) = flip.filter(|_| report.action != EventAction::Refused) {
                    let link = dtr::graph::LinkId(link);
                    mask[link.index()] = up;
                    mask[trace.topo.reverse_link(link).unwrap().index()] = up;
                }
                assert_eq!(report.links_down, links_down(&mask), "line {i}");
            }
            Reply::WhatIf(report) => assert_eq!(report.seq, applied, "line {i}"),
            other => panic!("line {i}: unexpected reply {other:?}"),
        }
        assert_eq!(daemon.link_up(), &mask[..], "line {i}");

        // What `Status` reports is the incumbent's evaluation under the
        // mask, in which a failed link carries nothing.
        let eval = Evaluator::new(daemon.topo(), daemon.demands(), cfg.objective)
            .eval_dual_masked(daemon.incumbent(), &mask);
        for (l, _) in mask.iter().enumerate().filter(|(_, &up)| !up) {
            assert_eq!(
                (eval.high_loads[l], eval.low_loads[l]),
                (0.0, 0.0),
                "link {l}"
            );
        }
        let status_line = daemon.handle_line(&json(&Request::Status));
        let Reply::Status(status) = serde_json::from_str(&status_line).unwrap() else {
            panic!("line {i}: expected a status, got {status_line}");
        };
        assert_eq!((status.seq, status.pending), (applied, 0), "line {i}");
        assert_eq!(status.links_down, links_down(&mask), "line {i}");
        assert_eq!(
            (status.cost.phi_h, status.cost.phi_l),
            (eval.phi_h, eval.phi_l)
        );

        // View ≡ writer: a published clone answers `Status` with the
        // writer's own bytes.
        let view = daemon.clone().handle_readonly(&Request::Status).unwrap();
        assert_eq!(
            serde_json::to_string(&view).unwrap(),
            status_line,
            "line {i}"
        );
    }
    assert!(restored.is_some() && applied > 0);
}
