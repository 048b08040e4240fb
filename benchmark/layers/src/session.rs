//! Traced `dtrd` sessions: every protocol line through
//! `Daemon::handle_line` under a root span, then — on the pre-event
//! state — the steps the daemon performed inside that one call, as
//! shadow child spans.

use crate::adapter::*;
use crate::spans::Recorder;

/// What one line was and how the daemon answered it.
pub struct Line {
    pub root: usize,
    /// `demand_update`, `link_down`, … — or `coalesced_ack` for an event
    /// the daemon only acknowledged.
    pub kind: &'static str,
    pub reply: String,
    pub action: Option<EventAction>,
}

pub struct Session {
    pub lines: Vec<Line>,
    /// Candidate evaluations of each shadowed reoptimization step.
    pub evals_per_step: Vec<usize>,
}

fn kind_of(req: &Request) -> &'static str {
    match req {
        Request::DirectedLinkDown { .. } | Request::DirectedLinkUp { .. } => "directed",
        other => other.kind(),
    }
}

/// The link mask after `req` applies to `mask` (the daemon's rules for
/// pair and directed events).
fn masked_by(topo: &Topology, mask: &[bool], req: &Request) -> Vec<bool> {
    let mut out = mask.to_vec();
    let mut set_pair = |link: u32, up: bool| {
        let id = LinkId(link);
        out[id.index()] = up;
        if let Some(twin) = topo.reverse_link(id) {
            out[twin.index()] = up;
        }
    };
    match *req {
        Request::LinkDown { link } | Request::WhatIfLinkDown { link } => set_pair(link, false),
        Request::LinkUp { link } => set_pair(link, true),
        Request::DirectedLinkDown { link } => out[link as usize] = false,
        Request::DirectedLinkUp { link } => out[link as usize] = true,
        _ => {}
    }
    out
}

/// One request as the daemon handled it: its state before and after,
/// the line and the reply.
struct Exchange<'a> {
    pre: &'a Daemon,
    post: &'a Daemon,
    cfg: &'a DaemonCfg,
    line: &'a str,
    reply: &'a Reply,
}

/// Re-runs, step by step and each under its own shadow span, what
/// `handle_line` did for `line` inside the root span: parse, idle
/// passes, the incumbent's evaluation, the reoptimization step (the
/// same search: a session rebuilt at `Status.steps`), churn pricing and
/// reply serialization; then the view publish the TCP transport adds.
/// Returns the parsed request, `None` for a malformed line.
fn shadow(
    rec: &mut Recorder,
    root: usize,
    exchange: &Exchange,
    evals: &mut Vec<usize>,
) -> Option<Request> {
    let Exchange {
        pre,
        post,
        cfg,
        line,
        reply,
    } = *exchange;
    let req = rec
        .shadow("shims.parse_request", root, || {
            serde_json::from_str::<Request>(line)
        })
        .ok()?;
    let Some(Reply::Status(status)) = pre.handle_readonly(&Request::Status) else {
        unreachable!("Status is read-only and always answered")
    };
    let topo = pre.topo();
    let eval = |rec: &mut Recorder, demands: &DemandSet, w: &DualWeights, mask: &[bool]| {
        rec.shadow("routing.eval_incumbent", root, || {
            eval_under_mask(topo, demands, cfg.objective, w, mask)
        })
    };
    match (&req, reply) {
        (Request::WhatIfLinkDown { .. }, Reply::WhatIf(answer)) if answer.feasible => {
            eval(
                rec,
                pre.demands(),
                pre.incumbent(),
                &masked_by(topo, pre.link_up(), &req),
            );
        }
        (Request::Status, _) => {
            eval(rec, pre.demands(), pre.incumbent(), pre.link_up());
        }
        (_, Reply::Event(report)) => {
            let mut session = session_at(
                pre.incumbent().clone(),
                cfg.objective,
                cfg.params,
                status.steps,
            );
            if status.pending == 0 {
                for _ in 0..cfg.idle_steps {
                    let before = eval(rec, pre.demands(), session.incumbent(), pre.link_up());
                    let res = rec.shadow("core.idle_step", root, || {
                        session.idle_step(
                            topo,
                            pre.demands(),
                            pre.link_up(),
                            cfg.changes_per_event,
                            IDLE_STEP_ITERS,
                        )
                    });
                    if res.best_cost < before.cost && res.changes_used > 0 {
                        let churn = rec.shadow("mtr.deployment_cost", root, || {
                            deployment_cost(topo, session.incumbent(), &res.weights)
                        });
                        let gain =
                            (before.phi_h - res.eval.phi_h) + (before.phi_l - res.eval.phi_l);
                        if gain / churn.lsa_messages.max(1) as f64 >= cfg.min_gain_per_churn {
                            session.accept(res.weights);
                        }
                    }
                }
            }
            let applied = !matches!(report.action, EventAction::NoOp | EventAction::Refused);
            let mask = if applied {
                masked_by(topo, pre.link_up(), &req)
            } else {
                pre.link_up().to_vec()
            };
            let demands = match &req {
                Request::DemandUpdate { demands } => demands,
                _ => pre.demands(),
            };
            eval(rec, demands, session.incumbent(), &mask);
            if report.batch >= 1 {
                let res = rec.shadow("core.reopt_step", root, || {
                    session.step_masked(topo, demands, &mask, cfg.changes_per_event)
                });
                evals.push(res.trace.evaluations);
                if report.churn.is_some() {
                    rec.shadow("mtr.deployment_cost", root, || {
                        deployment_cost(topo, session.incumbent(), &res.weights)
                    });
                }
            }
        }
        _ => {}
    }
    let _ = rec.shadow("shims.ser_reply", root, || serde_json::to_string(reply));
    rec.shadow("daemon.clone", root, || post.clone());
    Some(req)
}

/// Feeds `lines` to `daemon` one by one, recording root and shadow spans.
pub fn run(
    rec: &mut Recorder,
    label: &str,
    daemon: &mut Daemon,
    cfg: &DaemonCfg,
    lines: &[String],
) -> Session {
    let mut session = Session {
        lines: Vec::new(),
        evals_per_step: Vec::new(),
    };
    for (i, line) in lines.iter().enumerate() {
        let pre = daemon.clone();
        let op = format!("{label}-{i}");
        let (root, reply) = rec.span("daemon.handle_line", &op, None, |_, id| {
            (id, daemon.handle_line(line))
        });
        let typed: Reply = serde_json::from_str(&reply).expect("the daemon's replies parse");
        let exchange = Exchange {
            pre: &pre,
            post: daemon,
            cfg,
            line,
            reply: &typed,
        };
        let req = shadow(rec, root, &exchange, &mut session.evals_per_step);
        let action = match &typed {
            Reply::Event(report) => Some(report.action),
            _ => None,
        };
        let kind = match (&req, action) {
            (Some(Request::Flush), _) => "flush",
            (_, Some(EventAction::Coalesced)) => "coalesced_ack",
            (Some(req), _) => kind_of(req),
            (None, _) => "malformed",
        };
        session.lines.push(Line {
            root,
            kind,
            reply,
            action,
        });
    }
    session
}

impl Session {
    /// Root-span durations of the lines of `kind`, ms.
    pub fn handle_ms(&self, rec: &Recorder, kind: &str) -> Vec<f64> {
        self.lines
            .iter()
            .filter(|l| l.kind == kind)
            .map(|l| rec.spans[l.root].duration_ns() as f64 / 1e6)
            .collect()
    }

    pub fn root_total_s(&self, rec: &Recorder) -> f64 {
        self.lines
            .iter()
            .map(|l| rec.spans[l.root].duration_ns() as f64 / 1e9)
            .sum()
    }

    /// Share of root time the shadow children do not account for, %.
    pub fn self_pct(&self, rec: &Recorder) -> f64 {
        let own: u64 = self.lines.iter().map(|l| rec.self_ns(l.root)).sum();
        100.0 * own as f64 / 1e9 / self.root_total_s(rec).max(1e-12)
    }

    fn count(&self, wanted: EventAction) -> usize {
        self.lines
            .iter()
            .filter(|l| l.action == Some(wanted))
            .count()
    }

    /// Accepted ÷ priced candidates (accepted + declined).
    pub fn accept_ratio(&self) -> f64 {
        let accepted = self.count(EventAction::Accepted);
        accepted as f64 / (accepted + self.count(EventAction::Declined)).max(1) as f64
    }

    /// Coalesced acknowledgements ÷ event lines.
    pub fn coalesce_ratio(&self) -> f64 {
        let events = self.lines.iter().filter(|l| l.action.is_some()).count();
        self.count(EventAction::Coalesced) as f64 / events.max(1) as f64
    }
}

/// The lines of the two probe sessions on a reference instance: every
/// request kind un-coalesced, then bursts of three under `--coalesce 4`
/// closed by a `Flush`.
pub fn probe_lines(
    topo: &Topology,
    demands: &DemandSet,
    rounds: usize,
) -> (Vec<String>, Vec<String>) {
    let line = |req: &Request| serde_json::to_string(req).expect("requests always serialize");
    let churn = ChurnCfg {
        events: 6 * rounds,
        seed: 7,
        flap_rate: 0.0,
        whatif_rate: 0.0,
        ..Default::default()
    };
    let mut drift = generate_churn("probe", topo, demands, &churn)
        .events
        .into_iter()
        .filter_map(|e| match e.action {
            ChurnAction::Demand { demands } => Some(line(&Request::DemandUpdate { demands })),
            _ => None,
        });
    let mut next_drift = || {
        drift
            .next()
            .expect("the churn generator emits only demand walks here")
    };
    let cuts = survivable_duplex_failures(topo);
    let (mut plain, mut coalesced) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let link = cuts[round % cuts.len()].pair_id;
        plain.push(next_drift());
        for req in [
            Request::LinkDown { link },
            Request::LinkUp { link },
            Request::DirectedLinkDown { link },
            Request::DirectedLinkUp { link },
            Request::WhatIfLinkDown { link },
            Request::Status,
            Request::Snapshot,
        ] {
            plain.push(line(&req));
        }
        coalesced.extend([
            next_drift(),
            next_drift(),
            next_drift(),
            line(&Request::Flush),
        ]);
    }
    (plain, coalesced)
}
