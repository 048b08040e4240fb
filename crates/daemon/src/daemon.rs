//! The deterministic event loop: one network, one incumbent, one
//! decision per event.
//!
//! [`Daemon`] *is* a [`Snapshot`] plus its configuration: topology,
//! current [`DemandSet`], per-directed-link operational mask, incumbent
//! DTR weights, search-stream position and counters live in that one
//! record, so `Snapshot` clones it and `Restore` assigns it. Each
//! state-changing request (demand update, link down/up) triggers one
//! warm-started, change-limited reoptimization under the current
//! failure mask — a [`ReoptSession`] opened at the record's
//! `(incumbent, steps)` — and one decision (`Daemon::decide`): a
//! candidate that improves the incumbent is *priced* through the
//! `dtr-mtr` control-plane emulation, and deployed only when its
//! gain-per-LSA-message clears [`DaemonCfg::min_gain_per_churn`].
//!
//! Everything is single-threaded and a pure function of the event
//! sequence: replaying the same requests yields byte-identical reply
//! lines (see `DESIGN.md` for the full determinism contract).

use crate::event::{
    CostPair, EventAction, EventReport, Reply, Request, Snapshot, StatusReport, WhatIfReport,
};
use dtr_core::reopt::{changes_between, ReoptResult};
use dtr_core::{ReoptSession, Scheme, SearchParams};
use dtr_cost::Objective;
use dtr_graph::weights::DualWeights;
use dtr_graph::{LinkId, Topology, WeightVector};
use dtr_mtr::{deployment_cost, ChurnReport};
use dtr_routing::{strongly_connected_under, Evaluation, Evaluator};
use dtr_traffic::DemandSet;

/// Daemon configuration.
#[derive(Debug, Clone, Copy)]
pub struct DaemonCfg {
    /// Search parameters for the per-event reoptimization (`seed`
    /// anchors the whole reply stream; `backend` picks the evaluation
    /// backend).
    pub params: SearchParams,
    /// Change budget `h` of each per-event reoptimization.
    pub changes_per_event: usize,
    /// Minimum `(Φ_H + Φ_L)` gain per flooded LSA message a candidate
    /// must offer to be deployed. `0.0` accepts every improvement.
    pub min_gain_per_churn: f64,
    /// The two-class objective every search and evaluation runs under.
    /// Masked evaluation (re-optimizing while links are down) is only
    /// defined for [`Objective::LoadBased`], so under
    /// [`Objective::SlaBased`] the daemon answers link-failure events
    /// and probes with a protocol `Error` instead of wrong numbers;
    /// demand updates and weight what-ifs work under both. The churn
    /// gate (`min_gain_per_churn`) always meters the `(Φ_H + Φ_L)` gain
    /// — under the SLA objective the *acceptance* test still compares
    /// the lexicographic `⟨Λ, Φ_L⟩` cost.
    pub objective: Objective,
    /// Event-coalescing batch cap. `0` (the default) reoptimizes after
    /// every state-changing event. `N ≥ 1` *applies* each event
    /// immediately but defers the search, acknowledging with
    /// [`EventAction::Coalesced`], until `N` events are pending or an
    /// explicit [`Request::Flush`] arrives — one search then covers the
    /// whole batch. `coalesce: 1` is byte-identical to `0` (every event
    /// closes its own batch), which is the anchor of the coalescing
    /// determinism argument in `DESIGN.md`.
    pub coalesce: usize,
    /// Background anytime optimization budget: how many cheap
    /// improvement passes ([`ReoptSession::idle_step`] at
    /// [`IDLE_STEP_ITERS`] iterations each) run at each event boundary.
    /// Passes run deterministically *before* the next event applies and
    /// never while a coalescing batch is open, so the reply stream stays
    /// a pure function of the event sequence. `0` disables.
    pub idle_steps: u64,
}

/// Descent iterations of one background [`ReoptSession::idle_step`]
/// pass — deliberately a small fraction of the full per-event schedule
/// (`SearchParams::tiny` runs 200) so idle passes stay cheap.
pub const IDLE_STEP_ITERS: usize = 25;

impl Default for DaemonCfg {
    fn default() -> Self {
        DaemonCfg {
            params: SearchParams::tiny(),
            changes_per_event: 4,
            min_gain_per_churn: 0.0,
            objective: Objective::LoadBased,
            coalesce: 0,
            idle_steps: 0,
        }
    }
}

/// The long-running reoptimization daemon (see module docs).
///
/// `Clone` exists for the server's published read view: after each
/// line through the writer the server clones the daemon into an `Arc`
/// snapshot that probes answer from (via [`Daemon::handle_readonly`])
/// while the single writer keeps optimizing, and that the writer is
/// rolled back to if a line panics.
#[derive(Clone)]
pub struct Daemon {
    /// Every piece of mutable state, in the shape the wire carries it.
    state: Snapshot,
    cfg: DaemonCfg,
    shutdown: bool,
}

/// A link event parsed once by [`Daemon::validate_event`].
struct LinkEvent {
    /// The reply's `event` field, e.g. `link_down(3)`.
    label: String,
    /// The directed links that change state: both directions of a
    /// duplex pair, or the one link of a directed event.
    links: Vec<LinkId>,
    /// The state they move to.
    up: bool,
}

/// Both matrices must index the `n` nodes of the topology they load.
fn check_demands(demands: &DemandSet, n: usize) -> Result<(), String> {
    if demands.high.len() != n || demands.low.len() != n {
        return Err(format!("demand matrices must be {n}x{n}"));
    }
    Ok(())
}

/// What [`Daemon::decide`] did with one search result.
struct Decision {
    action: EventAction,
    changes: usize,
    gain: f64,
    churn: Option<ChurnReport>,
    gain_per_churn: f64,
}

impl Decision {
    /// No candidate was priced.
    fn unpriced(action: EventAction) -> Self {
        Decision {
            action,
            changes: 0,
            gain: 0.0,
            churn: None,
            gain_per_churn: 0.0,
        }
    }
}

impl CostPair {
    pub(crate) fn of(eval: &Evaluation) -> Self {
        CostPair {
            phi_h: eval.phi_h,
            phi_l: eval.phi_l,
        }
    }
}

impl Snapshot {
    pub(crate) fn links_down(&self) -> usize {
        self.link_up.iter().filter(|&&u| !u).count()
    }

    /// Cost of `w` on this state's demands under an explicit mask — the
    /// one evaluation outside the search, shared by `Status`, no-change
    /// replies, the (non-mutating) what-if probes and the replay
    /// driver's end-state score. Links are only ever down under the
    /// load objective (see [`DaemonCfg::objective`]).
    pub(crate) fn cost_with_mask(
        &self,
        objective: Objective,
        w: &DualWeights,
        mask: &[bool],
    ) -> CostPair {
        CostPair::of(
            &Evaluator::new(&self.topo, &self.demands, objective).eval_dual_masked(w, mask),
        )
    }

    fn status(&self, cost: CostPair) -> StatusReport {
        StatusReport {
            seq: self.seq,
            nodes: self.topo.node_count(),
            links: self.topo.link_count(),
            links_down: self.links_down(),
            cost,
            accepted: self.accepted,
            declined: self.declined,
            refused: self.refused,
            total_gain: self.total_gain,
            total_churn_messages: self.total_churn_messages,
            steps: self.steps,
            pending: self.pending,
            idle_steps: self.idle_steps,
            idle_accepted: self.idle_accepted,
            idle_declined: self.idle_declined,
        }
    }
}

impl Daemon {
    /// Boots a daemon around `topo`/`demands`. When `incumbent` is
    /// `None`, a cold batch DTR search under `cfg.params` produces the
    /// initial setting — pass a precomputed incumbent to skip that
    /// (replay benchmarks do).
    pub fn new(
        topo: Topology,
        demands: DemandSet,
        incumbent: Option<DualWeights>,
        cfg: DaemonCfg,
    ) -> Self {
        cfg.params.validate();
        let incumbent = incumbent.unwrap_or_else(|| {
            dtr_core::DtrSearch::new(&topo, &demands, cfg.objective, cfg.params)
                .run()
                .weights
        });
        assert_eq!(incumbent.high.len(), topo.link_count());
        assert_eq!(incumbent.low.len(), topo.link_count());
        let state = Snapshot {
            seq: 0,
            steps: 0,
            accepted: 0,
            declined: 0,
            refused: 0,
            total_gain: 0.0,
            total_churn_messages: 0,
            pending: 0,
            idle_steps: 0,
            idle_accepted: 0,
            idle_declined: 0,
            link_up: vec![true; topo.link_count()],
            demands,
            incumbent,
            topo,
        };
        Daemon {
            state,
            cfg,
            shutdown: false,
        }
    }

    /// The current incumbent weights.
    pub fn incumbent(&self) -> &DualWeights {
        &self.state.incumbent
    }

    /// The managed topology.
    pub fn topo(&self) -> &Topology {
        &self.state.topo
    }

    /// The demand set currently in force.
    pub fn demands(&self) -> &DemandSet {
        &self.state.demands
    }

    /// Per-directed-link operational state.
    pub fn link_up(&self) -> &[bool] {
        &self.state.link_up
    }

    /// True once a [`Request::Shutdown`] was processed.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown
    }

    /// Cost of arbitrary `weights` on the current demands under the
    /// current failure mask.
    pub fn cost_of(&self, weights: &DualWeights) -> CostPair {
        let s = &self.state;
        assert_eq!(weights.high.len(), s.topo.link_count());
        s.cost_with_mask(self.cfg.objective, weights, &s.link_up)
    }

    /// The clear protocol error for link-failure events and probes under
    /// the SLA objective (`None` under the load objective, where masks
    /// are supported). See [`DaemonCfg::objective`].
    fn reject_mask_under_sla(&self) -> Option<String> {
        matches!(self.cfg.objective, Objective::SlaBased(_)).then(|| {
            "link-failure events are not supported under the SLA objective: \
             masked evaluation is only defined for the load-based cost \
             (run the daemon with --objective load to manage failures)"
                .to_string()
        })
    }

    /// Validates a directed link index.
    fn check_link(&self, link: u32) -> Result<LinkId, String> {
        let m = self.state.topo.link_count();
        if link as usize >= m {
            return Err(format!(
                "link {link} out of range (topology has {m} directed links)"
            ));
        }
        Ok(LinkId(link))
    }

    /// Both directions of the duplex pair `link` names.
    fn pair(&self, link: u32) -> Result<[LinkId; 2], String> {
        let lid = self.check_link(link)?;
        let twin = self
            .state
            .topo
            .reverse_link(lid)
            .ok_or_else(|| format!("link {link} has no reverse direction"))?;
        Ok([lid, twin])
    }

    /// Routes a state-changing event that was just applied: reoptimize
    /// immediately (no coalescing, or the batch cap was reached) or
    /// defer with a [`EventAction::Coalesced`] acknowledgement.
    fn event_reply(&mut self, label: String) -> Reply {
        if self.cfg.coalesce == 0 {
            return Reply::Event(self.reoptimize(label, 1));
        }
        self.state.pending += 1;
        if self.state.pending >= self.cfg.coalesce {
            Reply::Event(self.close_batch(label))
        } else {
            Reply::Event(self.no_change(label, EventAction::Coalesced))
        }
    }

    /// One search over every pending event.
    fn close_batch(&mut self, label: String) -> EventReport {
        let batch = std::mem::take(&mut self.state.pending);
        self.reoptimize(label, batch)
    }

    /// One warm-started descent of `iters` iterations from the incumbent
    /// under the current demands and mask, on a session opened at the
    /// record's stream position (which it advances by one).
    fn search(&mut self, iters: usize) -> ReoptResult {
        let (s, cfg) = (&mut self.state, &self.cfg);
        let mut session =
            ReoptSession::new(s.incumbent.clone(), cfg.objective, cfg.params, Scheme::Dtr);
        session.resume_at(s.steps);
        let res = session.idle_step(
            &s.topo,
            &s.demands,
            &s.link_up,
            cfg.changes_per_event,
            iters,
        );
        s.steps = session.steps();
        res
    }

    /// The daemon's core decision, for event searches and idle passes
    /// alike: a result that improves on the point it started from (the
    /// incumbent, costed by the same engine) is priced, and adopted when
    /// its gain per LSA message clears the gate. `idle` picks which pair
    /// of counters records the verdict.
    fn decide(&mut self, res: ReoptResult, idle: bool) -> Decision {
        let (s, before) = (&mut self.state, &res.start_eval);
        if !(res.best_cost < before.cost && res.changes_used > 0) {
            return Decision::unpriced(EventAction::NoImprovement);
        }
        let gain = (before.phi_h - res.eval.phi_h) + (before.phi_l - res.eval.phi_l);
        let churn = deployment_cost(&s.topo, &s.incumbent, &res.weights);
        let gain_per_churn = gain / churn.lsa_messages.max(1) as f64;
        let accept = gain_per_churn >= self.cfg.min_gain_per_churn;
        let counter = match (accept, idle) {
            (true, false) => &mut s.accepted,
            (false, false) => &mut s.declined,
            (true, true) => &mut s.idle_accepted,
            (false, true) => &mut s.idle_declined,
        };
        *counter += 1;
        if accept {
            s.total_gain += gain;
            s.total_churn_messages += churn.lsa_messages;
            s.incumbent = res.weights;
        }
        Decision {
            action: if accept {
                EventAction::Accepted
            } else {
                EventAction::Declined
            },
            changes: res.changes_used,
            gain,
            churn: Some(churn),
            gain_per_churn,
        }
    }

    /// The background anytime pass: up to [`DaemonCfg::idle_steps`]
    /// cheap descents, each decided like an event reoptimization. Runs
    /// at event boundaries only (callers skip it while a batch is open),
    /// so accepted improvements are published exactly when the protocol
    /// allows the incumbent to move.
    fn idle_optimize(&mut self) {
        for _ in 0..self.cfg.idle_steps {
            let res = self.search(IDLE_STEP_ITERS);
            self.state.idle_steps += 1;
            self.decide(res, true);
        }
    }

    /// One full-schedule reoptimization under the current state and its
    /// decision. `batch` is the number of applied events the search
    /// covers (1 outside coalescing mode).
    fn reoptimize(&mut self, event: String, batch: usize) -> EventReport {
        let res = self.search(self.cfg.params.str_iters());
        let (before, reopt) = (CostPair::of(&res.start_eval), CostPair::of(&res.eval));
        let decision = self.decide(res, false);
        self.report(event, batch, before, reopt, decision)
    }

    /// A report for an event that changed nothing (no search consumed).
    fn no_change(&self, event: String, action: EventAction) -> EventReport {
        let cost = self.cost_of(&self.state.incumbent);
        self.report(event, 0, cost, cost, Decision::unpriced(action))
    }

    fn report(
        &self,
        event: String,
        batch: usize,
        before: CostPair,
        reopt: CostPair,
        d: Decision,
    ) -> EventReport {
        EventReport {
            seq: self.state.seq,
            event,
            action: d.action,
            links_down: self.state.links_down(),
            cost_before: before,
            reopt_cost: reopt,
            cost_after: if d.action == EventAction::Accepted {
                reopt
            } else {
                before
            },
            changes: d.changes,
            batch,
            gain: d.gain,
            churn: d.churn,
            gain_per_churn: d.gain_per_churn,
        }
    }

    /// Pre-flight validation of an event request: every way an event
    /// can fail is checked here, before the event boundary, so a
    /// failing event neither advances `seq` nor spends the idle budget.
    /// A link event comes back parsed, ready for
    /// [`Self::apply_link_event`].
    fn validate_event(&self, req: &Request) -> Result<Option<LinkEvent>, String> {
        let (link, duplex, up) = match *req {
            Request::DemandUpdate { ref demands } => {
                return check_demands(demands, self.state.topo.node_count()).map(|()| None);
            }
            Request::LinkDown { link } => (link, true, false),
            Request::LinkUp { link } => (link, true, true),
            Request::DirectedLinkDown { link } => (link, false, false),
            Request::DirectedLinkUp { link } => (link, false, true),
            _ => return Ok(None),
        };
        if !up {
            if let Some(message) = self.reject_mask_under_sla() {
                return Err(message);
            }
        }
        let links = if duplex {
            self.pair(link)?.to_vec()
        } else {
            vec![self.check_link(link)?]
        };
        Ok(Some(LinkEvent {
            label: format!("{}({link})", req.kind()),
            links,
            up,
        }))
    }

    /// Checks that a snapshot's parts fit each other and describe a state
    /// events could have led to, before [`Request::Restore`] touches
    /// anything. (Topology and matrices validated themselves when the
    /// line was parsed.)
    fn check_snapshot(&self, s: &Snapshot) -> Result<(), String> {
        let (n, m) = (s.topo.node_count(), s.topo.link_count());
        for (class, w) in [("high", &s.incumbent.high), ("low", &s.incumbent.low)] {
            if w.len() != m {
                return Err(format!("{} {class} weights for {m} links", w.len()));
            }
            self.check_range(class, w)?;
        }
        check_demands(&s.demands, n)?;
        if s.link_up.len() != m {
            return Err(format!("{} link states for {m} links", s.link_up.len()));
        }
        if s.link_up.contains(&false) {
            if let Some(message) = self.reject_mask_under_sla() {
                return Err(message);
            }
        }
        if !strongly_connected_under(&s.topo, &s.link_up) {
            return Err("the links that are up do not connect the network".to_string());
        }
        Ok(())
    }

    /// Checks that every weight of one class's vector lies in the search
    /// range — what a `Restore` and a `WhatIfWeights` probe must carry.
    fn check_range(&self, class: &str, w: &WeightVector) -> Result<(), String> {
        let range = self.cfg.params.min_weight..=self.cfg.params.max_weight;
        match w.as_slice().iter().find(|w| !range.contains(w)) {
            Some(bad) => Err(format!("{class} weight {bad} outside {range:?}")),
            None => Ok(()),
        }
    }

    /// Applies a validated link event: nothing to do when every named
    /// link is already in the target state, refused when taking the
    /// links down would disconnect the network, otherwise the mask
    /// moves and the event is answered like any other.
    fn apply_link_event(&mut self, ev: LinkEvent) -> Reply {
        let s = &mut self.state;
        if ev.links.iter().all(|l| s.link_up[l.index()] == ev.up) {
            return Reply::Event(self.no_change(ev.label, EventAction::NoOp));
        }
        let mut mask = s.link_up.clone();
        for l in &ev.links {
            mask[l.index()] = ev.up;
        }
        if !ev.up && !strongly_connected_under(&s.topo, &mask) {
            s.refused += 1;
            return Reply::Event(self.no_change(ev.label, EventAction::Refused));
        }
        s.link_up = mask;
        self.event_reply(ev.label)
    }

    /// Processes one request and produces its reply.
    ///
    /// Only state-changing events (demand updates, link events, flush)
    /// advance the sequence number; probes, management requests
    /// (`Status`, `Snapshot`, `Restore`, `Shutdown`), and malformed
    /// lines do not — and a failed (`Error`) event is a complete
    /// no-op. `seq` is therefore exactly the count of applied
    /// events — which keeps a snapshot/restore round-trip
    /// byte-identical to a straight-through run, and lets the server
    /// answer probes from a concurrent read view without perturbing the
    /// writer's stream.
    pub fn handle(&mut self, req: Request) -> Reply {
        let mut link_event = None;
        if req.is_event() {
            // A failed event is a complete no-op: validation runs
            // before the event boundary so an `Error` reply neither
            // advances `seq` nor spends the idle budget.
            link_event = match self.validate_event(&req) {
                Ok(parsed) => parsed,
                Err(message) => return Reply::Error { message },
            };
            // The background budget runs at event boundaries, before
            // the next event applies, and never while a coalescing
            // batch is open.
            if self.state.pending == 0 {
                self.idle_optimize();
            }
            self.state.seq += 1;
        }
        if let Some(reply) = self.handle_readonly(&req) {
            return reply;
        }
        match req {
            Request::DemandUpdate { demands } => {
                self.state.demands = demands;
                self.event_reply("demand_update".to_string())
            }
            Request::LinkDown { .. }
            | Request::LinkUp { .. }
            | Request::DirectedLinkDown { .. }
            | Request::DirectedLinkUp { .. } => {
                self.apply_link_event(link_event.expect("link events validate into a LinkEvent"))
            }
            Request::Flush => Reply::Event(match self.state.pending {
                0 => self.no_change("flush".to_string(), EventAction::NoOp),
                batch => self.close_batch(format!("flush({batch})")),
            }),
            Request::WhatIfLinkDown { .. }
            | Request::WhatIfWeights { .. }
            | Request::Status
            | Request::Snapshot => unreachable!("read-only requests are handled above"),
            Request::Restore { snapshot } => match self.check_snapshot(&snapshot) {
                Ok(()) => {
                    self.state = snapshot;
                    Reply::Restored {
                        seq: self.state.seq,
                    }
                }
                Err(detail) => Reply::Error {
                    message: format!("snapshot is internally inconsistent: {detail}"),
                },
            },
            Request::Shutdown => {
                self.shutdown = true;
                Reply::Bye {
                    seq: self.state.seq,
                }
            }
        }
    }

    /// Answers a request that needs no mutable access — the what-if
    /// probes, `Status`, and `Snapshot` — or returns `None` for
    /// state-changing and management-write requests. [`handle`]
    /// delegates here, and the server calls this directly on a published
    /// clone so probes are served concurrently while the writer
    /// optimizes; both paths produce identical reply bytes for the same
    /// state.
    ///
    /// [`handle`]: Self::handle
    pub fn handle_readonly(&self, req: &Request) -> Option<Reply> {
        let s = &self.state;
        Some(match req {
            Request::WhatIfLinkDown { link } => {
                if let Some(message) = self.reject_mask_under_sla() {
                    return Some(Reply::Error { message });
                }
                let pair = match self.pair(*link) {
                    Ok(p) => p,
                    Err(message) => return Some(Reply::Error { message }),
                };
                let mut mask = s.link_up.clone();
                for l in pair {
                    mask[l.index()] = false;
                }
                let feasible = strongly_connected_under(&s.topo, &mask);
                Reply::WhatIf(WhatIfReport {
                    seq: s.seq,
                    query: format!("whatif_link_down({link})"),
                    feasible,
                    cost: feasible
                        .then(|| s.cost_with_mask(self.cfg.objective, &s.incumbent, &mask)),
                    changes: None,
                    churn: None,
                })
            }
            Request::WhatIfWeights { weights } => {
                let m = s.topo.link_count();
                if weights.high.len() != m || weights.low.len() != m {
                    return Some(Reply::Error {
                        message: format!("weight vectors must have {m} entries"),
                    });
                }
                let in_range = self
                    .check_range("high", &weights.high)
                    .and_then(|()| self.check_range("low", &weights.low));
                if let Err(message) = in_range {
                    return Some(Reply::Error { message });
                }
                Reply::WhatIf(WhatIfReport {
                    seq: s.seq,
                    query: "whatif_weights".to_string(),
                    feasible: true,
                    cost: Some(self.cost_of(weights)),
                    changes: Some(changes_between(weights, &s.incumbent, Scheme::Dtr)),
                    churn: Some(deployment_cost(&s.topo, &s.incumbent, weights)),
                })
            }
            Request::Status => Reply::Status(s.status(self.cost_of(&s.incumbent))),
            Request::Snapshot => Reply::Snapshot(s.clone()),
            _ => return None,
        })
    }

    /// Parses one protocol line, handles it, and serializes the reply.
    /// Malformed JSON yields an `Error` reply; like probes and
    /// management requests, it does *not* advance the sequence number
    /// (`seq` counts applied events only).
    pub fn handle_line(&mut self, line: &str) -> String {
        let reply = match serde_json::from_str::<Request>(line) {
            Ok(req) => self.handle(req),
            Err(e) => Reply::Error {
                message: format!("bad request: {e}"),
            },
        };
        serde_json::to_string(&reply).expect("replies always serialize")
    }
}
