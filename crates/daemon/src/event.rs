//! The wire protocol: requests in, replies out, one JSON document per
//! line.
//!
//! Everything here is `serde`-backed with externally tagged enums, so a
//! request line looks like `{"LinkDown":{"link":3}}` and a reply like
//! `{"Event":{...}}`. Replies carry **no timing information** — they
//! are a pure function of the event sequence, which is what makes the
//! daemon's determinism contract testable byte-for-byte (timing lives
//! in separate, uncompared artifacts; see `crates/daemon/DESIGN.md`).

use dtr_graph::weights::DualWeights;
use dtr_graph::Topology;
use dtr_mtr::ChurnReport;
use dtr_scenario::ChurnAction;
use dtr_traffic::DemandSet;
use serde::{Deserialize, Serialize};

/// One request to the daemon.
///
/// `Restore` inlines the full [`Snapshot`] (hundreds of bytes on the
/// stack) while most variants carry a link id; requests are parsed,
/// handled once, and dropped — they are never stored in bulk — so the
/// size spread is harmless.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// The demand matrices drifted; re-optimize for the new load.
    DemandUpdate {
        /// The full new two-class demand set.
        demands: DemandSet,
    },
    /// The duplex pair containing directed link `link` failed.
    LinkDown {
        /// Any directed link index of the pair.
        link: u32,
    },
    /// The duplex pair containing directed link `link` repaired.
    LinkUp {
        /// Any directed link index of the pair.
        link: u32,
    },
    /// Exactly one directed link failed; its reverse twin keeps
    /// forwarding.
    DirectedLinkDown {
        /// The directed link index that went down.
        link: u32,
    },
    /// One directed link repaired (its twin's state is untouched).
    DirectedLinkUp {
        /// The directed link index that came back.
        link: u32,
    },
    /// Close the current coalescing batch: run one reoptimization over
    /// every event deferred since the last search. A no-op event when
    /// nothing is pending (including when coalescing is off).
    Flush,
    /// Non-mutating probe: what would the incumbent cost if this pair
    /// were down?
    WhatIfLinkDown {
        /// Any directed link index of the pair.
        link: u32,
    },
    /// Non-mutating probe: what would these weights cost right now,
    /// and what would deploying them churn?
    WhatIfWeights {
        /// The hypothetical setting.
        weights: DualWeights,
    },
    /// Non-mutating: current network and incumbent summary.
    Status,
    /// Serialize the full daemon state for later [`Request::Restore`].
    Snapshot,
    /// Replace the daemon state with a snapshot.
    Restore {
        /// A snapshot produced by [`Request::Snapshot`].
        snapshot: Snapshot,
    },
    /// Stop the event loop after replying.
    Shutdown,
}

impl Request {
    /// Maps a generated churn-trace action onto its protocol request.
    pub fn from_churn(action: &ChurnAction) -> Request {
        match action {
            ChurnAction::Demand { demands } => Request::DemandUpdate {
                demands: demands.clone(),
            },
            ChurnAction::LinkDown { link } => Request::LinkDown { link: *link },
            ChurnAction::LinkUp { link } => Request::LinkUp { link: *link },
            ChurnAction::WhatIfLinkDown { link } => Request::WhatIfLinkDown { link: *link },
            ChurnAction::DirectedLinkDown { link } => Request::DirectedLinkDown { link: *link },
            ChurnAction::DirectedLinkUp { link } => Request::DirectedLinkUp { link: *link },
        }
    }

    /// The request kind without per-link detail — the grouping key of
    /// the per-kind timing breakdown in `timing.json`.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::DemandUpdate { .. } => "demand_update",
            Request::LinkDown { .. } => "link_down",
            Request::LinkUp { .. } => "link_up",
            Request::DirectedLinkDown { .. } => "directed_link_down",
            Request::DirectedLinkUp { .. } => "directed_link_up",
            Request::Flush => "flush",
            Request::WhatIfLinkDown { .. } => "whatif_link_down",
            Request::WhatIfWeights { .. } => "whatif_weights",
            Request::Status => "status",
            Request::Snapshot => "snapshot",
            Request::Restore { .. } => "restore",
            Request::Shutdown => "shutdown",
        }
    }

    /// True for the *event class*: state-mutating requests that advance
    /// the sequence number (and, under coalescing, may join a batch).
    pub fn is_event(&self) -> bool {
        matches!(
            self,
            Request::DemandUpdate { .. }
                | Request::LinkDown { .. }
                | Request::LinkUp { .. }
                | Request::DirectedLinkDown { .. }
                | Request::DirectedLinkUp { .. }
                | Request::Flush
        )
    }
}

/// One reply line.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Reply {
    /// A state-changing event was processed.
    Event(EventReport),
    /// A what-if probe was answered (state unchanged).
    WhatIf(WhatIfReport),
    /// Status summary.
    Status(StatusReport),
    /// Snapshot payload.
    Snapshot(Snapshot),
    /// A snapshot was installed.
    Restored {
        /// The restored event sequence number.
        seq: u64,
    },
    /// Acknowledges shutdown.
    Bye {
        /// The final event sequence number.
        seq: u64,
    },
    /// The request was malformed or inapplicable; state unchanged.
    Error {
        /// What went wrong.
        message: String,
    },
}

/// A `(Φ_H, Φ_L)` cost pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CostPair {
    /// High-priority load cost Φ_H.
    pub phi_h: f64,
    /// Low-priority (residual-capacity) load cost Φ_L.
    pub phi_l: f64,
}

/// What the daemon did with a reoptimization opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventAction {
    /// A better setting was found and its churn price was acceptable;
    /// the incumbent moved.
    Accepted,
    /// A better setting was found but its gain-per-churn fell below the
    /// configured floor; the incumbent stayed.
    Declined,
    /// The per-event search found nothing better than the incumbent.
    NoImprovement,
    /// The event was refused because applying it would disconnect the
    /// network; state unchanged.
    Refused,
    /// The event changed nothing (e.g. failing an already-down pair).
    NoOp,
    /// The event was applied to the network state but its
    /// reoptimization was deferred to the end of the coalescing batch
    /// (see `DaemonCfg::coalesce`).
    Coalesced,
}

/// Per-event report: what happened, what it cost, what it bought.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventReport {
    /// Monotone event sequence number.
    pub seq: u64,
    /// Label of the triggering request.
    pub event: String,
    /// The daemon's decision.
    pub action: EventAction,
    /// Directed links down after this event.
    pub links_down: usize,
    /// Incumbent cost under the post-event network, before
    /// reoptimization.
    pub cost_before: CostPair,
    /// Best cost the per-event search found.
    pub reopt_cost: CostPair,
    /// Incumbent cost after the decision (equals `reopt_cost` when
    /// accepted, `cost_before` otherwise).
    pub cost_after: CostPair,
    /// Weight changes the accepted/declined candidate would deploy.
    pub changes: usize,
    /// Coalesced events covered by this report's reoptimization: `0`
    /// when no search ran (NoOp/Refused/Coalesced replies), `1` for an
    /// ordinary immediate event, `k` for a batch flush over `k`
    /// deferred events.
    pub batch: usize,
    /// `(Φ_H + Φ_L)` improvement the candidate offered.
    pub gain: f64,
    /// Control-plane price of deploying the candidate (present whenever
    /// a candidate was priced, i.e. accepted or declined).
    pub churn: Option<ChurnReport>,
    /// `gain / churn.lsa_messages` for the priced candidate, else 0.
    pub gain_per_churn: f64,
}

/// Reply to a what-if probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// Monotone event sequence number.
    pub seq: u64,
    /// Label of the probe.
    pub query: String,
    /// False when the probed failure would disconnect the network (no
    /// cost is reported then).
    pub feasible: bool,
    /// Incumbent cost under the probed condition.
    pub cost: Option<CostPair>,
    /// For weight probes: changes the setting would deploy.
    pub changes: Option<usize>,
    /// For weight probes: the deployment's control-plane price.
    pub churn: Option<ChurnReport>,
}

/// Status summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// Monotone event sequence number.
    pub seq: u64,
    /// Nodes in the managed network.
    pub nodes: usize,
    /// Directed links in the managed network.
    pub links: usize,
    /// Directed links currently down.
    pub links_down: usize,
    /// Incumbent cost under the current network state.
    pub cost: CostPair,
    /// Reoptimizations accepted so far.
    pub accepted: u64,
    /// Reoptimizations declined on churn grounds so far.
    pub declined: u64,
    /// Events refused (would disconnect) so far.
    pub refused: u64,
    /// Total `(Φ_H + Φ_L)` gain of accepted reconfigurations.
    pub total_gain: f64,
    /// Total LSA messages of accepted reconfigurations.
    pub total_churn_messages: u64,
    /// Reoptimization steps consumed (the session seed-stream position).
    pub steps: u64,
    /// Events applied but not yet reoptimized (open coalescing batch).
    pub pending: usize,
    /// Background anytime improvement passes run so far.
    pub idle_steps: u64,
    /// Background improvements deployed (accepted by the churn gate).
    pub idle_accepted: u64,
    /// Background improvements declined on churn grounds.
    pub idle_declined: u64,
}

/// A complete, self-contained daemon state for restart round-trips.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Event sequence position.
    pub seq: u64,
    /// Session seed-stream position.
    pub steps: u64,
    /// Accepted-reoptimization counter.
    pub accepted: u64,
    /// Declined-reoptimization counter.
    pub declined: u64,
    /// Refused-event counter.
    pub refused: u64,
    /// Accumulated gain of accepted reconfigurations.
    pub total_gain: f64,
    /// Accumulated LSA messages of accepted reconfigurations.
    pub total_churn_messages: u64,
    /// Open coalescing-batch size at snapshot time.
    pub pending: usize,
    /// Background anytime improvement passes run.
    pub idle_steps: u64,
    /// Background improvements deployed.
    pub idle_accepted: u64,
    /// Background improvements declined on churn grounds.
    pub idle_declined: u64,
    /// Per-directed-link operational state.
    pub link_up: Vec<bool>,
    /// Current demand set.
    pub demands: DemandSet,
    /// Current incumbent weights.
    pub incumbent: DualWeights,
    /// The managed topology.
    pub topo: Topology,
}
