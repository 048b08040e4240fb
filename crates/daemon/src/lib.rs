//! # dtr-daemon — the long-running reoptimization service (`dtrd`)
//!
//! The paper's dual-topology weights are meant to be *operated*: a live
//! network's demands and link states drift continuously (Magnien et
//! al., PAPERS.md), and re-running a batch search from scratch on every
//! change is neither fast enough nor operationally acceptable — each
//! deployed weight change floods LSAs and triggers network-wide SPF
//! reruns. `dtrd` closes that loop:
//!
//! - it holds a network + current DTR incumbent in memory — one
//!   [`Snapshot`] record is all of its mutable state, so what
//!   `Snapshot`/`Restore` carry is what the daemon is — and processes
//!   an ordered event stream (demand updates, pair or single-directed
//!   link down/up, what-if probes) over line-delimited JSON, on
//!   stdin/stdout, a unix socket, or TCP ([`serve_stdio`],
//!   [`serve_unix`], [`serve_tcp`]);
//! - each topology or demand event triggers an **incremental
//!   reoptimization** warm-started from the incumbent
//!   ([`dtr_core::ReoptSession`], every candidate costed on the engine
//!   under the current link mask) under a configurable per-event change
//!   budget — or, under **event coalescing**
//!   ([`DaemonCfg::coalesce`]), one batched reoptimization per burst;
//! - between events a **background anytime budget**
//!   ([`DaemonCfg::idle_steps`]) keeps improving the incumbent with
//!   cheap [`dtr_core::ReoptSession::idle_step`] passes, published only
//!   at event boundaries;
//! - every improving candidate — of an event search or an idle pass,
//!   one decision for both — is **priced** through the `dtr-mtr`
//!   control-plane emulation ([`dtr_mtr::deployment_cost`]) and only
//!   deployed when its gain-per-LSA-message clears
//!   [`DaemonCfg::min_gain_per_churn`];
//! - the event loop is single-threaded and deterministic: the reply
//!   stream is a byte-exact function of the event sequence, which
//!   [`replay_trace`] and the CI smoke gate verify by replaying
//!   [`dtr_scenario::ChurnTrace`]s twice. The TCP transport preserves
//!   this for its single writer while serving read-only probes
//!   concurrently from a published view.
//!
//! See `crates/daemon/DESIGN.md` for the protocol, determinism
//! contract, budget policy and churn-cost gating in full;
//! `docs/PROTOCOL.md` for the wire reference and `docs/OPERATIONS.md`
//! for the operator runbook.

pub mod daemon;
pub mod event;
pub mod replay;
pub mod server;

pub use daemon::{Daemon, DaemonCfg, IDLE_STEP_ITERS};
pub use event::{
    CostPair, EventAction, EventReport, Reply, Request, Snapshot, StatusReport, WhatIfReport,
};
pub use replay::{
    replay_trace, replay_trace_tcp, KindTiming, ReplayOutcome, ReplayReport, TimingSummary,
};
#[cfg(unix)]
pub use server::serve_unix;
pub use server::{serve, serve_stdio, serve_tcp};
