//! # dtr-sim — discrete-event strict-priority queueing simulator
//!
//! The paper's evaluation is **analytic**: link costs come from the
//! Fortz–Thorup Φ function and delays from the M/M/1-based Eq. 3, both
//! driven by ECMP link loads. This crate provides the packet-level
//! discrete-event simulator those formulas abstract, so the reproduction
//! can *check its own modeling assumptions*:
//!
//! - each link is a non-preemptive **strict-priority** queue (§3: "the
//!   high-priority queue is always served first") with infinite buffers
//!   and one FIFO per class — the paper's two classes, or any `k`;
//! - packets of each class arrive as Poisson streams per SD pair with
//!   exponential (M/M/1) or deterministic sizes;
//! - forwarding follows the per-class ECMP shortest-path DAGs, choosing
//!   uniformly among equal-cost branches per packet — the stochastic
//!   counterpart of the evaluator's even splitting.
//!
//! What it verifies (see `tests/`): single-link M/M/1 mean delay, the
//! non-preemptive priority-queue wait formulas, priority isolation (high
//! class unaffected by low-class load), flow conservation, and the
//! accuracy envelope of the paper's Eq. 3 approximation.
//!
//! Class count is data, not type: every report — [`SimReport`],
//! [`BackendReport`], [`LinkStats`], [`PairKey`] — is indexed by priority
//! class (0 served first; the paper's high class is 0, its low class 1),
//! and the two-class constructors ([`Simulation::new`],
//! [`ForwardingState::new`], [`DesBackend::budgeted`], [`SimBackend::run`])
//! only spell `[high, low]` for the caller.
//!
//! Two backends answer the same question in one report shape:
//!
//! - [`DesBackend`] — the packet-level discrete-event engine above
//!   ([`Simulation`]), statistically exact but O(packets);
//! - [`FluidSim`] — a deterministic flow-level fluid model: per-class
//!   arrival rates pushed down the same per-destination ECMP DAGs, with
//!   closed-form priority-queue delays ([`queueing`]) instead of an
//!   event loop. Orders of magnitude faster, bit-identical loads to the
//!   analytic evaluator, exactly reproducible.
//!
//! The corpus-scale differential-validation harness (`dtr-scenario`,
//! `dtrctl validate`) runs analytic evaluator, fluid and budgeted DES
//! side by side on every corpus instance and gates their agreement.
//!
//! [`Simulation`] is deterministic given its seed.

pub mod backend;
pub mod engine;
mod event;
pub mod fluid;
pub mod forwarding;
pub mod queueing;
pub mod stats;

pub use backend::{BackendReport, DesBackend, SimBackend};
pub use engine::{SimConfig, SimReport, Simulation};
pub use fluid::{FluidCfg, FluidSim};
pub use forwarding::ForwardingState;
pub use queueing::{
    cobham, cobham_k, mm1_sojourn, paper_high_sojourn, residual_approx_error, residual_low_sojourn,
    ClassDelays, PriorityLink,
};
pub use stats::{ClassStats, LinkStats, PairKey};
