//! # dtr-cost — cost functions for dual-topology routing
//!
//! Pure numeric implementations of the paper's §3 problem formulation:
//!
//! - [`load`] — the **load-based** cost: the Fortz–Thorup piecewise-linear
//!   approximation `Φ` of M/M/1 queueing cost (Eq. 1), applied per class
//!   with the high-priority class seeing raw capacity and the low-priority
//!   class seeing **residual** capacity `C̃_l = max(C_l − H_l, 0)`.
//! - [`delay`] — the link delay model of Eq. 3 combining an M/M/1 queueing
//!   term (approximated through `Φ`) with propagation delay.
//! - [`sla`] — the **SLA-based** penalty `Λ` of Eq. 4: a fixed penalty `a`
//!   plus a proportional term `b·(ξ − θ)` for every source-destination pair
//!   whose average delay `ξ` exceeds the bound `θ`.
//! - [`lex`] — lexicographic cost tuples: two-tuples `⟨x, y⟩` ([`Lex2`])
//!   and their k-component generalization ([`LexCost`]) with the total
//!   order the paper's objectives `A = ⟨Φ_H, Φ_L⟩` and `S = ⟨Λ, Φ_L⟩`
//!   minimize.
//! - [`spec`] — the unified k-class [`ObjectiveSpec`]: per-class
//!   load/SLA modes that subsume the legacy [`Objective`] enum.
//!
//! Everything in this crate is deterministic, allocation-free and
//! `f64`-pure; the routing engine (`dtr-routing`) supplies the link loads.
//!
//! # [`Objective`] and [`ObjectiveSpec`]
//!
//! The spec is the canonical form manifests, the CLI and the daemon
//! carry. Two evaluation stacks consume it:
//!
//! - the two-class stack (`dtr_routing::Evaluator`,
//!   `dtr_engine::BatchEvaluator`, `PortfolioSearch`, `ReoptSession`)
//!   takes the [`Objective`] enum; a caller holding a spec maps it with
//!   [`ObjectiveSpec::as_two_class`], which returns `None` for anything
//!   that stack cannot express;
//! - `dtr_engine::KClassBatchEvaluator` takes the spec itself and is the
//!   only k-class evaluator — `dtr-multi`'s search, the scenario suite
//!   and the experiments all cost their weight settings through it. It
//!   validates the spec and returns a structured [`ObjectiveError`]
//!   (`TooFewClasses`, `ClassCountMismatch`, …) instead of panicking.
//!
//! A two-class spec through the k-class kernel is bit-identical to the
//! two-class stack (class 0's residual capacity is the raw capacity).

pub mod delay;
pub mod lex;
pub mod load;
pub mod objective;
pub mod sla;
pub mod spec;

pub use delay::{link_delay, DelayParams};
pub use lex::{Lex2, LexCost};
pub use load::{phi, phi_derivative, phi_segment, PHI_BREAKPOINTS, PHI_SLOPES};
pub use objective::{Objective, SlaParams};
pub use sla::{sla_penalty, DEFAULT_PENALTY_A, DEFAULT_PENALTY_B, DEFAULT_SLA_BOUND_S};
pub use spec::{ClassMode, ObjectiveError, ObjectiveSpec, MAX_CLASSES};
