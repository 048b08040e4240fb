//! # dtr-mtr — multi-topology OSPF control-plane emulation
//!
//! The paper's deployment story rests on **multi-topology routing**
//! (RFC 4915 \[1\]): routers carry one metric per link *per topology*, run
//! one SPF per topology, and install per-topology forwarding tables;
//! packet classification (here: the two priority classes) selects the
//! table. This crate emulates that control plane so the weight settings
//! produced by `dtr-core` can be "deployed" and exercised end to end:
//!
//! - [`lsa`] — router LSAs carrying per-topology metrics (MT-ID 0 = the
//!   default/high-priority topology, MT-ID 1 = low priority, mirroring
//!   RFC 4915's default-topology convention);
//! - [`lsdb`] — sequence-numbered link-state databases;
//! - [`router`] — per-router state: LSA origination, flooding, per-
//!   topology SPF (reusing `dtr-graph`'s engine), per-topology FIBs;
//! - [`network`] — the message-passing fabric: reliable flooding,
//!   convergence detection, link failure/restore events, and the
//!   **overhead accounting** (LSA messages, SPF runs) that §1 of the
//!   paper lists as DTR's operational cost.
//!
//! The FIBs this control plane converges to are cross-checked against the
//! `dtr-routing` evaluator's ECMP DAGs in the integration tests: the
//! distributed protocol and the centralized optimizer agree on every
//! next hop.

pub mod config;
pub mod lsa;
pub mod lsdb;
pub mod network;
pub mod overhead;
pub mod router;

pub use config::{network_config, router_config};
pub use lsa::{LsaLink, MtMetric, RouterLsa, TopologyId};
pub use lsdb::Lsdb;
pub use network::{ControlStats, ForwardError, MtrNetwork};
pub use overhead::{deployment_cost, lsa_wire_bytes, ChurnReport, LSA_PROCESSING_S, SPF_COMPUTE_S};
pub use router::{Fib, Router};
