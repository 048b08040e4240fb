//! # dtr — Dual Topology Routing
//!
//! Facade crate re-exporting the full DTR workspace: a reproduction of
//! *"Improving Service Differentiation in IP Networks through Dual Topology
//! Routing"* (Kwong, Guérin, Shaikh, Tao — ACM CoNEXT 2007).
//!
//! The workspace is organized bottom-up:
//!
//! - [`graph`] — directed-graph substrate, SPF/ECMP, topology generators.
//! - [`traffic`] — gravity-model and high-priority traffic matrices.
//! - [`cost`] — load-based (Fortz–Thorup) and SLA-based cost functions.
//! - [`routing`] — the ECMP routing engine and objective evaluator.
//! - [`engine`] — incremental-SPF batch evaluation, two-class and k-class.
//! - [`core`] — the paper's contribution: DTR/STR weight-search heuristics.
//! - [`sim`] — discrete-event two-priority queueing simulator.
//! - [`mtr`] — MT-OSPF-style (RFC 4915) control-plane emulation.
//! - [`multi`] — extension: k-class strict-priority generalization.
//! - [`experiments`] — per-figure/table experiment harnesses.
//!
//! ## Quickstart
//!
//! ```
//! use dtr::core::{DtrSearch, DualWeights, Objective, SearchParams, StrSearch};
//! use dtr::graph::gen::{random_topology, RandomTopologyCfg};
//! use dtr::traffic::{DemandSet, TrafficCfg};
//!
//! // A small random topology and workload, as in the paper's §5.1.
//! let topo = random_topology(&RandomTopologyCfg { nodes: 12, directed_links: 48, seed: 7 });
//! let demands = DemandSet::generate(
//!     &topo,
//!     &TrafficCfg { f: 0.3, k: 0.1, seed: 7, ..Default::default() },
//! ).scaled(3.0);
//!
//! // STR baseline, then a DTR search warm-started from the STR solution.
//! let params = SearchParams::tiny();
//! let str_res = StrSearch::new(&topo, &demands, Objective::LoadBased, params).run();
//! let dtr_res = DtrSearch::new(&topo, &demands, Objective::LoadBased, params)
//!     .with_initial(DualWeights::replicated(str_res.weights.clone()))
//!     .run();
//!
//! // Warm-started DTR is never lexicographically worse than STR.
//! assert!(dtr_res.best_cost <= str_res.best_cost);
//! ```

pub use dtr_core as core;
pub use dtr_cost as cost;
pub use dtr_engine as engine;
pub use dtr_experiments as experiments;
pub use dtr_graph as graph;
pub use dtr_mtr as mtr;
pub use dtr_multi as multi;
pub use dtr_routing as routing;
pub use dtr_sim as sim;
pub use dtr_traffic as traffic;
