//! # dtr-graph — directed-graph substrate for dual-topology routing
//!
//! This crate provides the network model underlying the CoNEXT 2007 paper
//! *"Improving Service Differentiation in IP Networks through Dual Topology
//! Routing"* (Kwong, Guérin, Shaikh, Tao):
//!
//! - [`Topology`] — a directed graph `G = (V, E)` with per-link capacity
//!   `C_l` and propagation delay `p_l`, stored in a compact adjacency form
//!   tuned for the millions of shortest-path computations a weight-search
//!   heuristic performs.
//! - [`spf`] — Dijkstra shortest-path-first with equal-cost multipath
//!   (ECMP) support: per-destination distance vectors and the shortest-path
//!   DAG needed to split traffic the way OSPF/IS-IS routers do.
//! - [`gen`] — the paper's three topology families (§5.1.1): random
//!   near-regular, Barabási–Albert power-law, and a 16-node / 70-link
//!   North-American ISP backbone with geography-derived propagation delays.
//! - [`export`] — DOT / CSV serialization for inspection and debugging.
//!
//! Link weights are plain integers (`[Weight]`), one per directed link, as
//! configured by OSPF operators; a *topology* in the multi-topology-routing
//! sense is just a distinct weight vector over the same physical graph (see
//! [`WeightVector`]).
//!
//! ## Design notes
//!
//! The representation is intentionally minimal (vectors indexed by dense
//! integer ids) rather than a general-purpose graph library: the DTR weight
//! search evaluates on the order of 10⁶ candidate weight settings, each of
//! which requires `|V|` Dijkstra runs, so the graph layout and the SPF inner
//! loop dominate end-to-end runtime.

pub mod datacenter;
pub mod export;
pub mod families;
pub mod gen;
pub mod geo;
pub mod rocketfuel;
pub mod spf;
pub mod topology;
pub mod weights;

pub use datacenter::{
    fat_tree_topology, jellyfish_topology, vl2_topology, xpander_topology, FatTreeCfg,
    JellyfishCfg, Vl2Cfg, XpanderCfg,
};
pub use families::{
    grid_topology, hierarchical_topology, waxman_topology, GridCfg, HierarchicalCfg, WaxmanCfg,
};
pub use rocketfuel::{rocketfuel_topology, RocketfuelCfg};
pub use spf::{FlatTopo, LinkMask, ShortestPathDag, SpfTree, SpfWorkspace};
pub use topology::{Link, LinkId, NodeId, Topology, TopologyBuilder, TopologyError};
pub use weights::{Weight, WeightVector, MAX_WEIGHT, MIN_WEIGHT};
