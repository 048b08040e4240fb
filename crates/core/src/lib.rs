//! # dtr-core — the paper's contribution: weight-search heuristics
//!
//! This crate implements §4 of *"Improving Service Differentiation in IP
//! Networks through Dual Topology Routing"* (Kwong et al., CoNEXT 2007):
//!
//! - [`DtrSearch`] — **Algorithm 1**, three stages over the dual weight
//!   vector `W = {W^H, W^L}`: `FindH` passes with `W^L` fixed, `FindL`
//!   passes with `W^H` frozen at its best, then both around the
//!   incumbent (stage table in [`dtr`]).
//! - `descent` — the loop all of Algorithm 1's stages and the STR
//!   baseline share (move to the best of ≤ `m` candidates if it
//!   improves, *diversify* after `M` non-improving iterations, keep the
//!   incumbent), written once; every search below except the GA,
//!   memetic and annealing walks is a stage table over it. Descent or
//!   not, every search costs its candidates through
//!   [`BatchEvaluator`], so [`SearchParams::backend`] reaches all of
//!   them and changes none of their results.
//! - [`neighborhood`] — **Algorithm 2** (`FindH`/`FindL` neighborhoods):
//!   rank links by lexicographic link cost, draw window offsets `k₁, k₂`
//!   from the heavy-tailed distribution `P(k) ∝ k^{−τ}`, pick `m`
//!   high-cost links (set `A`) and `m` low-cost links (set `B`), and
//!   construct `m` neighbors by shifting weight off an `A` link onto a
//!   `B` link (without replacement).
//! - [`StrSearch`] — the single-topology baseline: the Fortz–Thorup
//!   "single weight change" local search \[2\] adapted to the paper's
//!   lexicographic objectives, including the **relaxed** variant of
//!   §3.3.2/§5.3.1 that trades ε of high-priority cost for low-priority
//!   improvements (Table 1).
//! - [`joint`] — the joint cost function `J = α·Φ_H + Φ_L` of §3.3.1,
//!   with the exhaustive search used to reproduce the 3-node example
//!   showing why picking `α` is hard.
//!
//! Beyond the paper's two schemes, the crate carries the neighboring
//! search problems an operator meets in practice:
//!
//! - [`GaSearch`] / [`MemeticSearch`] / [`AnnealSearch`] — the other
//!   classic heuristic families (\[3\], \[4\], simulated annealing) at
//!   identical evaluation budgets, for search-strategy ablations (the GA
//!   is the memetic generation loop with no hill-climb); with the two
//!   descents they are the rows of [`run_strategy`]'s table, and all
//!   return one [`SearchResult`];
//! - [`RobustSearch`] — failure-aware optimization over all survivable
//!   single duplex-pair cuts (\[5\]);
//! - [`ReoptSearch`] — change-limited reoptimization after traffic drift
//!   (the "changing world" problem, \[19\]);
//! - [`PortfolioSearch`] — the parallel multi-start orchestrator: N
//!   workers over rayon, each running one strategy arm
//!   (descent/anneal/GA/memetic) with a derived seed and its own engine
//!   state, reduced deterministically so `--workers N` never changes the result.
//!
//! The evaluation budget is controlled by [`SearchParams`]; the paper's
//! full budget (`N = 300 000`, `K = 800 000`) is available as
//! [`SearchParams::paper`], with scaled-down presets for interactive use
//! — the result *shape* (RH ≈ 1, RL ≫ 1) is stable long before full
//! convergence (see DESIGN.md §3).

pub mod anneal;
#[doc(hidden)]
pub mod descent;
pub mod dtr;
pub mod ga;
pub mod joint;
pub mod memetic;
pub mod neighborhood;
pub mod params;
pub mod portfolio;
pub mod reopt;
pub mod robust;
pub mod scheme;
pub mod str_search;
pub mod streams;
pub mod telemetry;
pub mod upgrade;

pub use anneal::{AnnealParams, AnnealSearch};
pub use dtr::DtrSearch;
pub use ga::{GaParams, GaSearch};
pub use joint::{joint_cost, JointCostExplorer, TriangleVerdict};
pub use memetic::{MemeticParams, MemeticSearch};
pub use neighborhood::{NeighborhoodSampler, RankTable};
pub use params::{derive_stream_seed, SearchParams};
pub use portfolio::{
    parse_portfolio, run_strategy, PortfolioMode, PortfolioParams, PortfolioResult,
    PortfolioSearch, StrategyKind, TaskOutcome,
};
pub use reopt::{ReoptResult, ReoptSearch, ReoptSession};
pub use robust::{RobustCost, RobustEvaluator, RobustResult, RobustSearch, ScenarioCombine};
pub use scheme::Scheme;
pub use str_search::{RelaxedBest, StrResult, StrSearch};
pub use telemetry::{SearchResult, SearchTrace};
pub use upgrade::{cost_ratio, UpgradeOutcome, UpgradeParams, UpgradeSearch, UpgradeStep};

// Re-export the types a downstream user needs to drive a search without
// depending on every substrate crate explicitly.
pub use dtr_cost::{
    Lex2, LexCost, Objective, ObjectiveError, ObjectiveSpec, SlaParams, MAX_CLASSES,
};
pub use dtr_engine::{BackendKind, BatchEvaluator, EvalBackend};
pub use dtr_graph::weights::DualWeights;
pub use dtr_graph::{Topology, WeightVector};
pub use dtr_routing::{DeploymentSet, Evaluation, Evaluator};
pub use dtr_traffic::{DemandSet, TrafficCfg};
