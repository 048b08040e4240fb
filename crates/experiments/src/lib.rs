//! # dtr-experiments — regenerating every table and figure of the paper
//!
//! One module per experiment, each exposing a `run(&ExperimentCtx)`
//! returning a serializable data structure plus text/CSV renderers:
//!
//! | Module      | Paper artifact | What it shows |
//! |-------------|----------------|---------------|
//! | [`fig2`]    | Fig. 2(a–f)    | `R_H`, `R_L` vs average link utilization, 3 topologies × 2 objectives |
//! | [`fig3`]    | Fig. 3(a–c)    | Link-utilization histograms, STR vs DTR |
//! | [`fig4`]    | Fig. 4         | Impact of high-priority volume fraction `f` on `R_L` |
//! | [`fig5`]    | Fig. 5(a,b)    | Impact of SD-pair density `k` on `R_L`, both objectives |
//! | [`fig6`]    | Fig. 6         | Sorted per-link high-priority utilization under STR |
//! | [`fig7`]    | Fig. 7         | Link load vs propagation delay under the SLA objective |
//! | [`fig8`]    | Fig. 8(a,b)    | Sink traffic pattern: Local vs Uniform clients |
//! | [`fig9`]    | Fig. 9(a–c)    | SLA-bound relaxation 25→35 ms |
//! | [`table1`]  | Table 1        | Relaxed STR (ε = 5 %, 30 %) vs DTR |
//! | [`triangle`]| §3.3.1         | Joint-cost-function pathology on the 3-node example |
//!
//! Extension experiments beyond the paper:
//!
//! | Module | What it shows |
//! |---|---|
//! | [`optimality`] | STR/DTR gaps vs the Frank–Wolfe optimum |
//! | [`convergence`] | Search-strategy convergence curves |
//!
//! The shared machinery lives in [`runner`] (instance construction, load
//! sweeps, the one STR → DTR pair protocol, ratio conventions) and
//! [`report`] (CSV files and fixed-width text tables). Every experiment is deterministic given the
//! seeds in its config.
//!
//! [`ARTIFACTS`] lists all of them once; the crate's binary runs that
//! list, or the `--only` part of it: `cargo run --release -p
//! dtr-experiments -- [--quick] [--only fig2,table1]`.

pub mod artifacts;
pub mod convergence;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod optimality;
pub mod report;
pub mod runner;
pub mod table1;
pub mod triangle;

pub use artifacts::{Artifact, Output, ARTIFACTS};
pub use report::{write_csv, Table};
pub use runner::{cost_ratio, ExperimentCtx, PairOutcome, TopologyKind};
