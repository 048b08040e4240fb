//! # dtr-bench — criterion benches and the bench gate
//!
//! Criterion benches (`cargo bench -p dtr-bench --bench NAME`), each
//! writing one `BENCH_*.json` artifact at the repository root: `engine`
//! (full vs incremental evaluation backends), `robust` (the failure
//! sweep), `portfolio` (worker-count speedup), `fluid` (analytic vs
//! fluid vs packet simulation) and `daemon` (`dtrd` churn replay).
//!
//! ```text
//! # CI gate over the BENCH_*.json artifacts (run from the repo root):
//! cargo run --release -p dtr-bench --bin bench_gate
//! ```
//!
//! The paper's figures and tables are regenerated by the
//! `dtr-experiments` binary:
//! `cargo run --release -p dtr-experiments -- [--quick] [--only fig2,table1]`.
