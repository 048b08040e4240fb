//! # dtr-bench — criterion benches and the bench gate
//!
//! Criterion benches (`cargo bench -p dtr-bench`): SPF throughput,
//! evaluator throughput, end-to-end search cost, τ and diversification
//! ablations, search-strategy comparison, slicing, simulator event rates,
//! and the tomography/robustness per-candidate costs.
//!
//! ```text
//! # CI gate over the BENCH_*.json artifacts (run from the repo root):
//! cargo run --release -p dtr-bench --bin bench_gate
//! ```
//!
//! The paper's figures and tables are regenerated by the
//! `dtr-experiments` binary:
//! `cargo run --release -p dtr-experiments -- [--quick] [--only fig2,table1]`.
