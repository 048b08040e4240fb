//! # dtr-bench — benches and figure/table regeneration binaries
//!
//! Binaries (one per paper artifact):
//!
//! ```text
//! cargo run --release -p dtr-bench --bin fig2      # Fig. 2(a–f)
//! cargo run --release -p dtr-bench --bin fig3      # Fig. 3(a–c)
//! cargo run --release -p dtr-bench --bin fig4      # Fig. 4
//! cargo run --release -p dtr-bench --bin fig5      # Fig. 5(a,b)
//! cargo run --release -p dtr-bench --bin fig6      # Fig. 6
//! cargo run --release -p dtr-bench --bin fig7      # Fig. 7
//! cargo run --release -p dtr-bench --bin fig8      # Fig. 8(a,b)
//! cargo run --release -p dtr-bench --bin fig9      # Fig. 9(a–c)
//! cargo run --release -p dtr-bench --bin table1    # Table 1
//! cargo run --release -p dtr-bench --bin triangle  # §3.3.1 example
//! cargo run --release -p dtr-bench --bin all_figures
//!
//! # extensions beyond the paper:
//! cargo run --release -p dtr-bench --bin optimality
//! cargo run --release -p dtr-bench --bin robustness
//! cargo run --release -p dtr-bench --bin drift
//! cargo run --release -p dtr-bench --bin robust_opt
//! cargo run --release -p dtr-bench --bin reopt
//! cargo run --release -p dtr-bench --bin estimation
//! cargo run --release -p dtr-bench --bin overhead
//! cargo run --release -p dtr-bench --bin convergence
//! cargo run --release -p dtr-bench --bin multiclass
//!
//! # CI gate over the BENCH_*.json artifacts (run from the repo root):
//! cargo run --release -p dtr-bench --bin bench_gate
//! ```
//!
//! Each prints the paper's rows/series and writes CSV under `results/`
//! (`DTR_RESULTS` overrides). Flags: `--quick` (tiny smoke budget),
//! `--paper` (the full published iteration budget; hours of CPU).
//!
//! Criterion benches (`cargo bench -p dtr-bench`): SPF throughput,
//! evaluator throughput, end-to-end search cost, τ and diversification
//! ablations, search-strategy comparison, slicing, simulator event rates,
//! and the tomography/robustness per-candidate costs.

use dtr_core::SearchParams;
use dtr_experiments::ExperimentCtx;

/// Builds the experiment context from CLI args (`--quick`, `--paper`,
/// `--seed <n>`, `--points <n>`).
pub fn ctx_from_args() -> ExperimentCtx {
    let args: Vec<String> = std::env::args().collect();
    let mut ctx = ExperimentCtx::default();
    if args.iter().any(|a| a == "--quick") {
        ctx = ExperimentCtx::smoke();
    }
    if args.iter().any(|a| a == "--paper") {
        ctx.params = SearchParams::paper();
    }
    if let Some(i) = args.iter().position(|a| a == "--seed") {
        ctx.seed = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--seed needs an integer");
        ctx.params = ctx.params.with_seed(ctx.seed);
    }
    if let Some(i) = args.iter().position(|a| a == "--points") {
        ctx.load_points = args
            .get(i + 1)
            .and_then(|s| s.parse().ok())
            .expect("--points needs an integer");
    }
    ctx
}

/// Prints a table and writes it as CSV, reporting the file path.
pub fn emit(name: &str, table: &dtr_experiments::Table) {
    println!("{}", table.render());
    let path = dtr_experiments::write_csv(name, table);
    println!("[csv] {}\n", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ctx_is_experiment_budget() {
        let ctx = ExperimentCtx::default();
        assert_eq!(ctx.params.n_iters, SearchParams::experiment().n_iters);
    }
}
