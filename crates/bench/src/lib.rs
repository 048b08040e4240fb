//! # dtr-bench — benches and figure/table regeneration binaries
//!
//! Binaries:
//!
//! ```text
//! # every figure, table and extension study, in order:
//! cargo run --release -p dtr-bench --bin all_figures
//! # a subset, by name — triangle, fig2 … fig9, table1 (the paper's
//! # artifacts), optimality, robustness, drift, robust_opt, reopt,
//! # estimation, overhead, convergence, multiclass (extensions):
//! cargo run --release -p dtr-bench --bin all_figures -- --only fig2,table1
//!
//! # CI gate over the BENCH_*.json artifacts (run from the repo root):
//! cargo run --release -p dtr-bench --bin bench_gate
//! ```
//!
//! `all_figures` prints the paper's rows/series and writes CSV under
//! `results/` (`DTR_RESULTS` overrides). Flags: `--quick` (tiny smoke
//! budget), `--paper` (the full published iteration budget; hours of
//! CPU), `--seed N`, `--points N` (load points per sweep; the paper's
//! Table 1 has seven: `--only table1 --points 7`).
//!
//! Criterion benches (`cargo bench -p dtr-bench`): SPF throughput,
//! evaluator throughput, end-to-end search cost, τ and diversification
//! ablations, search-strategy comparison, slicing, simulator event rates,
//! and the tomography/robustness per-candidate costs.

use dtr_core::SearchParams;
use dtr_experiments::ExperimentCtx;

/// Builds the experiment context from `all_figures`' arguments
/// (`--quick`, `--paper`, `--seed <n>`, `--points <n>`) and returns it
/// with the `--only a,b` names (empty: everything). Anything else on
/// the command line is an error, as is a non-integer count.
pub fn ctx_from_args(
    args: impl IntoIterator<Item = String>,
) -> Result<(ExperimentCtx, Vec<String>), String> {
    let (mut quick, mut paper, mut seed, mut points) = (false, false, None, None);
    let mut only = Vec::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let count = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} needs an integer"))
        };
        match flag.as_str() {
            "--quick" => quick = true,
            "--paper" => paper = true,
            "--seed" => seed = Some(count(value()?)?),
            "--points" => points = Some(count(value()?)?),
            "--only" => only = value()?.split(',').map(str::to_string).collect(),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let mut ctx = match quick {
        true => ExperimentCtx::smoke(),
        false => ExperimentCtx::default(),
    };
    if paper {
        ctx.params = SearchParams::paper();
    }
    if let Some(seed) = seed {
        ctx.seed = seed;
        ctx.params = ctx.params.with_seed(seed);
    }
    if let Some(points) = points {
        ctx.load_points = points as usize;
    }
    Ok((ctx, only))
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

    fn parse(line: &str) -> Result<(ExperimentCtx, Vec<String>), String> {
        ctx_from_args(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn default_ctx_is_experiment_budget() {
        let (ctx, only) = parse("").unwrap();
        assert_eq!(ctx.params.n_iters, SearchParams::experiment().n_iters);
        assert!(only.is_empty());
    }

    #[test]
    fn flags_apply_in_a_fixed_order_and_typos_are_errors() {
        let (ctx, only) = parse("--seed 9 --only fig2,table1 --paper --points 7").unwrap();
        assert_eq!((ctx.seed, ctx.params.seed, ctx.load_points), (9, 9, 7));
        assert_eq!(ctx.params.n_iters, SearchParams::paper().n_iters);
        assert_eq!(only, ["fig2", "table1"]);
        assert_eq!(parse("--quick").unwrap().0.load_points, 2);
        for (line, token) in [
            ("--quik", "--quik"),
            ("fig2", "fig2"),
            ("--seed x", "--seed"),
            ("--points", "--points"),
            ("--points 1.5", "--points"),
        ] {
            let message = parse(line).unwrap_err();
            assert!(message.contains(token), "{line}: {message}");
        }
    }
}
