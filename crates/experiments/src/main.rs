//! The figure front end: regenerates the paper's figures and tables and
//! the two extension studies from [`ARTIFACTS`] — all of them in order,
//! or the `--only a,b` subset.
//!
//! ```text
//! cargo run --release -p dtr-experiments -- [--quick] [--paper] [--seed N] [--points N] [--only a,b]
//! ```
//!
//! Prints each artifact's rows/series and writes them as CSV under
//! `results/` (`DTR_RESULTS` overrides). `--quick` is the tiny smoke
//! budget ([`ExperimentCtx::smoke`]; every artifact in seconds, CI's
//! `experiments-smoke` job), `--paper` the full published iteration
//! budget (hours of CPU); with neither, [`ExperimentCtx::default`] —
//! the budget the committed figures were produced with. `--points N`
//! sets the load points per sweep (the paper's Table 1 has seven:
//! `--only table1 --points 7`).
//!
//! Exit status: `0` on success, `2` on a usage error, `1` when the
//! results directory cannot be created or written
//! (`dtr-experiments: <path>: <error>`).

use dtr_core::SearchParams;
use dtr_experiments::report::results_dir;
use dtr_experiments::{write_csv, ExperimentCtx, ARTIFACTS};
use std::io;
use std::path::Path;
use std::time::Instant;

const USAGE: &str =
    "usage: dtr-experiments [--quick] [--paper] [--seed N] [--points N] [--only a,b]";

/// Builds the experiment context from the command line and returns it
/// with the `--only` names (empty: everything). Anything the five flags
/// do not cover is an error naming the offending token.
fn parse(args: impl IntoIterator<Item = String>) -> Result<(ExperimentCtx, Vec<String>), String> {
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
    if quick && paper {
        return Err("--quick and --paper name two different budgets".into());
    }
    if points == Some(0) {
        return Err("--points needs at least one load point".into());
    }
    if let Some(name) = only.iter().find(|o| ARTIFACTS.iter().all(|a| a.0 != **o)) {
        let have: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
        return Err(format!(
            "--only: no artifact is named {name:?} (have {})",
            have.join(",")
        ));
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

fn main() {
    let (ctx, only) = parse(std::env::args().skip(1)).unwrap_or_else(|message| {
        eprintln!("dtr-experiments: {message}\n{USAGE}");
        std::process::exit(2)
    });
    let t0 = Instant::now();
    if let Err(message) = run(&ctx, &only, &results_dir()) {
        eprintln!("dtr-experiments: {message}");
        std::process::exit(1)
    }
    println!("total wall time: {:?}", t0.elapsed());
}

/// Runs the selected artifacts in order, printing each table and writing
/// its CSV under `dir`. The directory is created before the first
/// artifact runs, so an unusable one costs nothing (at `--paper`, an
/// artifact is hours).
fn run(ctx: &ExperimentCtx, only: &[String], dir: &Path) -> Result<(), String> {
    let unusable = |e: io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(unusable)?;
    for &(name, heading, artifact) in ARTIFACTS {
        if only.is_empty() || only.iter().any(|o| o == name) {
            println!("=== {heading} ===");
            for (csv_name, table) in artifact(ctx).tables {
                println!("{}", table.render());
                let path = write_csv(dir, &csv_name, &table).map_err(unusable)?;
                println!("[csv] {}\n", path.display());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_line(line: &str) -> Result<(ExperimentCtx, Vec<String>), String> {
        parse(line.split_whitespace().map(str::to_string))
    }

    #[test]
    fn default_ctx_is_experiment_budget() {
        let (ctx, only) = parse_line("").unwrap();
        assert_eq!(ctx.params.n_iters, SearchParams::experiment().n_iters);
        assert!(only.is_empty());
    }

    #[test]
    fn flags_apply_in_a_fixed_order_and_bad_lines_name_their_flag() {
        let (ctx, only) = parse_line("--seed 9 --only fig2,table1 --paper --points 7").unwrap();
        assert_eq!((ctx.seed, ctx.params.seed, ctx.load_points), (9, 9, 7));
        assert_eq!(ctx.params.n_iters, SearchParams::paper().n_iters);
        assert_eq!(only, ["fig2", "table1"]);
        assert_eq!(parse_line("--quick").unwrap().0.load_points, 2);
        for (line, token) in [
            ("--quik", "--quik"),
            ("fig2", "fig2"),
            ("--seed x", "--seed"),
            ("--points", "--points"),
            ("--points 1.5", "--points"),
            // Would print header-only tables over the CSVs on disk.
            ("--quick --only fig2 --points 0", "--points"),
            // `--paper` used to win silently: seconds became hours.
            ("--quick --paper", "--paper"),
            ("--only fig2,fig10", "\"fig10\""),
        ] {
            let message = parse_line(line).unwrap_err();
            assert!(message.contains(token), "{line}: {message}");
        }
    }

    #[test]
    fn an_unusable_results_dir_is_an_error_naming_it() {
        let scratch = std::env::temp_dir().join(format!("dtr-main-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).unwrap();
        let file = scratch.join("not-a-dir");
        std::fs::write(&file, "").unwrap();
        let (ctx, only) = parse_line("--quick --only triangle").unwrap();
        let message = run(&ctx, &only, &file).unwrap_err();
        assert!(
            message.starts_with(&format!("{}: ", file.display())),
            "{message}"
        );
        let dir = scratch.join("results");
        run(&ctx, &only, &dir).unwrap();
        assert!(dir.join("triangle.csv").is_file());
        std::fs::remove_dir_all(scratch).unwrap();
    }
}
