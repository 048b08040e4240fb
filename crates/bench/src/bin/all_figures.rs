//! Regenerates the paper's figures and tables and the extension
//! studies from one name table: all of them in order — the one-shot
//! full reproduction — or the `--only a,b` subset (`--quick` for a fast
//! smoke pass).

use dtr_bench::{ctx_from_args, emit};
use dtr_experiments::*;
use std::time::Instant;

/// One artifact: its `--only` name, its heading, and what prints its
/// tables and writes its CSV files.
type Figure = (&'static str, &'static str, fn(&ExperimentCtx));

const FIGURES: &[Figure] = &[
    ("triangle", "§3.3.1 triangle", |ctx| {
        emit("triangle", &triangle::table(&triangle::run(ctx)))
    }),
    ("fig2", "Fig. 2", |ctx| {
        for panel in fig2::run_all(ctx, &fig2::Fig2Cfg::default()) {
            let name = format!("fig2_{}_{}", panel.topology.name(), panel.objective);
            emit(&name, &fig2::table(&panel));
        }
    }),
    ("fig3", "Fig. 3", |ctx| {
        for (i, panel) in fig3::run_all(ctx).into_iter().enumerate() {
            let name = format!("fig3_{}", (b'a' + i as u8) as char);
            emit(&name, &fig3::table(&panel));
        }
    }),
    ("fig4", "Fig. 4", |ctx| {
        emit("fig4", &fig4::table(&fig4::run_all(ctx)))
    }),
    ("fig5", "Fig. 5", |ctx| {
        emit("fig5", &fig5::table(&fig5::run_all(ctx)))
    }),
    ("fig6", "Fig. 6", |ctx| {
        emit("fig6", &fig6::table(&fig6::run_all(ctx)))
    }),
    ("fig7", "Fig. 7", |ctx| {
        emit("fig7", &fig7::table(&fig7::run(ctx)))
    }),
    ("fig8", "Fig. 8", |ctx| {
        emit("fig8", &fig8::table(&fig8::run_all(ctx)))
    }),
    ("fig9", "Fig. 9", |ctx| {
        emit("fig9", &fig9::table(&fig9::run(ctx)))
    }),
    ("table1", "Table 1", |ctx| {
        for block in table1::run(ctx) {
            let name = format!("table1_{}", block.topology.name());
            emit(&name, &table1::table(&block));
        }
    }),
    ("optimality", "Optimality gaps (extension)", |ctx| {
        emit("optimality", &optimality::table(&optimality::run(ctx)))
    }),
    ("robustness", "Failure robustness (extension)", |ctx| {
        emit("robustness", &robustness::table(&robustness::run(ctx)))
    }),
    ("drift", "Traffic-drift robustness (extension)", |ctx| {
        emit("drift", &drift::table(&drift::run(ctx, 10)))
    }),
    (
        "robust_opt",
        "Failure-aware optimization (extension)",
        |ctx| emit("robust_opt", &robust_opt::table(&robust_opt::run(ctx))),
    ),
    (
        "reopt",
        "Change-limited reoptimization (extension)",
        |ctx| emit("reopt", &reopt_exp::table(&reopt_exp::run(ctx))),
    ),
    ("estimation", "Tomogravity estimation (extension)", |ctx| {
        let study = estimation::run(ctx);
        emit("estimation_quality", &estimation::quality_table(&study));
        emit("estimation_impact", &estimation::impact_table(&study));
    }),
    ("overhead", "Control-plane overhead (extension)", |ctx| {
        emit("overhead", &overhead_exp::table(&overhead_exp::run(ctx)))
    }),
    (
        "convergence",
        "Search-strategy convergence (extension)",
        |ctx| {
            let curves = convergence::run(ctx);
            emit("convergence", &convergence::table(&curves));
            emit("convergence_curves", &convergence::curves_table(&curves));
        },
    ),
    ("multiclass", "k-class MTR (extension)", |ctx| {
        emit("multiclass", &multiclass::table(&multiclass::run(ctx)))
    }),
];

fn usage_error(message: String) -> ! {
    eprintln!("all_figures: {message}");
    eprintln!("usage: all_figures [--quick] [--paper] [--seed N] [--points N] [--only a,b]");
    std::process::exit(2)
}

fn main() {
    let (ctx, only) = ctx_from_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_error(e));
    if let Some(name) = only
        .iter()
        .find(|name| FIGURES.iter().all(|f| f.0 != *name))
    {
        let names: Vec<&str> = FIGURES.iter().map(|figure| figure.0).collect();
        let have = names.join(",");
        usage_error(format!(
            "--only: no artifact is named {name:?} (have {have})"
        ));
    }
    let t0 = Instant::now();
    for &(name, heading, run) in FIGURES {
        if only.is_empty() || only.iter().any(|o| o == name) {
            println!("=== {heading} ===");
            run(&ctx);
        }
    }
    println!("total wall time: {:?}", t0.elapsed());
}
