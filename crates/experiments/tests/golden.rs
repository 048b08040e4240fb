//! Frozen outputs of every paper artifact and extension study (ROADMAP
//! item 3a): for each of the 19 artifacts `all_figures` knows, at
//! [`ExperimentCtx::smoke`], the pretty JSON of the module's result
//! value (`<artifact>.json` — shortest-round-trip floats, so cost
//! *bits*, not `fmt(x, 2)` strings) and, per table it emits, the
//! rendered text (`<csv name>.txt`) and the CSV (`<csv name>.csv`)
//! under the file name `all_figures` writes it to. Recorded before the
//! kernel port (item 2c) rewrites the `Evaluator`/`Objective` calls in
//! `src/fig*.rs`; a refactor must reproduce these files byte for byte.
//!
//! After an intended behaviour change, rewrite the files with
//! `cargo test -p dtr-experiments --test golden -- --ignored bless`.

use dtr_experiments::*;
use serde::Serialize;
use std::path::PathBuf;

/// One artifact's frozen files: the result value, then each named table.
fn artifact<R: Serialize>(
    out: &mut Vec<(PathBuf, String)>,
    name: &str,
    result: &R,
    tables: Vec<(String, Table)>,
) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    out.push((
        dir.join(format!("{name}.json")),
        serde_json::to_string_pretty(result).unwrap(),
    ));
    for (csv_name, table) in tables {
        out.push((dir.join(format!("{csv_name}.txt")), table.render()));
        out.push((dir.join(format!("{csv_name}.csv")), table.to_csv()));
    }
}

/// `(golden file, regenerated contents)` for every artifact, in
/// `all_figures`' order and under its CSV names.
fn regenerate() -> Vec<(PathBuf, String)> {
    let ctx = &ExperimentCtx::smoke();
    let out = &mut Vec::new();
    let one = |name: &str, table: Table| vec![(name.to_string(), table)];

    let r = triangle::run(ctx);
    artifact(out, "triangle", &r, one("triangle", triangle::table(&r)));
    let r = fig2::run_all(ctx, &fig2::Fig2Cfg::default());
    let tables = r
        .iter()
        .map(|p| {
            let name = format!("fig2_{}_{}", p.topology.name(), p.objective);
            (name, fig2::table(p))
        })
        .collect();
    artifact(out, "fig2", &r, tables);
    let r = fig3::run_all(ctx);
    let tables = r
        .iter()
        .enumerate()
        .map(|(i, p)| (format!("fig3_{}", (b'a' + i as u8) as char), fig3::table(p)))
        .collect();
    artifact(out, "fig3", &r, tables);
    let r = fig4::run_all(ctx);
    artifact(out, "fig4", &r, one("fig4", fig4::table(&r)));
    let r = fig5::run_all(ctx);
    artifact(out, "fig5", &r, one("fig5", fig5::table(&r)));
    let r = fig6::run_all(ctx);
    artifact(out, "fig6", &r, one("fig6", fig6::table(&r)));
    let r = fig7::run(ctx);
    artifact(out, "fig7", &r, one("fig7", fig7::table(&r)));
    let r = fig8::run_all(ctx);
    artifact(out, "fig8", &r, one("fig8", fig8::table(&r)));
    let r = fig9::run(ctx);
    artifact(out, "fig9", &r, one("fig9", fig9::table(&r)));
    let r = table1::run(ctx);
    let tables = r
        .iter()
        .map(|b| (format!("table1_{}", b.topology.name()), table1::table(b)))
        .collect();
    artifact(out, "table1", &r, tables);
    let r = optimality::run(ctx);
    artifact(
        out,
        "optimality",
        &r,
        one("optimality", optimality::table(&r)),
    );
    let r = robustness::run(ctx);
    artifact(
        out,
        "robustness",
        &r,
        one("robustness", robustness::table(&r)),
    );
    let r = drift::run(ctx, 10);
    artifact(out, "drift", &r, one("drift", drift::table(&r)));
    let r = robust_opt::run(ctx);
    artifact(
        out,
        "robust_opt",
        &r,
        one("robust_opt", robust_opt::table(&r)),
    );
    let r = reopt_exp::run(ctx);
    artifact(out, "reopt", &r, one("reopt", reopt_exp::table(&r)));
    let r = estimation::run(ctx);
    let tables = vec![
        (
            "estimation_quality".to_string(),
            estimation::quality_table(&r),
        ),
        (
            "estimation_impact".to_string(),
            estimation::impact_table(&r),
        ),
    ];
    artifact(out, "estimation", &r, tables);
    let r = overhead_exp::run(ctx);
    artifact(
        out,
        "overhead",
        &r,
        one("overhead", overhead_exp::table(&r)),
    );
    let r = convergence::run(ctx);
    let tables = vec![
        ("convergence".to_string(), convergence::table(&r)),
        (
            "convergence_curves".to_string(),
            convergence::curves_table(&r),
        ),
    ];
    artifact(out, "convergence", &r, tables);
    let r = multiclass::run(ctx);
    artifact(
        out,
        "multiclass",
        &r,
        one("multiclass", multiclass::table(&r)),
    );
    std::mem::take(out)
}

#[test]
fn smoke_artifacts_match_the_frozen_files() {
    for (path, fresh) in regenerate() {
        let frozen =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(fresh, frozen, "{} drifted", path.display());
    }
}

#[test]
#[ignore = "rewrites the golden files"]
fn bless() {
    for (path, fresh) in regenerate() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, fresh).unwrap();
    }
}
