//! The single list of artifacts: the ten paper figures and tables, then
//! the two extension studies, in the order the `dtr-experiments` binary
//! runs them. The
//! binary prints and writes each row's tables; `tests/golden.rs` freezes
//! each row's result value and tables at [`ExperimentCtx::smoke`].

use crate::*;
use serde::Serialize;
use std::borrow::Borrow;

/// What one artifact produced.
pub struct Output {
    /// The module's result value (what the golden files freeze as JSON).
    pub result: Box<dyn Serialize>,
    /// The tables rendered from it, each under its CSV file name.
    pub tables: Vec<(String, Table)>,
}

/// One artifact: its `--only` name, its heading, and the run.
pub type Artifact = (&'static str, &'static str, fn(&ExperimentCtx) -> Output);

fn output<R: Serialize + 'static>(
    result: R,
    tables: impl FnOnce(&R) -> Vec<(String, Table)>,
) -> Output {
    let tables = tables(&result);
    Output {
        result: Box::new(result),
        tables,
    }
}

/// A table by its CSV name and the module function that renders it.
type Named<B> = (&'static str, fn(&B) -> Table);

/// An artifact whose tables have fixed CSV names.
fn tables<R, B: ?Sized>(result: R, named: &[Named<B>]) -> Output
where
    R: Serialize + Borrow<B> + 'static,
{
    output(result, |r| {
        let render = |&(name, table): &Named<B>| (name.to_string(), table(r.borrow()));
        named.iter().map(render).collect()
    })
}

/// Every artifact, paper's first, then the extensions.
pub const ARTIFACTS: &[Artifact] = &[
    ("triangle", "§3.3.1 triangle", |ctx| {
        tables(triangle::run(ctx), &[("triangle", triangle::table)])
    }),
    ("fig2", "Fig. 2", |ctx| {
        output(fig2::run_all(ctx, &fig2::Fig2Cfg::default()), |panels| {
            let name = |p: &fig2::Fig2Panel| format!("fig2_{}_{}", p.topology.name(), p.objective);
            panels.iter().map(|p| (name(p), fig2::table(p))).collect()
        })
    }),
    ("fig3", "Fig. 3", |ctx| {
        output(fig3::run_all(ctx), |panels| {
            let tables = panels.iter().map(fig3::table);
            ('a'..).map(|c| format!("fig3_{c}")).zip(tables).collect()
        })
    }),
    ("fig4", "Fig. 4", |ctx| {
        tables(fig4::run_all(ctx), &[("fig4", fig4::table)])
    }),
    ("fig5", "Fig. 5", |ctx| {
        tables(fig5::run_all(ctx), &[("fig5", fig5::table)])
    }),
    ("fig6", "Fig. 6", |ctx| {
        tables(fig6::run_all(ctx), &[("fig6", fig6::table)])
    }),
    ("fig7", "Fig. 7", |ctx| {
        tables(fig7::run(ctx), &[("fig7", fig7::table)])
    }),
    ("fig8", "Fig. 8", |ctx| {
        tables(fig8::run_all(ctx), &[("fig8", fig8::table)])
    }),
    ("fig9", "Fig. 9", |ctx| {
        tables(fig9::run(ctx), &[("fig9", fig9::table)])
    }),
    ("table1", "Table 1", |ctx| {
        output(table1::run(ctx), |blocks| {
            let name = |b: &table1::Table1Block| format!("table1_{}", b.topology.name());
            blocks.iter().map(|b| (name(b), table1::table(b))).collect()
        })
    }),
    ("optimality", "Optimality gaps (extension)", |ctx| {
        tables(optimality::run(ctx), &[("optimality", optimality::table)])
    }),
    (
        "convergence",
        "Search-strategy convergence (extension)",
        |ctx| {
            tables(
                convergence::run(ctx),
                &[
                    ("convergence", convergence::table),
                    ("convergence_curves", convergence::curves_table),
                ],
            )
        },
    ),
];
