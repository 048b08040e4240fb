//! Frozen outputs of the ten paper artifacts and the two extension
//! studies: for each row of [`ARTIFACTS`], at [`ExperimentCtx::smoke`],
//! the pretty JSON of the module's result value (`<artifact>.json` —
//! shortest-round-trip floats, so cost *bits*, not `fmt(x, 2)` strings)
//! and, per table it emits, the rendered text (`<csv name>.txt`) and
//! the CSV (`<csv name>.csv`) exactly as `dtr-experiments --quick`
//! prints and writes them. A refactor must reproduce these files byte
//! for byte.
//!
//! After an intended behaviour change, rewrite the files with
//! `cargo test -p dtr-experiments --test golden -- --ignored bless`.

use dtr_experiments::{ExperimentCtx, ARTIFACTS};
use std::path::PathBuf;

/// `(golden file, regenerated contents)` for every artifact.
fn regenerate() -> Vec<(PathBuf, String)> {
    let ctx = ExperimentCtx::smoke();
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let mut out = Vec::new();
    for &(name, _, run) in ARTIFACTS {
        let artifact = run(&ctx);
        out.push((
            dir.join(format!("{name}.json")),
            serde_json::to_string_pretty(&*artifact.result).unwrap(),
        ));
        for (csv_name, table) in artifact.tables {
            out.push((dir.join(format!("{csv_name}.txt")), table.render()));
            out.push((dir.join(format!("{csv_name}.csv")), table.to_csv()));
        }
    }
    out
}

#[path = "../../../tests/support/freeze.rs"]
mod freeze;
