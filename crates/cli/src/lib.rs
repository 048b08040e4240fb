//! # dtr-cli — the `dtrctl` command-line tool and the `dtrd` daemon binary
//!
//! An operator-facing front end over the DTR workspace. Workflow:
//!
//! ```sh
//! dtrctl topo random --nodes 30 --links 150 --out topo.json
//! dtrctl traffic --topo topo.json --f 0.3 --k 0.1 --scale 6 --out tm.json
//! dtrctl optimize --topo topo.json --traffic tm.json --scheme dtr --out weights.json
//! dtrctl evaluate --topo topo.json --traffic tm.json --weights weights.json
//! dtrctl simulate --topo topo.json --traffic tm.json --weights weights.json --duration 2
//! dtrctl deploy   --topo topo.json --weights weights.json
//! ```
//!
//! All artifacts are JSON (`serde`), so they diff, version and script
//! cleanly. Both binaries parse their command line against one table
//! ([`table`]): a flag is declared once with its kind and valid range,
//! a command is a row listing the flags it takes, and `help` is
//! rendered from the rows. Argument parsing stays hand-rolled
//! ([`args`]) to keep the dependency set minimal.

pub mod args;
pub mod commands;
pub mod table;

pub use args::{ArgError, Args};
pub use commands::{run, run_row, CliError};

/// A binary's exit code, after reporting a failure on stderr under
/// `prefix`: 2 for what argv alone decides (the message ends with the
/// command's usage), 1 for file and run-time errors.
pub fn exit_code(prefix: &str, result: Result<(), CliError>) -> i32 {
    match result {
        Ok(()) => 0,
        Err(CliError::Args(e)) => {
            eprintln!("{prefix}: {e}");
            2
        }
        Err(e) => {
            eprintln!("{prefix}: {e}");
            1
        }
    }
}
