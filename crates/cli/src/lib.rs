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

/// The exit code of a binary whose stdout or stderr reader went away:
/// the status a shell reports for a process that SIGPIPE ended, as it
/// ends coreutils.
pub const CLOSED_PIPE_EXIT: i32 = 128 + 13;

/// Makes a closed stdout or stderr end the process quietly with
/// [`CLOSED_PIPE_EXIT`]. Rust ignores SIGPIPE, so `println!` and
/// `eprintln!` panic on a reader that has gone (`dtrctl help | head
/// -1`); this panic hook exits on that panic instead of reporting it,
/// and leaves every other panic to the default hook. SIGPIPE itself
/// stays ignored, so a socket write to a closed peer is still an
/// `io::Error` the command handles.
pub fn exit_quietly_on_closed_pipe() {
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let msg = info.payload_as_str().unwrap_or("");
        if msg.starts_with("failed printing to std") && msg.contains("Broken pipe") {
            std::process::exit(CLOSED_PIPE_EXIT);
        }
        default(info)
    }));
}

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
