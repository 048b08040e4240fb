//! `dtrd` — the reoptimization daemon binary (`dtrctl help` prints its
//! flags from the same table; `docs/OPERATIONS.md` is the runbook).

fn main() {
    dtr_cli::exit_quietly_on_closed_pipe();
    let result = dtr_cli::run_row(&dtr_cli::table::DTRD, std::env::args().skip(1));
    std::process::exit(dtr_cli::exit_code("dtrd", result));
}
