//! `dtrctl` entry point.

fn main() {
    dtr_cli::exit_quietly_on_closed_pipe();
    let result = dtr_cli::run(std::env::args().skip(1));
    std::process::exit(dtr_cli::exit_code("error", result));
}
