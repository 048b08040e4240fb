//! `dtrctl` entry point.

fn main() {
    let result = dtr_cli::run(std::env::args().skip(1));
    std::process::exit(dtr_cli::exit_code("error", result));
}
