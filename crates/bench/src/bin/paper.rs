//! The paper harness: `paper --list`, `paper <artefact> [--scale …]
//! [--methods …] [--datasets …]` (see [`fedlps_bench::cli`]).

use fedlps_bench::artefacts::listing;
use fedlps_bench::cli::{parse, Command};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::List) => print!("{}", listing()),
        Ok(Command::Run(artefact, request)) => (artefact.run)(&request, &mut |table| table.print()),
        Err(message) => {
            eprintln!("{message}");
            std::process::exit(2);
        }
    }
}
