//! Standalone entry point for the workspace invariant linter; see
//! [`lint::cli`] for its flags. `repro lint` runs the same command
//! line.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    lint::cli::main("drywells-lint", &args)
}
