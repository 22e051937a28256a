//! `clado` — the command-line interface of the CLADO reproduction.
//!
//! Run `clado --help` (or any unknown command) for usage.

mod args;
mod cancel;
mod commands;

use args::Args;
use commands::USAGE;
use std::process::ExitCode;

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut parsed = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if parsed.switch("help") || parsed.subcommand().is_none() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let name = parsed.subcommand().expect("checked above");
    let Some(command) = commands::command(name) else {
        eprintln!("error: unknown command `{name}`\n\n{USAGE}");
        return ExitCode::FAILURE;
    };
    match parsed.accept(command.flags) {
        Ok(warnings) => {
            for w in warnings {
                eprintln!("warning: {w}");
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    match (command.run)(&parsed) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
