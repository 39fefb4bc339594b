//! `e2ebench --workload <name> --seed <n> --seconds <n> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and the metrics.

use std::process::ExitCode;

use tvs_e2ebench::metrics::{END_TO_END, PER_LAYER};
use tvs_e2ebench::{run, Args};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalogue = if args.trace { PER_LAYER } else { END_TO_END };
    match outcome.to_json(catalogue) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}
