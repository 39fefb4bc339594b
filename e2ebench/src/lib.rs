//! End-to-end benchmark of the stitching toolkit with a per-layer ledger.
//!
//! One invocation runs one seeded workload against the unmodified library
//! crates through their public APIs, checks every output, and prints one
//! JSON result line: the end-to-end metrics of timed passes, or (with
//! `--trace 1`) the per-layer metrics of one traced pass. See the README
//! next to this crate for the workloads and the layer map.

pub mod direct;
pub mod metrics;
pub mod oracle;
pub mod schedule;
pub mod served;
pub mod stats;
pub mod trace;

use std::time::Instant;

use metrics::Outcome;

/// Threads a direct workload computes on, the reference machine's core
/// count: the engine's worker threads on small-complete, the runs made at
/// once on budget-sweep.
pub const THREADS: usize = 2;
/// Set-up repetitions per invocation; `setup_s` is their median.
pub const SETUP_SAMPLES: usize = 9;
/// Upper bound on timed passes per invocation.
pub const MAX_PASSES: usize = 64;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: &[&str] = &["small-complete", "budget-sweep", "served-mix"];

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Workload seed: the engine configuration seed and the served-mix
    /// schedule seed.
    pub seed: u64,
    /// Measurement time per invocation, in seconds.
    pub seconds: u64,
    /// Whether to make one traced pass instead of timed passes.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload <name> [--seed <n>] [--seconds <n>] [--trace 0|1]`.
    /// The seed defaults to the engine's default seed, so a bare run
    /// reproduces the committed numbers.
    ///
    /// # Errors
    ///
    /// Unknown flags, missing values, and unknown workloads.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: tvs_stitch::StitchConfig::default().seed,
            seconds: 10,
            trace: false,
        };
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => args.workload = value()?.clone(),
                "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                    }
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        Ok(args)
    }
}

/// Runs `make` [`SETUP_SAMPLES`] times; returns the first result and the
/// median wall time of all of them.
pub fn timed_setups<T>(mut make: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_SAMPLES);
    let mut first = None;
    for _ in 0..SETUP_SAMPLES {
        let start = Instant::now();
        let value = make();
        times.push(start.elapsed().as_secs_f64());
        first.get_or_insert(value);
    }
    let first = first.unwrap_or_else(make);
    (first, stats::median(&times))
}

/// Runs the workload `args` names.
///
/// # Errors
///
/// Set-up failures that leave nothing to measure.
pub fn run(args: &Args) -> Result<Outcome, String> {
    use direct::Direct;
    match args.workload.as_str() {
        "small-complete" => Ok(direct::run(Direct::SmallComplete, args)),
        "budget-sweep" => Ok(direct::run(Direct::BudgetSweep, args)),
        "served-mix" => served::run(args),
        other => Err(format!("unknown workload {other:?}")),
    }
}
