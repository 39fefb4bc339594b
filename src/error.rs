//! The toolkit-level error taxonomy and the CLI's structured exit codes.
//!
//! Every failure the `tvs` binary can hit maps onto one [`TvsError`]
//! variant, and every variant onto a stable [`exit code`](TvsError::exit_code)
//! — scripts and CI can branch on *what kind* of failure occurred without
//! parsing stderr:
//!
//! | code | variant | meaning |
//! |---|---|---|
//! | 2 | [`Usage`](TvsError::Usage) | bad invocation: unknown option, missing argument, malformed value |
//! | 3 | [`Netlist`](TvsError::Netlist) / [`Program`](TvsError::Program) | malformed input artifact (`.bench` or `.tvp`) |
//! | 4 | [`Stitch`](TvsError::Stitch) / [`Atpg`](TvsError::Atpg) / [`Fault`](TvsError::Fault) | the generation engines rejected the run |
//! | 5 | [`Snapshot`](TvsError::Snapshot) | a checkpoint file is corrupt, foreign or mismatched |
//! | 6 | [`Io`](TvsError::Io) | the operating system failed us |
//! | 7 | [`Lint`](TvsError::Lint) | deny-level diagnostics found |
//! | 8 | [`Serve`](TvsError::Serve) | the compression service or its client failed |
//! | 9 | [`Fleet`](TvsError::Fleet) | the fleet coordinator failed (no live workers, abandoned job) |
//! | 10 | [`Fuzz`](TvsError::Fuzz) | a fuzz target broke its contract (panic, violation, nondeterminism) |
//! | 11 | [`Bench`](TvsError::Bench) | a benchmark gate tripped (coverage regression vs. baseline, a kernel-bench ratio gate or mode mismatch) |
//! | 12 | [`Verify`](TvsError::Verify) | the virtual ATE failed a tester program against its fault-free circuit |
//!
//! Exit code 1 stays reserved for panics (which the library layers avoid by
//! construction — see the SRC005 lint) so an abort is distinguishable from
//! every typed failure.

use std::error::Error;
use std::fmt;

use tvs_ate::{FailKind, ParseProgramError};
use tvs_atpg::AtpgOutcome;
use tvs_fault::FaultError;
use tvs_fleet::FleetError;
use tvs_fuzz::FuzzFailure;
use tvs_netlist::NetlistError;
use tvs_serve::ServeError;
use tvs_stitch::{SnapshotError, StitchError};

/// Top-level error for the `tvs` toolkit and CLI.
#[derive(Debug)]
#[non_exhaustive]
pub enum TvsError {
    /// The command line itself is wrong (unknown option, missing or
    /// malformed argument).
    Usage(String),
    /// A `.bench` netlist failed to parse or validate.
    Netlist(NetlistError),
    /// A `.tvp` tester program failed to parse.
    Program(ParseProgramError),
    /// The stitching engine rejected or could not finish the run.
    Stitch(StitchError),
    /// The conventional ATPG flow failed.
    Atpg(AtpgOutcome),
    /// The fault-simulation session rejected a sweep request.
    Fault(FaultError),
    /// A checkpoint snapshot is truncated, corrupt, foreign or mismatched.
    Snapshot(SnapshotError),
    /// An operating-system I/O failure, with the path involved.
    Io {
        /// The file being read or written.
        path: String,
        /// The underlying OS error.
        source: std::io::Error,
    },
    /// Deny-level lint diagnostics were found.
    Lint(String),
    /// The compression service (daemon or client side) failed.
    Serve(ServeError),
    /// The fleet coordinator failed (no live workers, abandoned job).
    Fleet(FleetError),
    /// A fuzz target broke its harness contract: the offending seed is in
    /// the message in replayable hex form.
    Fuzz(FuzzFailure),
    /// A benchmark gate tripped (e.g. a strategy regressed coverage below
    /// the `MostFaults` baseline in `tvs bench strategies --gate`).
    Bench(String),
    /// The virtual ATE failed a tester program against the fault-free
    /// circuit (`tvs verify`): the first mismatching bit.
    Verify {
        /// 0-based cycle index (`cycles.len()` denotes the closing flush).
        cycle: usize,
        /// Which comparison caught the mismatch.
        kind: FailKind,
        /// Bit position within the mismatching field.
        bit: usize,
    },
}

impl TvsError {
    /// The structured process exit code for this error (1 is reserved for
    /// panics, so every typed failure is distinguishable from an abort).
    pub fn exit_code(&self) -> u8 {
        match self {
            TvsError::Usage(_) => 2,
            TvsError::Netlist(_) | TvsError::Program(_) => 3,
            TvsError::Stitch(_) | TvsError::Atpg(_) | TvsError::Fault(_) => 4,
            TvsError::Snapshot(_) => 5,
            TvsError::Io { .. } => 6,
            TvsError::Lint(_) => 7,
            TvsError::Serve(_) => 8,
            TvsError::Fleet(_) => 9,
            TvsError::Fuzz(_) => 10,
            TvsError::Bench(_) => 11,
            TvsError::Verify { .. } => 12,
        }
    }

    /// Convenience constructor for usage errors.
    pub fn usage(message: impl Into<String>) -> Self {
        TvsError::Usage(message.into())
    }

    /// Wraps an I/O error with the path it concerned.
    pub fn io(path: impl Into<String>, source: std::io::Error) -> Self {
        TvsError::Io {
            path: path.into(),
            source,
        }
    }
}

impl fmt::Display for TvsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TvsError::Usage(m) => write!(f, "usage: {m}"),
            TvsError::Netlist(e) => write!(f, "netlist: {e}"),
            TvsError::Program(e) => write!(f, "program: {e}"),
            TvsError::Stitch(e) => write!(f, "stitch: {e}"),
            TvsError::Atpg(e) => write!(f, "atpg: {e}"),
            TvsError::Fault(e) => write!(f, "fault: {e}"),
            TvsError::Snapshot(e) => write!(f, "snapshot: {e}"),
            TvsError::Io { path, source } => write!(f, "io: {path}: {source}"),
            TvsError::Lint(m) => write!(f, "lint: {m}"),
            TvsError::Serve(e) => write!(f, "serve: {e}"),
            TvsError::Fleet(e) => write!(f, "fleet: {e}"),
            TvsError::Fuzz(e) => write!(f, "fuzz: {e}"),
            TvsError::Bench(m) => write!(f, "bench: {m}"),
            TvsError::Verify { cycle, kind, bit } => write!(
                f,
                "verify: program failed on the virtual ATE at cycle {cycle} ({kind} bit {bit})"
            ),
        }
    }
}

impl Error for TvsError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TvsError::Netlist(e) => Some(e),
            TvsError::Program(e) => Some(e),
            TvsError::Stitch(e) => Some(e),
            TvsError::Atpg(e) => Some(e),
            TvsError::Fault(e) => Some(e),
            TvsError::Snapshot(e) => Some(e),
            TvsError::Io { source, .. } => Some(source),
            TvsError::Serve(e) => Some(e),
            TvsError::Fleet(e) => Some(e),
            TvsError::Fuzz(e) => Some(e),
            TvsError::Usage(_)
            | TvsError::Lint(_)
            | TvsError::Bench(_)
            | TvsError::Verify { .. } => None,
        }
    }
}

impl From<NetlistError> for TvsError {
    fn from(e: NetlistError) -> Self {
        TvsError::Netlist(e)
    }
}

impl From<ParseProgramError> for TvsError {
    fn from(e: ParseProgramError) -> Self {
        TvsError::Program(e)
    }
}

impl From<StitchError> for TvsError {
    fn from(e: StitchError) -> Self {
        // Snapshot problems keep their own exit code even when surfaced
        // through the stitch engine's resume path.
        match e {
            StitchError::Snapshot(s) => TvsError::Snapshot(s),
            other => TvsError::Stitch(other),
        }
    }
}

impl From<FaultError> for TvsError {
    fn from(e: FaultError) -> Self {
        TvsError::Fault(e)
    }
}

impl From<AtpgOutcome> for TvsError {
    fn from(e: AtpgOutcome) -> Self {
        TvsError::Atpg(e)
    }
}

impl From<ServeError> for TvsError {
    fn from(e: ServeError) -> Self {
        TvsError::Serve(e)
    }
}

impl From<SnapshotError> for TvsError {
    fn from(e: SnapshotError) -> Self {
        TvsError::Snapshot(e)
    }
}

impl From<FleetError> for TvsError {
    fn from(e: FleetError) -> Self {
        TvsError::Fleet(e)
    }
}

impl From<FuzzFailure> for TvsError {
    fn from(e: FuzzFailure) -> Self {
        TvsError::Fuzz(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable_and_distinct_per_category() {
        assert_eq!(TvsError::usage("x").exit_code(), 2);
        assert_eq!(
            TvsError::from(NetlistError::UndefinedSignal("g".into())).exit_code(),
            3
        );
        assert_eq!(TvsError::from(StitchError::NoScanChain).exit_code(), 4);
        assert_eq!(
            TvsError::from(FaultError::TooManySlots { given: 65 }).exit_code(),
            4
        );
        assert_eq!(TvsError::from(SnapshotError::Truncated).exit_code(), 5);
        assert_eq!(TvsError::io("x", std::io::Error::other("e")).exit_code(), 6);
        assert_eq!(TvsError::Lint("deny".into()).exit_code(), 7);
        assert_eq!(TvsError::from(ServeError::Draining).exit_code(), 8);
        assert_eq!(
            TvsError::from(FleetError::NoWorkers {
                workers: 3,
                alive: 0
            })
            .exit_code(),
            9
        );
        assert_eq!(
            TvsError::from(FuzzFailure::Panicked("boom".into())).exit_code(),
            10
        );
        assert_eq!(TvsError::Bench("gate".into()).exit_code(), 11);
        assert_eq!(
            TvsError::Verify {
                cycle: 3,
                kind: FailKind::Flush,
                bit: 0
            }
            .exit_code(),
            12
        );
    }

    #[test]
    fn stitch_snapshot_errors_route_to_the_snapshot_code() {
        let e = TvsError::from(StitchError::Snapshot(SnapshotError::Truncated));
        assert!(matches!(e, TvsError::Snapshot(_)));
        assert_eq!(e.exit_code(), 5);
    }
}
