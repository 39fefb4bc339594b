//! Fault-model substrate for the TVS DFT toolkit.
//!
//! Everything the DATE 2003 stitching paper delegates to HOPE (the Virginia
//! Tech fault simulator) is implemented here from scratch:
//!
//! * [`Fault`] / [`FaultSite`] — single stuck-at faults on gate outputs
//!   (stems) and on individual gate input pins (fanout branches);
//! * [`FaultList`] — the fault universe of a circuit, with structural
//!   equivalence collapsing ([`collapse`](FaultList::collapsed));
//! * [`FaultSim`] — a bit-parallel single-pattern multi-fault simulator in
//!   the PROOFS/HOPE tradition: 64 faulty machines per sweep, each slot with
//!   its *own* stimulus (the reference the session's kernels are tested
//!   against, and the shape replay uses);
//! * [`SimSession::detect_patterns`] — the transposed shape,
//!   pattern-parallel single-fault propagation: 64 patterns per sweep
//!   against one fault, returning a per-fault detection mask whose lowest
//!   set bit is the first detecting pattern (random-pattern ATPG,
//!   compaction, accidental-detection counts);
//! * [`Machine`] — input-bit overrides plus one fault, run against a
//!   seeded baseline in both shapes ([`SimSession::detect_machines`],
//!   [`SimSession::run_machines`]): the stitching engine's candidate
//!   scoring and cycle classification, where a hidden fault's mutated
//!   stimulus is the cycle's vector with a few scan cells overridden;
//! * [`Scoap`] — SCOAP controllability/observability testability measures,
//!   used for the paper's "Hardness" fault-ordering strategy;
//! * [`StaticPrune`] — pattern-independent pre-classification of faults on
//!   structurally unobservable sites, derived from the lint crate's
//!   testability dataflow and provably equivalent to full simulation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod collapse;
mod list;
mod model;
mod prune;
mod scoap;
mod session;
mod sim;

pub use list::FaultList;
pub use model::{Fault, FaultSite, StuckAt};
pub use prune::{detect_pruned, StaticPrune};
pub use scoap::Scoap;
pub use session::{FaultError, Machine, SimSession};
pub use sim::{detect_parallel, FaultSim, SlotSpec};
