//! Logic-simulation substrate for the TVS DFT toolkit.
//!
//! Two engines over the full-scan combinational view
//! ([`ScanView`](tvs_netlist::ScanView)):
//!
//! * [`ThreeValSim`] — three-valued (0/1/X) levelized simulation of a single
//!   test cube. Used by ATPG (X-path reasoning, cube validation) and anywhere
//!   don't-cares must be preserved.
//! * [`ParallelSim`] — 64-slot bit-parallel two-valued simulation. Each bit
//!   position ("slot") of a `u64` word is an independent machine with its own
//!   stimulus, and [`Injection`]s force a gate output or a single gate input
//!   pin to a constant in selected slots. This is the engine under both the
//!   PPSFP-style fault simulator and the stitching engine's hidden-fault
//!   bookkeeping, where each slot simulates a *different* faulty machine
//!   whose mutated stimulus is a set of source-stem injections
//!   ([`ParallelSim::detect_mask`]).
//!
//! [`eval_single`] wraps [`ParallelSim`] for the common one-pattern,
//! fault-free case.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod parallel;
mod single;
mod threeval;

pub use parallel::{Detection, Injection, ParallelSim};
pub use single::eval_single;
pub use threeval::ThreeValSim;
