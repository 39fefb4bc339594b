//! Combinational ATPG substrate for the TVS DFT toolkit.
//!
//! Replaces the paper's use of ATALANTA with a from-scratch PODEM
//! implementation that natively supports the one capability stitching needs
//! and classic tools lack: **pinned input bits**. During stitched generation
//! the `L - k` scan-cell bits retained from the previous response are fixed;
//! [`Podem`] treats them as pre-assigned decisions and only branches on free
//! bits.
//!
//! The crate also provides the surrounding machinery of a production ATPG
//! flow:
//!
//! * [`Podem`] — path-oriented decision making with backtrace, implication
//!   via three-valued simulation, X-path checks and a backtrack limit;
//! * [`PatternSet`] / [`generate_tests`] — the full-shift baseline flow
//!   (random phase with fault dropping, deterministic phase, reverse-order
//!   static compaction) that produces the `aTV` vector counts of the paper's
//!   tables;
//! * [`Verdicts`] — a run-wide table of unconstrained PODEM verdicts that
//!   answers shallower queries for the same fault without a second search;
//! * [`FillStrategy`] — how don't-care bits are specified after generation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod fill;
mod podem;
mod random;
mod verdicts;

pub use engine::{
    compact_patterns, generate_tests, generate_tests_with, AtpgConfig, AtpgOutcome,
    AtpgTermination, PatternSet,
};
pub use fill::FillStrategy;
pub use podem::{Podem, PodemConfig, PodemResult, PodemWork};
pub use random::random_phase;
pub use verdicts::Verdicts;
