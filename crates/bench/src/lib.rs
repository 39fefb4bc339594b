//! Reproduction harness of the TVS toolkit, behind `tvs bench`.
//!
//! [`tables`] renders the DATE 2003 paper's Tables 1–5 (`tvs bench table
//! <n>`), [`sim`] is the simulation-kernel bench (`tvs bench sim`), and
//! [`strategies`] and [`delta`] are the strategy and delta-reuse sweeps.
//! [`runner`] holds the shared profile scaling and experiment runner, and
//! [`microbench`] the std-only timing harness of the `cargo bench` targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod microbench;
pub mod runner;
pub mod sim;
pub mod strategies;
pub mod tables;
