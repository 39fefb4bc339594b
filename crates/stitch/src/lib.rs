//! **Test vector stitching** — the primary contribution of
//! W. Rao & A. Orailoglu, *"Virtual Compression through Test Vector Stitching
//! for Scan Based Designs"*, DATE 2003 — implemented as a library.
//!
//! Stitched test generation constructs each test vector out of the tail of
//! the previous response still sitting in the scan chain plus `k` freshly
//! shifted bits, cutting test application time and tester memory with zero
//! added hardware. The engine tracks three disjoint fault sets per cycle:
//!
//! * `f_c` — caught faults;
//! * `f_h` — hidden faults: detected, but every differentiating response bit
//!   stayed inside the chain; each carries its own faulty chain image and is
//!   re-simulated under its *own* mutated next vector;
//! * `f_u` — not yet differentiated faults.
//!
//! The per-cycle classification implements the three-way rule of the paper's
//! §5 exactly; when constrained ATPG can no longer catch new faults the
//! engine falls back to conventional full-shift vectors for the remainder.
//!
//! Entry point: [`StitchEngine`] configured by [`StitchConfig`] (shift
//! policy, vector-selection strategy, XOR observability scheme), producing a
//! [`StitchReport`] with the paper's `TV`, `ex`, `m`, `t` metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod claim;
mod classify;
mod config;
mod cycle;
mod engine;
mod metrics;
mod policy;
mod replay;
mod run;
mod sets;
mod snapshot;
mod state;
mod strategy;
mod vector;

pub use classify::Classification;
pub use config::StitchConfig;
pub use engine::StitchEngine;
pub use metrics::{CompressionMetrics, CycleRecord};
pub use policy::{Ratio, ShiftPolicy};
pub use replay::{ReplayCycle, ReplayRow, ReplayTrace};
pub use run::{
    PodemVerdict, PrescreenRecord, PrescreenTrace, RunOptions, RunProgress, StitchError,
    StitchReport, Termination,
};
pub use sets::{FaultSets, FaultState, HiddenFault};
pub use snapshot::{fnv1a, FaultEntry, Snapshot, SnapshotError, SNAPSHOT_VERSION};
pub use strategy::{Strategy, StrategyCtx, StrategyId, ALL_STRATEGIES};
