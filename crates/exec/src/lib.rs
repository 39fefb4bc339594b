//! Deterministic parallel execution + instrumentation substrate.
//!
//! The stitched-generation flow spends nearly all of its time in
//! embarrassingly parallel loops — per-fault bit-parallel simulation
//! batches, per-candidate vector scoring, per-profile table runs. This crate
//! provides the execution layer those loops share:
//!
//! * [`ThreadPool`] — a std-only work-stealing thread pool with
//!   [`scope`](ThreadPool::scope)-based fan-out over borrowed data and
//!   the order-preserving [`map`](ThreadPool::map) reduction. Results always
//!   come back in input order, so parallel runs stay **bit-identical** to
//!   sequential ones (the workspace's seeded-determinism invariant,
//!   DESIGN.md §6.4). At `threads = 1` every entry point degrades to a plain
//!   sequential loop on the calling thread — the guaranteed fallback.
//! * Instrumentation — process-wide named atomic [`counter`]s, wall-clock
//!   [`span`] timers and a [`report`] snapshot the CLI renders as a
//!   `--stats` table.
//! * Robustness substrate — deterministic work [`Budget`]s (work units, never
//!   wall clock), the deterministic [`TaskPanic`] outcome of a failed work
//!   item, and the [`inject`] chaos-testing registry (compiled out in
//!   release builds).
//! * Serving substrate — [`JobQueue`], a bounded multi-producer job queue
//!   with long-lived workers and cloneable [`JobHandle`]s, the admission /
//!   single-flight primitive under the `tvs-serve` daemon.
//!
//! # Determinism contract
//!
//! Work items handed to `map` must be pure functions of their
//! inputs (no shared mutable state, no ambient randomness). Under that
//! contract the pool guarantees the reduced output is independent of thread
//! count, scheduling order and steal pattern, because reduction happens by
//! input index, never by completion order.
//!
//! # Examples
//!
//! ```
//! use tvs_exec::ThreadPool;
//!
//! let pool = ThreadPool::new(4);
//! let squares = pool.map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]); // input order, always
//! ```

#![warn(missing_docs)]

mod budget;
pub mod inject;
mod pool;
mod queue;
mod stats;

pub use budget::Budget;
pub use pool::{default_threads, payload_message, Scope, TaskPanic, ThreadPool};
pub use queue::{JobHandle, JobPanicked, JobQueue, QueueFull};
pub use stats::{counter, report, reset_stats, span, Counter, Report, SpanGuard};
