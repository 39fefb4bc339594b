//! Static analysis for the TVS toolkit: IR design-rule checks, a
//! source-level determinism lint, and a semantic dataflow layer.
//!
//! Three engines share one diagnostic model ([`Diagnostic`], rendered as
//! text or JSON):
//!
//! * **IR analyzer** ([`analyze_graph`] / [`analyze_netlist`] /
//!   [`analyze_program`]) — structural design rules over netlists and
//!   stitch-program shapes: every net driven exactly once, no combinational
//!   cycles (iterative Tarjan SCC), sane arities, no dead logic, scan-chain
//!   integrity (each flop chained exactly once, chain length = `L`), and
//!   program consistency (`0 < k <= L` shift windows, full initial load,
//!   `ex` fallback vectors only after constrained-ATPG exhaustion). The
//!   `debug_assert_*` wrappers let producing code assert cleanliness in
//!   debug builds for free in release.
//! * **Source determinism lint** ([`lint_source`] / [`lint_workspace`]) — a
//!   token-level scanner over the workspace's `.rs` files denying
//!   nondeterminism primitives (hash collections, clock reads, raw thread
//!   spawns, environment reads, `unwrap` in library code) outside
//!   allowlisted sites, with `// lint:allow(CODE)` escapes. It protects the
//!   bit-identical-at-any-thread-count guarantee from regressing through an
//!   accidental hash-order iteration or wall-clock dependence.
//! * **Semantic layer** — a levelized SCOAP testability dataflow
//!   ([`analyze_testability`] / [`Testability::compute`], saturating
//!   CC0/CC1/CO scores, TB001–TB003, per-net JSON via
//!   [`testability_json`]) and a 3-valued abstract interpreter for lowered
//!   stitch programs ([`evaluate_trace`] / [`analyze_trace`]: SP006 denies
//!   captures that depend on unknown power-up state, SP007 flags
//!   provably-dead shift cycles). [`admission_diagnostics`] bundles the
//!   deny-capable subset for the engine entry points (core job table,
//!   serve, fleet) to gate submissions before any engine run.
//!
//! Run all three from the CLI via `tvs lint` (`--testability`, `--scores`,
//! `--program`, `--workspace --format json`); CI fails on any deny-level
//! finding.
//!
//! # Examples
//!
//! ```
//! use tvs_lint::{analyze_program, has_deny, ProgramSpec};
//!
//! let spec = ProgramSpec {
//!     scan_len: 8,
//!     shifts: vec![8, 3, 3],
//!     final_flush: 8,
//!     extra_vectors: 0,
//!     uncaught_at_fallback: 0,
//! };
//! assert!(!has_deny(&analyze_program(&spec)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admit;
mod dataflow;
mod diag;
mod graph;
mod interp;
mod ir;
mod source;
mod testability;

pub use admit::{admission_diagnostics, netlist_error_diagnostics};
pub use diag::{counts, has_deny, render_json, render_text, Diagnostic, Severity, Site};
pub use graph::{IrGraph, IrKind, IrNode, ProgramSpec};
pub use interp::{analyze_trace, evaluate_trace, ProgramTrace, TraceCycle, TraceEval};
pub use ir::{
    analyze_graph, analyze_netlist, analyze_program, debug_assert_netlist_clean,
    debug_assert_program_clean,
};
pub use source::{lint_source, lint_workspace};
pub use testability::{
    analyze_testability, testability_json, Testability, TestabilityConfig, UntestableSite,
    UNREACHED,
};
