//! **tvs-core** — the transport-agnostic serving core.
//!
//! Stitched test generation (see `tvs-stitch`) is a pure function of
//! `(netlist, configuration)`. This crate packages everything a *service*
//! built on that purity needs, with no opinion about how requests arrive:
//!
//! * a deterministic **JSON value model** ([`json`]) whose serialization is
//!   a pure function of the value (numbers keep their raw source text), so
//!   artifacts re-serialize byte-identically;
//! * a **content-addressed artifact cache** ([`ArtifactStore`]) keyed by
//!   [`ArtifactKey`] — the FNV fingerprint of the canonicalized `.bench`
//!   source combined with the stitch configuration fingerprint;
//! * a **single-flight job table** ([`JobTable`]) with bounded admission
//!   over the [`tvs_exec::JobQueue`]: concurrent identical submissions
//!   coalesce onto one engine run, cache hits never touch the queue, and a
//!   full queue is a typed [`CoreError::Busy`] instead of a backlog.
//!
//! Both the single-node daemon (`tvs-serve`) and the fleet coordinator's
//! routing layer (`tvs-fleet`) build on this crate: the daemon wires the
//! table to a TCP protocol, the coordinator reuses the key derivation and
//! artifact model to shard submissions across many daemons by consistent
//! hashing. Failures are the transport-free [`CoreError`]; each transport
//! maps them onto its own wire taxonomy.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod error;
pub mod jobs;
pub mod json;

pub use cache::{AdmissionGate, ArtifactKey, ArtifactStore, SubmissionIdentity};
pub use error::CoreError;
pub use jobs::{render_artifact, Admission, JobStatus, JobTable};
