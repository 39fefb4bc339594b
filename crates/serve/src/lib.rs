//! **tvs-serve** — the batching compression service.
//!
//! Stitched test generation (the core of the DATE 2003 flow, see
//! `tvs-stitch`) is CPU-minutes per circuit but a pure function of
//! `(netlist, configuration)`. This crate exploits that purity end to end:
//!
//! * a **TCP daemon** ([`Server`]) speaking a length-prefixed, versioned
//!   JSON protocol ([`proto`]) with ops `submit`, `lint`, `status`, `wait`,
//!   `fetch`, `stats` and `shutdown`;
//! * the **transport-agnostic serving core** re-exported from
//!   [`tvs_core`]: the content-addressed [`ArtifactStore`], the
//!   single-flight [`JobTable`] with bounded admission, and the
//!   deterministic [`json`] value model (numbers keep their raw source
//!   text, so artifacts re-serialize byte-identically).
//!
//! This crate owns the *wire*: framing, the request grammar, the
//! [`ServeError`] taxonomy with stable wire codes, and the blocking
//! [`Client`]. The job/cache/queue mechanics live in `tvs-core`, shared
//! with the fleet coordinator (`tvs-fleet`) that shards submissions across
//! many of these daemons.
//!
//! Both daemons run one front end: [`serve_connections`] owns the accept
//! loop, the request prelude and the drain, and the coordinator answers
//! `lint` with the worker's own [`lint_op`].
//!
//! Everything is std-only; determinism of the engine itself is untouched —
//! connection threads (raw threads outside `crates/exec` are allowed only
//! in `server.rs` and the fleet coordinator, see the lint table) only wait
//! on sockets and job handles.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod error;
pub mod proto;
mod server;

pub use tvs_core::cache;
pub use tvs_core::jobs;
pub use tvs_core::json;

pub use client::Client;
pub use error::ServeError;
pub use proto::PROTO_VERSION;
pub use server::{
    check_version, config_from_wire, lint_op, serve_connections, stats_report, Server,
    ServerConfig, POLL,
};
pub use tvs_core::{Admission, ArtifactKey, ArtifactStore, CoreError, JobStatus, JobTable};
