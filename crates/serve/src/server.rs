//! The daemons' front end: accept loop, per-connection request prelude,
//! and graceful drain — plus the `tvs serve` worker's own op dispatch.
//!
//! [`serve_connections`] is the one connection path of both daemons: the
//! worker ([`Server::run`]) and the fleet coordinator pass it an op handler
//! and a drain hook, so the two cannot drift in how they frame, parse,
//! version-check or hang up.
//!
//! Concurrency split: **I/O concurrency lives here** (one OS thread per
//! connection — clients block on `wait`/`fetch` for minutes, a share-nothing
//! thread per socket is the simplest correct shape), while **compute
//! concurrency stays in tvs-exec** (every engine run goes through the
//! [`JobTable`]'s bounded [`tvs_exec::JobQueue`]). Connection threads never
//! touch engine state; they only talk to the job table, so the determinism
//! argument of DESIGN.md §6 is untouched by the serving layer.
//!
//! Shutdown: a `shutdown` request flips the draining flag. The accept loop
//! stops admitting sockets, the drain hook runs (the worker's job table
//! drains: every admitted job completes and persists its artifact, and
//! blocked `wait`ers get their answer), and connection threads notice the
//! flag at their next read timeout and hang up.

use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use tvs_scan::{CaptureTransform, ObserveTransform};
use tvs_stitch::{ShiftPolicy, StitchConfig, StrategyId};

use tvs_core::json::{self, Value};
use tvs_core::{ArtifactStore, JobStatus, JobTable};

use crate::error::ServeError;
use crate::proto::{read_frame, write_frame, ProtoError, PROTO_VERSION};

/// The daemons' one poll interval: how often the accept loop, blocked
/// reads, the fleet's forwarded waits and its health monitor re-check
/// their stop condition.
pub const POLL: Duration = Duration::from_millis(50);

/// Construction parameters for [`Server::bind`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to listen on, e.g. `"127.0.0.1:7077"` (`:0` picks a port).
    pub listen: String,
    /// Artifact cache directory.
    pub cache_dir: std::path::PathBuf,
    /// Worker threads executing engine runs.
    pub workers: usize,
    /// Admission bound: open jobs beyond this are rejected as `busy`.
    pub queue_capacity: usize,
    /// Cycles between checkpoint snapshots of running jobs (0 = never).
    pub checkpoint_every: usize,
    /// Artifact-cache byte cap; LRU eviction above it (0 = unbounded).
    pub cache_cap_bytes: u64,
    /// Max in-flight engine runs per client identity (0 = unlimited).
    pub client_quota: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".to_owned(),
            cache_dir: std::path::PathBuf::from("tvs-cache"),
            workers: 2,
            queue_capacity: 64,
            checkpoint_every: 8,
            cache_cap_bytes: 0,
            client_quota: 0,
        }
    }
}

/// A bound (but not yet serving) daemon.
pub struct Server {
    listener: TcpListener,
    table: Arc<JobTable>,
    draining: Arc<AtomicBool>,
}

impl Server {
    /// Binds the listen socket and opens the artifact store.
    ///
    /// # Errors
    ///
    /// I/O errors from binding or from creating the cache directory.
    pub fn bind(config: &ServerConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| ServeError::io(format!("bind {}", config.listen), e))?;
        let store = ArtifactStore::open(&config.cache_dir)?.with_cap(config.cache_cap_bytes);
        Ok(Server {
            listener,
            table: Arc::new(
                JobTable::new(
                    config.workers,
                    config.queue_capacity,
                    config.checkpoint_every,
                    store,
                )
                .with_client_quota(config.client_quota),
            ),
            draining: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket's address lookup failure.
    pub fn local_addr(&self) -> Result<SocketAddr, ServeError> {
        self.listener
            .local_addr()
            .map_err(|e| ServeError::io("local_addr", e))
    }

    /// A handle that can trigger a drain from another thread (tests).
    pub fn drain_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.draining)
    }

    /// Serves until a `shutdown` request (or the drain handle) flips the
    /// draining flag, then completes all admitted jobs and returns.
    ///
    /// # Errors
    ///
    /// Only setup failures (making the listener non-blocking) error; per-
    /// connection failures are contained to their connection thread.
    pub fn run(self) -> Result<(), ServeError> {
        let table = Arc::clone(&self.table);
        let draining = Arc::clone(&self.draining);
        serve_connections(
            self.listener,
            &self.draining,
            move |op, request| {
                dispatch(op, request, &table, &draining).unwrap_or_else(|e| e.to_wire())
            },
            // Finish every admitted job before the connection threads are
            // joined, so a blocked `wait` still gets its answer.
            || self.table.drain(),
        )
    }
}

/// Serves `listener` until `draining` flips: accepts sockets, gives each
/// its own I/O thread, and answers every frame with `handler(op, request)`
/// once the request prelude has passed. Then it stops accepting, runs
/// `on_drain`, and joins the connection threads.
///
/// Connection threads are I/O waiters, not compute: every engine run goes
/// through the tvs-exec job queue. This file and the fleet coordinator
/// (for its health monitor) are the SRC003 allowlist entries outside
/// `crates/exec` (see the lint table).
///
/// # Errors
///
/// Only setup failures (making the listener non-blocking) error; per-
/// connection failures are contained to their connection thread.
pub fn serve_connections<H>(
    listener: TcpListener,
    draining: &Arc<AtomicBool>,
    handler: H,
    on_drain: impl FnOnce(),
) -> Result<(), ServeError>
where
    H: Fn(&str, &Value) -> Value + Send + Sync + 'static,
{
    listener
        .set_nonblocking(true)
        .map_err(|e| ServeError::io("set_nonblocking", e))?;
    let handler = Arc::new(handler);
    let mut connections: Vec<std::thread::JoinHandle<()>> = Vec::new();
    while !draining.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let handler = Arc::clone(&handler);
                let draining = Arc::clone(draining);
                let handle =
                    std::thread::spawn(move || serve_connection(stream, &*handler, &draining));
                connections.push(handle);
            }
            // Would-block (no pending socket) and transient accept errors
            // alike: wait a poll interval and re-check the flag.
            Err(_) => std::thread::sleep(POLL),
        }
        connections.retain(|h| !h.is_finished());
    }
    on_drain();
    for handle in connections {
        let _ = handle.join();
    }
    Ok(())
}

/// One connection's request/response loop.
fn serve_connection(
    stream: TcpStream,
    handler: &dyn Fn(&str, &Value) -> Value,
    draining: &AtomicBool,
) {
    let _ = stream.set_read_timeout(Some(POLL));
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut writer = BufWriter::new(stream);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) => return, // peer hung up cleanly
            Err(ProtoError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if draining.load(Ordering::Acquire) {
                    return;
                }
                continue;
            }
            Err(_) => return, // malformed stream: hang up
        };
        let response = respond(&frame, handler).unwrap_or_else(|e| e.to_wire());
        if write_frame(&mut writer, &response.to_text()).is_err() {
            return;
        }
        // `shutdown` answers first, then stops reading.
        if draining.load(Ordering::Acquire) {
            return;
        }
    }
}

/// The request prelude: parse the frame, find its `"op"`, check its
/// protocol version — then hand it to the daemon's op handler.
fn respond(frame: &str, handler: &dyn Fn(&str, &Value) -> Value) -> Result<Value, ServeError> {
    let request = json::parse(frame).map_err(|e| ServeError::Protocol(e.to_string()))?;
    let op = request
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::Protocol("missing \"op\"".to_owned()))?;
    check_version(&request)?;
    Ok(handler(op, &request))
}

/// Executes one worker request against the job table.
fn dispatch(
    op: &str,
    request: &Value,
    table: &JobTable,
    draining: &AtomicBool,
) -> Result<Value, ServeError> {
    match op {
        "submit" => {
            if draining.load(Ordering::Acquire) {
                return Err(ServeError::Draining);
            }
            let bench = request
                .get("bench")
                .and_then(Value::as_str)
                .ok_or_else(|| ServeError::Protocol("submit requires \"bench\"".to_owned()))?;
            let name = request
                .get("name")
                .and_then(Value::as_str)
                .unwrap_or("netlist");
            let config = config_from_wire(request.get("config"))?;
            // The client identity rides at the top level, NOT inside
            // `config`: it must never influence the artifact key.
            let client = request.get("client").and_then(Value::as_str);
            let (job, admission) = table.submit(name, bench, config, client)?;
            let status = table.status(&job)?;
            Ok(Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                ("job".into(), Value::str(job)),
                ("admission".into(), Value::str(admission.as_str())),
                ("key".into(), Value::str(status.key.to_string())),
            ]))
        }
        "lint" => lint_op(request),
        "status" | "wait" => {
            let job = job_arg(request)?;
            let status = if op == "wait" {
                table.wait(job)?
            } else {
                table.status(job)?
            };
            Ok(status_to_wire(&status))
        }
        "fetch" => {
            let job = job_arg(request)?;
            let artifact_text = table.fetch(job)?;
            let artifact = json::parse(&artifact_text)
                .map_err(|e| ServeError::Protocol(format!("stored artifact corrupt: {e}")))?;
            Ok(Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                ("artifact".into(), artifact),
            ]))
        }
        "stats" => Ok(Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("stats".into(), stats_report()?),
            (
                "server".into(),
                Value::Obj(vec![
                    ("open_jobs".into(), Value::num_u64(table.open_jobs() as u64)),
                    ("capacity".into(), Value::num_u64(table.capacity() as u64)),
                    ("jobs_issued".into(), Value::num_u64(table.jobs_issued())),
                    (
                        "draining".into(),
                        Value::Bool(draining.load(Ordering::Acquire)),
                    ),
                ]),
            ),
        ])),
        "cache-cap" => {
            // Live adjustment of the artifact cache's byte cap (0 lifts
            // it); the fleet coordinator broadcasts this at startup so one
            // `--cache-cap-bytes` flag governs every worker.
            let bytes = request
                .get("bytes")
                .and_then(Value::as_u64)
                .ok_or_else(|| ServeError::Protocol("cache-cap requires \"bytes\"".to_owned()))?;
            table.store().set_cap(bytes);
            Ok(Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                ("cap_bytes".into(), Value::num_u64(bytes)),
            ]))
        }
        "shutdown" => {
            draining.store(true, Ordering::Release);
            Ok(Value::Obj(vec![
                ("ok".into(), Value::Bool(true)),
                ("draining".into(), Value::Bool(true)),
            ]))
        }
        other => Err(ServeError::Protocol(format!("unknown op {other:?}"))),
    }
}

/// The `lint` op, answered the same way by a worker and by the fleet
/// coordinator: runs the admission analysis `submit` gates on, but only
/// reports — no job, no engine run, no rejection-cache entry.
///
/// # Errors
///
/// [`ServeError::Protocol`] without a `"bench"` field, and
/// [`ServeError::Netlist`] for syntax errors (as opposed to design-rule
/// findings).
pub fn lint_op(request: &Value) -> Result<Value, ServeError> {
    let bench = request
        .get("bench")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::Protocol("lint requires \"bench\"".to_owned()))?;
    let name = request
        .get("name")
        .and_then(Value::as_str)
        .unwrap_or("netlist");
    let diags = match tvs_netlist::bench::parse(name, bench) {
        Ok(netlist) => {
            tvs_lint::admission_diagnostics(&netlist, &tvs_lint::TestabilityConfig::default())
        }
        Err(e) => tvs_lint::netlist_error_diagnostics(&e)
            .ok_or_else(|| ServeError::Netlist(e.to_string()))?,
    };
    let deny = tvs_lint::has_deny(&diags);
    let doc = json::parse(&tvs_lint::render_json(&diags))
        .map_err(|e| ServeError::Protocol(format!("lint serializer: {e}")))?;
    Ok(Value::Obj(vec![
        ("ok".into(), Value::Bool(true)),
        ("admitted".into(), Value::Bool(!deny)),
        ("lint".into(), doc),
    ]))
}

/// This process's counter/timer report as a document — the serializer
/// `tvs run --stats-json` uses, embedded under `"stats"` by both daemons'
/// `stats` op.
///
/// # Errors
///
/// [`ServeError::Protocol`] if the report does not parse back (a
/// serializer bug).
pub fn stats_report() -> Result<Value, ServeError> {
    json::parse(&tvs_exec::report().to_json())
        .map_err(|e| ServeError::Protocol(format!("stats serializer: {e}")))
}

/// Enforces the frame's protocol-version field. Requests without a `v`
/// field are from pre-versioning peers and rejected just like mismatched
/// ones: a mixed-version fleet must fail loudly, not misparse.
pub fn check_version(request: &Value) -> Result<(), ServeError> {
    match request.get("v").and_then(Value::as_u64) {
        Some(v) if v == PROTO_VERSION => Ok(()),
        got => Err(ServeError::Version {
            got,
            want: PROTO_VERSION,
        }),
    }
}

fn job_arg(request: &Value) -> Result<&str, ServeError> {
    request
        .get("job")
        .and_then(Value::as_str)
        .ok_or_else(|| ServeError::Protocol("missing \"job\"".to_owned()))
}

fn status_to_wire(status: &JobStatus) -> Value {
    let mut pairs = vec![
        ("ok".into(), Value::Bool(true)),
        ("state".into(), Value::str(status.state)),
        ("key".into(), Value::str(status.key.to_string())),
        ("cycle".into(), Value::num_u64(status.cycle as u64)),
        ("caught".into(), Value::num_u64(status.caught as u64)),
        ("hidden".into(), Value::num_u64(status.hidden as u64)),
        ("uncaught".into(), Value::num_u64(status.uncaught as u64)),
    ];
    if let Some(error) = &status.error {
        pairs.push(("error_message".into(), Value::str(error.clone())));
    }
    Value::Obj(pairs)
}

/// Builds a [`StitchConfig`] from the request's `config` object. Keys mirror
/// the stitch options of `tvs run`: `seed`, `fixed` (shift size), `strategy`
/// (any strategy name), `vxor`, `hxor` (tap count), `budget`, `threads`.
/// Absent keys keep defaults; unknown keys — and unknown strategy names —
/// are rejected so typos cannot silently change a run's identity (and
/// therefore its cache key).
pub fn config_from_wire(value: Option<&Value>) -> Result<StitchConfig, ServeError> {
    let mut config = StitchConfig::default();
    let Some(value) = value else {
        return Ok(config);
    };
    let Value::Obj(pairs) = value else {
        return Err(ServeError::Config(
            "\"config\" must be an object".to_owned(),
        ));
    };
    for (key, v) in pairs {
        match key.as_str() {
            "seed" => {
                config.seed = v
                    .as_u64()
                    .ok_or_else(|| ServeError::Config("seed must be a u64".to_owned()))?;
            }
            "fixed" => {
                let k = v
                    .as_u64()
                    .ok_or_else(|| ServeError::Config("fixed must be a u64".to_owned()))?;
                config.policy = ShiftPolicy::Fixed(k as usize);
            }
            "strategy" => {
                let name = v.as_str().unwrap_or_default();
                config.strategy = StrategyId::parse(name)
                    .ok_or_else(|| ServeError::Config(format!("unknown strategy {name:?}")))?;
            }
            "vxor" => {
                if v.as_bool()
                    .ok_or_else(|| ServeError::Config("vxor must be a bool".to_owned()))?
                {
                    config.capture = CaptureTransform::VerticalXor;
                }
            }
            "hxor" => {
                let taps = v
                    .as_u64()
                    .ok_or_else(|| ServeError::Config("hxor must be a u64".to_owned()))?;
                config.observe = ObserveTransform::HorizontalXor(taps as usize);
            }
            "budget" => {
                config.budget = Some(
                    v.as_u64()
                        .ok_or_else(|| ServeError::Config("budget must be a u64".to_owned()))?,
                );
            }
            "threads" => {
                let threads = v
                    .as_u64()
                    .ok_or_else(|| ServeError::Config("threads must be a u64".to_owned()))?;
                config.threads = (threads as usize).max(1);
            }
            other => {
                return Err(ServeError::Config(format!("unknown config key {other:?}")));
            }
        }
    }
    Ok(config)
}
