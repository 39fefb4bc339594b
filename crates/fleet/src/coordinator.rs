//! The fleet coordinator: a daemon that *looks like* one big `tvs serve`.
//!
//! Clients speak the ordinary serve protocol to the coordinator; the
//! coordinator computes each submission's [`ArtifactKey`] exactly the way a
//! worker would (canonicalized bench text + config fingerprint + budget) and
//! places the job on the key's home worker — the first live worker clockwise
//! on the [`Ring`]. Forwarded operations (`status`, `wait`, `fetch`) follow
//! the job to wherever it currently lives.
//!
//! **Retry on worker death.** When a forwarded operation loses its
//! transport, the worker is marked dead and the job is *resubmitted* — same
//! name, same bench text, same config — to the key's next live ring
//! successor. Determinism makes this safe and cheap: the artifact key
//! excludes thread count, the artifact text is a pure function of the key,
//! and when workers share a cache directory the successor resumes from the
//! dead worker's `.tvsnap` checkpoint. A retried job therefore produces the
//! byte-identical artifact the original would have, no matter where (or how
//! often) it is retried. Two clients racing the same dead job may both
//! resubmit; the worker's single-flight table collapses the race.
//!
//! **Lint-gated admission.** Before routing, the coordinator runs its own
//! [`AdmissionGate`] — the type a worker's job table gates with, so the key
//! and the verdict are the worker's by construction: a rejected netlist
//! gets the typed `rejected` error locally — cached per artifact key — and
//! never reaches a worker, and the `lint` op is answered locally by the
//! worker's own [`lint_op`] for the same reason.
//!
//! **One front end.** The accept loop, the request prelude and the drain
//! are [`serve_connections`], the worker daemon's own loop; this file adds
//! only the op handler and the health monitor thread (which keeps it on
//! the SRC003 allowlist).
//!
//! **Busy spillover.** A `busy` refusal means the home worker did *not*
//! admit the job, so trying the next successor cannot start a duplicate
//! run; `busy` reaches the client only when every live worker refuses.
//!
//! Placement and death events are printed one per line
//! (`tvs-fleet: job f1 key 00ab… -> worker 127.0.0.1:7071`) so operators —
//! and the CI smoke test — can map jobs to worker processes.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use std::collections::BTreeMap;

use tvs_core::json::Value;
use tvs_core::{AdmissionGate, ArtifactKey};
use tvs_serve::{config_from_wire, lint_op, serve_connections, stats_report, ServeError, POLL};

use crate::conn::{ConnFailure, WorkerConn};
use crate::error::FleetError;
use crate::health::WorkerSlot;
use crate::ring::Ring;

/// Construction parameters for [`Coordinator::bind`].
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Address to listen on, e.g. `"127.0.0.1:7070"` (`:0` picks a port).
    pub listen: String,
    /// Worker daemon addresses, e.g. `["127.0.0.1:7071", "127.0.0.1:7072"]`.
    pub workers: Vec<String>,
    /// Virtual nodes per worker on the hash ring.
    pub vnodes: usize,
    /// Pause between health-probe sweeps over the workers.
    pub health_interval: Duration,
    /// Connect/read timeout for probes and quick forwarded ops.
    pub probe_timeout: Duration,
    /// Consecutive probe failures that flip a worker dead.
    pub fail_threshold: u32,
    /// Artifact-cache byte cap broadcast to every worker at startup
    /// (0 = leave the workers' own configuration alone).
    pub cache_cap_bytes: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            listen: "127.0.0.1:0".to_owned(),
            workers: Vec::new(),
            vnodes: 64,
            health_interval: Duration::from_millis(500),
            probe_timeout: Duration::from_secs(1),
            fail_threshold: crate::health::DEFAULT_FAIL_THRESHOLD,
            cache_cap_bytes: 0,
        }
    }
}

/// Everything the coordinator remembers about one submission — enough to
/// resubmit it verbatim if its worker dies.
#[derive(Debug, Clone)]
struct FleetJob {
    key: ArtifactKey,
    /// The routing family: shared by every edit of the same design under
    /// the same configuration, so an edited resubmission lands on the
    /// worker whose cache holds the ancestor's manifest (delta reuse).
    family: u64,
    name: String,
    bench: String,
    config_wire: Option<Value>,
    /// The submitting client identity, forwarded verbatim to workers so
    /// per-client admission quotas hold across the fleet.
    client: Option<String>,
    /// Current placement: worker address and that worker's job id.
    worker: String,
    remote: String,
    /// Placement attempts so far (initial placement counts as 1).
    attempts: u32,
}

#[derive(Default)]
struct JobMap {
    jobs: BTreeMap<String, FleetJob>,
    next_id: u64,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Shared fleet state: the ring, the worker slots, and the job map.
struct Fleet {
    ring: Ring,
    slots: Vec<Arc<WorkerSlot>>,
    jobs: Mutex<JobMap>,
    /// The worker's lint admission gate, run here so a deny-level netlist
    /// never burns a worker round-trip.
    gate: AdmissionGate,
    probe_timeout: Duration,
    fail_threshold: u32,
    cache_cap_bytes: u64,
    draining: Arc<AtomicBool>,
}

/// A bound (but not yet serving) coordinator.
pub struct Coordinator {
    listener: TcpListener,
    fleet: Arc<Fleet>,
    health_interval: Duration,
}

impl Coordinator {
    /// Binds the listen socket and builds the ring over `config.workers`.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoWorkers`] when the worker list is empty, otherwise
    /// I/O errors from binding.
    pub fn bind(config: &CoordinatorConfig) -> Result<Coordinator, FleetError> {
        if config.workers.is_empty() {
            return Err(FleetError::NoWorkers {
                workers: 0,
                alive: 0,
            });
        }
        let listener = TcpListener::bind(&config.listen)
            .map_err(|e| ServeError::io(format!("bind {}", config.listen), e))?;
        let mut ring = Ring::new(config.vnodes);
        let mut slots = Vec::new();
        for addr in &config.workers {
            ring.add(addr);
            if !slots.iter().any(|s: &Arc<WorkerSlot>| &s.addr == addr) {
                slots.push(Arc::new(WorkerSlot::new(addr.clone())));
            }
        }
        Ok(Coordinator {
            listener,
            fleet: Arc::new(Fleet {
                ring,
                slots,
                jobs: Mutex::new(JobMap::default()),
                gate: AdmissionGate::new("fleet.rejected", "fleet.rejected_cache_hits"),
                probe_timeout: config.probe_timeout,
                fail_threshold: config.fail_threshold,
                cache_cap_bytes: config.cache_cap_bytes,
                draining: Arc::new(AtomicBool::new(false)),
            }),
            health_interval: config.health_interval,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    ///
    /// Propagates the socket's address lookup failure.
    pub fn local_addr(&self) -> Result<SocketAddr, FleetError> {
        self.listener
            .local_addr()
            .map_err(|e| ServeError::io("local_addr", e).into())
    }

    /// A handle that can trigger a drain from another thread (tests).
    pub fn drain_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.fleet.draining)
    }

    /// Serves until a `shutdown` request (or the drain handle) flips the
    /// draining flag, then lets in-flight forwards finish and returns.
    ///
    /// # Errors
    ///
    /// Only setup failures error; per-connection failures stay contained to
    /// their connection thread, per-worker failures to that worker's slot.
    pub fn run(self) -> Result<(), FleetError> {
        self.fleet.broadcast_cache_cap();
        // The health monitor sleeps between probes: an I/O waiter like the
        // connection threads. Compute happens on the workers.
        let monitor = {
            let fleet = Arc::clone(&self.fleet);
            let interval = self.health_interval;
            std::thread::spawn(move || fleet.monitor(interval))
        };
        let fleet = Arc::clone(&self.fleet);
        let served = serve_connections(
            self.listener,
            &self.fleet.draining,
            move |op, request| fleet.dispatch(op, request).unwrap_or_else(|e| e.to_wire()),
            || {},
        );
        // A setup failure must still stop the monitor before it is joined.
        self.fleet.draining.store(true, Ordering::Release);
        let _ = monitor.join();
        Ok(served?)
    }
}

impl Fleet {
    /// Pushes the configured cache cap to every worker, best effort: a
    /// worker that is down now will keep its own configuration.
    fn broadcast_cache_cap(&self) {
        if self.cache_cap_bytes == 0 {
            return;
        }
        let request = Value::Obj(vec![
            ("op".to_owned(), Value::str("cache-cap")),
            ("bytes".to_owned(), Value::num_u64(self.cache_cap_bytes)),
        ]);
        for slot in &self.slots {
            let sent = WorkerConn::connect(&slot.addr, self.probe_timeout)
                .and_then(|mut c| c.request(&request, Some(self.probe_timeout)));
            if sent.is_ok() {
                println!(
                    "tvs-fleet: worker {} cache cap {} bytes",
                    slot.addr, self.cache_cap_bytes
                );
            }
        }
    }

    fn alive(&self, addr: &str) -> bool {
        self.slot(addr).map(|s| s.is_alive()).unwrap_or(false)
    }

    fn alive_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_alive()).count()
    }

    fn slot(&self, addr: &str) -> Option<&Arc<WorkerSlot>> {
        self.slots.iter().find(|s| s.addr == addr)
    }

    /// Marks `addr` dead from the dispatch path, logging the transition.
    fn note_lost(&self, addr: &str, reason: &str) {
        if let Some(slot) = self.slot(addr) {
            if slot.mark_dead(reason) {
                tvs_exec::counter("fleet.worker_deaths").incr();
                println!("tvs-fleet: worker {addr} dead ({reason})");
            }
        }
    }

    /// One sweep-and-sleep health monitor loop; runs until drain.
    fn monitor(&self, interval: Duration) {
        while !self.draining.load(Ordering::Acquire) {
            for slot in &self.slots {
                if self.draining.load(Ordering::Acquire) {
                    return;
                }
                if !slot.due_for_probe() {
                    continue;
                }
                let result = self.probe(&slot.addr);
                if slot.note_probe(result.clone(), self.fail_threshold) {
                    tvs_exec::counter("fleet.worker_deaths").incr();
                    let reason = result.err().unwrap_or_default();
                    println!("tvs-fleet: worker {} dead ({reason})", slot.addr);
                }
            }
            // Sleep in poll-sized slices so a drain is honored promptly.
            let mut remaining = interval;
            while remaining > Duration::ZERO && !self.draining.load(Ordering::Acquire) {
                let step = remaining.min(POLL);
                std::thread::sleep(step);
                remaining -= step;
            }
        }
    }

    /// One `stats` round-trip to a worker, as a pass/fail probe.
    fn probe(&self, addr: &str) -> Result<(), String> {
        tvs_exec::counter("fleet.probes").incr();
        match self.worker_stats(addr) {
            Ok(_) => Ok(()),
            Err(ConnFailure::Lost(m)) => Err(m),
            // A typed refusal of `stats` (e.g. a version-mismatched worker)
            // means the worker cannot serve this fleet: that is dead too.
            Err(ConnFailure::Refused(e)) => Err(e.to_string()),
        }
    }

    fn worker_stats(&self, addr: &str) -> Result<Value, ConnFailure> {
        let request = Value::Obj(vec![("op".to_owned(), Value::str("stats"))]);
        WorkerConn::connect(addr, self.probe_timeout)?.request(&request, Some(self.probe_timeout))
    }

    /// Executes one client request against the fleet.
    fn dispatch(&self, op: &str, request: &Value) -> Result<Value, FleetError> {
        match op {
            "submit" => self.submit(request),
            "lint" => Ok(lint_op(request)?),
            "status" | "wait" | "fetch" => {
                let job = request
                    .get("job")
                    .and_then(Value::as_str)
                    .ok_or_else(|| ServeError::Protocol("missing \"job\"".to_owned()))?;
                self.forward(op, job)
            }
            "stats" => self.stats(),
            "shutdown" => Ok(self.shutdown()),
            other => Err(ServeError::Protocol(format!("unknown op {other:?}")).into()),
        }
    }

    /// Admits one submission: compute its key locally, place it on the
    /// key's first live ring successor, remember how to replay it.
    fn submit(&self, request: &Value) -> Result<Value, FleetError> {
        if self.draining.load(Ordering::Acquire) {
            return Err(ServeError::Draining.into());
        }
        tvs_exec::counter("fleet.submits").incr();
        let bench_text = request
            .get("bench")
            .and_then(Value::as_str)
            .ok_or_else(|| ServeError::Protocol("submit requires \"bench\"".to_owned()))?;
        let name = request
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("netlist");
        // Reject bad submissions here, before burning a worker round-trip —
        // and compute the routing key the exact way the worker will.
        let config = config_from_wire(request.get("config"))?;
        let (_, identity) = self.gate.admit(name, bench_text, &config)?;
        let key = identity.key;
        let family = identity.family(&config);

        let job = FleetJob {
            key,
            family,
            name: name.to_owned(),
            bench: bench_text.to_owned(),
            config_wire: request.get("config").cloned(),
            client: request
                .get("client")
                .and_then(Value::as_str)
                .map(str::to_owned),
            worker: String::new(),
            remote: String::new(),
            attempts: 0,
        };
        let (placed, admission) = self.place(&job, None)?;

        let (id, worker) = {
            let mut map = lock(&self.jobs);
            map.next_id += 1;
            let id = format!("f{}", map.next_id);
            let mut job = job;
            job.worker = placed.0;
            job.remote = placed.1;
            job.attempts = 1;
            let worker = job.worker.clone();
            println!("tvs-fleet: job {id} key {key} -> worker {worker}");
            map.jobs.insert(id.clone(), job);
            (id, worker)
        };
        Ok(Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("job".into(), Value::str(id)),
            ("admission".into(), Value::str(admission)),
            ("key".into(), Value::str(key.to_string())),
            ("worker".into(), Value::str(worker)),
        ]))
    }

    /// Tries the job family's ring successors in order until one accepts
    /// the submission. Returns `((worker, remote_id), admission)`.
    ///
    /// Routing hashes the *family* (interface signature + configuration),
    /// not the artifact key: every edit of one design homes to the same
    /// worker, whose cache holds the ancestor manifests a delta run needs.
    fn place(
        &self,
        job: &FleetJob,
        skip: Option<&str>,
    ) -> Result<((String, String), String), FleetError> {
        let mut request = vec![
            ("op".to_owned(), Value::str("submit")),
            ("name".to_owned(), Value::str(job.name.clone())),
            ("bench".to_owned(), Value::str(job.bench.clone())),
        ];
        if let Some(config) = &job.config_wire {
            request.push(("config".to_owned(), config.clone()));
        }
        if let Some(client) = &job.client {
            request.push(("client".to_owned(), Value::str(client.clone())));
        }
        let request = Value::Obj(request);

        let mut last_refusal: Option<ServeError> = None;
        for addr in self.ring.successors(job.family) {
            if Some(addr) == skip || !self.alive(addr) {
                continue;
            }
            let outcome = WorkerConn::connect(addr, self.probe_timeout)
                .and_then(|mut c| c.request(&request, Some(self.probe_timeout)));
            match outcome {
                Ok(response) => {
                    let remote = response
                        .get("job")
                        .and_then(Value::as_str)
                        .ok_or_else(|| {
                            ServeError::Protocol("worker submit response lacks \"job\"".to_owned())
                        })?
                        .to_owned();
                    let admission = response
                        .get("admission")
                        .and_then(Value::as_str)
                        .unwrap_or("miss")
                        .to_owned();
                    if let Some(slot) = self.slot(addr) {
                        slot.note_routed();
                    }
                    return Ok(((addr.to_owned(), remote), admission));
                }
                Err(ConnFailure::Lost(reason)) => {
                    self.note_lost(addr, &reason);
                }
                // Not admitted there — the next successor cannot duplicate.
                Err(ConnFailure::Refused(e @ ServeError::Busy { .. }))
                | Err(ConnFailure::Refused(e @ ServeError::Draining)) => {
                    tvs_exec::counter("fleet.spills").incr();
                    last_refusal = Some(e);
                }
                Err(ConnFailure::Refused(e)) => return Err(e.into()),
            }
        }
        match last_refusal {
            Some(e) => Err(e.into()),
            None => Err(FleetError::NoWorkers {
                workers: self.slots.len(),
                alive: self.alive_count(),
            }),
        }
    }

    /// Forwards `status`/`wait`/`fetch` to the job's worker, replaying the
    /// submission on a ring successor every time the placement dies.
    fn forward(&self, op: &str, fleet_id: &str) -> Result<Value, FleetError> {
        // Each worker gets at most two shots (pre- and post-death marking)
        // before the job is declared abandoned.
        let max_attempts = (self.slots.len() as u32).saturating_mul(2).max(2);
        loop {
            let (job, slot) = {
                let map = lock(&self.jobs);
                let job = map
                    .jobs
                    .get(fleet_id)
                    .ok_or_else(|| ServeError::UnknownJob(fleet_id.to_owned()))?
                    .clone();
                let slot = self.slot(&job.worker).cloned();
                (job, slot)
            };
            if job.attempts > max_attempts {
                return Err(FleetError::JobAbandoned {
                    job: fleet_id.to_owned(),
                    attempts: job.attempts,
                });
            }
            let request = Value::Obj(vec![
                ("op".to_owned(), Value::str(op)),
                ("job".to_owned(), Value::str(job.remote.clone())),
            ]);
            let outcome =
                WorkerConn::connect(&job.worker, self.probe_timeout).and_then(|mut conn| {
                    if op == "status" {
                        conn.request(&request, Some(self.probe_timeout))
                    } else {
                        // `wait`/`fetch` block for the duration of the run;
                        // the health monitor marking the worker dead (or a
                        // drain) breaks the block so the retry path runs.
                        let interrupted = || match &slot {
                            Some(s) => !s.is_alive(),
                            None => true,
                        };
                        conn.request_until(&request, &interrupted)
                    }
                });
            // A restarted worker is alive but just proved it no longer
            // holds this job's state: skip it when replaying. A lost
            // transport instead marks the worker dead, which the `place`
            // liveness filter already excludes.
            let skip_old = match outcome {
                Ok(response) => return Ok(response),
                Err(ConnFailure::Refused(ServeError::UnknownJob(_))) => true,
                Err(ConnFailure::Refused(e)) => return Err(e.into()),
                Err(ConnFailure::Lost(reason)) => {
                    self.note_lost(&job.worker, &reason);
                    false
                }
            };
            // Replay the submission on the next live successor.
            tvs_exec::counter("fleet.retries").incr();
            let skip = skip_old.then_some(job.worker.as_str());
            let (placed, _admission) = self.place(&job, skip)?;
            let mut map = lock(&self.jobs);
            if let Some(entry) = map.jobs.get_mut(fleet_id) {
                // A racing forward may have replayed first; adopt the newer
                // placement only if ours is still the recorded (dead) one.
                if entry.worker == job.worker && entry.remote == job.remote {
                    entry.worker = placed.0.clone();
                    entry.remote = placed.1.clone();
                    entry.attempts += 1;
                    println!(
                        "tvs-fleet: job {fleet_id} key {} retry -> worker {}",
                        entry.key, entry.worker
                    );
                }
            }
        }
    }

    /// The fleet-wide `stats` document: the coordinator's own counter
    /// report (`fleet.*`), coordinator gauges, per-worker health + live
    /// worker stats, and counter totals across the fleet.
    fn stats(&self) -> Result<Value, FleetError> {
        let report = stats_report()?;
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        let mut workers = Vec::new();
        for slot in &self.slots {
            let snap = slot.snapshot();
            let mut entry = vec![
                ("addr".to_owned(), Value::str(slot.addr.clone())),
                ("alive".to_owned(), Value::Bool(snap.alive)),
                ("deaths".to_owned(), Value::num_u64(snap.deaths)),
                ("jobs_routed".to_owned(), Value::num_u64(snap.jobs_routed)),
                ("probes".to_owned(), Value::num_u64(snap.probes)),
            ];
            if let Some(error) = &snap.last_error {
                entry.push(("last_error".to_owned(), Value::str(error.clone())));
            }
            match self.worker_stats(&slot.addr) {
                Ok(response) => {
                    if let Some(Value::Obj(counters)) =
                        response.get("stats").and_then(|s| s.get("counters"))
                    {
                        for (name, v) in counters {
                            if let (Some(short), Some(n)) =
                                (name.strip_prefix("serve."), v.as_u64())
                            {
                                *totals.entry(short.to_owned()).or_insert(0) += n;
                            }
                            // Cache-hygiene and delta-reuse counters keep
                            // their full dotted names in the fleet totals.
                            if let (true, Some(n)) = (
                                name.starts_with("cache.") || name.starts_with("delta."),
                                v.as_u64(),
                            ) {
                                *totals.entry(name.clone()).or_insert(0) += n;
                            }
                        }
                    }
                    if let Some(stats) = response.get("stats") {
                        entry.push(("stats".to_owned(), stats.clone()));
                    }
                    if let Some(server) = response.get("server") {
                        entry.push(("server".to_owned(), server.clone()));
                    }
                }
                Err(_) => entry.push(("stats".to_owned(), Value::Null)),
            }
            workers.push(Value::Obj(entry));
        }
        let map = lock(&self.jobs);
        let deaths: u64 = self.slots.iter().map(|s| s.snapshot().deaths).sum();
        Ok(Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("stats".into(), report),
            (
                "fleet".into(),
                Value::Obj(vec![
                    ("workers".into(), Value::num_u64(self.slots.len() as u64)),
                    ("alive".into(), Value::num_u64(self.alive_count() as u64)),
                    ("jobs_issued".into(), Value::num_u64(map.next_id)),
                    ("worker_deaths".into(), Value::num_u64(deaths)),
                    ("vnodes".into(), Value::num_u64(self.ring.vnodes() as u64)),
                    (
                        "draining".into(),
                        Value::Bool(self.draining.load(Ordering::Acquire)),
                    ),
                ]),
            ),
            (
                "totals".into(),
                Value::Obj(
                    totals
                        .into_iter()
                        .map(|(k, v)| (k, Value::num_u64(v)))
                        .collect(),
                ),
            ),
            ("workers".into(), Value::Arr(workers)),
        ]))
    }

    /// Flips the draining flag and broadcasts `shutdown` to every live
    /// worker (best effort — a dead worker has nothing to drain).
    fn shutdown(&self) -> Value {
        self.draining.store(true, Ordering::Release);
        let request = Value::Obj(vec![("op".to_owned(), Value::str("shutdown"))]);
        let mut notified = 0u64;
        for slot in &self.slots {
            if !slot.is_alive() {
                continue;
            }
            let sent = WorkerConn::connect(&slot.addr, self.probe_timeout)
                .and_then(|mut c| c.request(&request, Some(self.probe_timeout)));
            if sent.is_ok() {
                notified += 1;
            }
        }
        Value::Obj(vec![
            ("ok".into(), Value::Bool(true)),
            ("draining".into(), Value::Bool(true)),
            ("workers_notified".into(), Value::num_u64(notified)),
        ])
    }
}
