//! Job admission, single-flight deduplication and artifact production.
//!
//! A [`JobTable`] sits between the protocol layer and the
//! [`tvs_exec::JobQueue`]. Every submission resolves to an
//! [`ArtifactKey`]; the table guarantees that at any moment **at most one
//! engine run per key is in flight**, no matter how many clients submit the
//! same circuit concurrently:
//!
//! 1. a live job for the key → the caller is attached to it (a *dedup hit*;
//!    `JobHandle`s are cloneable, all waiters share one result);
//! 2. a stored artifact for the key → a pre-resolved job is issued without
//!    touching the queue (a *cache hit*);
//! 3. otherwise the run is admitted to the bounded queue (or rejected with
//!    [`CoreError::Busy`]) and its artifact is persisted on completion.
//!
//! Submissions are **lint-gated** by the table's [`AdmissionGate`]: before
//! a fresh engine run is admitted, the structural design rules and the
//! testability dataflow run over the parsed netlist, and any deny-level
//! finding rejects the job with [`CoreError::Rejected`] carrying the
//! diagnostics as JSON — no engine run starts, and the verdict is cached
//! per key so identical resubmissions are rejected without re-analysis.
//!
//! Submissions are **delta-aware**: a cache miss searches the store for the
//! nearest cached ancestor manifest (same interface and configuration, most
//! shared cone hashes) and derives a prescreen replay plan from it — clean
//! faults reuse the ancestor's verdicts verbatim, dirty ones recompute — and
//! every successful run persists its own cone manifest sidecar for future
//! edits to diff against. Replay changes where prescreen verdicts come from,
//! never their values, so a delta run's artifact is byte-identical to a cold
//! run's. Any manifest defect falls back to a cold run.
//!
//! Per-client **admission quotas** (opt-in via [`JobTable::with_client_quota`])
//! bound the in-flight engine runs any one client identity can hold; cache,
//! dedup and rejection hits are never charged against the quota.
//!
//! Counters: `serve.submits`, `serve.engine_runs`, `serve.cache_hits`,
//! `serve.dedup_hits`, `serve.rejected`, `serve.rejected_cache_hits`,
//! `serve.jobs_failed`, `serve.quota_rejected`, `delta.faults_reused`,
//! `delta.cones_dirty`, `delta.plans`, `delta.manifest_rejected` — all
//! through tvs-exec's stats layer so `tvs serve`'s `stats` op and
//! `tvs run --stats` read one ledger.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use std::collections::BTreeMap;

use tvs_delta::{plan_for, ConeManifest};
use tvs_exec::{JobHandle, JobQueue, QueueFull};
use tvs_netlist::Netlist;
use tvs_stitch::{
    PrescreenRecord, PrescreenTrace, RunOptions, RunProgress, Snapshot, StitchConfig, StitchEngine,
    StitchReport, Termination,
};

use crate::cache::{AdmissionGate, ArtifactKey, ArtifactStore, SubmissionIdentity};
use crate::error::CoreError;
use crate::json::Value;

/// The result a job resolves to: the artifact JSON text, or the engine's
/// error rendered for the wire.
pub type JobResult = Result<String, String>;

/// Lock-free progress cells a running job publishes and `status` reads.
#[derive(Debug, Default)]
pub struct ProgressCells {
    /// 0 = queued, 1 = running (set by the worker when the closure starts).
    started: AtomicUsize,
    cycle: AtomicUsize,
    caught: AtomicUsize,
    hidden: AtomicUsize,
    uncaught: AtomicUsize,
}

/// A point-in-time view of one job, the payload of `status`/`wait`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobStatus {
    /// `"queued"`, `"running"`, `"done"` or `"failed"`.
    pub state: &'static str,
    /// The job's artifact key.
    pub key: ArtifactKey,
    /// Cycles applied so far.
    pub cycle: usize,
    /// `|f_c|` so far.
    pub caught: usize,
    /// `|f_h|` so far.
    pub hidden: usize,
    /// `|f_u|` so far.
    pub uncaught: usize,
    /// The failure message when `state == "failed"`.
    pub error: Option<String>,
}

struct JobEntry {
    key: ArtifactKey,
    handle: JobHandle<JobResult>,
    progress: Arc<ProgressCells>,
}

#[derive(Default)]
struct TableInner {
    jobs: BTreeMap<String, JobEntry>,
    /// Live (not yet finished) job per key — the single-flight index.
    by_key: BTreeMap<u64, String>,
    /// Engine runs in flight per client identity (quota accounting).
    in_flight: BTreeMap<String, usize>,
    next_id: u64,
}

/// How a submission was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// A fresh engine run was admitted to the queue.
    Miss,
    /// Served from the on-disk artifact store.
    CacheHit,
    /// Attached to an identical in-flight run.
    DedupHit,
}

impl Admission {
    /// The wire spelling (`"miss"`, `"cache-hit"`, `"dedup-hit"`).
    pub fn as_str(&self) -> &'static str {
        match self {
            Admission::Miss => "miss",
            Admission::CacheHit => "cache-hit",
            Admission::DedupHit => "dedup-hit",
        }
    }
}

/// The job table: admission control + single-flight + artifact persistence.
pub struct JobTable {
    queue: JobQueue<JobResult>,
    store: ArtifactStore,
    gate: AdmissionGate,
    inner: Arc<Mutex<TableInner>>,
    /// Cycles between checkpoint snapshots while a job runs (0 = never).
    checkpoint_every: usize,
    /// Max in-flight engine runs per client identity (0 = unlimited).
    client_quota: usize,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panicking job closure cannot leave shared state inconsistent: every
    // mutation below is a single map insert/remove.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl JobTable {
    /// Creates a table executing on `workers` threads with an admission
    /// bound of `capacity` open jobs, persisting artifacts to `store`.
    pub fn new(
        workers: usize,
        capacity: usize,
        checkpoint_every: usize,
        store: ArtifactStore,
    ) -> JobTable {
        JobTable {
            queue: JobQueue::new(workers, capacity),
            store,
            gate: AdmissionGate::new("serve.rejected", "serve.rejected_cache_hits"),
            inner: Arc::new(Mutex::new(TableInner::default())),
            checkpoint_every,
            client_quota: 0,
        }
    }

    /// Caps the in-flight engine runs any single client identity may hold
    /// (0 = unlimited). Anonymous submissions are exempt; cache, dedup and
    /// rejection hits never count against the quota.
    pub fn with_client_quota(mut self, quota: usize) -> JobTable {
        self.client_quota = quota;
        self
    }

    /// The artifact store backing this table.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// Open (admitted, unfinished) jobs in the queue.
    pub fn open_jobs(&self) -> usize {
        self.queue.open_jobs()
    }

    /// The queue's admission bound.
    pub fn capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Total jobs issued since startup (all admission paths).
    pub fn jobs_issued(&self) -> u64 {
        lock(&self.inner).next_id
    }

    /// Blocks until every admitted job has finished.
    pub fn drain(&self) {
        self.queue.drain();
    }

    /// Submits `.bench` source for compression under `config`, optionally
    /// on behalf of a named `client` (quota accounting).
    ///
    /// Returns the issued job id and how the submission was satisfied.
    ///
    /// # Errors
    ///
    /// [`CoreError::Netlist`] when the source does not parse,
    /// [`CoreError::Rejected`] when deny-level lint findings block
    /// admission (structural builder errors and design-rule violations
    /// alike; the diagnostics ride along as JSON),
    /// [`CoreError::Busy`] when the queue is at capacity,
    /// [`CoreError::QuotaExceeded`] when the client is at its in-flight
    /// limit, and I/O errors from the artifact store.
    pub fn submit(
        &self,
        name: &str,
        bench_text: &str,
        config: StitchConfig,
        client: Option<&str>,
    ) -> Result<(String, Admission), CoreError> {
        tvs_exec::counter("serve.submits").incr();
        let (netlist, identity) = self.gate.admit(name, bench_text, &config)?;
        let key = identity.key;

        // Fast path checks happen under the table lock so two identical
        // submissions cannot both decide to start an engine run.
        if let Some(hit) = self.fast_path(&mut lock(&self.inner), key)? {
            return Ok(hit);
        }

        // A genuine miss: search the store for the nearest ancestor
        // manifest and derive the prescreen replay plan — outside the
        // lock, since support hashing is real work.
        let plan = self.delta_plan(&identity, &netlist, &config);

        let mut inner = lock(&self.inner);
        // An identical submission may have raced ahead while manifests
        // were being diffed; single-flight still holds because this check
        // and the enqueue below share one critical section.
        if let Some(hit) = self.fast_path(&mut inner, key)? {
            return Ok(hit);
        }

        if self.client_quota > 0 {
            if let Some(client) = client {
                let open = inner.in_flight.get(client).copied().unwrap_or(0);
                if open >= self.client_quota {
                    tvs_exec::counter("serve.quota_rejected").incr();
                    return Err(CoreError::QuotaExceeded {
                        client: client.to_owned(),
                        open,
                        limit: self.client_quota,
                    });
                }
            }
        }

        let id = next_id(&mut inner);
        let progress = Arc::new(ProgressCells::default());
        let resume = self.store.load_snapshot(key)?;
        let closure_progress = Arc::clone(&progress);
        let closure_inner = Arc::clone(&self.inner);
        let closure_store = self.store.clone();
        let closure_id = id.clone();
        let closure_client = if self.client_quota > 0 {
            client.map(str::to_owned)
        } else {
            None
        };
        let checkpoint_every = self.checkpoint_every;
        let handle = self
            .queue
            .submit(move || {
                let result = run_job(
                    &netlist,
                    &config,
                    key,
                    resume,
                    plan,
                    checkpoint_every,
                    &closure_store,
                    &closure_progress,
                );
                // Retire the single-flight entry: later identical submissions
                // must consult the artifact store, not a finished handle.
                let mut inner = lock(&closure_inner);
                if let Some(client) = &closure_client {
                    if let Some(open) = inner.in_flight.get_mut(client) {
                        *open = open.saturating_sub(1);
                        if *open == 0 {
                            inner.in_flight.remove(client);
                        }
                    }
                }
                if inner.by_key.get(&key.0) == Some(&closure_id) {
                    inner.by_key.remove(&key.0);
                }
                result
            })
            .map_err(|QueueFull { open, capacity }| {
                // Roll back: the id was minted but no job exists under it.
                CoreError::Busy { open, capacity }
            })?;
        if self.client_quota > 0 {
            if let Some(client) = client {
                *inner.in_flight.entry(client.to_owned()).or_insert(0) += 1;
            }
        }
        inner.by_key.insert(key.0, id.clone());
        inner.jobs.insert(
            id.clone(),
            JobEntry {
                key,
                handle,
                progress,
            },
        );
        Ok((id, Admission::Miss))
    }

    /// The dedup and cache-hit fast paths, evaluated under the caller's
    /// table lock.
    fn fast_path(
        &self,
        inner: &mut TableInner,
        key: ArtifactKey,
    ) -> Result<Option<(String, Admission)>, CoreError> {
        if let Some(existing) = inner.by_key.get(&key.0) {
            let id = existing.clone();
            if inner.jobs.contains_key(&id) {
                tvs_exec::counter("serve.dedup_hits").incr();
                return Ok(Some((id, Admission::DedupHit)));
            }
        }
        if let Some(artifact) = self.store.load(key)? {
            tvs_exec::counter("serve.cache_hits").incr();
            let id = next_id(inner);
            let progress = Arc::new(ProgressCells::default());
            progress.started.store(1, Ordering::Release);
            inner.jobs.insert(
                id.clone(),
                JobEntry {
                    key,
                    handle: JobHandle::ready(Ok(artifact)),
                    progress,
                },
            );
            return Ok(Some((id, Admission::CacheHit)));
        }
        Ok(None)
    }

    /// Searches the store for the nearest cached ancestor and derives the
    /// prescreen replay plan. Every failure mode — no scan view, no
    /// ancestor, unreadable store, mismatching or forged manifest — is a
    /// cold run, never an error: reuse is an optimization, not a contract.
    fn delta_plan(
        &self,
        identity: &SubmissionIdentity,
        netlist: &Netlist,
        config: &StitchConfig,
    ) -> Option<Vec<Option<PrescreenRecord>>> {
        let (interface_sig, cones) = match (identity.interface_sig, identity.cones.as_ref()) {
            (Some(sig), Some(cones)) => (sig, cones),
            _ => return None,
        };
        let fingerprint = config.fingerprint();
        let (_, manifest) = self
            .store
            .find_ancestor(interface_sig, fingerprint, cones, identity.key)
            .ok()
            .flatten()?;
        match plan_for(&manifest, netlist, fingerprint) {
            Ok(plan) => {
                tvs_exec::counter("delta.plans").incr();
                tvs_exec::counter("delta.cones_dirty").add(plan.cones_dirty as u64);
                Some(plan.plan)
            }
            Err(_) => {
                tvs_exec::counter("delta.manifest_rejected").incr();
                None
            }
        }
    }

    /// A point-in-time status of `job_id`.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownJob`] for ids this table never issued.
    pub fn status(&self, job_id: &str) -> Result<JobStatus, CoreError> {
        let inner = lock(&self.inner);
        let entry = inner
            .jobs
            .get(job_id)
            .ok_or_else(|| CoreError::UnknownJob(job_id.to_owned()))?;
        Ok(entry_status(entry))
    }

    /// Blocks until `job_id` finishes, then returns its final status.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownJob`] for ids this table never issued.
    pub fn wait(&self, job_id: &str) -> Result<JobStatus, CoreError> {
        let (handle, entry_snapshot) = {
            let inner = lock(&self.inner);
            let entry = inner
                .jobs
                .get(job_id)
                .ok_or_else(|| CoreError::UnknownJob(job_id.to_owned()))?;
            (
                entry.handle.clone(),
                (entry.key, Arc::clone(&entry.progress)),
            )
        };
        // Block outside the table lock — other clients keep submitting.
        let _ = handle.wait();
        let (key, progress) = entry_snapshot;
        Ok(entry_status(&JobEntry {
            key,
            handle,
            progress,
        }))
    }

    /// Blocks until `job_id` finishes and returns its artifact JSON text.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownJob`] for unknown ids, [`CoreError::JobFailed`]
    /// when the engine run failed.
    pub fn fetch(&self, job_id: &str) -> Result<Arc<String>, CoreError> {
        let handle = {
            let inner = lock(&self.inner);
            inner
                .jobs
                .get(job_id)
                .map(|e| e.handle.clone())
                .ok_or_else(|| CoreError::UnknownJob(job_id.to_owned()))?
        };
        match handle.wait() {
            Ok(result) => match result.as_ref() {
                Ok(artifact) => Ok(Arc::new(artifact.clone())),
                Err(message) => Err(CoreError::JobFailed(message.clone())),
            },
            Err(panic) => Err(CoreError::JobFailed(panic.to_string())),
        }
    }
}

fn next_id(inner: &mut TableInner) -> String {
    inner.next_id += 1;
    format!("j{}", inner.next_id)
}

fn entry_status(entry: &JobEntry) -> JobStatus {
    let p = &entry.progress;
    let (state, error) = match entry.handle.try_get() {
        Some(Ok(result)) => match result.as_ref() {
            Ok(_) => ("done", None),
            Err(message) => ("failed", Some(message.clone())),
        },
        Some(Err(panic)) => ("failed", Some(panic.to_string())),
        None if p.started.load(Ordering::Acquire) == 1 => ("running", None),
        None => ("queued", None),
    };
    JobStatus {
        state,
        key: entry.key,
        cycle: p.cycle.load(Ordering::Acquire),
        caught: p.caught.load(Ordering::Acquire),
        hidden: p.hidden.load(Ordering::Acquire),
        uncaught: p.uncaught.load(Ordering::Acquire),
        error,
    }
}

/// Executes one engine run end to end: resume-or-cold stitch (with an
/// optional prescreen replay plan), artifact rendering, persistence,
/// checkpoint cleanup, manifest sidecar emission.
#[allow(clippy::too_many_arguments)]
fn run_job(
    netlist: &Netlist,
    config: &StitchConfig,
    key: ArtifactKey,
    resume_text: Option<String>,
    plan: Option<Vec<Option<PrescreenRecord>>>,
    checkpoint_every: usize,
    store: &ArtifactStore,
    progress: &ProgressCells,
) -> JobResult {
    progress.started.store(1, Ordering::Release);
    tvs_exec::counter("serve.engine_runs").incr();
    let (report, trace) = match run_engine(
        netlist,
        config,
        resume_text,
        plan,
        checkpoint_every,
        store,
        key,
        progress,
    ) {
        Ok(outcome) => outcome,
        Err(message) => {
            tvs_exec::counter("serve.jobs_failed").incr();
            return Err(message);
        }
    };
    let artifact = render_artifact(netlist, &report, config, key).to_text();
    if let Err(e) = store.store(key, &artifact) {
        tvs_exec::counter("serve.jobs_failed").incr();
        return Err(e.to_string());
    }
    // Persist the cone manifest so future edits can diff against this run.
    // Best-effort: a failed sidecar write costs future reuse, never
    // correctness. Resumed runs skip the prescreen and emit no trace.
    if let Some(trace) = trace {
        tvs_exec::counter("delta.faults_reused").add(trace.reused as u64);
        if let Ok(manifest) = ConeManifest::build(netlist, config.fingerprint(), &trace.records) {
            if store.store_manifest(key, &manifest.to_text()).is_err() {
                tvs_exec::counter("delta.manifest_write_failed").incr();
            }
        }
    }
    if let Err(e) = store.remove_snapshot(key) {
        // The artifact is already final; a stale snapshot only costs disk.
        tvs_exec::counter("serve.snapshot_cleanup_failed").incr();
        let _ = e;
    }
    Ok(artifact)
}

#[allow(clippy::too_many_arguments)]
fn run_engine(
    netlist: &Netlist,
    config: &StitchConfig,
    resume_text: Option<String>,
    plan: Option<Vec<Option<PrescreenRecord>>>,
    checkpoint_every: usize,
    store: &ArtifactStore,
    key: ArtifactKey,
    progress: &ProgressCells,
) -> Result<(StitchReport, Option<PrescreenTrace>), String> {
    let engine = StitchEngine::new(netlist).map_err(|e| e.to_string())?;
    let resume = resume_text.and_then(|text| Snapshot::parse(&text).ok());
    let resumed = resume.is_some();

    let mut trace = None;
    let mut on_prescreen = |t: PrescreenTrace| trace = Some(t);
    let mut on_progress = |p: RunProgress| {
        progress.cycle.store(p.cycle, Ordering::Release);
        progress.caught.store(p.caught, Ordering::Release);
        progress.hidden.store(p.hidden, Ordering::Release);
        progress.uncaught.store(p.uncaught, Ordering::Release);
    };
    let mut on_checkpoint = |snap: Snapshot| {
        // Checkpoint persistence is best-effort: a failed write costs crash
        // resumability, never correctness.
        if store.store_snapshot(key, &snap.to_text()).is_err() {
            tvs_exec::counter("serve.checkpoint_write_failed").incr();
        }
    };
    let attempt = engine.run_with(
        config,
        RunOptions {
            resume,
            checkpoint_every,
            on_checkpoint: Some(&mut on_checkpoint),
            on_progress: Some(&mut on_progress),
            prescreen_plan: plan.clone(),
            on_prescreen: Some(&mut on_prescreen),
        },
    );
    match attempt {
        Ok(report) => Ok((report, trace)),
        // A stale or incompatible on-disk checkpoint (e.g. from an older
        // config sharing the key by collision) must not fail the job: fall
        // back to a cold run.
        Err(tvs_stitch::StitchError::Snapshot(_)) if resumed => {
            tvs_exec::counter("serve.snapshot_rejected").incr();
            let mut trace = None;
            let mut on_prescreen = |t: PrescreenTrace| trace = Some(t);
            let mut on_progress = |p: RunProgress| {
                progress.cycle.store(p.cycle, Ordering::Release);
                progress.caught.store(p.caught, Ordering::Release);
                progress.hidden.store(p.hidden, Ordering::Release);
                progress.uncaught.store(p.uncaught, Ordering::Release);
            };
            let mut on_checkpoint = |snap: Snapshot| {
                if store.store_snapshot(key, &snap.to_text()).is_err() {
                    tvs_exec::counter("serve.checkpoint_write_failed").incr();
                }
            };
            engine
                .run_with(
                    config,
                    RunOptions {
                        resume: None,
                        checkpoint_every,
                        on_checkpoint: Some(&mut on_checkpoint),
                        on_progress: Some(&mut on_progress),
                        prescreen_plan: plan,
                        on_prescreen: Some(&mut on_prescreen),
                    },
                )
                .map(|report| (report, trace))
                .map_err(|e| e.to_string())
        }
        Err(e) => Err(e.to_string()),
    }
}

/// Renders the artifact document: identity, Table 2–5 metrics, and the full
/// tester program. The rendering is a pure function of the report, which is
/// itself bit-identical at any thread count — so the artifact text is too.
pub fn render_artifact(
    netlist: &Netlist,
    report: &StitchReport,
    config: &StitchConfig,
    key: ArtifactKey,
) -> Value {
    let program = tvs_ate::TestProgram::from_report(netlist, report, config);
    let m = &report.metrics;
    let (entered, converted, erased) = report.hidden_transitions;
    let termination = match &report.termination {
        Termination::Complete => "complete",
        Termination::BudgetExhausted { .. } => "budget-exhausted",
        Termination::WorkerPanic { .. } => "worker-panic",
    };
    let metrics = Value::Obj(vec![
        ("tv".into(), Value::num_u64(m.stitched_vectors as u64)),
        ("ex".into(), Value::num_u64(m.extra_vectors as u64)),
        ("atv".into(), Value::num_u64(m.baseline_vectors as u64)),
        ("m".into(), Value::num_f64(m.memory_ratio)),
        ("t".into(), Value::num_f64(m.time_ratio)),
        ("coverage".into(), Value::num_f64(m.fault_coverage)),
        ("cycles".into(), Value::num_u64(report.cycles.len() as u64)),
        (
            "final_flush".into(),
            Value::num_u64(report.final_flush as u64),
        ),
        ("hidden_entered".into(), Value::num_u64(entered as u64)),
        ("hidden_converted".into(), Value::num_u64(converted as u64)),
        ("hidden_erased".into(), Value::num_u64(erased as u64)),
        ("termination".into(), Value::str(termination)),
    ]);
    Value::Obj(vec![
        ("key".into(), Value::str(key.to_string())),
        ("circuit".into(), Value::str(netlist.name())),
        (
            "config_fingerprint".into(),
            Value::str(format!("{:016x}", config.fingerprint())),
        ),
        ("metrics".into(), metrics),
        ("program".into(), Value::str(program.to_text())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(tag: &str) -> JobTable {
        let dir =
            std::env::temp_dir().join(format!("tvs-core-admit-{}-{}", tag, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        JobTable::new(1, 4, 0, ArtifactStore::open(&dir).unwrap())
    }

    #[test]
    fn cyclic_netlist_is_rejected_with_diagnostics_then_served_from_cache() {
        let table = table("cyclic");
        let bench = "INPUT(a)\nOUTPUT(y)\nb = AND(a, c)\nc = NOT(b)\ny = AND(a, b)\n";
        let config = StitchConfig::default();
        match table.submit("cyclic", bench, config.clone(), None) {
            Err(CoreError::Rejected {
                diagnostics,
                cached,
            }) => {
                assert!(!cached, "first verdict must be fresh");
                assert!(diagnostics.contains("IR004"), "{diagnostics}");
                assert!(diagnostics.contains("\"deny\":1"), "{diagnostics}");
            }
            other => panic!("expected lint rejection, got {other:?}"),
        }
        match table.submit("cyclic", bench, config, None) {
            Err(CoreError::Rejected { cached, .. }) => {
                assert!(cached, "resubmission must hit the rejection cache");
            }
            other => panic!("expected cached rejection, got {other:?}"),
        }
        // No job was ever issued for the rejected submissions.
        assert_eq!(table.jobs_issued(), 0);
    }

    #[test]
    fn syntax_errors_keep_the_plain_netlist_error_path() {
        let table = table("syntax");
        match table.submit("bad", "this is not bench\n", StitchConfig::default(), None) {
            Err(CoreError::Netlist(message)) => {
                assert!(message.contains("parse error"), "{message}");
            }
            other => panic!("expected a netlist parse error, got {other:?}"),
        }
    }
}
