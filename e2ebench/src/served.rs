//! The served-mix workload: an in-process daemon on loopback, driven by
//! closed-loop clients over the wire protocol.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use tvs_ate::TestProgram;
use tvs_fault::FaultList;
use tvs_netlist::{bench, GateKind, Netlist};
use tvs_serve::json::{self, Value};
use tvs_serve::{Client, Server, ServerConfig};

use crate::metrics::{Outcome, Values, PER_LAYER};
use crate::oracle;
use crate::schedule::{served_schedule, Kind, Step};
use crate::stats::{highest_tail_percentile, mean, median, peak_rss_mib, percentile};
use crate::trace::hottest;
use crate::{timed_setups, Args};

/// Base circuits of the mix.
pub const CIRCUITS: &[&str] = &["s444", "s526", "s641", "s953"];
/// Requests per pass, over all clients.
pub const REQUESTS: usize = 100;
/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Daemon worker threads. Jobs run single-threaded, so the daemon never
/// computes on more threads than the two-core reference machine has.
pub const WORKERS: usize = 2;
/// Where each pass's fresh artifact cache lives, under the working
/// directory.
pub const WORK_DIR: &str = ".bench_work";

/// One submission key a client owns.
#[derive(Debug)]
struct Key {
    name: &'static str,
    text: String,
    config_seed: u64,
}

/// The mix, fully materialized before timing starts.
#[derive(Debug)]
pub struct Setup {
    schedule: Vec<Vec<Step>>,
    /// Per client, the texts of its keys in creation order.
    keys: Vec<Vec<Key>>,
    /// Collapsed faults over every edited key (the delta-reuse
    /// denominator).
    edit_faults: u64,
}

/// The same-arity dual an edit flips a gate to.
fn dual(kind: GateKind) -> Option<GateKind> {
    Some(match kind {
        GateKind::And => GateKind::Or,
        GateKind::Or => GateKind::And,
        GateKind::Nand => GateKind::Nor,
        GateKind::Nor => GateKind::Nand,
        GateKind::Xor => GateKind::Xnor,
        GateKind::Xnor => GateKind::Xor,
        _ => return None,
    })
}

/// Flips one gate of `parent` to its dual, starting the search at gate
/// `pick`, such that the result is admissible and differs from every text
/// in `taken`.
fn edit(name: &str, parent: &str, pick: u64, taken: &[&str]) -> Result<(String, Netlist), String> {
    let netlist = bench::parse(name, parent).map_err(|e| e.to_string())?;
    let flippable: Vec<_> = netlist
        .gate_ids()
        .filter(|&id| dual(netlist.gate(id).kind()).is_some())
        .collect();
    let n = flippable.len();
    for off in 0..n {
        let id = flippable[(pick as usize % n + off) % n];
        let kind = netlist.gate(id).kind();
        let Some(to) = dual(kind) else { continue };
        let gate = netlist.gate_name(id);
        let text = parent.replacen(
            &format!("\n{gate} = {}(", kind.keyword()),
            &format!("\n{gate} = {}(", to.keyword()),
            1,
        );
        if text == parent || taken.contains(&text.as_str()) {
            continue;
        }
        let Ok(edited) = bench::parse(name, &text) else {
            continue;
        };
        let diags =
            tvs_lint::admission_diagnostics(&edited, &tvs_lint::TestabilityConfig::default());
        if !tvs_lint::has_deny(&diags) {
            return Ok((text, edited));
        }
    }
    Err(format!("{name}: no admissible one-gate edit"))
}

/// Synthesizes the base circuits and materializes every key's text.
///
/// # Errors
///
/// A key whose circuit admits no new one-gate edit.
pub fn build(seed: u64) -> Result<Setup, String> {
    let bases: Vec<(&'static str, String)> = CIRCUITS
        .iter()
        .filter_map(|&name| tvs_circuits::profile(name))
        .map(|p| (p.name, bench::to_string(&p.build())))
        .collect();
    let schedule = served_schedule(seed, REQUESTS, CLIENTS, bases.len());
    let mut keys = Vec::with_capacity(CLIENTS);
    let mut edit_faults = 0u64;
    for steps in &schedule {
        let mut own: Vec<Key> = Vec::new();
        for step in steps {
            let (name, base) = &bases[step.circuit];
            match (step.kind, step.parent) {
                (Kind::Cold, _) => own.push(Key {
                    name,
                    text: base.clone(),
                    config_seed: step.config_seed,
                }),
                (Kind::Edit, Some(parent)) => {
                    let taken: Vec<&str> = own
                        .iter()
                        .filter(|k| k.config_seed == step.config_seed)
                        .map(|k| k.text.as_str())
                        .collect();
                    let (text, netlist) = edit(name, &own[parent].text, step.pick, &taken)?;
                    edit_faults += FaultList::collapsed(&netlist).len() as u64;
                    own.push(Key {
                        name,
                        text,
                        config_seed: step.config_seed,
                    });
                }
                _ => {}
            }
        }
        keys.push(own);
    }
    Ok(Setup {
        schedule,
        keys,
        edit_faults,
    })
}

/// A bound daemon on its own fresh cache directory, removed on drop.
pub struct Daemon {
    server: Option<Server>,
    dir: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.server = None;
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Binds a daemon on loopback over a fresh cache directory.
///
/// # Errors
///
/// Socket or cache-directory failures.
pub fn bind() -> Result<Daemon, String> {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let dir = PathBuf::from(WORK_DIR).join(format!(
        "served-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let server = Server::bind(&ServerConfig {
        listen: "127.0.0.1:0".to_owned(),
        cache_dir: dir.clone(),
        workers: WORKERS,
        ..ServerConfig::default()
    })
    .map_err(|e| e.to_string())?;
    Ok(Daemon {
        server: Some(server),
        dir,
    })
}

/// One request as a client saw it.
#[derive(Debug)]
struct Sample {
    client: usize,
    step: usize,
    submit_ms: f64,
    fetch_ms: f64,
    total_ms: f64,
    admission: String,
    artifact: Result<String, String>,
}

/// One pass: every client's schedule against one fresh daemon.
struct Pass {
    wall_s: f64,
    samples: Vec<Sample>,
    /// The daemon's `stats` documents before and after the requests.
    stats: Option<(Value, Value)>,
}

fn wire_config(seed: u64) -> Value {
    Value::Obj(vec![("seed".into(), Value::num_u64(seed))])
}

fn client_loop(addr: &str, client: usize, setup: &Setup) -> Vec<Sample> {
    let mut samples = Vec::new();
    let mut conn = Client::connect(addr).map_err(|e| e.to_string());
    for (i, step) in setup.schedule[client].iter().enumerate() {
        let key = &setup.keys[client][step.key];
        let t0 = Instant::now();
        let mut sample = Sample {
            client,
            step: i,
            submit_ms: 0.0,
            fetch_ms: 0.0,
            total_ms: 0.0,
            admission: String::new(),
            artifact: Err("not run".to_owned()),
        };
        let result = conn.as_mut().map_err(|e| e.clone()).and_then(|c| {
            let (job, admission) = c
                .submit(key.name, &key.text, wire_config(key.config_seed))
                .map_err(|e| e.to_string())?;
            let t1 = Instant::now();
            sample.submit_ms = (t1 - t0).as_secs_f64() * 1e3;
            sample.admission = admission;
            let artifact = c.fetch(&job).map_err(|e| e.to_string())?;
            sample.fetch_ms = t1.elapsed().as_secs_f64() * 1e3;
            Ok(artifact.to_text())
        });
        sample.total_ms = t0.elapsed().as_secs_f64() * 1e3;
        sample.artifact = result;
        samples.push(sample);
    }
    samples
}

/// Runs every client's schedule against the daemon at `addr`, then asks
/// it to shut down.
fn drive(addr: &str, setup: &Setup, with_stats: bool) -> Result<Pass, String> {
    let mut admin = Client::connect(addr).map_err(|e| e.to_string())?;
    let before = if with_stats {
        Some(admin.stats().map_err(|e| e.to_string())?)
    } else {
        None
    };
    let start = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client_loop(addr, c, setup)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap_or_default())
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = match before {
        Some(before) => Some((before, admin.stats().map_err(|e| e.to_string())?)),
        None => None,
    };
    admin.shutdown().map_err(|e| e.to_string())?;
    Ok(Pass {
        wall_s,
        samples,
        stats,
    })
}

fn pass(setup: &Setup, mut daemon: Daemon, with_stats: bool) -> Result<Pass, String> {
    let server = daemon.server.take().ok_or("daemon already used")?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    let drain = server.drain_handle();
    let handle = std::thread::spawn(move || server.run());
    let outcome = drive(&addr, setup, with_stats);
    // Whatever happened above, stop the daemon and wait for it.
    drain.store(true, Ordering::Release);
    if !matches!(handle.join(), Ok(Ok(()))) {
        eprintln!("e2ebench: the daemon did not stop cleanly");
    }
    outcome
}

/// Checks one request: its admission follows the schedule, a resubmission
/// is byte-identical to the first fetch of its key, and a first fetch's
/// program passes the fault-free ATE. Returns a first fetch's document.
fn check_sample<'s>(
    setup: &Setup,
    s: &'s Sample,
    first: &mut BTreeMap<(usize, usize), &'s str>,
) -> Result<Option<Value>, String> {
    let step = &setup.schedule[s.client][s.step];
    let key = &setup.keys[s.client][step.key];
    let text = s.artifact.as_deref().map_err(|e| e.to_owned())?;
    let want = if step.kind == Kind::Resubmit {
        "cache-hit"
    } else {
        "miss"
    };
    if s.admission != want {
        return Err(format!(
            "admission {:?}, schedule says {want:?}",
            s.admission
        ));
    }
    if let Some(&earlier) = first.get(&(s.client, step.key)) {
        if earlier != text {
            return Err("resubmission differs from the first fetch of its key".to_owned());
        }
        return Ok(None);
    }
    first.insert((s.client, step.key), text);
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let program = doc
        .get("program")
        .and_then(Value::as_str)
        .ok_or("artifact lacks a program")?;
    let program = TestProgram::parse(program).map_err(|e| e.to_string())?;
    let netlist = bench::parse(key.name, &key.text).map_err(|e| e.to_string())?;
    oracle::screen(&netlist, &program, &[])?;
    Ok(Some(doc))
}

/// Checks every request of a pass; returns the failure count and the
/// artifact document of every distinct key.
fn check(setup: &Setup, samples: &[Sample]) -> (u64, Vec<Value>) {
    let mut failed = 0u64;
    let mut first = BTreeMap::new();
    let mut artifacts = Vec::new();
    for s in samples {
        match check_sample(setup, s, &mut first) {
            Ok(doc) => artifacts.extend(doc),
            Err(e) => {
                eprintln!("e2ebench: client {} request {}: {e}", s.client, s.step);
                failed += 1;
            }
        }
    }
    (failed, artifacts)
}

fn metric(doc: &Value, name: &str) -> f64 {
    match doc.get("metrics").and_then(|m| m.get(name)) {
        Some(Value::Num(s)) => s.parse().unwrap_or(0.0),
        _ => 0.0,
    }
}

fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

fn timer_s(stats: &Value, name: &str) -> f64 {
    stats
        .get("stats")
        .and_then(|s| s.get("timers"))
        .and_then(|t| t.get(name))
        .and_then(|t| t.get("total_nanos"))
        .and_then(Value::as_u64)
        .map_or(0.0, |n| n as f64 / 1e9)
}

/// Runs the served mix and reports its metrics.
///
/// # Errors
///
/// Set-up, bind or connection failures that leave nothing to measure.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut daemons = Vec::new();
    let (setup, setup_s) = timed_setups(|| {
        let setup = build(args.seed);
        daemons.push(bind());
        setup
    });
    let setup = setup?;
    // Passes take the daemons bound during set-up while they last.
    daemons.reverse();

    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    let outcome = loop {
        let daemon = daemons.pop().unwrap_or_else(bind);
        match daemon.and_then(|d| pass(&setup, d, args.trace)) {
            Ok(p) => passes.push(p),
            Err(e) => break Err(e),
        }
        if passes.len() == 1 {
            // One pass's high-water mark, however many passes follow.
            peak_rss = peak_rss_mib();
        }
        let typical = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        if args.trace
            || start.elapsed().as_secs_f64() + typical > args.seconds as f64
            || passes.len() >= crate::MAX_PASSES
        {
            break Ok(());
        }
    };
    drop(daemons);
    let _ = std::fs::remove_dir(WORK_DIR);
    outcome?;

    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut artifacts = Vec::new();
    for (i, p) in passes.iter().enumerate() {
        eprintln!("e2ebench: pass {i}: {:.3} s", p.wall_s);
        // A client thread that died took its remaining requests with it.
        attempted += REQUESTS as u64;
        failed += REQUESTS.saturating_sub(p.samples.len()) as u64;
        let (f, docs) = check(&setup, &p.samples);
        failed += f;
        if i == 0 {
            artifacts = docs;
        }
    }

    let mut values = Values::default();
    if args.trace {
        traced_values(&setup, &passes[0], &mut values);
    } else {
        let totals = |p: &Pass| -> Vec<f64> { p.samples.iter().map(|s| s.total_ms).collect() };
        // The tail is quoted only where at least ten requests lie beyond it.
        let tail = highest_tail_percentile(REQUESTS, 10, 90).unwrap_or(50);
        let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
        let avg = |name: &str| {
            mean(
                &artifacts
                    .iter()
                    .map(|d| metric(d, name))
                    .collect::<Vec<_>>(),
            )
        };
        values.set("wall_s", per_pass(&|p| p.wall_s));
        values.set("setup_s", setup_s);
        values.set("peak_rss_mib", peak_rss);
        values.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
        values.set("memory_ratio", avg("m"));
        values.set("time_ratio", avg("t"));
        values.set("coverage", avg("coverage"));
        values.set(
            "jobs_per_s",
            per_pass(&|p| p.samples.len() as f64 / p.wall_s),
        );
        values.set("job_p50_ms", per_pass(&|p| percentile(&totals(p), 50)));
        values.set("job_p90_ms", per_pass(&|p| percentile(&totals(p), tail)));
        println!(
            "e2ebench: {} passes of {REQUESTS} requests, wall {:.3} s median, p{tail} over {REQUESTS} samples",
            passes.len(),
            values.get("wall_s").unwrap_or(0.0),
        );
    }
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    })
}

fn traced_values(setup: &Setup, p: &Pass, values: &mut Values) {
    for def in PER_LAYER {
        values.set(def.name, 0.0);
    }
    let Some((before, after)) = &p.stats else {
        return;
    };
    let delta = |name: &str| counter(after, name).saturating_sub(counter(before, name));
    let engine_s = (timer_s(after, "stitch.run") - timer_s(before, "stitch.run")).max(0.0);

    // The daemon parses every submission and lints every key it has not
    // admitted before; the same calls are timed here standalone.
    let mut parse_s = 0.0;
    let mut lint_s = 0.0;
    let mut linted = BTreeSet::new();
    let standalone = Instant::now();
    for s in &p.samples {
        let step = &setup.schedule[s.client][s.step];
        let key = &setup.keys[s.client][step.key];
        let t = Instant::now();
        let Ok(netlist) = bench::parse(key.name, &key.text) else {
            continue;
        };
        parse_s += t.elapsed().as_secs_f64();
        if linted.insert((s.client, step.key)) {
            let t = Instant::now();
            std::hint::black_box(tvs_lint::admission_diagnostics(
                &netlist,
                &tvs_lint::TestabilityConfig::default(),
            ));
            lint_s += t.elapsed().as_secs_f64();
        }
    }
    let standalone_s = standalone.elapsed().as_secs_f64();

    let p50 = |kind: Option<Kind>, f: &dyn Fn(&Sample) -> f64| -> f64 {
        let xs: Vec<f64> = p
            .samples
            .iter()
            .filter(|s| kind.is_none_or(|k| setup.schedule[s.client][s.step].kind == k))
            .map(f)
            .collect();
        percentile(&xs, 50)
    };
    let latency_s: f64 = p.samples.iter().map(|s| s.total_ms / 1e3).sum();
    let layers = [
        ("netlist", parse_s),
        ("lint", lint_s),
        ("stitch.engine", engine_s),
        ("serve", (latency_s - engine_s - parse_s - lint_s).max(0.0)),
    ];
    let (hot, share) = hottest(&layers);
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    values.set("netlist.parse_s", parse_s);
    values.set("lint.admission_s", lint_s);
    values.set("serve.submit_ms_p50", p50(None, &|s| s.submit_ms));
    values.set("serve.fetch_ms_p50", p50(None, &|s| s.fetch_ms));
    values.set(
        "serve.hit_ms_p50",
        p50(Some(Kind::Resubmit), &|s| s.total_ms),
    );
    values.set("serve.miss_ms_p50", p50(Some(Kind::Cold), &|s| s.total_ms));
    values.set("serve.edit_ms_p50", p50(Some(Kind::Edit), &|s| s.total_ms));
    values.set(
        "serve.cache_hit_frac",
        frac(
            delta("serve.cache_hits") as f64,
            delta("serve.submits") as f64,
        ),
    );
    values.set("serve.engine_runs", delta("serve.engine_runs") as f64);
    values.set("serve.engine_s", engine_s);
    values.set("serve.latency_samples", p.samples.len() as f64);
    values.set("delta.plans", delta("delta.plans") as f64);
    values.set(
        "delta.faults_reused_frac",
        frac(
            delta("delta.faults_reused") as f64,
            setup.edit_faults as f64,
        ),
    );
    values.set("cache.bytes", counter(after, "cache.bytes") as f64);
    values.set("exec.tasks", delta("exec.tasks") as f64);
    values.set("exec.steals", delta("exec.steals") as f64);
    values.set("trace.standalone_s", standalone_s);
    values.set("trace.hot_layer_share", share);

    println!(
        "e2ebench: traced served-mix: {} requests in {:.3} s",
        p.samples.len(),
        p.wall_s
    );
    for (name, s) in &layers {
        println!("e2ebench:   {name:<18} {s:>10.4} s");
    }
    println!(
        "e2ebench: hot layer {hot} ({:.1}% of layer time); delta plans {}, engine runs {}",
        100.0 * share,
        delta("delta.plans"),
        delta("serve.engine_runs")
    );
}
