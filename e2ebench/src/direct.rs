//! The direct workloads: the library driven in-process, from canonical
//! `.bench` text to a verified program.

use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, Instant};

use tvs_ate::{Dut, TestProgram, VirtualAte};
use tvs_atpg::generate_tests;
use tvs_bench::runner::Scaling;
use tvs_fault::Scoap;
use tvs_netlist::{bench, Netlist};
use tvs_stitch::{
    fnv1a, PrescreenTrace, RunOptions, RunProgress, StitchConfig, StitchEngine, StitchReport,
    StrategyId, Termination, ALL_STRATEGIES,
};

use crate::metrics::{Outcome, Values, PER_LAYER};
use crate::oracle::{self, SweepRow};
use crate::stats::{highest_tail_percentile, mean, median, peak_rss_mib, percentile};
use crate::trace::{hottest, Counters, Ledger, Probes, Tracer};
use crate::{timed_setups, Args, THREADS};

/// The committed strategies sweep `budget-sweep` must reproduce at the
/// default seed, relative to the repository root.
pub const STRATEGIES_SWEEP: &str = "BENCH_strategies.json";

/// Which direct workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direct {
    /// The paper's Table 2 circuits at full size, run to completion.
    SmallComplete,
    /// All strategies on three large profiles under a work budget.
    BudgetSweep,
}

/// Profiles of the small workload (the paper's Table 2 circuits).
const SMALL: &[&str] = &["s444", "s526", "s641", "s953", "s1196", "s1423"];
/// Profiles and settings of the committed strategies sweep.
const SWEEP: &[&str] = &["s5378", "s9234", "s15850"];
const SWEEP_SCALE: f64 = 0.08;
const SWEEP_BUDGET: u64 = 20_000;

/// Claimed-caught faults replayed on the ATE per pass, spread over its
/// runs.
const ORACLE_FAULTS: usize = 48;

/// A synthesized circuit in canonical `.bench` form.
#[derive(Debug)]
pub struct Circuit {
    name: &'static str,
    text: String,
}

/// One engine run of a pass.
#[derive(Debug)]
pub struct Job {
    circuit: usize,
    config: StitchConfig,
}

/// Everything a pass needs, built before timing starts.
#[derive(Debug)]
pub struct Setup {
    circuits: Vec<Circuit>,
    jobs: Vec<Job>,
    /// Runs an untraced pass makes at once.
    lanes: usize,
}

/// Builds the workload's circuits and run list. Netlist synthesis and
/// the canonical text are set-up work, not part of a pass.
pub fn setup(kind: Direct, seed: u64) -> Setup {
    let (names, scaling): (&[&str], Scaling) = match kind {
        Direct::SmallComplete => (
            SMALL,
            Scaling {
                factor: 1.0,
                full: true,
            },
        ),
        Direct::BudgetSweep => (
            SWEEP,
            Scaling {
                factor: SWEEP_SCALE,
                full: false,
            },
        ),
    };
    let circuits: Vec<Circuit> = names
        .iter()
        .filter_map(|&name| tvs_circuits::profile(name))
        .map(|profile| Circuit {
            name: profile.name,
            text: bench::to_string(&scaling.build(&profile)),
        })
        .collect();
    let default = [StrategyId::default()];
    // The small circuits' runs differ too much in length to share two
    // lanes evenly, so the engine gets both threads. The sweep's runs are
    // many and mostly serial baseline ATPG, so two single-threaded runs at
    // once use both cores, as the daemon's two workers do.
    let (strategies, budget, threads, lanes): (&[StrategyId], _, _, _) = match kind {
        Direct::BudgetSweep => (&ALL_STRATEGIES, Some(SWEEP_BUDGET), 1, THREADS),
        Direct::SmallComplete => (&default, None, THREADS, 1),
    };
    let mut jobs = Vec::new();
    for circuit in 0..circuits.len() {
        for &strategy in strategies {
            jobs.push(Job {
                circuit,
                config: StitchConfig {
                    seed,
                    strategy,
                    budget,
                    threads,
                    ..StitchConfig::default()
                },
            });
        }
    }
    Setup {
        circuits,
        jobs,
        lanes,
    }
}

/// A finished engine run.
struct Done {
    netlist: Netlist,
    report: StitchReport,
    program: TestProgram,
    /// FNV-1a digest of the program text (pass-to-pass determinism).
    digest: u64,
}

/// State of a traced pass.
#[derive(Default)]
struct TraceState {
    tracer: Tracer,
    ledger: Ledger,
    probes: Probes,
    /// Time spent in standalone calls the untraced pass does not make.
    standalone_s: f64,
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Parse → admission lint → engine → program → fault-free ATE replay.
fn run_job(setup: &Setup, job: &Job, mut ts: Option<&mut TraceState>) -> Result<Done, String> {
    let circuit = &setup.circuits[job.circuit];
    let parent = ts.as_deref_mut().map(|t| t.tracer.open("job", None));
    let mark = |ts: &mut Option<&mut TraceState>, name: &'static str, start: Instant| {
        if let Some(t) = ts.as_deref_mut() {
            t.tracer.record(name, start, Instant::now(), parent);
        }
        secs(start)
    };

    let t = Instant::now();
    let netlist = bench::parse(circuit.name, &circuit.text).map_err(|e| e.to_string())?;
    let parse_s = mark(&mut ts, "netlist.parse", t);

    let t = Instant::now();
    let diags = tvs_lint::admission_diagnostics(&netlist, &tvs_lint::TestabilityConfig::default());
    let lint_s = mark(&mut ts, "lint.admission", t);
    if tvs_lint::has_deny(&diags) {
        return Err(format!(
            "{}: admission lint denies the circuit",
            circuit.name
        ));
    }

    let t = Instant::now();
    let engine = StitchEngine::new(&netlist).map_err(|e| e.to_string())?;
    let new_s = mark(&mut ts, "stitch.engine_new", t);
    if let Some(t) = ts.as_deref_mut() {
        let l = &mut t.ledger;
        l.parse_s += parse_s;
        l.lint_s += lint_s;
        l.engine_new_s += new_s;
        l.collapsed += engine.faults().len() as u64;
        l.budget_limit_units += job.config.budget.unwrap_or(0);
    }

    // The engine runs SCOAP and the baseline ATPG inside its pre-cycle
    // stage, where no hook can see them: the traced pass measures both
    // standalone on the same netlist and configuration.
    if let Some(t) = ts.as_deref_mut() {
        let start = Instant::now();
        let scoap = Scoap::compute(&netlist, engine.view());
        std::hint::black_box(&scoap);
        let scoap_s = secs(start);
        t.tracer
            .record("fault.scoap", start, Instant::now(), parent);
        t.ledger.scoap_s += scoap_s;
        t.standalone_s += scoap_s;
        // Measured on every run, right before the engine's own copy, so
        // the two share the machine's momentary speed and their difference
        // leaves the prescreen's time.
        let before = t.probes.read();
        let start = Instant::now();
        let set = generate_tests(&netlist, &job.config.baseline).map_err(|e| e.to_string())?;
        let base_s = secs(start);
        t.tracer
            .record("atpg.baseline", start, Instant::now(), parent);
        t.standalone_s += base_s;
        let base_ctr = t.probes.read().since(before);
        let l = &mut t.ledger;
        l.baseline_s += base_s;
        l.baseline_slots += base_ctr.slots;
        l.baseline_backtracks += base_ctr.backtracks;
        l.baseline_patterns += set.len() as u64;
    }

    let report = match ts.as_deref_mut() {
        None => engine.run(&job.config).map_err(|e| e.to_string())?,
        Some(t) => traced_run(&engine, &job.config, t, parent)?,
    };
    if let Termination::WorkerPanic { message, .. } = &report.termination {
        return Err(format!("{}: worker panic: {message}", circuit.name));
    }
    drop(engine);

    let t = Instant::now();
    let program = TestProgram::from_report(&netlist, &report, &job.config);
    let text = program.to_text();
    let emit_s = mark(&mut ts, "ate.emit", t);

    let t = Instant::now();
    let view = netlist.scan_view().map_err(|e| e.to_string())?;
    let mut dut = Dut::new(&netlist, &view, program.capture, program.observe);
    let passed = VirtualAte::execute(&program, &mut dut).passed();
    let verify_s = mark(&mut ts, "ate.verify", t);
    if !passed {
        return Err(format!(
            "{}: fault-free part fails its program",
            circuit.name
        ));
    }
    drop(dut);
    drop(view);

    if let Some(t) = ts {
        let l = &mut t.ledger;
        l.emit_s += emit_s;
        l.verify_s += verify_s;
        l.program_bytes += text.len() as u64;
        l.cycles += report.cycles.len() as u64;
        l.catches += report
            .cycles
            .iter()
            .map(|c| c.newly_caught as u64)
            .sum::<u64>();
        l.hidden_entered += report.hidden_transitions.0 as u64;
        l.hidden_converted += report.hidden_transitions.1 as u64;
        l.fallback_vectors += report.extra_vectors.len() as u64;
        if let Some(span) = parent {
            t.tracer.close(span);
        }
    }
    Ok(Done {
        netlist,
        report,
        program,
        digest: fnv1a(text.as_bytes()),
    })
}

/// `run_with` under the engine's observation hooks: `on_prescreen` closes
/// the pre-cycle span, each `on_progress` closes a cycle span, and the
/// return closes `finish`. Counters are snapshotted at every boundary.
fn traced_run(
    engine: &StitchEngine<'_>,
    config: &StitchConfig,
    t: &mut TraceState,
    parent: Option<usize>,
) -> Result<StitchReport, String> {
    let probes = t.probes.clone();
    let boundaries: RefCell<Vec<(Instant, Counters)>> = RefCell::new(Vec::new());
    let prescreen: RefCell<Option<PrescreenTrace>> = RefCell::new(None);
    let cost = Cell::new(Duration::ZERO);
    let mut on_prescreen = |trace: PrescreenTrace| {
        let at = Instant::now();
        boundaries.borrow_mut().push((at, probes.read()));
        *prescreen.borrow_mut() = Some(trace);
        cost.set(cost.get() + at.elapsed());
    };
    let mut on_progress = |_: RunProgress| {
        let at = Instant::now();
        boundaries.borrow_mut().push((at, probes.read()));
        cost.set(cost.get() + at.elapsed());
    };
    let start_ctr = probes.read();
    let start = Instant::now();
    let report = engine
        .run_with(
            config,
            RunOptions {
                on_progress: Some(&mut on_progress),
                on_prescreen: Some(&mut on_prescreen),
                ..RunOptions::default()
            },
        )
        .map_err(|e| e.to_string())?;
    let end = Instant::now();
    let end_ctr = probes.read();
    t.tracer.charge(cost.get());

    let boundaries = boundaries.into_inner();
    let (pre_at, pre_ctr) = boundaries.first().copied().unwrap_or((start, start_ctr));
    let (last_at, last_ctr) = boundaries.last().copied().unwrap_or((start, start_ctr));
    t.tracer.record("stitch.precycle", start, pre_at, parent);
    for pair in boundaries.windows(2) {
        t.tracer
            .record("stitch.cycle", pair[0].0, pair[1].0, parent);
    }
    t.tracer.record("stitch.finish", last_at, end, parent);

    let l = &mut t.ledger;
    l.precycle_s += pre_at.duration_since(start).as_secs_f64();
    let pre = pre_ctr.since(start_ctr);
    l.precycle.slots += pre.slots;
    l.precycle.backtracks += pre.backtracks;
    l.cycles_s += last_at.duration_since(pre_at).as_secs_f64();
    let cyc = last_ctr.since(pre_ctr);
    l.cycle.slots += cyc.slots;
    l.cycle.gates += cyc.gates;
    l.cycle.backtracks += cyc.backtracks;
    l.finish_s += end.duration_since(last_at).as_secs_f64();
    let fin = end_ctr.since(last_ctr);
    l.finish.slots += fin.slots;
    l.finish.backtracks += fin.backtracks;
    if let Some(trace) = prescreen.into_inner() {
        l.add_prescreen(&trace.records);
    }
    Ok(report)
}

/// One pass over every run of the workload.
struct Pass {
    wall_s: f64,
    results: Vec<Result<Done, String>>,
}

/// One run, with a panic turned into an error.
fn guarded_job(setup: &Setup, job: &Job, ts: Option<&mut TraceState>) -> Result<Done, String> {
    catch_unwind(AssertUnwindSafe(|| run_job(setup, job, ts)))
        .unwrap_or_else(|panic| Err(format!("panic: {}", panic_text(panic.as_ref()))))
}

/// A traced pass makes one run at a time, in job order, so its spans
/// nest; an untraced pass runs on the workload's lanes.
fn pass(setup: &Setup, ts: Option<&mut TraceState>) -> Pass {
    let start = Instant::now();
    let results = match ts {
        Some(ts) => setup
            .jobs
            .iter()
            .map(|job| guarded_job(setup, job, Some(&mut *ts)))
            .collect(),
        None => on_lanes(setup),
    };
    Pass {
        wall_s: secs(start),
        results,
    }
}

/// Runs every job on `setup.lanes` threads. The lanes take jobs from the
/// end of the list: profiles are listed smallest first, so the longest
/// runs start first and the lanes finish together.
fn on_lanes(setup: &Setup) -> Vec<Result<Done, String>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<Done, String>>>> =
        setup.jobs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..setup.lanes {
            scope.spawn(|| {
                while let Some(i) = setup
                    .jobs
                    .len()
                    .checked_sub(next.fetch_add(1, Ordering::Relaxed) + 1)
                {
                    let run = guarded_job(setup, &setup.jobs[i], None);
                    *slots[i].lock().unwrap_or_else(PoisonError::into_inner) = Some(run);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(PoisonError::into_inner)
                .unwrap_or_else(|| Err("the run never finished".to_owned()))
        })
        .collect()
}

fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string payload".to_owned())
}

/// Replays a seeded sample of every run's claimed-caught faults on the
/// ATE; returns how many runs failed the check.
fn oracle_failures(setup: &Setup, results: &[Result<Done, String>], seed: u64) -> u64 {
    let per_run = (ORACLE_FAULTS / setup.jobs.len().max(1)).max(2);
    let mut failed = 0;
    for (i, done) in results.iter().enumerate() {
        let Ok(done) = done else { continue };
        let claimed = oracle::claimed_caught(&done.netlist, &done.report);
        let sample = oracle::sample(
            &claimed,
            per_run,
            seed ^ (i as u64).wrapping_mul(0x9E37_79B9),
        );
        if let Err(e) = oracle::screen(&done.netlist, &done.program, &sample) {
            eprintln!("e2ebench: oracle: {e}");
            failed += 1;
        }
    }
    failed
}

/// Compares the budget sweep with the committed strategies sweep.
fn cross_check(setup: &Setup, results: &[Result<Done, String>]) -> Result<(), String> {
    let text = std::fs::read_to_string(STRATEGIES_SWEEP)
        .map_err(|e| format!("cannot read {STRATEGIES_SWEEP}: {e}"))?;
    let committed = oracle::committed_rows(&text, SWEEP)?;
    let measured: Vec<SweepRow> = setup
        .jobs
        .iter()
        .zip(results)
        .map(|(job, result)| match result {
            Ok(done) => Ok(SweepRow::measured(
                setup.circuits[job.circuit].name,
                job.config.strategy.name(),
                &done.report,
            )),
            Err(e) => Err(e.clone()),
        })
        .collect::<Result<_, _>>()?;
    if committed.len() != measured.len() {
        return Err(format!(
            "{} committed rows vs {} measured",
            committed.len(),
            measured.len()
        ));
    }
    for (want, got) in committed.iter().zip(&measured) {
        if want != got {
            return Err(format!("committed {want:?} but measured {got:?}"));
        }
    }
    Ok(())
}

/// Runs a direct workload and reports its metrics.
pub fn run(kind: Direct, args: &Args) -> Outcome {
    let (setup, setup_s) = timed_setups(|| setup(kind, args.seed));
    if args.trace {
        traced(kind, &setup, setup_s, args)
    } else {
        timed(kind, &setup, setup_s, args)
    }
}

fn timed(kind: Direct, setup: &Setup, setup_s: f64, args: &Args) -> Outcome {
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss = 0.0;
    loop {
        passes.push(pass(setup, None));
        if passes.len() == 1 {
            // One pass's high-water mark, however many passes follow.
            peak_rss = peak_rss_mib();
        }
        let typical = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        if start.elapsed().as_secs_f64() + typical > budget.as_secs_f64()
            || passes.len() >= crate::MAX_PASSES
        {
            break;
        }
    }

    let first = &passes[0];
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for (n, p) in passes.iter().enumerate() {
        eprintln!("e2ebench: pass {n}: {:.3} s", p.wall_s);
        for (i, result) in p.results.iter().enumerate() {
            attempted += 1;
            let ok = match (result, &first.results[i]) {
                (Ok(done), Ok(reference)) => done.digest == reference.digest,
                (Err(e), _) => {
                    eprintln!("e2ebench: run {i}: {e}");
                    false
                }
                (Ok(_), Err(_)) => false,
            };
            if !ok {
                failed += 1;
            }
        }
    }
    failed += oracle_failures(setup, &first.results, args.seed);
    let mut correct = failed == 0;
    if kind == Direct::BudgetSweep && args.seed == StitchConfig::default().seed {
        match cross_check(setup, &first.results) {
            Ok(()) => eprintln!("e2ebench: budget-sweep reproduces {STRATEGIES_SWEEP}"),
            Err(e) => {
                eprintln!("e2ebench: cross-check against {STRATEGIES_SWEEP} failed: {e}");
                correct = false;
            }
        }
    }

    let reports: Vec<&StitchReport> = first
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|d| &d.report)
        .collect();
    // A direct job is one pass, the whole workload a user hands over. A
    // single run is no steadier a job: the middle runs of small-complete
    // move by a fifth from seed to seed. The tail is quoted only where at
    // least ten passes lie beyond it, which a run of a few passes never
    // has, so it reads the median.
    let pass_ms: Vec<f64> = passes.iter().map(|p| p.wall_s * 1e3).collect();
    let p50 = median(&pass_ms);
    let p90 = highest_tail_percentile(pass_ms.len(), 10, 90)
        .map_or(p50, |tail| percentile(&pass_ms, tail));
    let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut values = Values::default();
    values.set("wall_s", per_pass(&|p| p.wall_s));
    values.set("setup_s", setup_s);
    values.set("peak_rss_mib", peak_rss);
    values.set("ok_frac", 1.0 - failed as f64 / attempted.max(1) as f64);
    let avg =
        |f: &dyn Fn(&StitchReport) -> f64| mean(&reports.iter().map(|r| f(r)).collect::<Vec<_>>());
    values.set("memory_ratio", avg(&|r| r.metrics.memory_ratio));
    values.set("time_ratio", avg(&|r| r.metrics.time_ratio));
    values.set("coverage", avg(&|r| r.metrics.fault_coverage));
    values.set("jobs_per_s", per_pass(&|p| 1.0 / p.wall_s));
    values.set("job_p50_ms", p50);
    values.set("job_p90_ms", p90);
    println!(
        "e2ebench: {} passes of {} runs, wall {:.3} s median",
        passes.len(),
        setup.jobs.len(),
        values.get("wall_s").unwrap_or(0.0)
    );
    Outcome {
        correct,
        attempted,
        failed,
        values,
    }
}

fn traced(kind: Direct, setup: &Setup, setup_s: f64, args: &Args) -> Outcome {
    let mut ts = TraceState::default();
    let exec_before = ts.probes.read();
    let p = pass(setup, Some(&mut ts));
    ts.ledger.exec = ts.probes.read().since(exec_before);
    let attempted = p.results.len() as u64;
    let mut failed = p.results.iter().filter(|r| r.is_err()).count() as u64;
    for e in p.results.iter().filter_map(|r| r.as_ref().err()) {
        eprintln!("e2ebench: {e}");
    }
    failed += oracle_failures(setup, &p.results, args.seed);

    let l = &ts.ledger;
    // The pass as the untraced path would have run it.
    let engine_wall = (p.wall_s - ts.standalone_s).max(f64::MIN_POSITIVE);
    let layers = l.layers();
    let (hot, share) = hottest(&layers);
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let mut values = Values::default();
    for def in PER_LAYER {
        values.set(def.name, 0.0);
    }
    values.set("netlist.parse_s", l.parse_s);
    values.set("lint.admission_s", l.lint_s);
    values.set("fault.scoap_s", l.scoap_s);
    values.set("fault.collapsed", l.collapsed as f64);
    values.set("atpg.baseline_s", l.baseline_s);
    values.set("atpg.baseline_slots", l.baseline_slots as f64);
    values.set("atpg.baseline_backtracks", l.baseline_backtracks as f64);
    values.set("atpg.baseline_patterns", l.baseline_patterns as f64);
    values.set("stitch.prescreen_s", l.prescreen_s());
    values.set("stitch.prescreen_slots", l.prescreen_slots() as f64);
    values.set("stitch.prescreen_backtracks", l.prescreen_backtracks as f64);
    values.set("stitch.prescreen_units", l.prescreen_units as f64);
    values.set(
        "stitch.prescreen_budget_frac",
        frac(l.prescreen_units as f64, l.budget_limit_units as f64),
    );
    values.set(
        "stitch.prescreen_wall_frac",
        frac(l.prescreen_s(), engine_wall),
    );
    values.set(
        "stitch.prescreen_sim_settled_frac",
        frac(l.sim_settled as f64, l.prescreen_faults as f64),
    );
    values.set("stitch.prescreen_aborted", l.prescreen_aborted as f64);
    values.set("stitch.cycles_s", l.cycles_s);
    values.set("stitch.cycles", l.cycles as f64);
    values.set("stitch.cycle_slots", l.cycle.slots as f64);
    values.set("stitch.cycle_gates_evaluated", l.cycle.gates as f64);
    values.set("stitch.cycle_backtracks", l.cycle.backtracks as f64);
    values.set(
        "stitch.catches_per_cycle",
        frac(l.catches as f64, l.cycles as f64),
    );
    values.set(
        "stitch.hidden_convert_frac",
        frac(l.hidden_converted as f64, l.hidden_entered as f64),
    );
    values.set("stitch.finish_s", l.finish_s);
    values.set("stitch.fallback_vectors", l.fallback_vectors as f64);
    values.set("stitch.finish_backtracks", l.finish.backtracks as f64);
    values.set("ate.emit_s", l.emit_s);
    values.set("ate.program_bytes", l.program_bytes as f64);
    values.set("ate.verify_s", l.verify_s);
    values.set("exec.tasks", l.exec.tasks as f64);
    values.set("exec.steals", l.exec.steals as f64);
    values.set(
        "trace.overhead_frac",
        ts.tracer.cost().as_secs_f64() / engine_wall,
    );
    values.set("trace.standalone_s", ts.standalone_s);
    values.set("trace.hot_layer_share", share);

    println!(
        "e2ebench: traced {kind:?}: {} runs, set-up {setup_s:.4} s",
        p.results.len()
    );
    for (name, s) in &layers {
        println!(
            "e2ebench:   {name:<18} {s:>10.4} s  {:>5.1}%",
            100.0 * frac(*s, engine_wall)
        );
    }
    println!(
        "e2ebench: hot layer {hot} ({:.1}% of layer time); {} spans, tracing cost {:.6} s",
        100.0 * share,
        ts.tracer.spans().len(),
        ts.tracer.cost().as_secs_f64()
    );
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        values,
    }
}
