//! Chaos suite: deterministic fault injection against the stitch pipeline.
//!
//! Each scenario arms an injection site (see `tvs::exec::inject`), forces a
//! failure mid-run, and asserts the contract from DESIGN.md §10: every
//! degradation path ends in a **typed error or a salvaged partial result** —
//! never a process abort — and the outcome is **bit-identical at any worker
//! thread count**.
//!
//! Injection sites compile to no-ops in release builds, so the whole suite is
//! gated on `debug_assertions`; `ci.sh` runs it as a dedicated debug stage.

#![cfg(debug_assertions)]

use tvs::circuits;
use tvs::exec::inject::{self, Trigger};
use tvs::lint::{analyze_program, has_deny, ProgramSpec};
use tvs::stitch::{
    SnapshotError, StitchConfig, StitchEngine, StitchError, StitchReport, Termination,
};

/// The inject registry is process-global, so chaos scenarios must not
/// interleave. Each test takes this lock and wraps its arming in [`Armed`],
/// which disarms everything even when an assertion fails.
fn serialized() -> std::sync::MutexGuard<'static, ()> {
    use std::sync::{Mutex, OnceLock, PoisonError};
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

struct Armed;

impl Armed {
    fn site(site: &str, trigger: Trigger) -> Armed {
        inject::disarm_all();
        inject::arm(site, trigger);
        Armed
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        inject::disarm_all();
    }
}

fn config(threads: usize) -> StitchConfig {
    StitchConfig {
        seed: 7,
        threads,
        ..StitchConfig::default()
    }
}

fn run(netlist: &tvs::netlist::Netlist, cfg: &StitchConfig) -> Result<StitchReport, StitchError> {
    StitchEngine::new(netlist).and_then(|engine| engine.run(cfg))
}

/// A salvaged partial program must still satisfy the stitched-program design
/// rules (SP001–SP005) — degradation may shorten the program, never deform it.
fn assert_program_clean(report: &StitchReport, scan_len: usize, residual: usize) {
    if report.shifts.is_empty() {
        // Fully degenerate salvage (no stitched cycles at all) has no
        // program shape to check.
        return;
    }
    let spec = ProgramSpec {
        scan_len,
        shifts: report.shifts.clone(),
        final_flush: report.final_flush,
        extra_vectors: report.extra_vectors.len(),
        uncaught_at_fallback: residual,
    };
    let diags = analyze_program(&spec);
    assert!(
        !has_deny(&diags),
        "salvaged program violates design rules: {diags:?}"
    );
}

#[test]
fn simulation_worker_panic_salvages_a_partial_program() {
    let _guard = serialized();
    let netlist = circuits::profile("s444").expect("profile").build();
    let scan_len = netlist.scan_view().expect("scan view").ppi_count();

    let run_once = |threads: usize| {
        let _armed = Armed::site("stitch.sim.batch", Trigger::once_at(6));
        run(&netlist, &config(threads)).expect("panic must be salvaged, not propagated")
    };
    let report = run_once(1);

    let Termination::WorkerPanic { message, residual } = &report.termination else {
        panic!(
            "expected a worker-panic termination, got {:?}",
            report.termination
        );
    };
    assert_eq!(message, &inject::panic_message("stitch.sim.batch"));
    assert!(
        !residual.is_empty(),
        "an interrupted run leaves residual faults"
    );
    assert!(
        report.metrics.fault_coverage < 1.0,
        "salvage must not claim full coverage"
    );
    assert_program_clean(&report, scan_len, residual.len());

    // The injected failure lands on the same logical work item regardless of
    // worker count, so the salvage is bit-identical.
    let report3 = run_once(3);
    assert_eq!(report, report3, "salvage diverged across thread counts");
}

#[test]
fn podem_abort_storm_degrades_to_a_complete_deterministic_run() {
    let _guard = serialized();
    let netlist = circuits::s27();
    let scan_len = netlist.scan_view().expect("scan view").ppi_count();

    let run_once = |threads: usize| {
        let _armed = Armed::site("atpg.podem.abort", Trigger::always());
        run(&netlist, &config(threads)).expect("abort storms are a soft degradation")
    };
    let report = run_once(1);

    // With every PODEM call aborting, the engine leans entirely on random
    // vectors and fallback handling — still a structurally valid program.
    assert_eq!(report.termination, Termination::Complete);
    assert_program_clean(&report, scan_len, 0);
    assert_eq!(
        report,
        run_once(2),
        "abort storm diverged across thread counts"
    );
}

#[test]
fn podem_abort_window_lands_on_the_same_calls_at_any_thread_count() {
    let _guard = serialized();
    let netlist = circuits::profile("s444").expect("profile").build();
    let faults = tvs::fault::FaultList::collapsed(&netlist);
    // The site is keyed by the fault's site gate, so a one-gate window
    // aborts every call on that gate's faults and no other, whichever
    // thread makes the call and whether or not its outcome is kept.
    let gate = faults.faults()[faults.len() / 2].site.gate.index() as u64;
    let run_once = |threads: usize| {
        let _armed = Armed::site(
            "atpg.podem.abort",
            Trigger {
                after: gate,
                count: 1,
            },
        );
        let report = run(&netlist, &config(threads)).expect("an abort is a soft degradation");
        assert!(
            inject::fired_count("atpg.podem.abort") > 0,
            "the abort window must actually fire"
        );
        report
    };
    let report = run_once(1);
    assert_ne!(
        report,
        run(&netlist, &config(1)).expect("unarmed run"),
        "the aborted calls must change the run"
    );
    assert_eq!(report, run_once(2), "abort window diverged at 2 threads");
    assert_eq!(report, run_once(8), "abort window diverged at 8 threads");
}

#[test]
fn corrupted_hidden_chain_image_stays_deterministic() {
    let _guard = serialized();
    let netlist = circuits::profile("s444").expect("profile").build();

    let run_once = |threads: usize| {
        let _armed = Armed::site("stitch.hidden.image", Trigger::once_at(2));
        let report = run(&netlist, &config(threads)).expect("a flipped image bit is absorbed");
        assert!(
            inject::fired_count("stitch.hidden.image") > 0,
            "the corruption site must actually fire"
        );
        report
    };
    let report = run_once(1);

    // The corruption is keyed by fault index, so it lands on the same image
    // at any worker count and the whole run stays reproducible.
    assert_eq!(
        report,
        run_once(3),
        "corruption diverged across thread counts"
    );
    assert_eq!(report.termination, Termination::Complete);
}

#[test]
fn prescreen_panic_is_a_typed_error() {
    let _guard = serialized();
    let netlist = circuits::profile("s444").expect("profile").build();
    let _armed = Armed::site("stitch.prescreen.panic", Trigger::always());

    let err = run(&netlist, &config(2)).expect_err("prescreen has nothing to salvage");
    let StitchError::WorkerPanic { message } = err else {
        panic!("expected a typed worker-panic error, got {err:?}");
    };
    assert_eq!(message, inject::panic_message("stitch.prescreen.panic"));
}

#[test]
fn truncated_and_corrupted_snapshots_are_typed_errors() {
    let _guard = serialized();
    let netlist = circuits::s27();
    let engine = StitchEngine::new(&netlist).expect("engine");
    let mut captured = Vec::new();
    let mut keep = |snap: tvs::stitch::Snapshot| captured.push(snap.to_text());
    engine
        .run_with(
            &config(1),
            tvs::stitch::RunOptions {
                resume: None,
                checkpoint_every: 1,
                on_checkpoint: Some(&mut keep),
                on_progress: None,
                prescreen_plan: None,
                on_prescreen: None,
            },
        )
        .expect("clean checkpointed run");
    let text = captured.last().expect("at least one checkpoint");

    // Truncation: drop the checksum line entirely.
    let truncated: String = text
        .lines()
        .filter(|l| !l.starts_with("checksum"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(matches!(
        tvs::stitch::Snapshot::parse(&truncated),
        Err(SnapshotError::Truncated)
    ));

    // Corruption: flip one payload character; the checksum must catch it.
    let corrupted = text.replacen("cursor", "cursoR", 1);
    assert!(matches!(
        tvs::stitch::Snapshot::parse(&corrupted),
        Err(SnapshotError::Checksum { .. })
    ));

    // Foreign version line.
    let foreign = text.replacen("tvs-snapshot v2", "tvs-snapshot v9", 1);
    assert!(matches!(
        tvs::stitch::Snapshot::parse(&foreign),
        Err(SnapshotError::Version(_) | SnapshotError::Checksum { .. })
    ));
}

#[test]
fn truncated_bench_input_is_a_located_parse_error() {
    let _guard = serialized();
    let full = tvs::netlist::bench::to_string(&circuits::s27());
    let cut = full.len() * 2 / 3;
    let truncated = &full[..cut];
    match tvs::netlist::bench::parse("s27", truncated) {
        // Depending on where the cut lands this is either a mid-line parse
        // error with a line number or a dangling-signal error; both are
        // typed, neither panics.
        Err(tvs::netlist::NetlistError::Parse { line, .. }) => assert!(line > 0),
        Err(_) => {}
        Ok(_) => panic!("truncating two thirds of s27 cannot still parse"),
    }
}

#[test]
fn stitch_budget_exhaustion_salvages_and_stays_deterministic() {
    let _guard = serialized();
    let netlist = circuits::profile("s444").expect("profile").build();
    let scan_len = netlist.scan_view().expect("scan view").ppi_count();

    let run_once = |threads: usize| {
        inject::disarm_all();
        let cfg = StitchConfig {
            budget: Some(20_000),
            ..config(threads)
        };
        run(&netlist, &cfg).expect("budget exhaustion is a soft stop")
    };
    let report = run_once(1);

    let Termination::BudgetExhausted { residual } = &report.termination else {
        panic!("expected budget exhaustion, got {:?}", report.termination);
    };
    assert!(!residual.is_empty());
    assert_program_clean(&report, scan_len, residual.len());
    assert_eq!(
        report,
        run_once(4),
        "budget stop diverged across thread counts"
    );

    // An unbudgeted run on the same circuit completes.
    let full = run(&netlist, &config(1)).expect("clean run");
    assert_eq!(full.termination, Termination::Complete);
    assert!(full.metrics.fault_coverage > report.metrics.fault_coverage);
}
