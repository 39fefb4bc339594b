//! Checkpoint/resume contract: a run that is snapshotted mid-flight and
//! resumed — at *any* worker thread count — produces a report bit-identical
//! to one that never stopped (DESIGN.md §10.4).
//!
//! These tests drive the library API directly (`StitchEngine::run_with`);
//! the `tvs run` subcommand is a thin file-I/O wrapper around it.

use tvs::circuits;
use tvs::stitch::{
    RunOptions, Snapshot, SnapshotError, StitchConfig, StitchEngine, StitchError, StitchReport,
    Termination,
};

fn config(threads: usize) -> StitchConfig {
    StitchConfig {
        seed: 17,
        threads,
        ..StitchConfig::default()
    }
}

fn netlist() -> tvs::netlist::Netlist {
    circuits::profile("s444").expect("s444 profile").build()
}

/// Runs to completion while collecting a snapshot every `every` cycles.
fn checkpointed_run(
    netlist: &tvs::netlist::Netlist,
    cfg: &StitchConfig,
    every: usize,
) -> (StitchReport, Vec<Snapshot>) {
    let engine = StitchEngine::new(netlist).expect("engine");
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut keep = |snap: Snapshot| snaps.push(snap);
    let report = engine
        .run_with(
            cfg,
            RunOptions {
                resume: None,
                checkpoint_every: every,
                on_checkpoint: Some(&mut keep),
                on_progress: None,
                prescreen_plan: None,
                on_prescreen: None,
            },
        )
        .expect("checkpointed run");
    (report, snaps)
}

fn resume_run(
    netlist: &tvs::netlist::Netlist,
    cfg: &StitchConfig,
    snapshot: Snapshot,
) -> Result<StitchReport, StitchError> {
    StitchEngine::new(netlist).expect("engine").run_with(
        cfg,
        RunOptions {
            resume: Some(snapshot),
            checkpoint_every: 0,
            on_checkpoint: None,
            on_progress: None,
            prescreen_plan: None,
            on_prescreen: None,
        },
    )
}

/// The stdout block `tvs run` prints, rendered from a report —
/// resume-equivalence is asserted down to this byte-level surface.
fn render(name: &str, report: &StitchReport) -> String {
    let mut out = String::new();
    out.push_str(&format!("{}: {}\n", name, report.metrics));
    let tail = report
        .shifts
        .get(1..report.shifts.len().min(9))
        .unwrap_or(&[]);
    out.push_str(&format!(
        "shift schedule: initial {} then {:?}… closing flush {}\n",
        report.shifts.first().copied().unwrap_or(0),
        tail,
        report.final_flush
    ));
    let (entered, converted, erased) = report.hidden_transitions;
    out.push_str(&format!(
        "hidden faults: {entered} entered, {converted} caught, {erased} erased\n"
    ));
    out
}

#[test]
fn checkpointing_does_not_perturb_the_run() {
    let netlist = netlist();
    let plain = StitchEngine::new(&netlist)
        .expect("engine")
        .run(&config(1))
        .expect("plain run");
    let (checkpointed, snaps) = checkpointed_run(&netlist, &config(1), 4);
    assert!(!snaps.is_empty(), "the run is long enough to checkpoint");
    assert_eq!(plain, checkpointed, "observing the run must not change it");
}

#[test]
fn resumed_run_is_bit_identical_at_any_thread_count() {
    let netlist = netlist();
    let (full, snaps) = checkpointed_run(&netlist, &config(1), 4);
    assert_eq!(full.termination, Termination::Complete);
    assert!(snaps.len() >= 2, "need a genuinely mid-flight snapshot");

    // Resume from an *early* snapshot — most of the run happens post-resume.
    let early = snaps.first().expect("first snapshot");
    for threads in [1, 3] {
        let resumed = resume_run(&netlist, &config(threads), early.clone()).expect("resume");
        assert_eq!(
            full, resumed,
            "resume at {threads} threads diverged from the uninterrupted run"
        );
        assert_eq!(
            render("s444", &full),
            render("s444", &resumed),
            "rendered stdout must be byte-identical"
        );
    }

    // And from the last snapshot — most of the run is replayed from state.
    let late = snaps.last().expect("last snapshot");
    let resumed = resume_run(&netlist, &config(2), late.clone()).expect("resume");
    assert_eq!(full, resumed);
}

#[test]
fn snapshot_text_round_trips_through_parse() {
    let netlist = netlist();
    let (_, snaps) = checkpointed_run(&netlist, &config(1), 4);
    for snap in &snaps {
        let text = snap.to_text();
        let parsed = Snapshot::parse(&text).expect("round trip");
        assert_eq!(snap, &parsed);
        assert_eq!(text, parsed.to_text(), "serialization is canonical");
    }
}

#[test]
fn resume_rejects_a_mismatched_configuration() {
    let netlist = netlist();
    let (_, snaps) = checkpointed_run(&netlist, &config(1), 4);
    let snap = snaps.first().expect("snapshot").clone();

    // A different selection strategy is a different run; resuming would
    // silently splice two incompatible histories.
    let mut other = config(1);
    other.strategy = tvs::stitch::StrategyId::Random;
    let err = resume_run(&netlist, &other, snap).expect_err("must reject");
    assert!(
        matches!(
            err,
            StitchError::Snapshot(SnapshotError::Mismatch(ref m)) if m.contains("config")
        ),
        "got {err:?}"
    );

    // A thread-count change is explicitly NOT a mismatch: results are
    // bit-identical at any worker count, so the fingerprint excludes it.
    let (_, snaps) = checkpointed_run(&netlist, &config(1), 4);
    resume_run(&netlist, &config(4), snaps[0].clone())
        .expect("thread count is not part of the run identity");
}

#[test]
fn resume_rejects_a_foreign_circuit() {
    let (_, snaps) = checkpointed_run(&netlist(), &config(1), 4);
    let snap = snaps.first().expect("snapshot").clone();
    let other = circuits::s27();
    let err = resume_run(&other, &config(1), snap).expect_err("must reject");
    assert!(
        matches!(err, StitchError::Snapshot(SnapshotError::Mismatch(_))),
        "got {err:?}"
    );
}

#[test]
fn budget_spend_survives_a_resume() {
    // A budgeted run that checkpoints, stops on exhaustion, and is resumed
    // with the same budget must NOT get a fresh allowance: the snapshot
    // carries the spend, so the resumed run stops exactly where the
    // uninterrupted one did.
    let netlist = netlist();
    let budgeted = StitchConfig {
        budget: Some(60_000),
        ..config(1)
    };
    let engine = StitchEngine::new(&netlist).expect("engine");
    let mut snaps: Vec<Snapshot> = Vec::new();
    let mut keep = |snap: Snapshot| snaps.push(snap);
    let full = engine
        .run_with(
            &budgeted,
            RunOptions {
                resume: None,
                checkpoint_every: 2,
                on_checkpoint: Some(&mut keep),
                on_progress: None,
                prescreen_plan: None,
                on_prescreen: None,
            },
        )
        .expect("budgeted run");
    let Termination::BudgetExhausted { .. } = full.termination else {
        panic!("expected budget exhaustion, got {:?}", full.termination);
    };
    assert!(!snaps.is_empty());

    let resumed = resume_run(&netlist, &budgeted, snaps[0].clone()).expect("resume");
    assert_eq!(full, resumed, "resume must not refill the budget");
}
