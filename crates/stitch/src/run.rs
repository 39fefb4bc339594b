//! The driver of the cycle pipeline: the select → apply → classify loop,
//! termination/error taxonomy and final report assembly.

use std::error::Error;
use std::fmt;

use tvs_exec::TaskPanic;
use tvs_logic::BitVec;
use tvs_netlist::NetlistError;

use tvs_atpg::PodemResult;
use tvs_fault::Fault;
use tvs_scan::CostModel;

use crate::engine::StitchEngine;
use crate::snapshot::{Snapshot, SnapshotError};
use crate::state::RunState;
use crate::{CompressionMetrics, CycleRecord, StitchConfig};

/// Errors from the stitching engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum StitchError {
    /// The circuit has no flip-flops — nothing to stitch through.
    NoScanChain,
    /// The netlist could not be levelized.
    Netlist(NetlistError),
    /// A replayed vector's pinned bits disagree with the previous response.
    ReplayMismatch {
        /// 0-based cycle index of the offending vector.
        cycle: usize,
    },
    /// A pool worker panicked before any program existed (prescreen), so
    /// there is nothing to salvage. Mid-run panics instead end the run with
    /// [`Termination::WorkerPanic`] and a partial program.
    WorkerPanic {
        /// Stringified panic payload of the failed work item.
        message: String,
    },
    /// A resume snapshot was rejected.
    Snapshot(SnapshotError),
}

impl fmt::Display for StitchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StitchError::NoScanChain => write!(f, "circuit has no scan chain"),
            StitchError::Netlist(e) => write!(f, "netlist error: {e}"),
            StitchError::ReplayMismatch { cycle } => write!(
                f,
                "replayed vector {cycle} conflicts with the retained response bits"
            ),
            StitchError::WorkerPanic { message } => {
                write!(f, "worker panicked during the prescreen: {message}")
            }
            StitchError::Snapshot(e) => write!(f, "snapshot error: {e}"),
        }
    }
}

impl Error for StitchError {}

impl From<NetlistError> for StitchError {
    fn from(e: NetlistError) -> Self {
        StitchError::Netlist(e)
    }
}

impl From<SnapshotError> for StitchError {
    fn from(e: SnapshotError) -> Self {
        StitchError::Snapshot(e)
    }
}

/// How a stitched run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Termination {
    /// The flow ran to its natural end, fallback phase included.
    Complete,
    /// The work budget ran out at a stage boundary. The report's cycles and
    /// extra vectors form a valid (lint-clean) partial program.
    BudgetExhausted {
        /// Faults still in `f_u` when the run stopped.
        residual: Vec<Fault>,
    },
    /// A worker panicked mid-run. The cycles recorded before the failed
    /// stage form a valid partial program; the panic payload is preserved.
    WorkerPanic {
        /// Stringified panic payload of the lowest-index failed work item
        /// (deterministic at any thread count).
        message: String,
        /// Faults still in `f_u` when the run stopped.
        residual: Vec<Fault>,
    },
}

/// Resume/checkpoint options for [`StitchEngine::run_with`].
#[derive(Default)]
pub struct RunOptions<'cb> {
    /// Resume from a previously captured snapshot instead of starting
    /// fresh (the prescreen is skipped; its outcome is in the snapshot).
    pub resume: Option<Snapshot>,
    /// Emit a checkpoint every this many applied cycles (`0` = never).
    pub checkpoint_every: usize,
    /// Receives each emitted checkpoint; the caller persists it.
    pub on_checkpoint: Option<&'cb mut dyn FnMut(Snapshot)>,
    /// Receives a [`RunProgress`] after every applied cycle of the pipeline
    /// (the opening full shift-in included). Purely observational: the hook
    /// sees state, never steers it, so it cannot perturb the deterministic
    /// result stream — the serve layer feeds live `status` responses from it.
    pub on_progress: Option<&'cb mut dyn FnMut(RunProgress)>,
    /// Per-fault prescreen replay plan, aligned to the collapsed fault list:
    /// `Some(record)` replays the recorded verdicts without re-running
    /// simulation or PODEM for that fault, `None` recomputes them. The plan
    /// only changes *how* verdicts are obtained, never their values, budget
    /// charges or PRNG draws — a planned run is byte-identical to a cold
    /// one. The delta layer derives plans from cone-manifest diffs, where
    /// an unchanged fault support guarantees an unchanged verdict.
    pub prescreen_plan: Option<Vec<Option<PrescreenRecord>>>,
    /// Receives the [`PrescreenTrace`] once the prescreen finishes (never
    /// invoked on resumed runs — their prescreen outcome lives in the
    /// snapshot). The delta layer persists the trace as a cone manifest.
    pub on_prescreen: Option<&'cb mut dyn FnMut(PrescreenTrace)>,
}

/// A prescreen PODEM verdict, stripped of its witness cube: the part of the
/// per-fault outcome that must be replayed for a delta run to stay
/// byte-identical to a cold one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodemVerdict {
    /// The prover found a test (the fault stays tracked).
    Test,
    /// Proven untestable (classified prescreen-redundant).
    Untestable,
    /// The prover ran out of backtracks (tracked, but never targeted).
    Aborted,
}

impl PodemVerdict {
    /// One-letter code used by the manifest text form.
    pub fn code(self) -> char {
        match self {
            PodemVerdict::Test => 'T',
            PodemVerdict::Untestable => 'U',
            PodemVerdict::Aborted => 'A',
        }
    }

    /// Parses the one-letter manifest code.
    pub fn from_code(c: char) -> Option<Self> {
        Some(match c {
            'T' => PodemVerdict::Test,
            'U' => PodemVerdict::Untestable,
            'A' => PodemVerdict::Aborted,
            _ => return None,
        })
    }
}

/// One collapsed fault's recorded prescreen outcome: everything the replay
/// path needs to skip that fault's simulation rounds and deep PODEM proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrescreenRecord {
    /// Random-simulation round (0-based, < 8) where the fault was first
    /// detected, or `None` if the 8 rounds never caught it.
    pub first_detect_round: Option<u8>,
    /// Deep PODEM verdict and its backtrack count, when the prescreen ran
    /// the prover on this fault (`None` when simulation or static pruning
    /// already settled it).
    pub podem: Option<(PodemVerdict, u32)>,
}

/// The prescreen's full outcome, one record per collapsed fault, reported
/// through [`RunOptions::on_prescreen`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrescreenTrace {
    /// Per-fault records in collapsed fault-list order.
    pub records: Vec<PrescreenRecord>,
    /// How many faults were replayed from the plan end to end (simulation
    /// rounds and, where applicable, the PODEM verdict).
    pub reused: usize,
}

/// Live progress of an in-flight stitched run, reported through
/// [`RunOptions::on_progress`] at every cycle boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunProgress {
    /// Cycles applied so far (the opening full shift-in counts as 1).
    pub cycle: usize,
    /// `|f_c|` — faults caught so far.
    pub caught: usize,
    /// `|f_h|` — faults currently hidden in the chain.
    pub hidden: usize,
    /// `|f_u|` — faults not yet differentiated.
    pub uncaught: usize,
}

/// Why a run stopped before its natural end.
pub(crate) enum StopCause {
    Budget,
    Worker(TaskPanic),
}

/// The full outcome of a stitched run.
#[derive(Debug, Clone, PartialEq)]
pub struct StitchReport {
    /// Per-cycle records (first entry is the initial full shift-in).
    pub cycles: Vec<CycleRecord>,
    /// The shift sizes, `cycles[i].shift` collected for cost accounting.
    pub shifts: Vec<usize>,
    /// The closing flush length the engine decided on.
    pub final_flush: usize,
    /// Fallback full-shift vectors appended at the end.
    pub extra_vectors: Vec<BitVec>,
    /// Faults proven redundant (by unconstrained ATPG in the fallback).
    pub redundant: Vec<Fault>,
    /// Faults the fallback ATPG aborted on.
    pub aborted: Vec<Fault>,
    /// The headline `TV / ex / m / t` numbers.
    pub metrics: CompressionMetrics,
    /// Hidden-fault lifecycle counters `(entered, converted to caught,
    /// erased back to uncaught)` — the dynamics of the paper's §6.2.
    pub hidden_transitions: (usize, usize, usize),
    /// How the run ended: complete, out of budget, or a worker panic —
    /// the latter two still salvage a valid partial program.
    pub termination: Termination,
}

impl StitchEngine<'_> {
    /// Runs stitched test generation end to end and reports the paper's
    /// metrics.
    ///
    /// # Errors
    ///
    /// Propagates netlist errors from the baseline ATPG run.
    pub fn run(&self, config: &StitchConfig) -> Result<StitchReport, StitchError> {
        self.run_with(config, RunOptions::default())
    }

    /// Runs stitched test generation with resume/checkpoint control.
    ///
    /// A run resumed from a snapshot emitted by `opts.on_checkpoint` is
    /// **bit-identical** to one that never stopped, at any thread count:
    /// snapshots capture state (fault sets, program, PRNG, budget cursor),
    /// never timing.
    ///
    /// # Errors
    ///
    /// [`StitchError::Snapshot`] when `opts.resume` belongs to a different
    /// netlist or configuration, [`StitchError::WorkerPanic`] when a worker
    /// dies before any program exists (prescreen), plus the [`run`] errors.
    ///
    /// [`run`]: Self::run
    pub fn run_with(
        &self,
        config: &StitchConfig,
        mut opts: RunOptions<'_>,
    ) -> Result<StitchReport, StitchError> {
        let _timer = tvs_exec::span("stitch.run");
        let plan = opts.prescreen_plan.take();
        let mut run = match opts.resume.take() {
            Some(snapshot) => RunState::resume(self, config, snapshot)?,
            None => RunState::new(self, config, plan.as_deref())?,
        };
        if let Some(trace) = run.prescreen_trace.take() {
            if let Some(cb) = opts.on_prescreen.as_mut() {
                cb(trace);
            }
        }
        let l = self.chain.length();
        let baseline_rate = run.baseline_rate();
        let cycles_timer = tvs_exec::span("stitch.cycles");

        // Cycle 1: a conventional full shift-in, but chosen by the same
        // selection machinery (constraint-free). Skipped on resume — the
        // snapshot already contains it.
        if run.cycles.is_empty() && run.sets.uncaught_count() > 0 && !run.budget.exhausted() {
            if let Some(vector) = run.select_vector(l, true) {
                if let Err(panic) = run.apply_cycle(l, &vector, true) {
                    run.stop = Some(StopCause::Worker(panic));
                } else {
                    run.report_progress(&mut opts.on_progress);
                }
            }
        }

        // A stitched cycle can only ride on a loaded chain: if the opening
        // full shift-in could not be selected at all (e.g. a PODEM abort
        // storm), skip the stitched phase and leave everything to the
        // fallback so `shifts[0] == L` holds for every emitted program.
        while run.stop.is_none()
            && !run.cycles.is_empty()
            && run.sets.uncaught_count() > 0
            && run.cycles.len() < config.max_cycles
        {
            // Stage boundary: the budget is only ever checked here, so a
            // stage that crosses the line completes before the run stops.
            if run.budget.exhausted() {
                run.stop = Some(StopCause::Budget);
                break;
            }
            if run.shift_exhausted(baseline_rate) {
                // lint:allow(SRC006) -- debug tracing gate; never influences results
                if std::env::var_os("TVS_DEBUG").is_some() {
                    eprintln!(
                        "[tvs] escalate from k={}: cycles={} caught={} hidden={} uncaught={}",
                        run.k,
                        run.cycles.len(),
                        run.sets.caught_count(),
                        run.sets.hidden_count(),
                        run.sets.uncaught_count()
                    );
                }
                match run.escalate_shift() {
                    Some(next) => {
                        run.k = next;
                        run.stagnant = 0;
                        run.select_failed = false;
                        run.window.clear();
                        run.failed_targets.clear();
                    }
                    None => break,
                }
            }
            let k = run.k;
            match run.select_vector(k, false) {
                Some(vector) => {
                    if let Err(panic) = run.apply_cycle(k, &vector, false) {
                        run.stop = Some(StopCause::Worker(panic));
                        break;
                    }
                    run.report_progress(&mut opts.on_progress);
                    let caught = run.cycles.last().map(|c| c.newly_caught).unwrap_or(0);
                    if caught == 0 {
                        run.stagnant += 1;
                    } else {
                        run.stagnant = 0;
                    }
                    run.window.push_back((caught, run.cycle_cost(k)));
                    if run.window.len() > config.efficiency_window {
                        run.window.pop_front();
                    }
                    if opts.checkpoint_every > 0 && run.cycles.len() % opts.checkpoint_every == 0 {
                        if let Some(cb) = opts.on_checkpoint.as_mut() {
                            cb(run.snapshot());
                        }
                    }
                }
                None => run.select_failed = true,
            }
        }
        drop(cycles_timer);

        let _finish_timer = tvs_exec::span("stitch.finish");
        run.finish()
    }
}

impl RunState<'_, '_> {
    /// Feeds the `on_progress` hook from the current fault-set counts.
    fn report_progress(&self, hook: &mut Option<&mut dyn FnMut(RunProgress)>) {
        if let Some(cb) = hook.as_mut() {
            cb(RunProgress {
                cycle: self.cycles.len(),
                caught: self.sets.caught_count(),
                hidden: self.sets.hidden_count(),
                uncaught: self.sets.uncaught_count(),
            });
        }
    }

    /// Closing flush + conventional fallback, then metric assembly.
    pub(crate) fn finish(mut self) -> Result<StitchReport, StitchError> {
        let l = self.l();

        // Closing flush: find, per hidden fault, the shortest flush prefix
        // that reveals it; flush long enough for all of them (exact under
        // any observation transform).
        let mut final_flush = 0usize;
        if !self.cycles.is_empty() {
            let zeros = BitVec::zeros(l);
            let sh_good = self
                .eng
                .chain
                .shift(&self.good_image, &zeros, self.cfg.observe);
            for idx in self.sets.hidden_indices() {
                // Defensive: a hidden fault always carries an image; treat a
                // missing one as never-revealed rather than aborting.
                let Some(image) = self.sets.image(idx).cloned() else {
                    self.sets.set_uncaught(idx);
                    continue;
                };
                let sh_f = self.eng.chain.shift(&image, &zeros, self.cfg.observe);
                let first_diff = (0..l).find(|&t| sh_f.observed.get(t) != sh_good.observed.get(t));
                match first_diff {
                    Some(t) => {
                        final_flush = final_flush.max(t + 1);
                        self.sets.set_caught(idx);
                    }
                    None => self.sets.set_uncaught(idx),
                }
            }
            // Even with no hidden faults the last response is conventionally
            // checked with a closing shift of the last stitch size.
            if final_flush == 0 {
                final_flush = self.shifts.last().copied().unwrap_or(l);
            }
        }

        // Fallback: conventional vectors for whatever is left in f_u —
        // skipped entirely when the run already stopped (budget or worker
        // panic): the report then salvages the stitched program as-is and
        // lists the leftovers as the residual.
        let mut extra_vectors: Vec<BitVec> = Vec::new();
        let mut redundant: Vec<Fault> = std::mem::take(&mut self.prescreen_redundant);
        let prescreen_redundant_count = redundant.len();
        let mut aborted: Vec<Fault> = std::mem::take(&mut self.prescreen_aborted);
        let mut remaining: Vec<usize> = self
            .sets
            .uncaught_indices()
            .into_iter()
            .filter(|i| !self.never_target.contains(i))
            .collect();
        let fallback_faults: Vec<Fault> = remaining.iter().map(|&i| self.sets.fault(i)).collect();
        while self.stop.is_none() && !remaining.is_empty() {
            // Stage boundary: an exhausted budget ends the fallback between
            // vectors, leaving the leftovers as the residual.
            if self.budget.exhausted() {
                self.stop = Some(StopCause::Budget);
                break;
            }
            let idx = remaining[0];
            let fault = self.sets.fault(idx);
            let prover = &mut self.provers[0];
            let result = prover.generate_free(fault, &self.verdicts);
            let backtracks = u64::from(prover.last_backtracks());
            match result {
                PodemResult::Test(cube) => {
                    self.budget.charge(1 + backtracks + remaining.len() as u64);
                    let bits = cube.random_fill(&mut self.rng);
                    let faults: Vec<Fault> =
                        remaining.iter().map(|&i| self.sets.fault(i)).collect();
                    let hits = self.detect(&bits, &faults);
                    let mut next = Vec::with_capacity(remaining.len());
                    for (slot, &fi) in remaining.iter().enumerate() {
                        if hits[slot] {
                            self.sets.set_caught(fi);
                        } else {
                            next.push(fi);
                        }
                    }
                    debug_assert!(
                        next.len() < remaining.len(),
                        "fallback vector must progress"
                    );
                    if next.len() == remaining.len() {
                        // Defensive: avoid livelock on a sim/ATPG disagreement.
                        aborted.push(fault);
                        next.retain(|&i| i != idx);
                    }
                    remaining = next;
                    extra_vectors.push(bits);
                }
                PodemResult::Untestable => {
                    self.budget.charge(1 + backtracks);
                    redundant.push(fault);
                    remaining.remove(0);
                }
                PodemResult::Aborted => {
                    self.budget.charge(1 + backtracks);
                    aborted.push(fault);
                    remaining.remove(0);
                }
            }
        }
        // The fallback phase is conventional test application, so it gets
        // conventional reverse-order compaction against the faults it was
        // responsible for.
        if extra_vectors.len() > 1 {
            extra_vectors = tvs_atpg::compact_patterns(
                self.eng.netlist,
                &self.eng.view,
                &fallback_faults,
                &extra_vectors,
            );
        }

        // Baseline for the ratios (generated up front in `new`).
        let baseline = &self.baseline;

        let model = CostModel {
            scan_len: l,
            pi_count: self.p(),
            po_count: self.q(),
        };
        let stitched_costs = if self.shifts.is_empty() {
            // Degenerate: everything handled by fallback vectors.
            model.full_costs(extra_vectors.len())
        } else {
            model.stitched_costs(&self.shifts, final_flush, extra_vectors.len())
        };
        let baseline_costs = model.full_costs(baseline.len());

        // Denominator: every tracked fault that is not proven redundant.
        // Prescreen-redundant faults were never tracked, so only the
        // fallback-found redundancies must be discounted here.
        let fallback_redundant = redundant.len() - prescreen_redundant_count;
        let testable = self.sets.len() - fallback_redundant;
        let coverage = if testable == 0 {
            1.0
        } else {
            self.sets.caught_count() as f64 / testable as f64
        };

        let metrics = CompressionMetrics::new(
            self.cycles.len(),
            extra_vectors.len(),
            baseline.len(),
            stitched_costs,
            baseline_costs,
            coverage,
        );

        tvs_exec::counter("stitch.extra_vectors").add(extra_vectors.len() as u64);
        // Degenerate runs (no stitched cycles, everything on fallback
        // vectors) have no program shape to check.
        if !self.shifts.is_empty() {
            tvs_lint::debug_assert_program_clean(
                &tvs_lint::ProgramSpec {
                    scan_len: l,
                    shifts: self.shifts.clone(),
                    final_flush,
                    extra_vectors: extra_vectors.len(),
                    uncaught_at_fallback: fallback_faults.len(),
                },
                "stitch::finish",
            );
        }
        let hidden_transitions = self.sets.transition_counts();
        let residual: Vec<Fault> = if self.stop.is_some() {
            self.sets
                .uncaught_indices()
                .into_iter()
                .map(|i| self.sets.fault(i))
                .collect()
        } else {
            Vec::new()
        };
        let termination = match self.stop.take() {
            None => Termination::Complete,
            Some(StopCause::Budget) => Termination::BudgetExhausted { residual },
            Some(StopCause::Worker(panic)) => Termination::WorkerPanic {
                message: panic.message,
                residual,
            },
        };
        Ok(StitchReport {
            cycles: self.cycles,
            shifts: self.shifts,
            final_flush,
            extra_vectors,
            redundant,
            aborted,
            metrics,
            hidden_transitions,
            termination,
        })
    }
}
