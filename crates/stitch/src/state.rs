//! Mutable state of one stitched run plus its checkpoint/restore glue.
//!
//! [`RunState`] is shared by every stage of the cycle pipeline: the
//! selection stage ([`vector`](crate::vector)), the apply/classify stage
//! ([`cycle`](crate::cycle)) and the driver loop ([`run`](crate::run)).
//! Simulation goes through one persistent [`SimSession`] so the good-machine
//! baseline seeded for a cycle is reused incrementally by every faulty
//! sweep of that cycle.

use std::collections::{BTreeSet, VecDeque};

use tvs_exec::{inject, Budget, ThreadPool};
use tvs_logic::{BitVec, Cube, Prng};

use tvs_atpg::{generate_tests, Podem, PodemConfig, PodemResult};
use tvs_fault::{Fault, Scoap, SimSession, StaticPrune};
use tvs_scan::CostModel;

use crate::config::config_fingerprint;
use crate::engine::StitchEngine;
use crate::run::{PodemVerdict, PrescreenRecord, PrescreenTrace, StitchError, StopCause};
use crate::snapshot::{FaultEntry, Snapshot, SnapshotError};
use crate::strategy::StrategyCtx;
use crate::{CycleRecord, FaultSets, FaultState, StitchConfig};

/// Random-pattern rounds of the prescreen, before PODEM sees the survivors.
const PRESCREEN_ROUNDS: usize = 8;

/// Mutable state of one `run` invocation.
pub(crate) struct RunState<'r, 'a> {
    pub(crate) eng: &'r StitchEngine<'a>,
    pub(crate) cfg: &'r StitchConfig,
    pub(crate) pool: ThreadPool,
    pub(crate) rng: Prng,
    pub(crate) podem: Podem<'r>,
    pub(crate) session: SimSession<'r>,
    pub(crate) scoap: Scoap,
    pub(crate) sets: FaultSets,
    pub(crate) good_image: BitVec,
    pub(crate) cycles: Vec<CycleRecord>,
    pub(crate) shifts: Vec<usize>,
    /// Targets that failed constrained ATPG at the current shift size.
    pub(crate) failed_targets: BTreeSet<usize>,
    /// Faults prescreened as ATPG-hopeless: never chosen as targets (they
    /// may still be caught fortuitously).
    pub(crate) never_target: BTreeSet<usize>,
    /// Faults proven redundant by the prescreen (excluded from tracking).
    pub(crate) prescreen_redundant: Vec<Fault>,
    /// Faults the prescreen PODEM aborted on.
    pub(crate) prescreen_aborted: Vec<Fault>,
    /// The baseline pattern set (run up front; needed for the ratios anyway
    /// and for the marginal-efficiency stop rule).
    pub(crate) baseline: tvs_atpg::PatternSet,
    /// The run's work budget (work units, never wall clock).
    pub(crate) budget: Budget,
    /// The strategy's persistent cursor (ADI counts, scheme genome, active
    /// bucket, …) — opaque to the engine, checkpointed verbatim.
    pub(crate) strategy_cursor: Vec<u64>,
    /// Current shift size.
    pub(crate) k: usize,
    /// Consecutive zero-catch cycles at the current shift size.
    pub(crate) stagnant: usize,
    /// Whether the last selection at the current shift size found nothing.
    pub(crate) select_failed: bool,
    /// Marginal-efficiency window: `(newly_caught, cycle_cost)` per cycle.
    pub(crate) window: VecDeque<(usize, f64)>,
    /// Set when the run must stop early (budget or worker panic).
    pub(crate) stop: Option<StopCause>,
    /// The prescreen's per-fault outcome, captured on cold and planned runs
    /// (absent on resume — the snapshot already holds the outcome).
    pub(crate) prescreen_trace: Option<PrescreenTrace>,
}

impl<'r, 'a> RunState<'r, 'a> {
    pub(crate) fn new(
        eng: &'r StitchEngine<'a>,
        cfg: &'r StitchConfig,
        plan: Option<&[Option<PrescreenRecord>]>,
    ) -> Result<Self, StitchError> {
        let scoap = Scoap::compute(eng.netlist, &eng.view);
        let baseline = generate_tests(eng.netlist, &cfg.baseline).map_err(|e| match e {
            tvs_atpg::AtpgOutcome::Netlist(err) => StitchError::Netlist(err),
        })?;
        let mut state = RunState {
            eng,
            cfg,
            pool: ThreadPool::new(cfg.threads),
            rng: Prng::seed_from_u64(cfg.seed),
            podem: Podem::with_config(eng.netlist, &eng.view, cfg.podem),
            session: SimSession::new(eng.netlist, &eng.view),
            scoap,
            sets: FaultSets::new(Vec::new()),
            good_image: BitVec::zeros(eng.chain.length()),
            cycles: Vec::new(),
            shifts: Vec::new(),
            failed_targets: BTreeSet::new(),
            never_target: BTreeSet::new(),
            prescreen_redundant: Vec::new(),
            prescreen_aborted: Vec::new(),
            baseline,
            budget: Budget::from_limit(cfg.budget),
            strategy_cursor: Vec::new(),
            k: 0,
            stagnant: 0,
            select_failed: false,
            window: VecDeque::new(),
            stop: None,
            prescreen_trace: None,
        };
        state.prescreen(plan)?;
        // Strategy cold start: the cursor (ADI counts, scheme genome, …) is
        // computed once against the freshly tracked fault sets, then the
        // strategy picks the opening shift size. Legacy strategies have an
        // empty prepare and delegate the shift to the policy, so their
        // PRNG/budget streams — and therefore their results — are unchanged.
        let strat = cfg.strategy.resolve();
        let cursor = strat.prepare(&mut state.strategy_ctx());
        state.strategy_cursor = cursor;
        state.k = strat.initial_shift(&mut state.strategy_ctx());
        Ok(state)
    }

    /// The borrowed context strategies see. Field borrows are disjoint, so
    /// the immutable circuit/fault views coexist with the mutable PRNG,
    /// budget and cursor streams.
    pub(crate) fn strategy_ctx(&mut self) -> StrategyCtx<'_> {
        StrategyCtx {
            netlist: self.eng.netlist,
            view: &self.eng.view,
            scoap: &self.scoap,
            sets: &self.sets,
            policy: &self.cfg.policy,
            seed: self.cfg.seed,
            scan_len: self.eng.chain.length(),
            k: self.k,
            rng: &mut self.rng,
            budget: &mut self.budget,
            cursor: &mut self.strategy_cursor,
        }
    }

    /// Asks the strategy for the next (strictly larger) shift size.
    pub(crate) fn escalate_shift(&mut self) -> Option<usize> {
        let strat = self.cfg.strategy.resolve();
        strat.escalate(&mut self.strategy_ctx())
    }

    /// Rebuilds a run's state from a checkpoint snapshot: validates that the
    /// snapshot belongs to this netlist and configuration, restores the
    /// fault sets (with every hidden image), the program so far, the PRNG
    /// stream and the budget cursor. The prescreen is skipped — its outcome
    /// (redundant/aborted verdicts and the PRNG draws it consumed) is
    /// already baked into the snapshot.
    pub(crate) fn resume(
        eng: &'r StitchEngine<'a>,
        cfg: &'r StitchConfig,
        snap: Snapshot,
    ) -> Result<Self, StitchError> {
        let mismatch = |what: String| StitchError::Snapshot(SnapshotError::Mismatch(what));
        if snap.circuit != eng.netlist.name() {
            return Err(mismatch(format!(
                "snapshot is for circuit {:?}, run is on {:?}",
                snap.circuit,
                eng.netlist.name()
            )));
        }
        if snap.gate_count != eng.netlist.gate_count() {
            return Err(mismatch(format!(
                "gate count {} vs {}",
                snap.gate_count,
                eng.netlist.gate_count()
            )));
        }
        let l = eng.chain.length();
        if snap.scan_len != l {
            return Err(mismatch(format!("scan length {} vs {l}", snap.scan_len)));
        }
        if snap.fault_count != eng.faults.len() {
            return Err(mismatch(format!(
                "collapsed fault count {} vs {}",
                snap.fault_count,
                eng.faults.len()
            )));
        }
        if snap.fault_entries.len() != snap.fault_count {
            return Err(mismatch(format!(
                "{} fault entries for {} faults",
                snap.fault_entries.len(),
                snap.fault_count
            )));
        }
        if snap.config_fingerprint != config_fingerprint(cfg) {
            return Err(mismatch(
                "configuration fingerprint differs (only threads/budget may change)".to_string(),
            ));
        }
        if snap.k == 0 || snap.k > l {
            return Err(mismatch(format!("shift size k={} out of range", snap.k)));
        }
        if snap.good_image.len() != l {
            return Err(mismatch(
                "good-image length differs from the chain".to_string(),
            ));
        }
        let p = eng.view.pi_count();
        for (i, c) in snap.cycles.iter().enumerate() {
            if c.shift == 0 || c.shift > l || c.vector.len() != p + l {
                return Err(mismatch(format!("cycle {i} is malformed")));
            }
        }

        let mut tracked = Vec::new();
        let mut state = Vec::new();
        let mut images = Vec::new();
        let mut prescreen_redundant = Vec::new();
        for (&fault, entry) in eng.faults.faults().iter().zip(&snap.fault_entries) {
            match entry {
                FaultEntry::Redundant => prescreen_redundant.push(fault),
                FaultEntry::Uncaught => {
                    tracked.push(fault);
                    state.push(FaultState::Uncaught);
                    images.push(None);
                }
                FaultEntry::Caught => {
                    tracked.push(fault);
                    state.push(FaultState::Caught);
                    images.push(None);
                }
                FaultEntry::Hidden(img) => {
                    if img.len() != l {
                        return Err(mismatch(
                            "hidden-fault image length differs from the chain".to_string(),
                        ));
                    }
                    tracked.push(fault);
                    state.push(FaultState::Hidden);
                    images.push(Some(img.clone()));
                }
            }
        }
        let tracked_len = tracked.len();
        let sets = FaultSets::restore(tracked, state, images, snap.transitions)
            .ok_or_else(|| mismatch("inconsistent fault-set state".to_string()))?;
        if snap
            .never_target
            .iter()
            .chain(&snap.failed_targets)
            .any(|&i| i >= tracked_len)
        {
            return Err(mismatch("target index out of range".to_string()));
        }
        let never_target: BTreeSet<usize> = snap.never_target.iter().copied().collect();
        let prescreen_aborted: Vec<Fault> = never_target.iter().map(|&i| sets.fault(i)).collect();

        // The baseline pattern set is deterministic given the config, so it
        // is recomputed rather than checkpointed.
        let baseline = generate_tests(eng.netlist, &cfg.baseline).map_err(|e| match e {
            tvs_atpg::AtpgOutcome::Netlist(err) => StitchError::Netlist(err),
        })?;
        let shifts = snap.cycles.iter().map(|c| c.shift).collect();
        Ok(RunState {
            eng,
            cfg,
            pool: ThreadPool::new(cfg.threads),
            rng: Prng::from_state(snap.rng),
            podem: Podem::with_config(eng.netlist, &eng.view, cfg.podem),
            session: SimSession::new(eng.netlist, &eng.view),
            scoap: Scoap::compute(eng.netlist, &eng.view),
            sets,
            good_image: snap.good_image,
            cycles: snap.cycles,
            shifts,
            failed_targets: snap.failed_targets.iter().copied().collect(),
            never_target,
            prescreen_redundant,
            prescreen_aborted,
            baseline,
            budget: Budget::with_spent(cfg.budget, snap.budget_spent),
            strategy_cursor: snap.strategy_cursor,
            k: snap.k,
            stagnant: snap.stagnant,
            select_failed: false,
            window: snap.window.iter().copied().collect(),
            stop: None,
            prescreen_trace: None,
        })
    }

    /// Captures a checkpoint at the current cycle boundary. Faults are
    /// recorded positionally against the collapsed list, so the snapshot
    /// needs no fault identities.
    pub(crate) fn snapshot(&self) -> Snapshot {
        let collapsed = self.eng.faults.faults();
        let mut fault_entries = Vec::with_capacity(collapsed.len());
        let (mut tracked_i, mut red_i) = (0usize, 0usize);
        for &fault in collapsed {
            if red_i < self.prescreen_redundant.len() && self.prescreen_redundant[red_i] == fault {
                fault_entries.push(FaultEntry::Redundant);
                red_i += 1;
            } else {
                fault_entries.push(match self.sets.state(tracked_i) {
                    FaultState::Uncaught => FaultEntry::Uncaught,
                    FaultState::Caught => FaultEntry::Caught,
                    FaultState::Hidden => FaultEntry::Hidden(
                        self.sets
                            .image(tracked_i)
                            .cloned()
                            .unwrap_or_else(BitVec::new),
                    ),
                });
                tracked_i += 1;
            }
        }
        Snapshot {
            circuit: self.eng.netlist.name().to_string(),
            gate_count: self.eng.netlist.gate_count(),
            scan_len: self.l(),
            fault_count: collapsed.len(),
            config_fingerprint: config_fingerprint(self.cfg),
            rng: self.rng.state(),
            budget_spent: self.budget.spent(),
            strategy_cursor: self.strategy_cursor.clone(),
            k: self.k,
            stagnant: self.stagnant,
            window: self.window.iter().copied().collect(),
            good_image: self.good_image.clone(),
            transitions: self.sets.transition_counts(),
            cycles: self.cycles.clone(),
            fault_entries,
            never_target: self.never_target.iter().copied().collect(),
            failed_targets: self.failed_targets.iter().copied().collect(),
        }
    }

    /// Memory cost of one `k`-bit cycle, for the efficiency window.
    pub(crate) fn cycle_cost(&self, k: usize) -> f64 {
        (2 * k + self.p() + self.q()) as f64
    }

    /// Whether the current shift size is spent: constrained selection found
    /// nothing, stagnation hit its limit, or the recent catches-per-
    /// memory-bit rate fell below the (discounted) baseline rate. Evaluated
    /// at the loop top from persisted state so a resumed run re-evaluates
    /// it identically.
    pub(crate) fn shift_exhausted(&self, baseline_rate: f64) -> bool {
        if self.select_failed || self.stagnant >= self.cfg.stagnation_limit {
            return true;
        }
        self.window.len() >= self.cfg.efficiency_window && {
            let catches: usize = self.window.iter().map(|&(c, _)| c).sum();
            let cost: f64 = self.window.iter().map(|&(_, c)| c).sum();
            (catches as f64 / cost) < baseline_rate * self.cfg.efficiency_margin
        }
    }

    /// The baseline flow's lifetime catches-per-memory-bit rate.
    pub(crate) fn baseline_rate(&self) -> f64 {
        let model = CostModel {
            scan_len: self.l(),
            pi_count: self.p(),
            po_count: self.q(),
        };
        let mem = model.full_costs(self.baseline.len().max(1)).memory_bits;
        self.sets.len() as f64 / mem as f64
    }

    /// Splits the collapsed list into tracked faults vs. proven-redundant
    /// ones (the paper starts `f_u` from "all the irredundant faults").
    /// Cheap testability witnesses come from random simulation; only the
    /// survivors get an unconstrained PODEM verdict. Aborted faults stay
    /// tracked (they can be caught fortuitously) but are never chosen as
    /// ATPG targets.
    ///
    /// With a replay `plan` (one optional [`PrescreenRecord`] per collapsed
    /// fault), planned faults take their per-round detection and PODEM
    /// verdicts from the record instead of recomputing them. Budget charges
    /// and PRNG draws are identical either way — the plan changes *where*
    /// verdicts come from, never what the prescreen does with them — so a
    /// planned run is byte-identical to a cold one whenever the records are
    /// accurate. A record missing its PODEM verdict where one is needed is
    /// demoted to live computation rather than trusted.
    fn prescreen(&mut self, plan: Option<&[Option<PrescreenRecord>]>) -> Result<(), StitchError> {
        // Chaos hook: a worker dying this early leaves no program to
        // salvage, so the whole run reports a typed error.
        if inject::fire("stitch.prescreen.panic") {
            return Err(StitchError::WorkerPanic {
                message: inject::panic_message("stitch.prescreen.panic"),
            });
        }
        let faults = self.eng.faults.faults();
        // A plan of the wrong length cannot describe this fault list.
        let plan = plan.filter(|p| p.len() == faults.len());
        let planned = |i: usize| plan.and_then(|p| p[i]);
        let mut records: Vec<PrescreenRecord> = vec![PrescreenRecord::default(); faults.len()];
        let mut testable = vec![false; faults.len()];
        // The random rounds run as one pattern-parallel sweep per live
        // fault: all PRESCREEN_ROUNDS patterns are drawn up front and a
        // fault's first detecting round is the lowest set bit of its mask.
        // Planned faults replay their recorded round instead. The rounds
        // are then replayed in order from those first-detect rounds, so the
        // per-round budget charges and the patterns the PRNG stream gives
        // up are exactly those of a round-by-round simulation.
        let start = self.rng.clone();
        let patterns: Vec<BitVec> = (0..PRESCREEN_ROUNDS)
            .map(|_| self.random_pattern())
            .collect();
        let mut first: Vec<Option<u8>> = vec![None; faults.len()];
        let mut live: Vec<usize> = Vec::new();
        for (i, slot) in first.iter_mut().enumerate() {
            match planned(i) {
                Some(rec) => *slot = rec.first_detect_round,
                None => live.push(i),
            }
        }
        if !live.is_empty() {
            let subset: Vec<Fault> = live.iter().map(|&i| faults[i]).collect();
            let masks = match self.session.detect_patterns(&patterns, &subset) {
                Ok(masks) => masks,
                Err(_) => unreachable!("prescreen rounds are view-width patterns"),
            };
            for (&i, mask) in live.iter().zip(masks) {
                first[i] = (mask != 0).then(|| mask.trailing_zeros() as u8);
            }
        }
        let mut alive: Vec<usize> = (0..faults.len()).collect();
        let mut rounds = 0usize;
        for round in 0..PRESCREEN_ROUNDS as u8 {
            if alive.is_empty() {
                break;
            }
            rounds += 1;
            self.budget.charge(alive.len() as u64);
            alive.retain(|&i| {
                if first[i] == Some(round) {
                    testable[i] = true;
                    records[i].first_detect_round = Some(round);
                    false
                } else {
                    true
                }
            });
        }
        // Give back the patterns of rounds that never ran.
        self.rng = start;
        for _ in 0..rounds {
            self.random_pattern();
        }
        let free = Cube::unspecified(self.eng.view.input_count());
        let mut tracked: Vec<Fault> = Vec::with_capacity(faults.len());
        // Redundancy proofs are worth extra effort: an abort here silently
        // costs coverage, so the prescreen gets a much deeper backtrack
        // budget than per-cycle constrained generation.
        let deep = PodemConfig {
            backtrack_limit: self.cfg.podem.backtrack_limit.saturating_mul(8),
            ..self.cfg.podem
        };
        // Verdicts are independent per fault, so the deep PODEM runs fan out
        // over the pool in fixed 32-fault chunks (one prover per chunk) and
        // merge back in fault-index order — bit-identical at any thread
        // count.
        // Structurally unobservable faults are untestable by construction
        // (no path to any observation point), so they skip the PODEM proof
        // entirely and classify as redundant — the same verdict the prover
        // would reach, but pattern- and budget-independent, hence identical
        // in every run path.
        let prune = StaticPrune::new(self.eng.netlist);
        let needs: Vec<(usize, Fault)> = faults
            .iter()
            .enumerate()
            .filter(|&(i, f)| !testable[i] && !prune.is_untestable(f))
            .map(|(i, &f)| (i, f))
            .collect();
        // Planned faults carry their verdict; the rest go to the pool. A
        // planned fault without a recorded verdict is a plan inconsistency:
        // it is demoted to live computation, never guessed.
        let mut verdict_at: Vec<Option<(PodemVerdict, u32)>> = vec![None; needs.len()];
        let mut demoted = 0usize;
        let mut live: Vec<Fault> = Vec::new();
        let mut live_at: Vec<usize> = Vec::new();
        for (slot, &(i, fault)) in needs.iter().enumerate() {
            match planned(i).and_then(|rec| rec.podem) {
                Some(verdict) => verdict_at[slot] = Some(verdict),
                None => {
                    if planned(i).is_some() {
                        demoted += 1;
                    }
                    live.push(fault);
                    live_at.push(slot);
                }
            }
        }
        let chunks: Vec<&[Fault]> = live.chunks(32).collect();
        let (netlist, view) = (self.eng.netlist, &self.eng.view);
        // Each verdict comes back with its backtrack count so the budget
        // charge reduces on the caller side, in fault order — deterministic
        // at any thread count.
        let live_verdicts: Vec<(PodemResult, u32)> = self
            .pool
            .try_map(&chunks, |_, chunk| {
                let mut prover = Podem::with_config(netlist, view, deep);
                chunk
                    .iter()
                    .map(|&fault| {
                        let verdict = prover.generate(fault, &free);
                        (verdict, prover.last_backtracks())
                    })
                    .collect::<Vec<(PodemResult, u32)>>()
            })
            .map_err(|panic| StitchError::WorkerPanic {
                message: panic.message,
            })?
            .into_iter()
            .flatten()
            .collect();
        for (&slot, (result, backtracks)) in live_at.iter().zip(live_verdicts) {
            let kind = match result {
                PodemResult::Test(_) => PodemVerdict::Test,
                PodemResult::Untestable => PodemVerdict::Untestable,
                PodemResult::Aborted => PodemVerdict::Aborted,
            };
            verdict_at[slot] = Some((kind, backtracks));
        }
        let mut verdicts = verdict_at.into_iter();
        for (i, &fault) in faults.iter().enumerate() {
            if testable[i] {
                tracked.push(fault);
                continue;
            }
            if prune.is_untestable(&fault) {
                self.prescreen_redundant.push(fault);
                continue;
            }
            // Defensive: one verdict per screened fault; a short stream is
            // treated as an abort rather than an invariant crash.
            let (verdict, backtracks) = verdicts
                .next()
                .flatten()
                .unwrap_or((PodemVerdict::Aborted, 0));
            records[i].podem = Some((verdict, backtracks));
            self.budget.charge(1 + u64::from(backtracks));
            match verdict {
                PodemVerdict::Test => tracked.push(fault),
                PodemVerdict::Untestable => self.prescreen_redundant.push(fault),
                PodemVerdict::Aborted => {
                    self.prescreen_aborted.push(fault);
                    self.never_target.insert(tracked.len());
                    tracked.push(fault);
                }
            }
        }
        let reused = plan
            .map(|p| p.iter().filter(|r| r.is_some()).count() - demoted)
            .unwrap_or(0);
        self.prescreen_trace = Some(PrescreenTrace { records, reused });
        self.sets = FaultSets::new(tracked);
        Ok(())
    }

    /// Draws one fully specified pattern over the view's inputs.
    fn random_pattern(&mut self) -> BitVec {
        (0..self.eng.view.input_count())
            .map(|_| self.rng.next_bool())
            .collect()
    }

    /// Session-backed fault detection under a shared stimulus. The engine
    /// only ever builds view-width stimuli, so the session's typed length
    /// error is structurally impossible here.
    pub(crate) fn detect(&mut self, stimulus: &BitVec, faults: &[Fault]) -> Vec<bool> {
        match self.session.detect(stimulus, faults) {
            Ok(hits) => hits,
            Err(_) => unreachable!("engine stimuli always match the scan view"),
        }
    }

    pub(crate) fn p(&self) -> usize {
        self.eng.view.pi_count()
    }

    pub(crate) fn q(&self) -> usize {
        self.eng.view.po_count()
    }

    pub(crate) fn l(&self) -> usize {
        self.eng.chain.length()
    }
}
