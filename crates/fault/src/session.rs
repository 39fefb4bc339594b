//! A persistent simulation session: slot allocation, baseline reuse and
//! >64-slot batching over the incremental [`ParallelSim`] kernel.

use std::error::Error;
use std::fmt;

use tvs_exec::Counter;
use tvs_logic::BitVec;
use tvs_netlist::{Netlist, ScanView};
use tvs_sim::{Injection, ParallelSim};

use crate::{Fault, SlotSpec};

/// Typed errors of the simulation session (and of
/// [`FaultSim::run_slots`](crate::FaultSim::run_slots)), consistent with the
/// toolkit-wide taxonomy: malformed simulation requests degrade through
/// errors, never aborts (lint rule SRC005).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FaultError {
    /// A pattern-parallel sweep was requested with no patterns.
    EmptyBatch,
    /// More than 64 slots (or patterns) were requested for a single sweep.
    TooManySlots {
        /// The number of slots given.
        given: usize,
    },
    /// A slot's stimulus does not match the scan view's input count.
    StimulusLength {
        /// The offending slot index (0 for a baseline stimulus).
        slot: usize,
        /// The stimulus length given.
        got: usize,
        /// The view's input count.
        want: usize,
    },
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultError::EmptyBatch => write!(f, "a pattern batch needs at least one pattern"),
            FaultError::TooManySlots { given } => {
                write!(f, "{given} slots requested, a sweep holds at most 64")
            }
            FaultError::StimulusLength { slot, got, want } => write!(
                f,
                "slot {slot} stimulus has {got} bits, the scan view expects {want}"
            ),
        }
    }
}

impl Error for FaultError {}

/// A persistent multi-fault simulation session.
///
/// Where [`FaultSim`](crate::FaultSim) models one sweep at a time, a session
/// owns the state that makes *sequences* of sweeps cheap:
///
/// * **baseline reuse** — [`baseline`](Self::baseline) seeds one fault-free
///   full sweep; subsequent [`run_slots`](Self::run_slots) calls re-evaluate
///   only the fanout cones of the bits and injections that differ from it
///   (the stitching engine's classify stage shares one good-machine vector
///   across hundreds of faulty machines, so most gate evaluations are
///   provably redundant — see DESIGN.md §11);
/// * **slot allocation** — stimuli are packed into the 64 bit-parallel
///   machines of one sweep, with unused slots mirroring the baseline so they
///   cause no spurious events;
/// * **batching** — [`run_jobs`](Self::run_jobs) accepts any number of
///   machines and splits them into sweeps internally, removing the 64-slot
///   ceiling from every caller;
/// * **two detection shapes** — [`detect`](Self::detect) packs 64 faults
///   against one broadcast pattern, [`detect_patterns`](Self::detect_patterns)
///   packs 64 patterns against one fault (pattern-parallel single-fault
///   propagation, DESIGN.md §11.3). Both read a 64-bit detection mask per
///   sweep instead of per-slot output vectors.
///
/// # Examples
///
/// ```
/// use tvs_fault::{Fault, SimSession, SlotSpec, StuckAt};
/// use tvs_logic::BitVec;
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("and");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::And, &["a", "b"])?;
/// b.mark_output("y")?;
/// let n = b.build()?;
/// let view = n.scan_view()?;
/// let mut session = SimSession::new(&n, &view);
///
/// let tv = BitVec::from_bools([true, true]);
/// let good = session.baseline(&tv)?;
/// let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);
/// let outs = session.run_slots(&[SlotSpec { stimulus: &tv, fault: Some(fault) }])?;
/// assert_ne!(outs[0], good, "y/0 is detected by 11");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct SimSession<'a> {
    view: &'a ScanView,
    psim: ParallelSim<'a>,
    words: Vec<u64>,
    injections: Vec<Injection>,
    /// The input words of the seeded baseline (meaningful while
    /// `psim.has_baseline()`): a broadcast pattern or a packed batch.
    seed: Vec<u64>,
    /// The fault-free outputs of the seeded baseline's slot 0.
    base_outputs: BitVec,
    slot_counter: Counter,
    sweep_counter: Counter,
    pattern_sweep_counter: Counter,
    baseline_counter: Counter,
}

impl<'a> SimSession<'a> {
    /// Creates a session bound to a netlist and its scan view.
    pub fn new(netlist: &'a Netlist, view: &'a ScanView) -> Self {
        SimSession {
            view,
            psim: ParallelSim::new(netlist, view),
            words: vec![0; view.input_count()],
            injections: Vec::new(),
            seed: Vec::new(),
            base_outputs: BitVec::new(),
            slot_counter: tvs_exec::counter("fault.slots_simulated"),
            sweep_counter: tvs_exec::counter("fault.sweeps"),
            pattern_sweep_counter: tvs_exec::counter("fault.pattern_sweeps"),
            baseline_counter: tvs_exec::counter("fault.baseline_sweeps"),
        }
    }

    /// The scan view this session simulates.
    pub fn view(&self) -> &ScanView {
        self.view
    }

    /// Seeds (or re-seeds) the fault-free baseline for `stimulus` and
    /// returns the good-machine outputs (POs then PPOs).
    ///
    /// Re-seeding with the stimulus already in place is free; a different
    /// stimulus costs one full sweep. Every later sweep in this session is
    /// evaluated incrementally against this baseline.
    ///
    /// # Errors
    ///
    /// [`FaultError::StimulusLength`] if `stimulus` does not match the view.
    pub fn baseline(&mut self, stimulus: &BitVec) -> Result<BitVec, FaultError> {
        self.seed_broadcast(stimulus)?;
        Ok(self.base_outputs.clone())
    }

    /// Seeds `stimulus` in every slot as the baseline.
    fn seed_broadcast(&mut self, stimulus: &BitVec) -> Result<(), FaultError> {
        self.check_width(0, stimulus)?;
        for (i, bit) in stimulus.iter().enumerate() {
            self.words[i] = if bit { !0u64 } else { 0 };
        }
        self.seed_words();
        Ok(())
    }

    /// Seeds the baseline from `words` unless that exact baseline is
    /// already in place.
    fn seed_words(&mut self) {
        if self.psim.has_baseline() && self.seed == self.words {
            return;
        }
        self.psim.seed_baseline(&self.words, &[]);
        self.baseline_counter.incr();
        self.seed.clone_from(&self.words);
        self.base_outputs = self.psim.output_slot(0);
    }

    fn check_width(&self, slot: usize, stimulus: &BitVec) -> Result<(), FaultError> {
        let want = self.view.input_count();
        if stimulus.len() == want {
            Ok(())
        } else {
            Err(FaultError::StimulusLength {
                slot,
                got: stimulus.len(),
                want,
            })
        }
    }

    /// Simulates up to 64 independent machines in one sweep and returns each
    /// machine's combinational outputs (POs then PPOs).
    ///
    /// With a seeded baseline the sweep is incremental: only the cones of
    /// stimulus bits and injections that differ from the fault-free machine
    /// are re-evaluated. Without one it is a plain full sweep.
    ///
    /// # Errors
    ///
    /// [`FaultError::TooManySlots`] for more than 64 slots,
    /// [`FaultError::StimulusLength`] for a stimulus that does not match the
    /// view.
    pub fn run_slots(&mut self, slots: &[SlotSpec<'_>]) -> Result<Vec<BitVec>, FaultError> {
        if slots.len() > 64 {
            return Err(FaultError::TooManySlots { given: slots.len() });
        }
        for (s, spec) in slots.iter().enumerate() {
            self.check_width(s, spec.stimulus)?;
        }

        // Slot packing: start every word from the baseline (zeros without
        // one) so unused and unchanged slots generate no events.
        if self.psim.has_baseline() {
            self.words.copy_from_slice(&self.seed);
        } else {
            self.words.fill(0);
        }
        self.injections.clear();
        for (s, spec) in slots.iter().enumerate() {
            for (i, bit) in spec.stimulus.iter().enumerate() {
                if ((self.words[i] >> s) & 1 == 1) != bit {
                    self.words[i] ^= 1u64 << s;
                }
            }
            if let Some(fault) = spec.fault {
                self.injections.push(fault.injection(1u64 << s));
            }
        }

        if self.psim.has_baseline() {
            self.psim.eval_incremental(&self.words, &self.injections);
        } else {
            self.psim.eval(&self.words, &self.injections);
        }
        self.slot_counter.add(slots.len() as u64);
        self.sweep_counter.incr();
        Ok((0..slots.len() as u32)
            .map(|s| self.psim.output_slot(s))
            .collect())
    }

    /// Simulates any number of machines, batching them into 64-slot sweeps
    /// internally, and returns the outputs in job order.
    ///
    /// # Errors
    ///
    /// [`FaultError::StimulusLength`] for a stimulus that does not match the
    /// view (reported with its job index).
    pub fn run_jobs(&mut self, jobs: &[SlotSpec<'_>]) -> Result<Vec<BitVec>, FaultError> {
        let mut outs = Vec::with_capacity(jobs.len());
        for (start, chunk) in jobs.chunks(64).enumerate() {
            outs.extend(self.run_slots(chunk).map_err(|e| match e {
                FaultError::StimulusLength { slot, got, want } => FaultError::StimulusLength {
                    slot: start * 64 + slot,
                    got,
                    want,
                },
                other => other,
            })?);
        }
        Ok(outs)
    }

    /// Runs `faults` against a shared stimulus and reports, per fault,
    /// whether *any* combinational output differs from the fault-free
    /// machine.
    ///
    /// The shared stimulus becomes (or reuses) the session baseline, and
    /// each sweep injects 64 faults, one per slot, re-evaluating only their
    /// cones; slot `s` of the sweep's detection mask is fault `s`'s verdict.
    ///
    /// # Errors
    ///
    /// [`FaultError::StimulusLength`] if `stimulus` does not match the view.
    pub fn detect(&mut self, stimulus: &BitVec, faults: &[Fault]) -> Result<Vec<bool>, FaultError> {
        self.seed_broadcast(stimulus)?;
        let mut detected = Vec::with_capacity(faults.len());
        for chunk in faults.chunks(64) {
            self.injections.clear();
            self.injections.extend(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(s, f)| f.injection(1u64 << s)),
            );
            let mask = self.psim.detect_mask(&self.injections);
            detected.extend((0..chunk.len()).map(|s| (mask >> s) & 1 == 1));
            self.slot_counter.add(chunk.len() as u64);
            self.sweep_counter.incr();
        }
        Ok(detected)
    }

    /// Pattern-parallel single-fault propagation: simulates every fault in
    /// `faults` against up to 64 `patterns` and returns one detection mask
    /// per fault, where bit `j` is set iff pattern `j` detects the fault
    /// (some combinational output differs from the fault-free machine).
    ///
    /// The patterns are packed one per slot into a single good-machine
    /// baseline; each fault then costs one incremental sweep with the fault
    /// injected in every pattern's slot. The mask's lowest set bit is the
    /// first pattern that detects the fault, and its popcount the number of
    /// patterns that do — exactly what per-pattern [`detect`](Self::detect)
    /// calls would report, pattern by pattern.
    ///
    /// # Errors
    ///
    /// [`FaultError::EmptyBatch`] for no patterns,
    /// [`FaultError::TooManySlots`] for more than 64, and
    /// [`FaultError::StimulusLength`] (with the pattern's index) for a
    /// pattern that does not match the view.
    ///
    /// # Examples
    ///
    /// ```
    /// use tvs_fault::{Fault, SimSession, StuckAt};
    /// use tvs_logic::BitVec;
    /// use tvs_netlist::{GateKind, NetlistBuilder};
    ///
    /// let mut b = NetlistBuilder::new("and");
    /// b.add_input("a")?;
    /// b.add_input("b")?;
    /// b.add_gate("y", GateKind::And, &["a", "b"])?;
    /// b.mark_output("y")?;
    /// let n = b.build()?;
    /// let view = n.scan_view()?;
    /// let mut session = SimSession::new(&n, &view);
    ///
    /// let patterns = [
    ///     BitVec::from_bools([false, true]),
    ///     BitVec::from_bools([true, true]),
    ///     BitVec::from_bools([true, true]),
    /// ];
    /// let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);
    /// let masks = session.detect_patterns(&patterns, &[fault])?;
    /// assert_eq!(masks, vec![0b110], "only 11 detects y/0");
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn detect_patterns(
        &mut self,
        patterns: &[BitVec],
        faults: &[Fault],
    ) -> Result<Vec<u64>, FaultError> {
        if patterns.is_empty() {
            return Err(FaultError::EmptyBatch);
        }
        if patterns.len() > 64 {
            return Err(FaultError::TooManySlots {
                given: patterns.len(),
            });
        }
        for (j, pattern) in patterns.iter().enumerate() {
            self.check_width(j, pattern)?;
        }
        self.words.fill(0);
        for (j, pattern) in patterns.iter().enumerate() {
            for (i, bit) in pattern.iter().enumerate() {
                self.words[i] |= u64::from(bit) << j;
            }
        }
        self.seed_words();
        let valid = u64::MAX >> (64 - patterns.len());
        let masks: Vec<u64> = faults
            .iter()
            .map(|f| self.psim.detect_mask(&[f.injection(valid)]))
            .collect();
        self.slot_counter
            .add((faults.len() * patterns.len()) as u64);
        self.pattern_sweep_counter.add(faults.len() as u64);
        Ok(masks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StuckAt;
    use tvs_netlist::{GateKind, NetlistBuilder};

    fn and2() -> Netlist {
        let mut b = NetlistBuilder::new("and");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("y", GateKind::And, &["a", "b"]).unwrap();
        b.mark_output("y").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn too_many_slots_is_a_typed_error() {
        let n = and2();
        let v = n.scan_view().unwrap();
        let mut session = SimSession::new(&n, &v);
        let tv = BitVec::from_bools([true, true]);
        let slots: Vec<SlotSpec<'_>> = (0..65)
            .map(|_| SlotSpec {
                stimulus: &tv,
                fault: None,
            })
            .collect();
        assert_eq!(
            session.run_slots(&slots),
            Err(FaultError::TooManySlots { given: 65 })
        );
    }

    #[test]
    fn stimulus_length_mismatch_is_a_typed_error() {
        let n = and2();
        let v = n.scan_view().unwrap();
        let mut session = SimSession::new(&n, &v);
        let short = BitVec::from_bools([true]);
        assert_eq!(
            session.run_slots(&[SlotSpec {
                stimulus: &short,
                fault: None,
            }]),
            Err(FaultError::StimulusLength {
                slot: 0,
                got: 1,
                want: 2,
            })
        );
        assert_eq!(
            session.baseline(&short),
            Err(FaultError::StimulusLength {
                slot: 0,
                got: 1,
                want: 2,
            })
        );
    }

    #[test]
    fn run_jobs_reports_global_slot_index() {
        let n = and2();
        let v = n.scan_view().unwrap();
        let mut session = SimSession::new(&n, &v);
        let ok = BitVec::from_bools([true, false]);
        let short = BitVec::from_bools([true]);
        let mut jobs: Vec<SlotSpec<'_>> = (0..70)
            .map(|_| SlotSpec {
                stimulus: &ok,
                fault: None,
            })
            .collect();
        jobs[66] = SlotSpec {
            stimulus: &short,
            fault: None,
        };
        assert_eq!(
            session.run_jobs(&jobs),
            Err(FaultError::StimulusLength {
                slot: 66,
                got: 1,
                want: 2,
            })
        );
    }

    #[test]
    fn incremental_sweeps_match_cold_sessions() {
        let n = and2();
        let v = n.scan_view().unwrap();
        let tv = BitVec::from_bools([true, true]);
        let flip = BitVec::from_bools([false, true]);
        let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);

        let mut warm = SimSession::new(&n, &v);
        warm.baseline(&tv).unwrap();
        let warm_outs = warm
            .run_jobs(&[
                SlotSpec {
                    stimulus: &tv,
                    fault: Some(fault),
                },
                SlotSpec {
                    stimulus: &flip,
                    fault: None,
                },
            ])
            .unwrap();

        let mut cold = SimSession::new(&n, &v);
        let cold_outs = cold
            .run_jobs(&[
                SlotSpec {
                    stimulus: &tv,
                    fault: Some(fault),
                },
                SlotSpec {
                    stimulus: &flip,
                    fault: None,
                },
            ])
            .unwrap();
        assert_eq!(warm_outs, cold_outs);
    }
}
