//! Bit-parallel multi-fault simulation (PROOFS/HOPE style).

use tvs_exec::ThreadPool;
use tvs_logic::BitVec;
use tvs_netlist::{Netlist, ScanView};

use crate::{Fault, FaultError, SimSession};

/// One simulator slot: a stimulus and an optional fault.
///
/// Slots are fully independent machines — the stitching engine exploits this
/// by giving every hidden fault its *own* mutated test vector in the same
/// sweep.
#[derive(Debug, Clone, Copy)]
pub struct SlotSpec<'a> {
    /// The combinational input pattern (PIs then PPIs).
    pub stimulus: &'a BitVec,
    /// The fault active in this slot, if any.
    pub fault: Option<Fault>,
}

/// Bit-parallel multi-fault simulator: up to 64 machines per sweep.
///
/// # Examples
///
/// Detect a stuck-at fault by comparing faulty and fault-free outputs:
///
/// ```
/// use tvs_fault::{Fault, FaultSim, StuckAt};
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
/// let mut sim = FaultSim::new(&n, &view);
///
/// let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);
/// let detected = sim.detect(&BitVec::from_bools([true, true]), &[fault]);
/// assert_eq!(detected, vec![true]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct FaultSim<'a> {
    session: SimSession<'a>,
}

impl<'a> FaultSim<'a> {
    /// Creates a simulator bound to a netlist and its scan view.
    pub fn new(netlist: &'a Netlist, view: &'a ScanView) -> Self {
        FaultSim {
            session: SimSession::new(netlist, view),
        }
    }

    /// Simulates up to 64 independent machines in one sweep and returns each
    /// machine's combinational outputs (POs then PPOs).
    ///
    /// # Errors
    ///
    /// [`FaultError::TooManySlots`] for more than 64 slots,
    /// [`FaultError::StimulusLength`] for a stimulus that does not match the
    /// view.
    pub fn run_slots(&mut self, slots: &[SlotSpec<'_>]) -> Result<Vec<BitVec>, FaultError> {
        self.session.run_slots(slots)
    }

    /// Evaluates the fault-free outputs for one stimulus, which also seeds
    /// the session baseline for subsequent incremental sweeps.
    ///
    /// # Panics
    ///
    /// Panics if `stimulus` does not match the scan view.
    pub fn good_outputs(&mut self, stimulus: &BitVec) -> BitVec {
        // The length is the only failure mode, pre-checked here so the
        // session call is structurally infallible. lint:allow(SRC005)
        assert_eq!(
            stimulus.len(),
            self.session.view().input_count(),
            "stimulus length must match the scan view"
        );
        match self.session.baseline(stimulus) {
            Ok(good) => good,
            Err(_) => unreachable!("stimulus length validated above"),
        }
    }

    /// Runs `faults` against a shared stimulus and reports, per fault,
    /// whether *any* combinational output differs from the fault-free
    /// machine.
    ///
    /// # Panics
    ///
    /// Panics if `stimulus` does not match the scan view.
    pub fn detect(&mut self, stimulus: &BitVec, faults: &[Fault]) -> Vec<bool> {
        assert_eq!(
            stimulus.len(),
            self.session.view().input_count(),
            "stimulus length must match the scan view"
        );
        match self.session.detect(stimulus, faults) {
            Ok(hits) => hits,
            Err(_) => unreachable!("stimulus length validated above"),
        }
    }

    /// Simulates a pattern set over a fault list with fault dropping and
    /// returns per-fault detection flags.
    ///
    /// This is the conventional full-shift observation model (every
    /// combinational output observable), used for baseline coverage numbers.
    /// Patterns are simulated 64 at a time
    /// ([`SimSession::detect_patterns`]); a fault is dropped after the
    /// first batch that detects it.
    ///
    /// # Panics
    ///
    /// Panics if a pattern does not match the scan view.
    pub fn coverage(&mut self, patterns: &[BitVec], faults: &[Fault]) -> Vec<bool> {
        let width = self.session.view().input_count();
        assert!(
            patterns.iter().all(|p| p.len() == width),
            "every pattern must match the scan view"
        );
        let mut detected = vec![false; faults.len()];
        let mut alive: Vec<usize> = (0..faults.len()).collect();
        for batch in patterns.chunks(64) {
            if alive.is_empty() {
                break;
            }
            let subset: Vec<Fault> = alive.iter().map(|&i| faults[i]).collect();
            let masks = match self.session.detect_patterns(batch, &subset) {
                Ok(masks) => masks,
                Err(_) => unreachable!("pattern widths validated above"),
            };
            let mut next_alive = Vec::with_capacity(alive.len());
            for (&fi, &mask) in alive.iter().zip(&masks) {
                if mask != 0 {
                    detected[fi] = true;
                } else {
                    next_alive.push(fi);
                }
            }
            alive = next_alive;
        }
        detected
    }
}

/// Parallel [`FaultSim::detect`]: shards `faults` into 64-fault words (the
/// same batching the sequential path uses: one fault per slot, swept
/// against the stimulus seeded as each shard's baseline), fans the shards
/// out over `pool`, and concatenates the per-shard detection flags in
/// fault-index order.
///
/// The result is **bit-identical** to `FaultSim::detect` at any thread
/// count: each shard is a pure function of the stimulus and its faults, and
/// the order-preserving reduction never depends on completion order.
///
/// # Examples
///
/// ```
/// use tvs_exec::ThreadPool;
/// use tvs_fault::{detect_parallel, Fault, FaultList, FaultSim};
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
/// let faults = FaultList::collapsed(&n);
/// let tv = BitVec::from_bools([true, true]);
///
/// let pool = ThreadPool::new(4);
/// let par = detect_parallel(&n, &view, &pool, &tv, faults.faults());
/// let seq = FaultSim::new(&n, &view).detect(&tv, faults.faults());
/// assert_eq!(par, seq);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn detect_parallel(
    netlist: &Netlist,
    view: &ScanView,
    pool: &ThreadPool,
    stimulus: &BitVec,
    faults: &[Fault],
) -> Vec<bool> {
    if pool.threads() <= 1 || faults.len() <= 64 {
        return FaultSim::new(netlist, view).detect(stimulus, faults);
    }
    let shards: Vec<&[Fault]> = faults.chunks(64).collect();
    pool.map(&shards, |_, shard| {
        FaultSim::new(netlist, view).detect(stimulus, shard)
    })
    .into_iter()
    .flatten()
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultList, StuckAt};
    use tvs_netlist::{GateKind, NetlistBuilder};

    fn fig1() -> Netlist {
        let mut b = NetlistBuilder::new("fig1");
        b.add_dff("a", "F").unwrap();
        b.add_dff("b", "E").unwrap();
        b.add_dff("c", "D").unwrap();
        b.add_gate("D", GateKind::And, &["a", "b"]).unwrap();
        b.add_gate("E", GateKind::Or, &["b", "c"]).unwrap();
        b.add_gate("F", GateKind::And, &["D", "E"]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn table1_first_vector_detections() {
        // Paper, Table 1: the first vector 110 produces a response that
        // differs from the fault-free 111 for exactly these stem faults.
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = FaultSim::new(&n, &v);
        let tv = BitVec::from_bools([true, true, false]);

        let cases = [
            ("F", StuckAt::Zero, true), // F/0 -> 011
            ("F", StuckAt::One, false), // F is already 1
            ("D", StuckAt::Zero, true), // D/0 -> 010
            ("b", StuckAt::Zero, true), // B/0 -> 000
            ("E", StuckAt::Zero, true), // E/0 -> 001
            ("a", StuckAt::One, false), // a is already 1
        ];
        for (name, stuck, expect) in cases {
            let f = Fault::stem(n.find(name).unwrap(), stuck);
            let det = sim.detect(&tv, &[f]);
            assert_eq!(det[0], expect, "{}", f.display_in(&n));
        }
    }

    #[test]
    fn per_slot_stimuli_are_independent() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = FaultSim::new(&n, &v);
        let s1 = BitVec::from_bools([true, true, false]);
        let s2 = BitVec::from_bools([false, false, true]);
        let outs = sim
            .run_slots(&[
                SlotSpec {
                    stimulus: &s1,
                    fault: None,
                },
                SlotSpec {
                    stimulus: &s2,
                    fault: None,
                },
            ])
            .unwrap();
        assert_eq!(outs[0].to_string(), "111");
        assert_eq!(outs[1].to_string(), "010");
    }

    #[test]
    fn paper_four_vectors_catch_all_irredundant_faults() {
        // Under full observation (all PPOs visible), the paper's four
        // vectors detect every collapsed fault except the redundant E-F/1.
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = FaultSim::new(&n, &v);
        let patterns = [
            BitVec::from_bools([true, true, false]),
            BitVec::from_bools([false, false, true]),
            BitVec::from_bools([true, false, false]),
            BitVec::from_bools([false, true, false]),
        ];
        let list = FaultList::collapsed(&n);
        let detected = sim.coverage(&patterns, list.faults());
        let missed: Vec<String> = list
            .iter()
            .zip(&detected)
            .filter(|(_, &d)| !d)
            .map(|(f, _)| f.display_in(&n))
            .collect();
        assert_eq!(missed, vec!["E-F/1".to_string()]);
    }

    #[test]
    fn detect_handles_more_than_63_faults() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = FaultSim::new(&n, &v);
        let tv = BitVec::from_bools([true, true, false]);
        // Repeat the full universe enough times to exceed one batch.
        let mut faults = Vec::new();
        for _ in 0..5 {
            faults.extend(FaultList::full(&n).faults().iter().copied());
        }
        assert!(faults.len() > 63);
        let det = sim.detect(&tv, &faults);
        assert_eq!(det.len(), faults.len());
        // Consistency across batches: identical faults get identical verdicts.
        let base = FaultList::full(&n).len();
        for i in 0..base {
            for r in 1..5 {
                assert_eq!(det[i], det[i + r * base]);
            }
        }
    }

    #[test]
    fn redundant_fault_never_detected_exhaustively() {
        // E-F/1 (branch E->F stuck at 1) is redundant: check all 8 patterns.
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = FaultSim::new(&n, &v);
        let f_gate = n.find("F").unwrap();
        let fault = Fault::branch(f_gate, 1, StuckAt::One); // pin 1 = E
        for bits in 0..8u32 {
            let tv: BitVec = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            assert!(!sim.detect(&tv, &[fault])[0], "pattern {bits:03b}");
        }
    }
}
