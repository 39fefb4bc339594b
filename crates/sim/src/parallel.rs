//! 64-slot bit-parallel two-valued simulation with per-slot injections,
//! with an event-driven incremental mode over a seeded baseline.

use tvs_exec::Counter;
use tvs_logic::BitVec;
use tvs_netlist::{GateId, GateKind, Netlist, ScanView};

/// Forces a signal to a constant in selected slots during one sweep.
///
/// * `pin: None` — the gate's *output* (stem) is forced; for source gates
///   (PIs / scan cells) this overrides the stimulus.
/// * `pin: Some(p)` — only the value seen by this gate's input pin `p`
///   (a fanout branch) is forced; the driving signal itself is unaffected.
///   For `Dff` gates, pin 0 is the value captured by the flip-flop
///   (a pseudo-primary output of the scan view).
///
/// `slots` is a bit mask selecting which of the 64 machines the injection
/// applies to — the mechanism by which 64 *different* faulty machines share
/// one sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// The gate whose output or input pin is forced.
    pub gate: GateId,
    /// `None` = output stem; `Some(p)` = input pin `p`.
    pub pin: Option<u32>,
    /// The forced value.
    pub stuck: bool,
    /// Mask of slots the injection applies to.
    pub slots: u64,
}

/// The detection masks of one [`ParallelSim::detect_mask`] sweep: bit `s`
/// is set iff machine `s`'s outputs differ from the baseline's machine `s`
/// on any output (`any`) or on a watched one (`watched`, a subset of
/// `any`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Detection {
    /// Slots with some differing output.
    pub any: u64,
    /// Slots with a differing watched output.
    pub watched: u64,
}

impl Detection {
    fn record(&mut self, diff: u64, watched: bool) {
        self.any |= diff;
        if watched {
            self.watched |= diff;
        }
    }
}

/// 64-slot bit-parallel two-valued simulator.
///
/// Each bit position of every `u64` word is an independent machine with its
/// own stimulus. One [`eval`](ParallelSim::eval) call performs a full
/// levelized sweep; [`Injection`]s implement stuck-at faults.
///
/// # Examples
///
/// Simulate two patterns of an AND gate at once:
///
/// ```
/// use tvs_netlist::{GateKind, NetlistBuilder};
/// use tvs_sim::ParallelSim;
///
/// let mut b = NetlistBuilder::new("and");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::And, &["a", "b"])?;
/// b.mark_output("y")?;
/// let netlist = b.build()?;
/// let view = netlist.scan_view()?;
/// let mut sim = ParallelSim::new(&netlist, &view);
///
/// // slot 0: a=1,b=1; slot 1: a=1,b=0
/// sim.eval(&[0b11, 0b01], &[]);
/// assert_eq!(sim.output_word(0) & 0b11, 0b01);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ParallelSim<'a> {
    netlist: &'a Netlist,
    view: &'a ScanView,
    words: Vec<u64>,
    outputs: Vec<u64>,
    /// Dense flag per gate: index+1 into `inj_by_gate` when the gate carries
    /// injections in the current sweep (0 = none). Rebuilt per eval call but
    /// cleared lazily to stay O(#injections).
    inj_flag: Vec<u32>,
    inj_by_gate: Vec<Vec<Injection>>,
    touched: Vec<GateId>,
    /// Signal words of the seeded baseline sweep (valid iff `base_valid`).
    base_words: Vec<u64>,
    /// Stimulus and output words of the seeded baseline sweep.
    base_inputs: Vec<u64>,
    base_outputs: Vec<u64>,
    base_valid: bool,
    /// Whether the baseline was seeded without injections, so an output can
    /// only differ from it through a diverged driver or a capture injection.
    base_clean: bool,
    /// Whether the last `detect_mask` took the general sweep, which leaves
    /// every output word current.
    detect_general: bool,
    /// Combinational gates carrying injections in the baseline sweep; they
    /// must be re-evaluated by every incremental sweep (removing an
    /// injection changes a gate's function just like adding one).
    base_inj_gates: Vec<GateId>,
    /// Gates whose `words` entry diverged from `base_words` in the last
    /// incremental sweep — the set to restore before the next one.
    base_dirty: Vec<GateId>,
    /// Dense per-gate "already enqueued" flag for the event worklist.
    queued: Vec<bool>,
    /// Level-indexed worklist buckets (index = topological level).
    buckets: Vec<Vec<GateId>>,
    gates_evaluated: Counter,
}

impl<'a> ParallelSim<'a> {
    /// Creates a simulator bound to a netlist and its scan view.
    pub fn new(netlist: &'a Netlist, view: &'a ScanView) -> Self {
        ParallelSim {
            netlist,
            view,
            words: vec![0; netlist.gate_count()],
            outputs: vec![0; view.output_count()],
            inj_flag: vec![0; netlist.gate_count()],
            inj_by_gate: Vec::new(),
            touched: Vec::new(),
            base_words: Vec::new(),
            base_inputs: Vec::new(),
            base_outputs: Vec::new(),
            base_valid: false,
            base_clean: false,
            detect_general: false,
            base_inj_gates: Vec::new(),
            base_dirty: Vec::new(),
            queued: vec![false; netlist.gate_count()],
            buckets: vec![Vec::new(); view.depth() as usize + 1],
            gates_evaluated: tvs_exec::counter("sim.gates_evaluated"),
        }
    }

    /// Runs one sweep.
    ///
    /// `input_words[i]` is the 64-slot stimulus of combinational input `i`
    /// (the view's PI-then-PPI convention). Injections force values per the
    /// [`Injection`] semantics. Results are read back with
    /// [`word`](Self::word) / [`output_word`](Self::output_word).
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != view.input_count()`, or if an
    /// injection names an out-of-range pin.
    pub fn eval(&mut self, input_words: &[u64], injections: &[Injection]) {
        assert_eq!(
            input_words.len(),
            self.view.input_count(),
            "input word count must match the scan view"
        );
        self.base_valid = false;
        self.index_injections(injections);

        // Load sources, applying output-stem injections on PIs / scan cells.
        for (i, &w) in input_words.iter().enumerate() {
            let gate = self.view.input_gate(i);
            self.words[gate.index()] = self.source_word(gate, w);
        }

        // Levelized sweep.
        for &id in self.view.order() {
            self.words[id.index()] = self.gate_word(id);
        }
        self.gates_evaluated.add(self.view.order().len() as u64);

        self.read_outputs();
    }

    /// Runs one full sweep and records it as the **baseline** for subsequent
    /// [`eval_incremental`](Self::eval_incremental) calls.
    pub fn seed_baseline(&mut self, input_words: &[u64], injections: &[Injection]) {
        self.eval(input_words, injections);
        self.base_words.clone_from(&self.words);
        self.base_inputs.clear();
        self.base_inputs.extend_from_slice(input_words);
        self.base_outputs.clone_from(&self.outputs);
        self.base_clean = injections.is_empty();
        self.base_inj_gates.clear();
        for inj in injections {
            if self.netlist.gate(inj.gate).kind().is_combinational() {
                self.base_inj_gates.push(inj.gate);
            }
        }
        self.base_dirty.clear();
        self.base_valid = true;
    }

    /// Re-seeds the baseline with slot `slot` of the current one in every
    /// slot, without a sweep. Machines in different slots never interact,
    /// so every word equals what [`seed_baseline`](Self::seed_baseline)
    /// of that slot's stimulus, broadcast, would compute.
    ///
    /// # Panics
    ///
    /// Panics unless a baseline seeded without injections is in place, or
    /// if `slot >= 64`.
    pub fn broadcast_baseline_slot(&mut self, slot: u32) {
        assert!(
            self.base_valid && self.base_clean,
            "broadcasting a slot needs a baseline seeded without injections"
        );
        assert!(slot < 64, "slot out of range");
        let spread = |w: &mut u64| *w = 0u64.wrapping_sub((*w >> slot) & 1);
        self.base_words.iter_mut().for_each(spread);
        self.base_inputs.iter_mut().for_each(spread);
        self.base_outputs.iter_mut().for_each(spread);
        self.words.clone_from(&self.base_words);
        self.outputs.clone_from(&self.base_outputs);
        self.base_dirty.clear();
        self.index_injections(&[]);
    }

    /// Whether a baseline sweep is currently seeded.
    pub fn has_baseline(&self) -> bool {
        self.base_valid
    }

    /// Runs one sweep **incrementally** against the seeded baseline: only
    /// the fanout cones of sources whose stimulus words changed and of gates
    /// whose injection set changed (in this call or the baseline) are
    /// re-evaluated; exact value equality stops propagation early.
    ///
    /// The results (readable through [`word`](Self::word) /
    /// [`output_word`](Self::output_word)) are bit-identical to a full
    /// [`eval`](Self::eval) with the same arguments — the sweep is a pure
    /// function of sources and injections, so skipping provably unchanged
    /// gates cannot alter any value. When the changed inputs' precomputed
    /// [`ScanView::input_cone`]s already cover the whole core, the kernel
    /// falls back to a plain full sweep (the worklist would only add
    /// overhead). The `sim.gates_evaluated` counter records how much work
    /// each mode performed.
    ///
    /// Falls back to a full (non-baseline) [`eval`](Self::eval) when no
    /// baseline is seeded.
    ///
    /// # Panics
    ///
    /// Panics if `input_words.len() != view.input_count()`, or if an
    /// injection names an out-of-range pin.
    pub fn eval_incremental(&mut self, input_words: &[u64], injections: &[Injection]) {
        if !self.base_valid {
            self.eval(input_words, injections);
            return;
        }
        assert_eq!(
            input_words.len(),
            self.view.input_count(),
            "input word count must match the scan view"
        );

        // Restore the signals the previous incremental sweep diverged on:
        // afterwards `words == base_words` exactly.
        for i in std::mem::take(&mut self.base_dirty) {
            self.words[i.index()] = self.base_words[i.index()];
        }
        self.index_injections(injections);

        // Pass 1: find changed sources and bound the event-path work by
        // their precomputed fanout cones. (Injection-induced work is not in
        // the estimate; injection cones are small and the bound stays a
        // heuristic for choosing the cheaper mode, never a correctness
        // input.)
        let mut changed: Vec<(GateId, u64)> = Vec::new();
        let mut cone_bound = 0usize;
        for (i, &w) in input_words.iter().enumerate() {
            let gate = self.view.input_gate(i);
            let eff = self.source_word(gate, w);
            if eff != self.words[gate.index()] {
                cone_bound += self.view.input_cone(i).len();
                changed.push((gate, eff));
            }
        }

        let total = self.view.order().len();
        if cone_bound >= total {
            // Full-sweep fallback, still tracking divergence from the
            // baseline so the next incremental call can restore it.
            for (gate, eff) in changed {
                self.words[gate.index()] = eff;
                self.base_dirty.push(gate);
            }
            for &id in self.view.order() {
                let out = self.gate_word(id);
                if out != self.base_words[id.index()] {
                    self.base_dirty.push(id);
                }
                self.words[id.index()] = out;
            }
            self.gates_evaluated.add(total as u64);
            self.read_outputs();
            return;
        }

        // Seed the worklist: fanout of changed sources, plus every
        // combinational gate whose injection set differs from the baseline.
        for &(gate, eff) in &changed {
            self.words[gate.index()] = eff;
            self.base_dirty.push(gate);
            self.enqueue_fanout(gate);
        }
        for inj in injections {
            if self.netlist.gate(inj.gate).kind().is_combinational() {
                self.enqueue(inj.gate);
            }
        }
        self.drain();
        self.read_outputs();
    }

    /// Runs one incremental sweep that keeps the seeded baseline's own
    /// stimulus and applies only `injections`, and returns its
    /// [`Detection`] masks: bit `s` of `any` is set iff some combinational
    /// output of machine `s` differs from the baseline's machine `s`, and
    /// bit `s` of `watched` iff one of the outputs `o` with `watched[o]`
    /// set does (outputs past the end of `watched` are not watched).
    ///
    /// `any` equals OR-ing `output_word(o) ^ baseline output o` over every
    /// output after `eval_incremental(baseline stimulus, injections)`.
    /// On a baseline seeded without injections (the fault simulator's
    /// case) the work is bounded by the injection cones: no stimulus word
    /// is compared, and only the outputs of diverged drivers and of
    /// capture-injected cells are read. A source-stem injection overrides
    /// the stimulus bit like any other: later injections on the same gate
    /// and slot win, so a machine can list input-bit overrides first and
    /// its fault last. This is the inner loop of both fault-simulation
    /// shapes: 64 machines against one broadcast pattern (one slot each),
    /// and one machine against 64 patterns (every slot).
    ///
    /// On that fast path [`output_word`](Self::output_word) is left
    /// untouched; read a machine's outputs with
    /// [`detected_outputs`](Self::detected_outputs). The next
    /// [`eval_incremental`](Self::eval_incremental) or `detect_mask`
    /// restores the baseline as usual.
    ///
    /// # Panics
    ///
    /// Panics if no baseline is seeded, or if an injection names an
    /// out-of-range pin.
    pub fn detect_mask(&mut self, injections: &[Injection], watched: &[bool]) -> Detection {
        assert!(self.base_valid, "detect_mask needs a seeded baseline");
        let is_watched = |o: usize| watched.get(o).copied().unwrap_or(false);
        let mut det = Detection::default();
        self.detect_general = !self.base_clean;
        if self.detect_general {
            // This call may drop a baseline injection, which moves signals
            // and outputs the injection-driven path below cannot see: take
            // the general sweep and compare every output.
            let inputs = std::mem::take(&mut self.base_inputs);
            self.eval_incremental(&inputs, injections);
            self.base_inputs = inputs;
            for (o, (w, b)) in self.outputs.iter().zip(&self.base_outputs).enumerate() {
                det.record(w ^ b, is_watched(o));
            }
            return det;
        }
        for i in std::mem::take(&mut self.base_dirty) {
            self.words[i.index()] = self.base_words[i.index()];
        }
        self.index_injections(injections);
        for inj in injections {
            let gate = inj.gate;
            if self.netlist.gate(gate).kind().is_combinational() {
                self.enqueue(gate);
            } else if inj.pin.is_none() {
                // A source stem: the only way a source word can move when
                // the stimulus is the baseline's own (which, on a clean
                // baseline, is exactly its recorded word).
                let eff = self.source_word(gate, self.base_words[gate.index()]);
                if eff != self.words[gate.index()] {
                    self.words[gate.index()] = eff;
                    self.base_dirty.push(gate);
                    self.enqueue_fanout(gate);
                }
            }
        }
        self.drain();

        for &g in &self.base_dirty {
            for &o in self.view.outputs_driven_by(g) {
                let o = o as usize;
                det.record(self.output_value(o) ^ self.base_outputs[o], is_watched(o));
            }
        }
        for inj in injections {
            // Capture injections alter a PPO without touching any signal.
            if let (Some(0), Some(o)) = (inj.pin, self.view.capture_output(inj.gate)) {
                det.record(self.output_value(o) ^ self.base_outputs[o], is_watched(o));
            }
        }
        det
    }

    /// The combinational outputs (POs then PPOs) of machine `slot` after
    /// the last [`detect_mask`](Self::detect_mask) call, without a second
    /// sweep: on the clean-baseline fast path the baseline's outputs with
    /// those of diverged drivers and capture-injected cells read afresh.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= 64`.
    pub fn detected_outputs(&self, slot: u32) -> BitVec {
        if self.detect_general {
            return self.output_slot(slot);
        }
        let mut out: BitVec = self
            .base_outputs
            .iter()
            .map(|w| (w >> slot) & 1 == 1)
            .collect();
        let capture = self
            .touched
            .iter()
            .filter_map(|&g| self.view.capture_output(g));
        let driven = self
            .base_dirty
            .iter()
            .flat_map(|&g| self.view.outputs_driven_by(g).iter().map(|&o| o as usize));
        for o in driven.chain(capture) {
            out.set(o, (self.output_value(o) >> slot) & 1 == 1);
        }
        out
    }

    /// Seeds the worklist with the baseline's injected gates (removing an
    /// injection changes a gate's function just like adding one), then
    /// drains the buckets in increasing level order: every fanin of a
    /// level-n gate is final once levels < n are drained, so one visit per
    /// gate suffices and exact equality suppresses further propagation.
    fn drain(&mut self) {
        let base_inj = std::mem::take(&mut self.base_inj_gates);
        for &g in &base_inj {
            self.enqueue(g);
        }
        self.base_inj_gates = base_inj;

        let mut evaluated = 0u64;
        for lvl in 1..self.buckets.len() {
            let mut bucket = std::mem::take(&mut self.buckets[lvl]);
            for &id in &bucket {
                self.queued[id.index()] = false;
                let out = self.gate_word(id);
                evaluated += 1;
                if out != self.words[id.index()] {
                    self.words[id.index()] = out;
                    if out != self.base_words[id.index()] {
                        self.base_dirty.push(id);
                    }
                    self.enqueue_fanout(id);
                }
            }
            bucket.clear();
            self.buckets[lvl] = bucket;
        }
        self.gates_evaluated.add(evaluated);
    }

    /// Indexes `injections` by gate into `inj_flag` / `inj_by_gate`,
    /// lazily clearing the previous call's flags.
    fn index_injections(&mut self, injections: &[Injection]) {
        for &id in &self.touched {
            self.inj_flag[id.index()] = 0;
        }
        self.touched.clear();
        self.inj_by_gate.clear();
        for &inj in injections {
            let gi = inj.gate.index();
            if self.inj_flag[gi] == 0 {
                self.inj_by_gate.push(Vec::new());
                self.inj_flag[gi] = self.inj_by_gate.len() as u32;
                self.touched.push(inj.gate);
            }
            self.inj_by_gate[(self.inj_flag[gi] - 1) as usize].push(inj);
        }
    }

    /// A source gate's effective word: the stimulus with any output-stem
    /// injections of the current call applied.
    fn source_word(&self, gate: GateId, stimulus: u64) -> u64 {
        let mut w = stimulus;
        if self.inj_flag[gate.index()] != 0 {
            for inj in &self.inj_by_gate[(self.inj_flag[gate.index()] - 1) as usize] {
                if inj.pin.is_none() {
                    w = apply(w, inj.stuck, inj.slots);
                }
            }
        }
        w
    }

    /// Evaluates one combinational gate from the current `words`, honouring
    /// the current call's injections.
    fn gate_word(&self, id: GateId) -> u64 {
        let gate = self.netlist.gate(id);
        let flag = self.inj_flag[id.index()];
        if flag == 0 {
            eval_plain(gate.kind(), gate.fanin(), &self.words)
        } else {
            let injs = &self.inj_by_gate[(flag - 1) as usize];
            let mut out = eval_injected(gate.kind(), gate.fanin(), &self.words, injs);
            for inj in injs {
                if inj.pin.is_none() {
                    out = apply(out, inj.stuck, inj.slots);
                }
            }
            out
        }
    }

    #[inline]
    fn enqueue(&mut self, id: GateId) {
        if !self.queued[id.index()] {
            self.queued[id.index()] = true;
            self.buckets[self.view.level(id) as usize].push(id);
        }
    }

    fn enqueue_fanout(&mut self, id: GateId) {
        let view = self.view;
        for &c in view.comb_fanout(id) {
            self.enqueue(c);
        }
    }

    /// Reads outputs; DFF input-pin injections hit the captured PPO value.
    fn read_outputs(&mut self) {
        for o in 0..self.view.output_count() {
            self.outputs[o] = self.output_value(o);
        }
    }

    /// The current word of output `o`, with capture injections applied.
    fn output_value(&self, o: usize) -> u64 {
        let mut w = self.words[self.view.output_gate(o).index()];
        if o >= self.view.po_count() {
            let ff = self.view.ppis()[o - self.view.po_count()];
            if self.inj_flag[ff.index()] != 0 {
                for inj in &self.inj_by_gate[(self.inj_flag[ff.index()] - 1) as usize] {
                    if inj.pin == Some(0) {
                        w = apply(w, inj.stuck, inj.slots);
                    }
                }
            }
        }
        w
    }

    /// The 64-slot value of any signal after the last sweep.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from the same netlist.
    pub fn word(&self, id: GateId) -> u64 {
        self.words[id.index()]
    }

    /// The 64-slot value of combinational output `o` (POs then PPOs),
    /// including any `Dff` input-pin injections.
    ///
    /// # Panics
    ///
    /// Panics if `o >= view.output_count()`.
    pub fn output_word(&self, o: usize) -> u64 {
        self.outputs[o]
    }

    /// Extracts one slot of the outputs as a [`BitVec`] (POs then PPOs).
    pub fn output_slot(&self, slot: u32) -> BitVec {
        self.outputs.iter().map(|w| (w >> slot) & 1 == 1).collect()
    }
}

#[inline]
fn apply(word: u64, stuck: bool, slots: u64) -> u64 {
    if stuck {
        word | slots
    } else {
        word & !slots
    }
}

#[inline]
fn fanin_word(words: &[u64], fanin: &[GateId], pin: usize, injs: &[Injection]) -> u64 {
    let mut w = words[fanin[pin].index()];
    for inj in injs {
        if inj.pin == Some(pin as u32) {
            w = apply(w, inj.stuck, inj.slots);
        }
    }
    w
}

fn eval_plain(kind: GateKind, fanin: &[GateId], words: &[u64]) -> u64 {
    let f = |p: usize| words[fanin[p].index()];
    eval_words(kind, fanin.len(), f)
}

fn eval_injected(kind: GateKind, fanin: &[GateId], words: &[u64], injs: &[Injection]) -> u64 {
    let f = |p: usize| fanin_word(words, fanin, p, injs);
    eval_words(kind, fanin.len(), f)
}

#[inline]
fn eval_words(kind: GateKind, arity: usize, f: impl Fn(usize) -> u64) -> u64 {
    match kind {
        GateKind::Buf => f(0),
        GateKind::Not => !f(0),
        GateKind::And => (0..arity).fold(!0u64, |a, p| a & f(p)),
        GateKind::Nand => !(0..arity).fold(!0u64, |a, p| a & f(p)),
        GateKind::Or => (0..arity).fold(0u64, |a, p| a | f(p)),
        GateKind::Nor => !(0..arity).fold(0u64, |a, p| a | f(p)),
        GateKind::Xor => (0..arity).fold(0u64, |a, p| a ^ f(p)),
        GateKind::Xnor => !(0..arity).fold(0u64, |a, p| a ^ f(p)),
        GateKind::Input | GateKind::Dff => unreachable!("sources are not swept"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_netlist::NetlistBuilder;

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
    fn four_paper_vectors_in_four_slots() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        // slots 0..3 carry TVs 110, 001, 100, 010 (inputs a, b, c).
        let a = 0b0101u64; // slot0=1, slot1=0, slot2=1, slot3=0  -> LSB is slot 0
        let b = 0b1001u64;
        let c = 0b0010u64;
        sim.eval(&[a, b, c], &[]);
        // expected responses (F, E, D): 111, 010, 000, 010
        let expect = ["111", "010", "000", "010"];
        for slot in 0..4 {
            assert_eq!(sim.output_slot(slot).to_string(), expect[slot as usize]);
        }
    }

    #[test]
    fn output_stem_injection_on_internal_gate() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        // TV 110 in both slots; slot 1 has F stuck-at-0 -> response 011.
        let f = n.find("F").unwrap();
        sim.eval(
            &[0b11, 0b11, 0b00],
            &[Injection {
                gate: f,
                pin: None,
                stuck: false,
                slots: 0b10,
            }],
        );
        assert_eq!(sim.output_slot(0).to_string(), "111");
        assert_eq!(sim.output_slot(1).to_string(), "011");
    }

    #[test]
    fn input_pin_injection_affects_only_that_branch() {
        // y = AND(a, a) with pin-1 stuck-at-0: output is a & 0 = 0, but the
        // signal a itself (observed directly) is unchanged.
        let mut b = NetlistBuilder::new("branch");
        b.add_input("a").unwrap();
        b.add_gate("y", GateKind::And, &["a", "a"]).unwrap();
        b.mark_output("a").unwrap();
        b.mark_output("y").unwrap();
        let n = b.build().unwrap();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        let y = n.find("y").unwrap();
        sim.eval(
            &[!0u64],
            &[Injection {
                gate: y,
                pin: Some(1),
                stuck: false,
                slots: 0b1,
            }],
        );
        assert_eq!(sim.output_word(0) & 1, 1, "signal a unaffected");
        assert_eq!(sim.output_word(1) & 1, 0, "gate y sees stuck branch");
        assert_eq!(sim.output_word(1) & 2, 2, "slot 1 fault-free");
    }

    #[test]
    fn source_stem_injection_overrides_stimulus() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        let a = n.find("a").unwrap();
        // stimulus a=0 but stuck-at-1 in slot 0.
        sim.eval(
            &[0, !0, 0],
            &[Injection {
                gate: a,
                pin: None,
                stuck: true,
                slots: 0b1,
            }],
        );
        // D = AND(a, b): slot 0 sees a=1 -> D=1; slot 1 sees a=0 -> D=0.
        assert_eq!(sim.word(n.find("D").unwrap()) & 0b11, 0b01);
    }

    #[test]
    fn dff_input_pin_injection_hits_captured_ppo() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        let ff_a = n.find("a").unwrap(); // captures F
        sim.eval(
            &[!0, !0, 0],
            &[Injection {
                gate: ff_a,
                pin: Some(0),
                stuck: false,
                slots: 0b1,
            }],
        );
        // F itself is 1 (D=1 or E=1); PPO 0 (into cell a) forced 0 in slot 0.
        assert_eq!(sim.word(n.find("F").unwrap()) & 1, 1);
        assert_eq!(sim.output_word(0) & 1, 0);
        assert_eq!(sim.output_word(0) & 2, 2);
    }

    #[test]
    fn consecutive_evals_reset_injections() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        let f = n.find("F").unwrap();
        sim.eval(
            &[0b1, 0b1, 0b0],
            &[Injection {
                gate: f,
                pin: None,
                stuck: false,
                slots: 0b1,
            }],
        );
        assert_eq!(sim.output_slot(0).to_string(), "011");
        sim.eval(&[0b1, 0b1, 0b0], &[]);
        assert_eq!(sim.output_slot(0).to_string(), "111");
    }

    #[test]
    fn incremental_matches_full_eval_on_random_deltas() {
        use tvs_logic::Prng;

        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut inc = ParallelSim::new(&n, &v);
        let mut full = ParallelSim::new(&n, &v);
        let mut rng = Prng::seed_from_u64(0x17C0);
        let base = [0x5555u64, 0x00FF, 0xF0F0];
        inc.seed_baseline(&base, &[]);
        let all: Vec<GateId> = n.gate_ids().collect();
        for round in 0..64 {
            // Mutate a random subset of inputs and inject a random fault.
            let mut words = base;
            for w in &mut words {
                if rng.next_bool() {
                    *w ^= 1u64 << rng.gen_range(0..64);
                }
            }
            let injections = if round % 3 == 0 {
                vec![]
            } else {
                vec![Injection {
                    gate: all[rng.gen_range(0..all.len())],
                    pin: None,
                    stuck: rng.next_bool(),
                    slots: rng.next_u64(),
                }]
            };
            inc.eval_incremental(&words, &injections);
            full.eval(&words, &injections);
            for &id in &all {
                assert_eq!(inc.word(id), full.word(id), "round {round}");
            }
            for o in 0..v.output_count() {
                assert_eq!(inc.output_word(o), full.output_word(o), "round {round}");
            }
        }
    }

    #[test]
    fn detect_mask_matches_incremental_output_diff() {
        use tvs_logic::Prng;

        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut fast = ParallelSim::new(&n, &v);
        let mut oracle = ParallelSim::new(&n, &v);
        let mut rng = Prng::seed_from_u64(0xD37);
        let all: Vec<GateId> = n.gate_ids().collect();
        for base_injected in [false, true] {
            let base = [rng.next_u64(), rng.next_u64(), rng.next_u64()];
            // An injected baseline carries a combinational stem, a source
            // stem and a capture injection, each of which a later call drops.
            let base_inj: Vec<Injection> = if base_injected {
                [("E", None), ("a", None), ("b", Some(0))]
                    .into_iter()
                    .map(|(name, pin)| Injection {
                        gate: n.find(name).unwrap(),
                        pin,
                        stuck: rng.next_bool(),
                        slots: rng.next_u64(),
                    })
                    .collect()
            } else {
                vec![]
            };
            fast.seed_baseline(&base, &base_inj);
            oracle.seed_baseline(&base, &base_inj);
            let good: Vec<u64> = (0..v.output_count())
                .map(|o| oracle.output_word(o))
                .collect();
            for round in 0..96 {
                // Stems, branches and DFF captures, in random slot masks.
                let injections: Vec<Injection> = (0..1 + round % 3)
                    .map(|_| {
                        let gate = all[rng.gen_range(0..all.len())];
                        let arity = n.gate(gate).fanin().len();
                        let pin = if arity > 0 && rng.next_bool() {
                            Some(rng.gen_range(0..arity) as u32)
                        } else {
                            None
                        };
                        Injection {
                            gate,
                            pin,
                            stuck: rng.next_bool(),
                            slots: rng.next_u64(),
                        }
                    })
                    .collect();
                let watched: Vec<bool> = (0..v.output_count()).map(|_| rng.next_bool()).collect();
                oracle.eval_incremental(&base, &injections);
                let diff = |o: usize| oracle.output_word(o) ^ good[o];
                let expect = Detection {
                    any: (0..v.output_count()).fold(0, |acc, o| acc | diff(o)),
                    watched: (0..v.output_count())
                        .filter(|&o| watched[o])
                        .fold(0, |acc, o| acc | diff(o)),
                };
                assert_eq!(
                    fast.detect_mask(&injections, &watched),
                    expect,
                    "round {round}"
                );
                for slot in 0..64 {
                    assert_eq!(
                        fast.detected_outputs(slot),
                        oracle.output_slot(slot),
                        "round {round} slot {slot}"
                    );
                }
            }
        }
    }

    #[test]
    fn incremental_reverts_removed_injections() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        let f = n.find("F").unwrap();
        let inj = Injection {
            gate: f,
            pin: None,
            stuck: false,
            slots: !0,
        };
        // Baseline carries the injection; the incremental sweep removes it.
        sim.seed_baseline(&[!0, !0, 0], &[inj]);
        assert_eq!(sim.output_word(0), 0);
        sim.eval_incremental(&[!0, !0, 0], &[]);
        assert_eq!(sim.output_word(0), !0, "removed injection must revert");
        sim.eval_incremental(&[!0, !0, 0], &[inj]);
        assert_eq!(sim.output_word(0), 0, "re-added injection must apply");
    }

    #[test]
    fn identical_incremental_call_changes_nothing_and_saves_events() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        sim.seed_baseline(&[0b01, 0b11, 0b10], &[]);
        let before: Vec<u64> = (0..v.output_count()).map(|o| sim.output_word(o)).collect();
        sim.eval_incremental(&[0b01, 0b11, 0b10], &[]);
        let after: Vec<u64> = (0..v.output_count()).map(|o| sim.output_word(o)).collect();
        assert_eq!(before, after);
    }

    /// A broadcast slot of a packed baseline is the baseline a fresh
    /// sweep of that slot's stimulus seeds, and later sweeps against it
    /// read the same.
    #[test]
    fn broadcast_slot_equals_a_seeded_sweep() {
        use tvs_logic::Prng;

        let n = tvs_circuits::profile("s444").unwrap().build();
        let v = n.scan_view().unwrap();
        let all: Vec<GateId> = n.gate_ids().collect();
        let mut rng = Prng::seed_from_u64(0xB0AD);
        let mut packed = ParallelSim::new(&n, &v);
        let mut fresh = ParallelSim::new(&n, &v);
        for _ in 0..8 {
            let words: Vec<u64> = (0..v.input_count()).map(|_| rng.next_u64()).collect();
            packed.seed_baseline(&words, &[]);
            let slot = rng.gen_range(0..64) as u32;
            packed.broadcast_baseline_slot(slot);
            let spread: Vec<u64> = words
                .iter()
                .map(|w| 0u64.wrapping_sub((w >> slot) & 1))
                .collect();
            fresh.seed_baseline(&spread, &[]);
            for &id in &all {
                assert_eq!(packed.word(id), fresh.word(id), "slot {slot}");
            }
            for o in 0..v.output_count() {
                assert_eq!(packed.output_word(o), fresh.output_word(o), "slot {slot}");
            }
            let injections = [Injection {
                gate: all[rng.gen_range(0..all.len())],
                pin: None,
                stuck: rng.next_bool(),
                slots: rng.next_u64(),
            }];
            assert_eq!(
                packed.detect_mask(&injections, &[]),
                fresh.detect_mask(&injections, &[])
            );
            packed.eval_incremental(&spread, &injections);
            fresh.eval_incremental(&spread, &injections);
            for o in 0..v.output_count() {
                assert_eq!(packed.output_word(o), fresh.output_word(o));
            }
        }
    }

    #[test]
    fn incremental_without_baseline_falls_back_to_full() {
        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut sim = ParallelSim::new(&n, &v);
        assert!(!sim.has_baseline());
        sim.eval_incremental(&[!0, !0, 0], &[]);
        assert_eq!(sim.output_word(0), !0);
        sim.seed_baseline(&[!0, !0, 0], &[]);
        assert!(sim.has_baseline());
        // A plain eval invalidates the baseline.
        sim.eval(&[0, 0, 0], &[]);
        assert!(!sim.has_baseline());
    }

    #[test]
    fn agrees_with_three_valued_sim_on_random_patterns() {
        use tvs_logic::{Cube, Logic, Prng};

        let n = fig1();
        let v = n.scan_view().unwrap();
        let mut psim = ParallelSim::new(&n, &v);
        let mut tsim = crate::ThreeValSim::new(&n, &v);
        let mut rng = Prng::seed_from_u64(11);
        for _ in 0..32 {
            let bits: Vec<bool> = (0..3).map(|_| rng.next_bool()).collect();
            let words: Vec<u64> = bits.iter().map(|&b| if b { 1 } else { 0 }).collect();
            psim.eval(&words, &[]);
            let cube: Cube = bits.iter().map(|&b| Logic::from(b)).collect();
            let expect = tsim.run(&cube);
            assert_eq!(psim.output_slot(0).to_string(), expect.to_string());
        }
    }
}
