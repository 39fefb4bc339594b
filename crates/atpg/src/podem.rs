//! PODEM (Path-Oriented DEcision Making) test generation with pinned bits.
//!
//! The implementation follows Goel's original branch-on-primary-inputs
//! scheme, with the fault effect tracked by *dual simulation*: every signal
//! carries a (good, faulty) pair of three-valued logic values, which is
//! equivalent to the classic 5-valued D-calculus (`D` = good 1 / faulty 0,
//! `D̄` = good 0 / faulty 1) but composes mechanically with any gate type.
//!
//! The one capability added for the stitching paper is **pinned bits**: the
//! constraint cube pre-assigns some combinational inputs (the scan-cell bits
//! retained from the previous response) before the decision loop starts;
//! PODEM then only branches on the remaining free inputs, and an
//! [`Untestable`](PodemResult::Untestable) verdict means *untestable under
//! the constraint*, the signal the variable-shift policy keys off.

use tvs_logic::{Cube, Logic};
use tvs_netlist::{GateId, GateKind, Netlist, ScanView};

use tvs_fault::{Fault, Scoap};
use tvs_sim::ThreeValSim;

use crate::Verdicts;

/// Tuning knobs for [`Podem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Maximum number of backtracks before giving up with
    /// [`PodemResult::Aborted`].
    pub backtrack_limit: u32,
    /// Enable the X-path pruning check (a detected dead-end when no path of
    /// unassigned signals remains from the D-frontier to an output).
    pub xpath_check: bool,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            backtrack_limit: 256,
            xpath_check: true,
        }
    }
}

/// Outcome of one PODEM run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PodemResult {
    /// A test cube over the combinational inputs (PIs then PPIs). Pinned
    /// bits appear with their pinned values; remaining `X` positions are
    /// genuine don't-cares.
    Test(Cube),
    /// No test exists under the given constraint (for an unconstrained run
    /// this proves the fault redundant).
    Untestable,
    /// The backtrack limit was exhausted before a verdict.
    Aborted,
}

impl PodemResult {
    /// Returns the test cube if one was found.
    pub fn test(&self) -> Option<&Cube> {
        match self {
            PodemResult::Test(cube) => Some(cube),
            _ => None,
        }
    }
}

/// The work one PODEM call did: what [`Podem::solve`] reports instead of
/// publishing it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PodemWork {
    /// Backtracks the call consumed (its budget charge is `1 + backtracks`).
    pub backtracks: u32,
    /// Two-plane gate evaluations the call made.
    pub evals: u64,
}

#[derive(Debug, Clone, Copy)]
struct Decision {
    input: usize,
    value: bool,
    flipped: bool,
    /// The trail length before the input was assigned: restoring to it
    /// returns the planes to the state the decision was made in.
    mark: usize,
}

/// Which value plane an objective lives on.
///
/// The dual (good, faulty) encoding is finer than the classic 5-valued
/// D-calculus: a signal can be specified in the good machine while still
/// unknown in the faulty one (the good side was frozen by a side input).
/// Fault-effect propagation must then steer the *faulty* plane — outside
/// the fault cone the planes coincide, so faulty-plane backtrace degrades
/// gracefully into the classic scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plane {
    Good,
    Faulty,
}

/// The PODEM test generator.
///
/// # Examples
///
/// ```
/// use tvs_atpg::{Podem, PodemResult};
/// use tvs_fault::{Fault, StuckAt};
/// use tvs_logic::Cube;
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("and");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::And, &["a", "b"])?;
/// b.mark_output("y")?;
/// let n = b.build()?;
/// let view = n.scan_view()?;
/// let mut podem = Podem::new(&n, &view);
///
/// let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);
/// let free = Cube::unspecified(2);
/// match podem.generate(fault, &free) {
///     PodemResult::Test(cube) => assert_eq!(cube.to_string(), "11"),
///     other => panic!("expected a test, got {other:?}"),
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Podem<'a> {
    netlist: &'a Netlist,
    view: &'a ScanView,
    scoap: Scoap,
    config: PodemConfig,
    good: Vec<Logic>,
    faulty: Vec<Logic>,
    /// The good plane implied by `base_cube` alone. Every call under that
    /// constraint opens from it, with the faulty plane equal to it outside
    /// the fault's cone (DESIGN.md §11.7).
    base: ThreeValSim<'a>,
    /// The constraint `base` was implied from (`None` before any call).
    base_cube: Option<Cube>,
    /// Every write since the call opened, with the pair it overwrote,
    /// oldest first. A backtrack restores it down to a decision's mark; the
    /// next call's `rebase` restores it all (DESIGN.md §11.9).
    trail: Vec<(GateId, Logic, Logic)>,
    /// The gates whose opening pair need not be their gate function: the
    /// site gate when it is combinational, and the site's consumers.
    specials: Vec<GateId>,
    /// Gates the call has evaluated (only the specials' flags are read); a
    /// restore leaves the flags.
    evaluated: Vec<bool>,
    /// Gates reachable from the current fault site.
    cone: Vec<bool>,
    /// The combinational gates of the cone, in `view.order()` order: the
    /// only gates that can ever join the D-frontier.
    cone_gates: Vec<GateId>,
    /// Output indices whose driver lies in the cone.
    cone_outputs: Vec<usize>,
    /// The fan-in closure of the cone and of the fault site's pins: every
    /// gate the search reads, and the only gates events propagate to.
    region: Vec<bool>,
    /// The members of `region` (the cone first), so the next call clears
    /// only them.
    region_gates: Vec<GateId>,
    /// Each combinational gate's position in `view.order()` (`u32::MAX`
    /// for sources).
    order_pos: Vec<u32>,
    /// Level-bucketed event queue.
    buckets: Vec<Vec<GateId>>,
    queued: Vec<bool>,
    /// Visit marks of the X-path walk: gate `g` is seen in the current walk
    /// when `seen[g] == stamp`, so no walk clears or allocates a buffer.
    seen: Vec<u32>,
    stamp: u32,
    /// Work stack of the cone and X-path walks.
    walk: Vec<GateId>,
    fault: Option<Fault>,
    /// Gate evaluations in the `solve` call in progress.
    evals: u64,
    backtrack_counter: tvs_exec::Counter,
    eval_counter: tvs_exec::Counter,
    /// Calls [`generate_free`](Self::generate_free) answered from a
    /// verdict table, and the backtracks those answers stand for.
    reused_counter: tvs_exec::Counter,
    reused_backtrack_counter: tvs_exec::Counter,
    last_backtracks: u32,
}

impl<'a> Podem<'a> {
    /// Creates a generator with the default configuration.
    pub fn new(netlist: &'a Netlist, view: &'a ScanView) -> Self {
        Podem::with_config(netlist, view, PodemConfig::default())
    }

    /// Creates a generator with an explicit configuration.
    pub fn with_config(netlist: &'a Netlist, view: &'a ScanView, config: PodemConfig) -> Self {
        let n = netlist.gate_count();
        let mut order_pos = vec![u32::MAX; n];
        for (k, g) in view.order().iter().enumerate() {
            order_pos[g.index()] = k as u32;
        }
        Podem {
            netlist,
            view,
            scoap: Scoap::compute(netlist, view),
            config,
            good: vec![Logic::X; n],
            faulty: vec![Logic::X; n],
            base: ThreeValSim::new(netlist, view),
            base_cube: None,
            trail: Vec::new(),
            specials: Vec::new(),
            evaluated: vec![false; n],
            cone: vec![false; n],
            cone_gates: Vec::new(),
            cone_outputs: Vec::new(),
            region: vec![false; n],
            region_gates: Vec::new(),
            order_pos,
            buckets: vec![Vec::new(); view.depth() as usize + 2],
            queued: vec![false; n],
            seen: vec![0; n],
            stamp: 0,
            walk: Vec::new(),
            fault: None,
            evals: 0,
            backtrack_counter: tvs_exec::counter("atpg.backtracks"),
            eval_counter: tvs_exec::counter("atpg.podem_evals"),
            reused_counter: tvs_exec::counter("atpg.podem_reused"),
            reused_backtrack_counter: tvs_exec::counter("atpg.backtracks_reused"),
            last_backtracks: 0,
        }
    }

    /// A prover over the same netlist, view and configuration that shares
    /// none of this one's state.
    pub fn fresh(&self) -> Podem<'a> {
        Podem::with_config(self.netlist, self.view, self.config)
    }

    /// Backtracks consumed by the most recent `generate*` or `solve` call.
    /// Callers use this as the deterministic work-unit charge for
    /// [`tvs_exec::Budget`] bookkeeping (observed sequentially, so thread
    /// count cannot skew it).
    pub fn last_backtracks(&self) -> u32 {
        self.last_backtracks
    }

    /// Adds a call's work to `atpg.backtracks` and `atpg.podem_evals`.
    /// Every `generate*` call that runs a search publishes its own work;
    /// a [`solve`](Self::solve) caller publishes only the calls it keeps.
    pub fn publish(&self, work: PodemWork) {
        self.backtrack_counter.add(u64::from(work.backtracks));
        self.eval_counter.add(work.evals);
    }

    /// Attempts to generate a test for `fault` under `constraint`.
    ///
    /// `constraint` is a cube over the combinational inputs (PIs then PPIs);
    /// specified positions are pinned and never branched on. Pass
    /// [`Cube::unspecified`] of the right length for an unconstrained run.
    ///
    /// # Panics
    ///
    /// Panics if `constraint.len() != view.input_count()`.
    pub fn generate(&mut self, fault: Fault, constraint: &Cube) -> PodemResult {
        self.generate_observable(fault, constraint, None)
    }

    /// An unconstrained [`generate`](Self::generate), answered from
    /// `verdicts` when its lookup rule decides the call (DESIGN.md §11.5).
    /// An answered call sets [`last_backtracks`](Self::last_backtracks) to
    /// the recorded count, so budget charges read exactly as if the search
    /// had run; it counts toward `atpg.podem_reused` and
    /// `atpg.backtracks_reused` instead of `atpg.backtracks`.
    pub fn generate_free(&mut self, fault: Fault, verdicts: &Verdicts) -> PodemResult {
        if let Some((result, backtracks)) = verdicts.lookup(fault, &self.config) {
            self.last_backtracks = backtracks;
            self.reused_counter.incr();
            self.reused_backtrack_counter.add(u64::from(backtracks));
            return result;
        }
        self.generate(fault, &Cube::unspecified(self.view.input_count()))
    }

    /// Like [`generate`](Self::generate), but only the combinational
    /// outputs whose index is flagged in `observable` count as detection
    /// points (`None` = all outputs observable).
    ///
    /// The stitching engine uses this to demand propagation to a primary
    /// output or to a scan cell that the next shift will actually expose —
    /// a test that merely differentiates the fault inside the retained part
    /// of the chain does not move it to `f_c`.
    ///
    /// # Panics
    ///
    /// Panics if `constraint.len() != view.input_count()` or the flag slice
    /// length does not equal `view.output_count()`.
    pub fn generate_observable(
        &mut self,
        fault: Fault,
        constraint: &Cube,
        observable: Option<&[bool]>,
    ) -> PodemResult {
        let (result, work) = self.solve(fault, constraint, observable);
        self.publish(work);
        result
    }

    /// [`generate_observable`](Self::generate_observable) without
    /// publishing: the call's work comes back next to its verdict, for the
    /// caller to [`publish`](Self::publish) if it keeps the call. A
    /// speculative call that is dropped then leaves no trace in the
    /// counters.
    ///
    /// # Panics
    ///
    /// As [`generate_observable`](Self::generate_observable).
    pub fn solve(
        &mut self,
        fault: Fault,
        constraint: &Cube,
        observable: Option<&[bool]>,
    ) -> (PodemResult, PodemWork) {
        assert_eq!(
            constraint.len(),
            self.view.input_count(),
            "constraint length must match the scan view"
        );
        if let Some(flags) = observable {
            assert_eq!(
                flags.len(),
                self.view.output_count(),
                "observable flag count must match the scan view"
            );
        }
        // Chaos site: an armed "atpg.podem.abort" window makes every call
        // on a fault whose site gate index it covers give up at once,
        // modeling pathological backtrack exhaustion. It is keyed by the
        // site, not by a hit count, so it lands on the same calls however
        // the calls are spread over threads.
        if tvs_exec::inject::fire_at("atpg.podem.abort", fault.site.gate.index() as u64) {
            self.last_backtracks = 0;
            return (PodemResult::Aborted, PodemWork::default());
        }
        self.evals = 0;
        if !self.open(fault, constraint, observable) {
            // The search would stop at its first decision: one backtrack,
            // then an empty decision stack (DESIGN.md §11.7).
            self.last_backtracks = 1;
            let result = if self.config.backtrack_limit >= 1 {
                PodemResult::Untestable
            } else {
                PodemResult::Aborted
            };
            return (
                result,
                PodemWork {
                    backtracks: 1,
                    evals: 0,
                },
            );
        }

        let mut stack = Vec::new();
        let mut backtracks = 0u32;
        let result = loop {
            if let Some(result) = self.step(&mut stack, &mut backtracks) {
                break result;
            }
        };
        self.last_backtracks = backtracks;
        (
            result,
            PodemWork {
                backtracks,
                evals: self.evals,
            },
        )
    }

    /// One move of the search: a verdict, or `None` after it made the next
    /// decision or backtracked.
    fn step(&mut self, stack: &mut Vec<Decision>, backtracks: &mut u32) -> Option<PodemResult> {
        if self.detected() {
            return Some(PodemResult::Test(self.extract_cube()));
        }
        if let Some((input, value)) = self.decide() {
            stack.push(Decision {
                input,
                value,
                flipped: false,
                mark: self.trail.len(),
            });
            self.assign(input, Logic::from(value));
            return None;
        }
        // Dead end: drop the flipped decisions, return to the state the
        // newest unflipped one was made in, and flip it (DESIGN.md §11.9).
        *backtracks += 1;
        if *backtracks > self.config.backtrack_limit {
            return Some(PodemResult::Aborted);
        }
        let Some(d) = std::iter::from_fn(|| stack.pop()).find(|d| !d.flipped) else {
            return Some(PodemResult::Untestable);
        };
        self.restore(d.mark);
        self.requeue_specials();
        stack.push(Decision {
            value: !d.value,
            flipped: true,
            ..d
        });
        self.assign(d.input, Logic::from(!d.value));
        None
    }

    /// The fault installed by `reset` for the `generate` call in progress.
    fn active_fault(&self) -> Fault {
        // Structurally unreachable outside a generate call: `reset` installs
        // the fault before any solver step can run. lint:allow(SRC005)
        self.fault.expect("a generate call is active")
    }

    /// Opens a call: both planes at the state the pins alone imply, over
    /// the fault's region. `false` when the pins hold the fault site at its
    /// stuck value, so no activation exists and nothing else is set up.
    fn open(&mut self, fault: Fault, constraint: &Cube, observable: Option<&[bool]>) -> bool {
        self.fault = Some(fault);
        self.rebase(constraint);
        if self.site_value() == stuck_logic(fault) {
            return false;
        }
        self.reset(fault, observable);
        self.open_cone();
        debug_assert!(
            self.cone_gates.iter().all(|&g| self.specials.contains(&g)
                || self.pair(g) == (self.good[g.index()], self.faulty[g.index()])),
            "every cone gate but the specials opens at its gate function"
        );
        true
    }

    /// Returns both planes to the opening state under `constraint`: undoes
    /// the previous call's writes, and re-implies the base plane only when
    /// the constraint differs from the last one.
    fn rebase(&mut self, constraint: &Cube) {
        if self.base_cube.as_ref() == Some(constraint) {
            self.restore(0);
            return;
        }
        self.trail.clear();
        self.base.run(constraint);
        for g in self.netlist.gate_ids() {
            let v = self.base.value(g);
            self.good[g.index()] = v;
            self.faulty[g.index()] = v;
        }
        self.base_cube = Some(constraint.clone());
    }

    /// Installs `fault` and walks its cone (forward through combinational
    /// fanout) and its region (the cone's fan-in closure, plus the site's
    /// own pins: a DFF pin fault reads the cell's D driver).
    fn reset(&mut self, fault: Fault, observable: Option<&[bool]>) {
        self.fault = Some(fault);
        for g in self.region_gates.drain(..) {
            self.cone[g.index()] = false;
            self.region[g.index()] = false;
            self.evaluated[g.index()] = false;
        }
        self.cone_gates.clear();
        self.cone_outputs.clear();

        let view = self.view;
        let seed = fault.site.gate;
        self.specials.clear();
        if self.order_pos[seed.index()] != u32::MAX {
            self.specials.push(seed);
        }
        self.specials.extend_from_slice(view.comb_fanout(seed));
        let mut stack = std::mem::take(&mut self.walk);
        stack.clear();
        stack.push(seed);
        self.cone[seed.index()] = true;
        while let Some(g) = stack.pop() {
            self.region[g.index()] = true;
            self.region_gates.push(g);
            if self.order_pos[g.index()] != u32::MAX {
                self.cone_gates.push(g);
            }
            for &consumer in view.comb_fanout(g) {
                if !self.cone[consumer.index()] {
                    self.cone[consumer.index()] = true;
                    stack.push(consumer);
                }
            }
        }
        self.walk = stack;
        let order_pos = &self.order_pos;
        self.cone_gates
            .sort_unstable_by_key(|g| order_pos[g.index()]);

        // The region grows from `region_gates` used as its own worklist.
        if fault.site.pin.is_some() {
            for &f in self.netlist.gate(seed).fanin() {
                self.join_region(f);
            }
        }
        let mut next = 0;
        while next < self.region_gates.len() {
            let g = self.region_gates[next];
            next += 1;
            if self.order_pos[g.index()] != u32::MAX {
                for &f in self.netlist.gate(g).fanin() {
                    self.join_region(f);
                }
            }
        }

        for o in 0..view.output_count() {
            if let Some(flags) = observable {
                if !flags[o] {
                    continue;
                }
            }
            let driver = view.output_gate(o);
            let in_cone = self.cone[driver.index()]
                // a Dff-pin fault shows up only at that cell's PPO
                || (o >= view.po_count()
                    && fault.site.pin.is_some()
                    && view.ppis()[o - view.po_count()] == fault.site.gate);
            if in_cone {
                self.cone_outputs.push(o);
            }
        }
    }

    fn join_region(&mut self, g: GateId) {
        if !self.region[g.index()] {
            self.region[g.index()] = true;
            self.region_gates.push(g);
        }
    }

    /// Brings the cone's faulty plane to the state the pinned bits alone
    /// imply, evaluating exactly the gates a whole-netlist drain from the
    /// pins would: those with a fanin that queues its consumers
    /// ([`queues`](Self::queues)). Outside the cone that state is the base
    /// plane itself.
    fn open_cone(&mut self) {
        let fault = self.active_fault();
        let site = fault.site.gate;
        // The faulty value at a stem fault site on a *source* gate is pinned
        // immediately (sources are not re-evaluated by propagation).
        if fault.site.pin.is_none() && self.order_pos[site.index()] == u32::MAX {
            self.write(site, self.good[site.index()], stuck_logic(fault));
        }
        for k in 0..self.cone_gates.len() {
            let g = self.cone_gates[k];
            if !self.netlist.gate(g).fanin().iter().any(|&f| self.queues(f)) {
                continue;
            }
            let (ng, nf) = self.eval_gate(g);
            debug_assert_eq!(ng, self.good[g.index()], "the good plane is the base");
            if nf != self.faulty[g.index()] {
                self.write(g, ng, nf);
            }
        }
    }

    /// Whether `f`'s opening pair queued its consumers in the drain from
    /// the pins: a pinned input does, and so does a gate whose pair left
    /// `(X, X)`. An unpinned source stem-fault site holds its stuck value
    /// without queueing anything.
    fn queues(&self, f: GateId) -> bool {
        self.good[f.index()].is_specified()
            || (self.faulty[f.index()].is_specified() && self.order_pos[f.index()] != u32::MAX)
    }

    /// Sets `g`'s planes, recording the pair it overwrites on the trail.
    fn write(&mut self, g: GateId, good: Logic, faulty: Logic) {
        let i = g.index();
        self.trail.push((g, self.good[i], self.faulty[i]));
        self.good[i] = good;
        self.faulty[i] = faulty;
    }

    /// Undoes the trail's writes down to length `mark`, newest first.
    fn restore(&mut self, mark: usize) {
        for (g, good, faulty) in self.trail.drain(mark..).rev() {
            self.good[g.index()] = good;
            self.faulty[g.index()] = faulty;
        }
    }

    /// Queues every special the call has evaluated. A restore can return
    /// one to its opening pair, which is not its gate function; the next
    /// drain brings it back to the pair the search has seen since.
    fn requeue_specials(&mut self) {
        for k in 0..self.specials.len() {
            let g = self.specials[k];
            if self.evaluated[g.index()] {
                self.enqueue(g);
            }
        }
    }

    /// Assigns a combinational input and propagates events forward.
    fn assign(&mut self, input: usize, value: Logic) {
        self.set_input(input, value);
        self.drain();
    }

    /// Sets a combinational input on both planes and queues its consumers;
    /// the next [`drain`](Self::drain) propagates the change.
    fn set_input(&mut self, input: usize, value: Logic) {
        let gate = self.view.input_gate(input);
        let fault = self.active_fault();
        let faulty = if fault.site.pin.is_none() && fault.site.gate == gate {
            stuck_logic(fault)
        } else {
            value
        };
        self.write(gate, value, faulty);
        self.enqueue_fanout(gate);
    }

    /// Evaluates queued gates level by level until no value changes. Gates
    /// of one level never feed each other, so the order within a level does
    /// not affect the result.
    fn drain(&mut self) {
        for level in 1..self.buckets.len() {
            while let Some(g) = self.buckets[level].pop() {
                self.queued[g.index()] = false;
                let (ng, nf) = self.eval_gate(g);
                if ng != self.good[g.index()] || nf != self.faulty[g.index()] {
                    self.write(g, ng, nf);
                    self.enqueue_fanout(g);
                }
            }
        }
    }

    /// Queues `g`'s consumers inside the region; gates outside it never
    /// feed a gate the search reads.
    fn enqueue_fanout(&mut self, g: GateId) {
        for &consumer in self.view.comb_fanout(g) {
            if self.region[consumer.index()] {
                self.enqueue(consumer);
            }
        }
    }

    fn enqueue(&mut self, g: GateId) {
        if !self.queued[g.index()] {
            self.queued[g.index()] = true;
            self.buckets[self.view.level(g) as usize].push(g);
        }
    }

    /// [`pair`](Self::pair), counted, with `g` flagged as evaluated.
    fn eval_gate(&mut self, g: GateId) -> (Logic, Logic) {
        self.evals += 1;
        self.evaluated[g.index()] = true;
        self.pair(g)
    }

    /// `g`'s gate function on both planes, in one pass over its fanins.
    /// Outside the fault's cone the planes coincide, so the good plane is
    /// evaluated once and copied; only the fault-site gate substitutes a
    /// stuck value.
    fn pair(&self, g: GateId) -> (Logic, Logic) {
        let gate = self.netlist.gate(g);
        let (kind, fanin) = (gate.kind(), gate.fanin());
        let (good, faulty) = (&self.good, &self.faulty);
        if !self.cone[g.index()] {
            let v = eval_planes(
                kind,
                fanin.iter().map(|f| (good[f.index()], good[f.index()])),
            )
            .0;
            return (v, v);
        }
        let fault = self.active_fault();
        let site = fault.site.gate == g;
        let stuck = stuck_logic(fault);
        let (ng, nf) = eval_planes(
            kind,
            fanin.iter().enumerate().map(|(pin, f)| {
                let fv = if site && fault.site.pin == Some(pin as u32) {
                    stuck
                } else {
                    faulty[f.index()]
                };
                (good[f.index()], fv)
            }),
        );
        if site && fault.site.pin.is_none() {
            return (ng, stuck);
        }
        (ng, nf)
    }

    fn output_pair(&self, o: usize) -> (Logic, Logic) {
        let driver = self.view.output_gate(o);
        let mut pair = (self.good[driver.index()], self.faulty[driver.index()]);
        let fault = self.active_fault();
        if o >= self.view.po_count() {
            let ff = self.view.ppis()[o - self.view.po_count()];
            if fault.site.pin == Some(0) && fault.site.gate == ff {
                pair.1 = stuck_logic(fault);
            }
        }
        pair
    }

    fn detected(&self) -> bool {
        self.cone_outputs.iter().any(|&o| {
            let (g, f) = self.output_pair(o);
            g.is_specified() && f.is_specified() && g != f
        })
    }

    /// The good value at the fault site's *reference* net (the driver for a
    /// branch fault, the gate itself for a stem fault).
    fn site_value(&self) -> Logic {
        let fault = self.active_fault();
        match fault.site.pin {
            None => self.good[fault.site.gate.index()],
            Some(pin) => {
                let driver = self.netlist.gate(fault.site.gate).fanin()[pin as usize];
                self.good[driver.index()]
            }
        }
    }

    /// The next decision `(input, value)`, or `None` at a dead end: the
    /// fault cannot be activated, its effect can no longer propagate, or
    /// the objective backtraces into an assigned input. Called only while
    /// the fault is undetected.
    fn decide(&mut self) -> Option<(usize, bool)> {
        let fault = self.active_fault();
        let site = self.site_value();
        if !site.is_specified() {
            // Activate the fault (good plane).
            let target = match fault.site.pin {
                None => fault.site.gate,
                Some(pin) => self.netlist.gate(fault.site.gate).fanin()[pin as usize],
            };
            return self.backtrace(Plane::Good, target, !fault.stuck.as_bool());
        }
        if site == stuck_logic(fault) {
            return None; // activation impossible
        }
        // Activated: the effect must still be propagatable. One scan of the
        // cone finds the D-frontier gate closest to an observation point
        // (ties break to the first in topological order).
        let g = self
            .cone_gates
            .iter()
            .copied()
            .filter(|&g| self.is_d_frontier(g))
            .min_by_key(|&g| self.scoap.co(g))?;
        if self.config.xpath_check && !self.xpath_exists() {
            return None;
        }
        let (plane, pin, value) = self.propagation_objective(g)?;
        self.backtrace(plane, pin, value)
    }

    fn has_d_input(&self, g: GateId) -> bool {
        let fault = self.active_fault();
        self.netlist
            .gate(g)
            .fanin()
            .iter()
            .enumerate()
            .any(|(pin, &f)| {
                let good = self.good[f.index()];
                let faulty = if fault.site.pin == Some(pin as u32) && fault.site.gate == g {
                    stuck_logic(fault)
                } else {
                    self.faulty[f.index()]
                };
                good.is_specified() && faulty.is_specified() && good != faulty
            })
    }

    fn is_d_frontier(&self, g: GateId) -> bool {
        let (og, of) = (self.good[g.index()], self.faulty[g.index()]);
        let undetermined = !og.is_specified() || !of.is_specified();
        undetermined && self.has_d_input(g)
    }

    /// X-path check: from some D-frontier gate there must be a chain of
    /// not-fully-determined signals reaching a cone output. Called only
    /// while the fault is undetected.
    fn xpath_exists(&mut self) -> bool {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        // Walk backwards from open (undetermined) cone outputs through
        // undetermined gates; success if we touch a D-frontier gate.
        let mut stack = std::mem::take(&mut self.walk);
        stack.clear();
        for k in 0..self.cone_outputs.len() {
            let o = self.cone_outputs[k];
            let (g, f) = self.output_pair(o);
            let d = self.view.output_gate(o);
            if (!g.is_specified() || !f.is_specified())
                && self.cone[d.index()]
                && self.seen[d.index()] != stamp
            {
                self.seen[d.index()] = stamp;
                stack.push(d);
            }
        }
        let mut found = false;
        while let Some(g) = stack.pop() {
            let undetermined =
                !self.good[g.index()].is_specified() || !self.faulty[g.index()].is_specified();
            if !undetermined {
                continue;
            }
            if self.is_d_frontier(g) {
                found = true;
                break;
            }
            for &f in self.netlist.gate(g).fanin() {
                if self.cone[f.index()]
                    && self.seen[f.index()] != stamp
                    && self.netlist.gate(f).kind().is_combinational()
                {
                    self.seen[f.index()] = stamp;
                    stack.push(f);
                }
            }
        }
        self.walk = stack;
        found
    }

    #[inline]
    fn plane_value(&self, plane: Plane, gate: GateId) -> Logic {
        match plane {
            Plane::Good => self.good[gate.index()],
            Plane::Faulty => self.faulty[gate.index()],
        }
    }

    /// The objective `(plane, gate, value)` that advances D-frontier gate
    /// `g`: set a free input to the non-controlling value (faulty plane
    /// first — see [`Plane`]).
    fn propagation_objective(&self, g: GateId) -> Option<(Plane, GateId, bool)> {
        let kind = self.netlist.gate(g).kind();
        let noncontrolling = match kind.controlling_value() {
            Some(Logic::Zero) => true,
            Some(Logic::One) => false,
            _ => false, // XOR-class: aim for 0, backtracking corrects
            #[allow(unreachable_patterns)]
            Some(Logic::X) => unreachable!(),
        };
        // Prefer an input whose faulty value is still free (the usual case,
        // and the only lever when the good output is already frozen); fall
        // back to a good-plane X input.
        for plane in [Plane::Faulty, Plane::Good] {
            if let Some(&pin) = self
                .netlist
                .gate(g)
                .fanin()
                .iter()
                .find(|&&f| !self.plane_value(plane, f).is_specified())
            {
                return Some((plane, pin, noncontrolling));
            }
        }
        None
    }

    /// Walks an objective back to an unassigned combinational input,
    /// choosing pins by SCOAP controllability. `plane` selects which value
    /// plane the descent follows (propagation objectives use the faulty
    /// plane); the terminal input assignment always acts on both planes.
    fn backtrace(&self, plane: Plane, mut gate: GateId, mut value: bool) -> Option<(usize, bool)> {
        loop {
            if let Some(i) = self.view.input_index_of(gate) {
                if self.good[gate.index()].is_specified() {
                    return None; // objective hit an already-pinned input
                }
                return Some((i, value));
            }
            let g = self.netlist.gate(gate);
            let kind = g.kind();
            let v_in = match kind {
                GateKind::Buf => value,
                GateKind::Not => !value,
                GateKind::And | GateKind::Or => value,
                GateKind::Nand | GateKind::Nor => !value,
                GateKind::Xor | GateKind::Xnor => {
                    // Needed parity assuming other unassigned inputs fall to 0.
                    let mut parity = value ^ (kind == GateKind::Xnor);
                    for &f in g.fanin() {
                        if let Some(b) = self.plane_value(plane, f).to_bool() {
                            parity ^= b;
                        }
                    }
                    parity
                }
                GateKind::Input | GateKind::Dff => unreachable!("handled above"),
            };
            let unassigned = g
                .fanin()
                .iter()
                .filter(|&&f| !self.plane_value(plane, f).is_specified());
            let controlling = kind.controlling_value() == Some(Logic::from(v_in));
            let cost = |f: &&GateId| {
                if v_in {
                    self.scoap.cc1(**f)
                } else {
                    self.scoap.cc0(**f)
                }
            };
            let choice = if controlling || matches!(kind, GateKind::Buf | GateKind::Not) {
                unassigned.min_by_key(cost)
            } else {
                unassigned.max_by_key(cost)
            };
            match choice {
                Some(&f) => {
                    gate = f;
                    value = v_in;
                }
                None => return None,
            }
        }
    }

    fn extract_cube(&self) -> Cube {
        (0..self.view.input_count())
            .map(|i| self.good[self.view.input_gate(i).index()])
            .collect()
    }
}

fn stuck_logic(fault: Fault) -> Logic {
    Logic::from(fault.stuck.as_bool())
}

// `eval_planes` reads a value's discriminant as its bit position.
const _: () = assert!(Logic::Zero as u8 == 0 && Logic::One as u8 == 1 && Logic::X as u8 == 2);

/// Folds a gate's `(good, faulty)` fanin pairs into its output pair — the
/// two-plane form of [`GateKind::eval`], which stays the reference. Each
/// plane is summarised by the set of values its inputs take (bit `v` for
/// discriminant `v`) and the parity of its 1s, so no input costs a branch;
/// the gate function is read off the summary.
fn eval_planes(kind: GateKind, inputs: impl Iterator<Item = (Logic, Logic)>) -> (Logic, Logic) {
    let (mut good_seen, mut faulty_seen, mut good_ones, mut faulty_ones) = (0u8, 0u8, 0u8, 0u8);
    for (g, f) in inputs {
        let (g, f) = (g as u8, f as u8);
        good_seen |= 1 << g;
        faulty_seen |= 1 << f;
        good_ones ^= g & 1;
        faulty_ones ^= f & 1;
    }
    (
        read_off(kind, good_seen, good_ones),
        read_off(kind, faulty_seen, faulty_ones),
    )
}

/// The output of `kind` over inputs that take the values in `seen` with
/// `ones` parity. `Buf`/`Not` have exactly one fanin, so they read like
/// `And`/`Nand`.
fn read_off(kind: GateKind, seen: u8, ones: u8) -> Logic {
    const ZERO: u8 = 1 << Logic::Zero as u8;
    const ONE: u8 = 1 << Logic::One as u8;
    const X: u8 = 1 << Logic::X as u8;
    let v = match kind {
        GateKind::Buf | GateKind::Not | GateKind::And | GateKind::Nand => {
            if seen & ZERO != 0 {
                Logic::Zero
            } else if seen & X != 0 {
                Logic::X
            } else {
                Logic::One
            }
        }
        GateKind::Or | GateKind::Nor => {
            if seen & ONE != 0 {
                Logic::One
            } else if seen & X != 0 {
                Logic::X
            } else {
                Logic::Zero
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            if seen & X != 0 {
                Logic::X
            } else {
                Logic::from(ones == 1)
            }
        }
        GateKind::Input | GateKind::Dff => unreachable!("sources are never evaluated"),
    };
    if kind.is_inverting() {
        !v
    } else {
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_fault::{FaultList, FaultSim, StuckAt};
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

    /// Validates a PODEM cube by fault simulation: the (fill-0 and fill-1)
    /// completions must both detect the fault.
    fn assert_cube_detects(n: &Netlist, fault: Fault, cube: &Cube) {
        let view = n.scan_view().unwrap();
        let mut fsim = FaultSim::new(n, &view);
        for fill in [false, true] {
            let bits = cube.fill_with(fill);
            assert!(
                fsim.detect(&bits, &[fault])[0],
                "cube {cube} (fill {fill}) fails to detect {}",
                fault.display_in(n)
            );
        }
    }

    #[test]
    fn finds_tests_for_every_irredundant_fig1_fault() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let free = Cube::unspecified(view.input_count());
        let mut untestable = Vec::new();
        for &fault in FaultList::collapsed(&n).faults() {
            match podem.generate(fault, &free) {
                PodemResult::Test(cube) => assert_cube_detects(&n, fault, &cube),
                PodemResult::Untestable => untestable.push(fault.display_in(&n)),
                PodemResult::Aborted => panic!("aborted on tiny circuit"),
            }
        }
        assert_eq!(
            untestable,
            vec!["E-F/1".to_string()],
            "only the paper's redundant fault"
        );
    }

    #[test]
    fn proves_the_redundant_fault_untestable() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let f_gate = n.find("F").unwrap();
        let fault = Fault::branch(f_gate, 1, StuckAt::One);
        let free = Cube::unspecified(3);
        assert_eq!(podem.generate(fault, &free), PodemResult::Untestable);
    }

    #[test]
    fn respects_pinned_bits() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        // D/0 requires a=b=1. Pin a=0: now untestable under constraint.
        let fault = Fault::stem(n.find("D").unwrap(), StuckAt::Zero);
        let constraint: Cube = "0XX".parse().unwrap();
        assert_eq!(podem.generate(fault, &constraint), PodemResult::Untestable);
        // Pin a=1: testable, and the cube honours the pin.
        let constraint: Cube = "1XX".parse().unwrap();
        match podem.generate(fault, &constraint) {
            PodemResult::Test(cube) => {
                assert_eq!(cube[0], Logic::One);
                assert_cube_detects(&n, fault, &cube);
            }
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn pinned_only_detection_needs_no_decisions() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        // F/0 is detected by 110 outright.
        let fault = Fault::stem(n.find("F").unwrap(), StuckAt::Zero);
        let constraint: Cube = "110".parse().unwrap();
        match podem.generate(fault, &constraint) {
            PodemResult::Test(cube) => assert_eq!(cube.to_string(), "110"),
            other => panic!("expected test, got {other:?}"),
        }
    }

    #[test]
    fn xor_gates_are_handled() {
        let mut b = NetlistBuilder::new("parity");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_input("c").unwrap();
        b.add_gate("p", GateKind::Xor, &["a", "b", "c"]).unwrap();
        b.mark_output("p").unwrap();
        let n = b.build().unwrap();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let free = Cube::unspecified(3);
        for &fault in FaultList::collapsed(&n).faults() {
            match podem.generate(fault, &free) {
                PodemResult::Test(cube) => assert_cube_detects(&n, fault, &cube),
                other => panic!("{}: {other:?}", fault.display_in(&n)),
            }
        }
    }

    #[test]
    fn classic_redundancy_is_proven() {
        // y = OR(AND(a, b), AND(a, NOT b)) simplifies to a; the internal
        // reconvergence makes some faults redundant; at minimum the
        // generator must terminate with consistent verdicts.
        let mut bld = NetlistBuilder::new("reconv");
        bld.add_input("a").unwrap();
        bld.add_input("b").unwrap();
        bld.add_gate("nb", GateKind::Not, &["b"]).unwrap();
        bld.add_gate("t1", GateKind::And, &["a", "b"]).unwrap();
        bld.add_gate("t2", GateKind::And, &["a", "nb"]).unwrap();
        bld.add_gate("y", GateKind::Or, &["t1", "t2"]).unwrap();
        bld.mark_output("y").unwrap();
        let n = bld.build().unwrap();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let mut fsim = FaultSim::new(&n, &view);
        let free = Cube::unspecified(2);
        for &fault in FaultList::collapsed(&n).faults() {
            match podem.generate(fault, &free) {
                PodemResult::Test(cube) => assert_cube_detects(&n, fault, &cube),
                PodemResult::Untestable => {
                    // verify exhaustively: no pattern detects it
                    for bits in 0..4u32 {
                        let tv: tvs_logic::BitVec = (0..2).map(|i| (bits >> i) & 1 == 1).collect();
                        assert!(
                            !fsim.detect(&tv, &[fault])[0],
                            "{} claimed untestable but pattern {bits:02b} detects it",
                            fault.display_in(&n)
                        );
                    }
                }
                PodemResult::Aborted => panic!("aborted on tiny circuit"),
            }
        }
    }

    /// Every three-valued tuple of length `arity`.
    fn tuples(arity: usize) -> Vec<Vec<Logic>> {
        (0..3usize.pow(arity as u32))
            .map(|mut code| {
                (0..arity)
                    .map(|_| {
                        let v = Logic::ALL[code % 3];
                        code /= 3;
                        v
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn fused_evaluation_matches_the_reference_eval() {
        use GateKind::*;
        for kind in [Buf, Not, And, Nand, Or, Nor, Xor, Xnor] {
            let max_arity = if matches!(kind, Buf | Not) { 1 } else { 4 };
            for arity in 1..=max_arity {
                // y = kind(i0..), plus an unrelated input z whose faults
                // leave y outside the cone.
                let mut b = NetlistBuilder::new("one-gate");
                let names: Vec<String> = (0..arity).map(|k| format!("i{k}")).collect();
                for name in &names {
                    b.add_input(name).unwrap();
                }
                b.add_input("z").unwrap();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                b.add_gate("y", kind, &refs).unwrap();
                b.mark_output("y").unwrap();
                b.mark_output("z").unwrap();
                let n = b.build().unwrap();
                let view = n.scan_view().unwrap();
                let y = n.find("y").unwrap();
                let inputs: Vec<GateId> = names.iter().map(|name| n.find(name).unwrap()).collect();

                let mut faults = vec![
                    Fault::stem(n.find("z").unwrap(), StuckAt::Zero),
                    Fault::stem(inputs[0], StuckAt::One),
                ];
                for stuck in [StuckAt::Zero, StuckAt::One] {
                    faults.push(Fault::stem(y, stuck));
                    for pin in 0..arity as u32 {
                        faults.push(Fault::branch(y, pin, stuck));
                    }
                }
                let mut podem = Podem::new(&n, &view);
                for fault in faults {
                    podem.reset(fault, None);
                    let in_cone = podem.cone[y.index()];
                    for good in tuples(arity) {
                        // Outside the cone the planes coincide.
                        let faulty_tuples = if in_cone {
                            tuples(arity)
                        } else {
                            vec![good.clone()]
                        };
                        for faulty in faulty_tuples {
                            for (k, &i) in inputs.iter().enumerate() {
                                podem.good[i.index()] = good[k];
                                podem.faulty[i.index()] = faulty[k];
                            }
                            let mut seen = faulty.clone();
                            if let (true, Some(pin)) = (fault.site.gate == y, fault.site.pin) {
                                seen[pin as usize] = stuck_logic(fault);
                            }
                            let want_faulty = if fault.site.gate == y && fault.site.pin.is_none() {
                                stuck_logic(fault)
                            } else {
                                kind.eval(&seen)
                            };
                            assert_eq!(
                                podem.eval_gate(y),
                                (kind.eval(&good), want_faulty),
                                "{kind:?} good {good:?} faulty {faulty:?} under {}",
                                fault.display_in(&n)
                            );
                        }
                    }
                }
            }
        }
    }

    /// The solver's opening before it was confined to the fault's region:
    /// both planes X, the pins set, one drain over the whole netlist, and
    /// every later assignment drained over the whole netlist too. The
    /// oracle of `open` and of the region-confined drain (DESIGN.md §11.7).
    struct ColdStart<'n> {
        netlist: &'n Netlist,
        view: &'n ScanView,
        fault: Fault,
        cone: Vec<bool>,
        good: Vec<Logic>,
        faulty: Vec<Logic>,
        buckets: Vec<Vec<GateId>>,
        queued: Vec<bool>,
    }

    impl<'n> ColdStart<'n> {
        fn open(netlist: &'n Netlist, view: &'n ScanView, fault: Fault, constraint: &Cube) -> Self {
            let n = netlist.gate_count();
            let mut cone = vec![false; n];
            let mut stack = vec![fault.site.gate];
            cone[fault.site.gate.index()] = true;
            while let Some(g) = stack.pop() {
                for &c in view.comb_fanout(g) {
                    if !cone[c.index()] {
                        cone[c.index()] = true;
                        stack.push(c);
                    }
                }
            }
            let mut cold = ColdStart {
                netlist,
                view,
                fault,
                cone,
                good: vec![Logic::X; n],
                faulty: vec![Logic::X; n],
                buckets: vec![Vec::new(); view.depth() as usize + 2],
                queued: vec![false; n],
            };
            if fault.site.pin.is_none() && view.input_index_of(fault.site.gate).is_some() {
                cold.faulty[fault.site.gate.index()] = stuck_logic(fault);
            }
            for (i, v) in constraint.iter().enumerate() {
                if v.is_specified() {
                    cold.set_input(i, v);
                }
            }
            cold.drain();
            cold
        }

        fn assign(&mut self, input: usize, value: Logic) {
            self.set_input(input, value);
            self.drain();
        }

        fn set_input(&mut self, input: usize, value: Logic) {
            let gate = self.view.input_gate(input);
            self.good[gate.index()] = value;
            self.faulty[gate.index()] =
                if self.fault.site.pin.is_none() && self.fault.site.gate == gate {
                    stuck_logic(self.fault)
                } else {
                    value
                };
            self.enqueue_fanout(gate);
        }

        fn drain(&mut self) {
            for level in 1..self.buckets.len() {
                while let Some(g) = self.buckets[level].pop() {
                    self.queued[g.index()] = false;
                    let pair = self.eval(g);
                    if pair != (self.good[g.index()], self.faulty[g.index()]) {
                        (self.good[g.index()], self.faulty[g.index()]) = pair;
                        self.enqueue_fanout(g);
                    }
                }
            }
        }

        fn enqueue_fanout(&mut self, g: GateId) {
            for &c in self.view.comb_fanout(g) {
                if !self.queued[c.index()] {
                    self.queued[c.index()] = true;
                    self.buckets[self.view.level(c) as usize].push(c);
                }
            }
        }

        fn eval(&self, g: GateId) -> (Logic, Logic) {
            let gate = self.netlist.gate(g);
            let fault = self.fault;
            let site = fault.site.gate == g;
            let (good, faulty) = if self.cone[g.index()] {
                (&self.good, &self.faulty)
            } else {
                (&self.good, &self.good)
            };
            let (ng, nf) = eval_planes(
                gate.kind(),
                gate.fanin().iter().enumerate().map(|(pin, f)| {
                    let fv = if site && fault.site.pin == Some(pin as u32) {
                        stuck_logic(fault)
                    } else {
                        faulty[f.index()]
                    };
                    (good[f.index()], fv)
                }),
            );
            if site && fault.site.pin.is_none() {
                (ng, stuck_logic(fault))
            } else {
                (ng, nf)
            }
        }
    }

    /// Every gate the search can read for `fault`: the fan-in closure of
    /// its cone and of the site's reference net (a DFF pin fault reads the
    /// cell's D driver, which the cone need not reach).
    fn read_set(netlist: &Netlist, cold: &ColdStart<'_>) -> Vec<GateId> {
        let site = cold.fault.site;
        let reference = match site.pin {
            Some(pin) => netlist.gate(site.gate).fanin()[pin as usize],
            None => site.gate,
        };
        let mut seen = cold.cone.clone();
        seen[reference.index()] = true;
        let mut stack: Vec<GateId> = netlist.gate_ids().filter(|g| seen[g.index()]).collect();
        let mut set = stack.clone();
        while let Some(g) = stack.pop() {
            if !netlist.gate(g).kind().is_combinational() {
                continue;
            }
            for &f in netlist.gate(g).fanin() {
                if !seen[f.index()] {
                    seen[f.index()] = true;
                    stack.push(f);
                    set.push(f);
                }
            }
        }
        set
    }

    fn random_constraint(rng: &mut tvs_logic::Prng, view: &ScanView) -> Cube {
        let mut cube = Cube::unspecified(view.input_count());
        let pin_every = 1 + rng.gen_range(0..4);
        for i in 0..view.input_count() {
            if rng.gen_range(0..pin_every) == 0 {
                cube.set(i, Logic::from(rng.next_bool()));
            }
        }
        cube
    }

    /// One prover serves random (fault, constraint) pairs, with constraints
    /// reused, switched and interleaved with full searches, so base reuse,
    /// base recompute and trail restore all run. After each opening, and
    /// after each of a few random assignments, every gate the search can
    /// read must lie in the region and hold the cold start's pair.
    #[test]
    fn region_opening_matches_the_cold_whole_netlist_start() {
        let mut circuits = vec![fig1()];
        for name in ["s444", "s526", "s641", "s953"] {
            circuits.push(tvs_circuits::profile(name).expect("profile").build());
        }
        let mut rng = tvs_logic::Prng::seed_from_u64(0x0C01D);
        // [shortcut, unpinned source stems, DFF pin faults, base reuses]
        let mut seen = [0usize; 4];
        for netlist in &circuits {
            let view = netlist.scan_view().unwrap();
            let mut podem = Podem::new(netlist, &view);
            let faults = FaultList::full(netlist);
            let ppis = view.ppis();
            let mut pool: Vec<Cube> = Vec::new();
            let mut last: Option<Cube> = None;
            for round in 0..240 {
                if round % 40 == 0 {
                    pool = vec![Cube::unspecified(view.input_count())];
                    pool.extend((0..2).map(|_| random_constraint(&mut rng, &view)));
                }
                let constraint = pool[rng.gen_range(0..pool.len())].clone();
                let stuck = if rng.next_bool() {
                    StuckAt::One
                } else {
                    StuckAt::Zero
                };
                let fault = match rng.gen_range(0..4) {
                    0 => Fault::stem(ppis[rng.gen_range(0..ppis.len())], stuck),
                    1 => Fault::branch(ppis[rng.gen_range(0..ppis.len())], 0, stuck),
                    _ => faults.faults()[rng.gen_range(0..faults.len())],
                };
                if last.as_ref() == Some(&constraint) {
                    seen[3] += 1;
                }
                last = Some(constraint.clone());
                if rng.gen_range(0..3) == 0 {
                    // A full search leaves its decisions on the trail.
                    podem.generate(fault, &constraint);
                    continue;
                }
                let mut cold = ColdStart::open(netlist, &view, fault, &constraint);
                let what = fault.display_in(netlist);
                if !podem.open(fault, &constraint, None) {
                    assert_eq!(podem.site_value(), stuck_logic(fault), "{what}");
                    seen[0] += 1;
                    continue;
                }
                let site_is_source = view.input_index_of(fault.site.gate).is_some();
                if site_is_source
                    && fault.site.pin.is_none()
                    && constraint[view.input_index_of(fault.site.gate).unwrap()] == Logic::X
                {
                    seen[1] += 1;
                }
                if site_is_source && fault.site.pin.is_some() {
                    seen[2] += 1;
                }
                let reads = read_set(netlist, &cold);
                let free: Vec<usize> = reads
                    .iter()
                    .filter_map(|&g| view.input_index_of(g))
                    .filter(|&i| constraint[i] == Logic::X)
                    .collect();
                for step in 0..=6 {
                    if step > 0 {
                        if free.is_empty() {
                            break;
                        }
                        let input = free[rng.gen_range(0..free.len())];
                        let value = Logic::ALL[rng.gen_range(0..3)];
                        podem.assign(input, value);
                        cold.assign(input, value);
                    }
                    for &g in &reads {
                        assert!(podem.region[g.index()], "{what}: {g:?} outside the region");
                        assert_eq!(
                            (podem.good[g.index()], podem.faulty[g.index()]),
                            (cold.good[g.index()], cold.faulty[g.index()]),
                            "{what} under {constraint} at step {step}: gate {}",
                            netlist.gate_name(g)
                        );
                    }
                }
            }
        }
        assert!(
            seen.iter().all(|&n| n > 0),
            "every opening path must run: {seen:?}"
        );
    }

    impl Podem<'_> {
        /// [`step`](Podem::step) with the undo the trail restore replaced:
        /// a backtrack reassigns each popped flipped decision's input to X
        /// and drains, then flips the newest unflipped one from the state
        /// that leaves. The oracle of the restore (DESIGN.md §11.9).
        fn step_reassigning(
            &mut self,
            stack: &mut Vec<Decision>,
            backtracks: &mut u32,
        ) -> Option<PodemResult> {
            if self.detected() {
                return Some(PodemResult::Test(self.extract_cube()));
            }
            if let Some((input, value)) = self.decide() {
                stack.push(Decision {
                    input,
                    value,
                    flipped: false,
                    mark: 0,
                });
                self.assign(input, Logic::from(value));
                return None;
            }
            *backtracks += 1;
            if *backtracks > self.config.backtrack_limit {
                return Some(PodemResult::Aborted);
            }
            loop {
                match stack.pop() {
                    None => return Some(PodemResult::Untestable),
                    Some(d) if d.flipped => self.assign(d.input, Logic::X),
                    Some(d) => {
                        self.assign(d.input, Logic::from(!d.value));
                        stack.push(Decision {
                            value: !d.value,
                            flipped: true,
                            ..d
                        });
                        return None;
                    }
                }
            }
        }
    }

    /// A phase-A shaped mask: every PO and a random suffix of the PPOs
    /// observable.
    fn random_mask(rng: &mut tvs_logic::Prng, view: &ScanView) -> Vec<bool> {
        let cells = view.output_count() - view.po_count();
        let first = view.po_count() + rng.gen_range(0..cells + 1);
        (0..view.output_count())
            .map(|o| o < view.po_count() || o >= first)
            .collect()
    }

    /// Two provers run the same random (fault, constraint, mask, limit)
    /// calls, one restoring the trail on a backtrack and one reassigning
    /// popped inputs to X. After the opening and after every decision and
    /// every flip, both planes of every gate must agree, and so must the
    /// verdict, the cube and the backtrack count; `solve` must then give
    /// the stepped verdict and count.
    #[test]
    fn trail_restore_matches_reassigning_popped_inputs() {
        let mut circuits = vec![fig1()];
        for name in ["s444", "s526", "s641", "s953"] {
            circuits.push(tvs_circuits::profile(name).expect("profile").build());
        }
        let mut rng = tvs_logic::Prng::seed_from_u64(0x7A11);
        // Flips seen on [unpinned source stems, DFF pin 0, combinational
        // stems, combinational pins], and calls at each limit.
        let mut flips = [0usize; 4];
        let mut limits = [0usize; 3];
        for netlist in &circuits {
            let view = netlist.scan_view().unwrap();
            let mut podem = Podem::new(netlist, &view);
            let mut reference = podem.fresh();
            let faults = FaultList::full(netlist);
            let ppis = view.ppis();
            for round in 0..120 {
                let constraint = if round % 4 == 0 {
                    Cube::unspecified(view.input_count())
                } else {
                    random_constraint(&mut rng, &view)
                };
                let mask = (rng.gen_range(0..3) != 0).then(|| random_mask(&mut rng, &view));
                let stuck = if rng.next_bool() {
                    StuckAt::One
                } else {
                    StuckAt::Zero
                };
                let fault = match rng.gen_range(0..4) {
                    0 => Fault::stem(ppis[rng.gen_range(0..ppis.len())], stuck),
                    1 => Fault::branch(ppis[rng.gen_range(0..ppis.len())], 0, stuck),
                    _ => faults.faults()[rng.gen_range(0..faults.len())],
                };
                let kind = match (view.input_index_of(fault.site.gate), fault.site.pin) {
                    (Some(i), None) if constraint[i] == Logic::X => Some(0),
                    (Some(_), Some(_)) => Some(1),
                    (None, None) => Some(2),
                    (None, Some(_)) => Some(3),
                    (Some(_), None) => None,
                };
                let level = rng.gen_range(0..3);
                limits[level] += 1;
                let limit = [2, 16, 256][level];
                podem.config.backtrack_limit = limit;
                reference.config.backtrack_limit = limit;
                let what = format!(
                    "{} under {constraint} at limit {limit}",
                    fault.display_in(netlist)
                );

                let obs = mask.as_deref();
                let opened = podem.open(fault, &constraint, obs);
                assert_eq!(opened, reference.open(fault, &constraint, obs), "{what}");
                if !opened {
                    continue;
                }
                let (mut stack, mut ref_stack) = (Vec::new(), Vec::new());
                let (mut backtracks, mut ref_backtracks) = (0, 0);
                let mut step = 0;
                let verdict = loop {
                    assert!(
                        podem.good == reference.good && podem.faulty == reference.faulty,
                        "{what}: planes differ after step {step}"
                    );
                    let before = backtracks;
                    let verdict = podem.step(&mut stack, &mut backtracks);
                    let ref_verdict =
                        reference.step_reassigning(&mut ref_stack, &mut ref_backtracks);
                    assert_eq!(verdict, ref_verdict, "{what}: step {step}");
                    assert_eq!(backtracks, ref_backtracks, "{what}: step {step}");
                    if let Some(verdict) = verdict {
                        break verdict;
                    }
                    if backtracks > before {
                        if let Some(kind) = kind {
                            flips[kind] += 1;
                        }
                    }
                    step += 1;
                };
                let (solved, _) = podem.solve(fault, &constraint, obs);
                assert_eq!(solved, verdict, "{what}");
                assert_eq!(podem.last_backtracks(), backtracks, "{what}");
            }
        }
        assert!(
            flips.iter().all(|&n| n > 0),
            "every site kind must flip: {flips:?}"
        );
        assert!(
            limits.iter().all(|&n| n > 0),
            "every limit must run: {limits:?}"
        );
    }

    #[test]
    fn verdicts_agree_with_exhaustive_simulation_on_fig1() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let mut podem = Podem::new(&n, &view);
        let mut fsim = FaultSim::new(&n, &view);
        let free = Cube::unspecified(3);
        for &fault in FaultList::full(&n).faults() {
            let exhaustively_testable = (0..8u32).any(|bits| {
                let tv: tvs_logic::BitVec = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
                fsim.detect(&tv, &[fault])[0]
            });
            let verdict = podem.generate(fault, &free);
            match verdict {
                PodemResult::Test(_) => assert!(
                    exhaustively_testable,
                    "{} got a test but is untestable",
                    fault.display_in(&n)
                ),
                PodemResult::Untestable => assert!(
                    !exhaustively_testable,
                    "{} proven untestable but a test exists",
                    fault.display_in(&n)
                ),
                PodemResult::Aborted => panic!("aborted on tiny circuit"),
            }
        }
    }
}
