//! The apply/classify stage of the cycle pipeline: shift the chain,
//! simulate every live faulty machine against the cycle's good baseline,
//! and move faults between `f_c` / `f_h` / `f_u`.

use tvs_exec::{inject, TaskPanic};
use tvs_logic::BitVec;

use tvs_fault::Machine;

use crate::state::RunState;
use crate::vector::hidden_overrides;
use crate::{Classification, CycleRecord};

impl RunState<'_, '_> {
    /// Simulates `machines` against the cycle's `vector` on the run's
    /// persistent session (incremental against the seeded cycle baseline)
    /// and returns each machine's outputs, `None` where they equal the
    /// good machine's. An armed `stitch.sim.batch` injection fails a
    /// non-empty batch with the [`TaskPanic`] a dying worker would leave;
    /// its hit counter advances once per non-empty batch, so the failure
    /// lands on the same batch at any thread count.
    fn classify_batch(
        &mut self,
        vector: &BitVec,
        machines: &[Machine<'_>],
    ) -> Result<Vec<Option<BitVec>>, TaskPanic> {
        if !machines.is_empty() && inject::fire("stitch.sim.batch") {
            return Err(TaskPanic {
                index: 0,
                message: inject::panic_message("stitch.sim.batch"),
            });
        }
        match self.session.run_machines(vector, machines) {
            Ok(outs) => Ok(outs),
            Err(_) => unreachable!("engine stimuli and overrides always match the scan view"),
        }
    }

    /// Applies one vector: shifts, simulates, classifies every live fault.
    ///
    /// On an injected batch failure the cycle is not recorded; the
    /// hidden-set updates made before the failed batch stand. That partial
    /// effect is deterministic (the surviving state is a pure function of
    /// the inputs and the injection's hit count, which is thread-count
    /// independent) and the salvaged program stays valid — it merely
    /// under-reports the final cycle's catches.
    pub(crate) fn apply_cycle(
        &mut self,
        k: usize,
        vector: &BitVec,
        first: bool,
    ) -> Result<(), TaskPanic> {
        let (p, q, l) = (self.p(), self.q(), self.l());
        let chain_tv = vector.slice(p..p + l);
        let incoming = chain_tv.rev_slice(0..k);

        // Fault-free machine.
        let observed_good = if first {
            BitVec::new() // power-up contents are not meaningful data
        } else {
            let sh = self
                .eng
                .chain
                .shift(&self.good_image, &incoming, self.cfg.observe);
            debug_assert_eq!(sh.new_image, chain_tv, "stitched vector must be reachable");
            sh.observed
        };
        // Seeding the session baseline here is what makes every faulty
        // sweep of this cycle incremental: the hidden machines differ from
        // the good one in a few chain bits, the uncaught machines only in
        // their injections.
        let good_out = match self.session.baseline(vector) {
            Ok(out) => out,
            Err(_) => unreachable!("engine stimuli always match the scan view"),
        };
        let good_po = good_out.slice(0..q);
        let good_resp = good_out.slice(q..q + l);
        let new_good_image = self.cfg.capture.capture(&chain_tv, &good_resp);

        let mut newly_caught = 0usize;

        // Hidden faults: private shift, private stimulus — the vector with
        // the chain bits where the fault's image differs overridden.
        let hidden = self.sets.hidden_indices();
        let mut live_hidden: Vec<(usize, Vec<(usize, bool)>)> = Vec::new();
        for idx in hidden {
            if first {
                unreachable!("no hidden faults before the first vector");
            }
            // Defensive: a hidden fault always carries an image; skip the
            // entry rather than abort if that invariant is ever violated.
            let Some(image) = self.sets.image(idx).cloned() else {
                continue;
            };
            let mut image = image;
            // Chaos hook: corrupt one bit of this fault's private chain
            // image (keyed by fault index in this sequential loop, so the
            // corruption is deterministic at any thread count).
            if let Some(bit) = inject::flip_bit("stitch.hidden.image", idx as u64, image.len()) {
                image.set(bit, !image.get(bit));
            }
            let sh = self.eng.chain.shift(&image, &incoming, self.cfg.observe);
            if sh.observed != observed_good {
                self.sets.set_caught(idx);
                newly_caught += 1;
            } else {
                let overrides = hidden_overrides(&self.good_image, &image, p, k);
                debug_assert_eq!(
                    overridden(&chain_tv, &overrides, p),
                    sh.new_image,
                    "the overrides must rebuild the shifted image"
                );
                live_hidden.push((idx, overrides));
            }
        }
        let machines: Vec<Machine<'_>> = live_hidden
            .iter()
            .map(|(idx, overrides)| Machine {
                overrides,
                fault: self.sets.fault(*idx),
            })
            .collect();
        self.budget.charge(machines.len() as u64);
        let outs = self.classify_batch(vector, &machines)?;
        for ((idx, overrides), out) in live_hidden.iter().zip(&outs) {
            // Equal outputs still leave a different image under vertical
            // XOR, which captures the overridden chain bits.
            let out = out.as_ref().unwrap_or(&good_out);
            let f_po = out.slice(0..q);
            let f_resp = out.slice(q..q + l);
            let f_chain_tv = overridden(&chain_tv, overrides, p);
            let image = self.cfg.capture.capture(&f_chain_tv, &f_resp);
            match Classification::classify(&good_po, &f_po, &new_good_image, &image) {
                Classification::Caught => {
                    self.sets.set_caught(*idx);
                    newly_caught += 1;
                }
                Classification::Hidden => self.sets.set_hidden(*idx, image),
                Classification::Uncaught => self.sets.set_uncaught(*idx),
            }
        }

        // Uncaught faults: shared stimulus (their machines match the good
        // one so far).
        let uncaught = self.sets.uncaught_indices();
        let machines: Vec<Machine<'_>> = uncaught
            .iter()
            .map(|&idx| Machine::fault(self.sets.fault(idx)))
            .collect();
        self.budget.charge(machines.len() as u64 + 1);
        let outs = self.classify_batch(vector, &machines)?;
        for (&idx, out) in uncaught.iter().zip(&outs) {
            // Outputs equal to the good machine's leave the fault uncaught.
            let Some(out) = out else {
                continue;
            };
            let f_po = out.slice(0..q);
            let f_resp = out.slice(q..q + l);
            let image = self.cfg.capture.capture(&chain_tv, &f_resp);
            match Classification::classify(&good_po, &f_po, &new_good_image, &image) {
                Classification::Caught => {
                    self.sets.set_caught(idx);
                    newly_caught += 1;
                }
                Classification::Hidden => self.sets.set_hidden(idx, image),
                Classification::Uncaught => {}
            }
        }

        self.good_image = new_good_image;
        self.shifts.push(k);
        tvs_exec::counter("stitch.vectors_stitched").incr();
        self.cycles.push(CycleRecord {
            shift: k,
            vector: vector.clone(),
            observed: observed_good,
            newly_caught,
            hidden_after: self.sets.hidden_count(),
            uncaught_after: self.sets.uncaught_count(),
        });
        // New catches mean previously failed targets may matter again only
        // after an escalation; but a *changed* chain content re-opens
        // constrained possibilities for previously failed targets.
        self.failed_targets.clear();
        Ok(())
    }
}

/// The chain part of a vector with input overrides applied (input `p + j`
/// is chain cell `j`).
fn overridden(chain_tv: &BitVec, overrides: &[(usize, bool)], p: usize) -> BitVec {
    let mut chain = chain_tv.clone();
    for &(i, bit) in overrides {
        chain.set(i - p, bit);
    }
    chain
}
