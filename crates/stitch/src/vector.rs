//! The selection stage of the cycle pipeline: constraint-cube construction,
//! target ordering, candidate generation and greedy scoring.

use tvs_logic::{BitVec, Cube, Logic};

use tvs_atpg::PodemResult;
use tvs_fault::{Fault, Machine, SimSession};

use crate::claim::claim_calls;
use crate::state::RunState;

impl RunState<'_, '_> {
    /// Builds the constraint cube for a `k`-bit stitched cycle.
    pub(crate) fn constraint(&self, k: usize, first: bool) -> Cube {
        let (p, l) = (self.p(), self.l());
        let mut cube = Cube::unspecified(p + l);
        if !first {
            for j in k..l {
                cube.set(p + j, Logic::from(self.good_image.get(j - k)));
            }
        }
        cube
    }

    /// Orders the current `f_u` according to the configured strategy.
    pub(crate) fn ordered_targets(&mut self) -> Vec<usize> {
        let mut targets = self.sets.uncaught_indices();
        targets.retain(|i| !self.never_target.contains(i));
        let strat = self.cfg.strategy.resolve();
        strat.order_targets(&mut self.strategy_ctx(), &mut targets);
        targets
    }

    /// Which combinational outputs a `k`-bit cycle makes observable: every
    /// PO, plus the scan cells that the *next* shift will expose (sound for
    /// monotone shift policies under direct observation; under horizontal
    /// XOR it is a targeting heuristic — exact classification stays lazy).
    pub(crate) fn observable_flags(&self, k: usize) -> Vec<bool> {
        let (q, l) = (self.q(), self.l());
        let mut flags = vec![false; q + l];
        for f in flags.iter_mut().take(q) {
            *f = true;
        }
        for j in l.saturating_sub(k)..l {
            flags[q + j] = true;
        }
        flags
    }

    /// Tries to produce the next vector for a `k`-bit cycle; `None` when
    /// the shift size is exhausted.
    pub(crate) fn select_vector(&mut self, k: usize, first: bool) -> Option<BitVec> {
        let constraint = self.constraint(k, first);
        let observable = self.observable_flags(if first { self.l() } else { k });
        let targets = self.ordered_targets();
        let (mut candidates, stats) = self.candidates(&targets, &constraint, &observable);
        // lint:allow(SRC006) -- debug tracing gate; never influences results
        if std::env::var_os("TVS_DEBUG").is_some() {
            eprintln!(
                "[tvs] select k={k} targets={} A:{}/{} B:{}/{}",
                targets.len(),
                stats[0],
                stats[1],
                stats[2],
                stats[3]
            );
        }

        // Phase C: context rotation. Constrained ATPG can be blocked not by
        // the shift size but by the *particular* retained response pattern;
        // applying a cheap filler vector changes that pattern and often
        // unblocks targets at the same k. Accept a random completion of the
        // constraint if it at least differentiates some uncaught fault (the
        // stagnation guard in `run` still bounds fruitless rotation).
        if candidates.is_empty() && !first {
            let uncaught = self.sets.uncaught_indices();
            let faults: Vec<Fault> = uncaught.iter().map(|&i| self.sets.fault(i)).collect();
            for _ in 0..4 {
                let bits = constraint.random_fill(&mut self.rng);
                self.budget.charge(faults.len() as u64);
                if self.detect(&bits, &faults).iter().any(|&h| h) {
                    return Some(bits);
                }
            }
        }

        if candidates.len() <= 1 {
            return candidates.pop();
        }

        // Greedy scoring. Three kinds of value, in decreasing weight:
        // catches of f_u faults (a difference at a PO or in the next-shift-
        // observed cells), catches/preservation of the *hidden* pool (an
        // erased hidden fault wastes its earlier differentiation — the
        // paper's §6.2 concern), and plain differentiations as tiebreak.
        //
        // Every candidate meets the same constraint, so each hidden fault's
        // next stimulus is the candidate with one candidate-independent set
        // of chain bits overridden (`hidden_overrides`): all candidates are
        // scored in one pattern-parallel pass, one sweep per machine.
        let uncaught = self.sets.uncaught_indices();
        let weighted = self.cfg.strategy.resolve().weighted_scoring();
        let netlist = self.eng.netlist;
        let uncaught_faults: Vec<(Fault, u64)> = uncaught
            .iter()
            .map(|&i| {
                let f = self.sets.fault(i);
                let unit = if weighted {
                    self.scoap.fault_hardness(netlist, &f).max(1)
                } else {
                    1
                };
                (f, unit)
            })
            .collect();
        let hidden: Vec<(Fault, Vec<(usize, bool)>)> = self
            .sets
            .hidden_faults()
            .into_iter()
            .map(|h| {
                (
                    h.fault,
                    hidden_overrides(&self.good_image, &h.image, self.p(), k),
                )
            })
            .collect();
        self.budget
            .charge((candidates.len() * (uncaught_faults.len() + hidden.len() + 1)) as u64);
        let scores = greedy_scores(
            &mut self.session,
            &candidates,
            &uncaught_faults,
            &hidden,
            &observable,
        );
        let mut best = 0usize;
        let mut best_score = 0u64;
        for (c, &score) in scores.iter().enumerate() {
            if score > best_score {
                best_score = score;
                best = c;
            }
        }
        Some(candidates.swap_remove(best))
    }

    /// Phases A and B of a selection: candidate vectors from constrained
    /// PODEM calls on the `targets`, in target order, plus the
    /// `[A-ok, A-fail, B-ok, B-fail]` call counts.
    ///
    /// Phase A demands propagation to an observable point (PO or a
    /// next-shift-exposed cell), so every such vector's target is
    /// guaranteed to reach f_c. Phase B (only if A yields nothing) accepts
    /// any differentiation; the target becomes hidden and bets on the
    /// paper's mutated-stimulus mechanism. The stagnation guard in `run`
    /// escalates the shift size if those bets stop paying off.
    ///
    /// Each phase makes its calls on the claim loop over the run's provers
    /// (DESIGN.md §11.8), then consumes them here in target order exactly
    /// as a serial loop would: publish the call's work, charge `1 +
    /// backtracks`, fill a test from the run's PRNG, and stop at the first
    /// test of a non-greedy strategy or at `candidates` tests of a greedy
    /// one. Calls made past that point are dropped unread.
    fn candidates(
        &mut self,
        targets: &[usize],
        constraint: &Cube,
        observable: &[bool],
    ) -> (Vec<BitVec>, [usize; 4]) {
        let need = if self.cfg.strategy.resolve().is_greedy() {
            self.cfg.candidates.max(1)
        } else {
            1
        };
        let mut candidates: Vec<BitVec> = Vec::new();
        let mut stats = [0usize; 4];
        for phase in 0..2 {
            let eligible: Vec<usize> = targets
                .iter()
                .copied()
                .filter(|idx| !self.failed_targets.contains(idx))
                .take(self.cfg.max_targets_per_cycle)
                .collect();
            let faults: Vec<Fault> = eligible.iter().map(|&i| self.sets.fault(i)).collect();
            let mask = (phase == 0).then_some(observable);
            let outcomes = claim_calls(
                &self.pool,
                &mut self.provers,
                faults.len(),
                need,
                |prover, i| prover.solve(faults[i], constraint, mask),
            );
            for (&idx, outcome) in eligible.iter().zip(outcomes) {
                let (result, work) = match outcome {
                    Ok(call) => call,
                    // A consumed call's panic is re-raised on the caller.
                    Err(message) => std::panic::resume_unwind(Box::new(message)),
                };
                self.provers[0].publish(work);
                self.budget.charge(1 + u64::from(work.backtracks));
                match result {
                    PodemResult::Test(cube) => {
                        stats[phase * 2] += 1;
                        candidates.push(cube.random_fill(&mut self.rng));
                        if candidates.len() >= need {
                            break;
                        }
                    }
                    PodemResult::Untestable | PodemResult::Aborted => {
                        stats[phase * 2 + 1] += 1;
                        if phase == 1 {
                            self.failed_targets.insert(idx);
                        }
                    }
                }
            }
            if !candidates.is_empty() {
                break;
            }
        }
        (candidates, stats)
    }
}

/// The input bits where a hidden fault's next stimulus differs from a
/// `k`-bit stitched vector (DESIGN.md §11.6), as `(input, value)`
/// overrides.
///
/// Every such vector pins chain bits `k..L` to `good_image[0..L-k]`
/// ([`RunState::constraint`]), and the shift moves the fault's private
/// `image[j]` to cell `j + k`. So the fault's stimulus is the vector with
/// input `p + k + j` set to `image[j]` wherever `image[j]` differs from
/// `good_image[j]`, whatever the vector's free bits are.
pub(crate) fn hidden_overrides(
    good_image: &BitVec,
    image: &BitVec,
    p: usize,
    k: usize,
) -> Vec<(usize, bool)> {
    (0..image.len().saturating_sub(k))
        .filter(|&j| image.get(j) != good_image.get(j))
        .map(|j| (p + k + j, image.get(j)))
        .collect()
}

/// Greedy scores of `candidates`, in candidate order, from one
/// pattern-parallel pass per 64 candidates.
///
/// An uncaught fault `(fault, unit)` adds `1000 · unit` to each candidate
/// under which it differs from the good machine at a `watched` output, or
/// `unit` if it differs only elsewhere. A hidden fault, simulated under its
/// overrides, adds 1000 or 30 the same way.
fn greedy_scores(
    session: &mut SimSession<'_>,
    candidates: &[BitVec],
    uncaught: &[(Fault, u64)],
    hidden: &[(Fault, Vec<(usize, bool)>)],
    watched: &[bool],
) -> Vec<u64> {
    let machines: Vec<Machine<'_>> = uncaught
        .iter()
        .map(|&(fault, _)| Machine::fault(fault))
        .chain(hidden.iter().map(|(fault, overrides)| Machine {
            overrides,
            fault: *fault,
        }))
        .collect();
    let weights: Vec<(u64, u64)> = uncaught
        .iter()
        .map(|&(_, unit)| (unit * 1000, unit))
        .chain(hidden.iter().map(|_| (1000, 30)))
        .collect();
    let mut scores = Vec::with_capacity(candidates.len());
    for chunk in candidates.chunks(64) {
        let dets = match session.detect_machines(chunk, &machines, watched) {
            Ok(dets) => dets,
            Err(_) => unreachable!("at most 64 view-width candidates per pass"),
        };
        let mut chunk_scores = vec![0u64; chunk.len()];
        for (det, &(caught, differentiated)) in dets.iter().zip(&weights) {
            let mut any = det.any;
            while any != 0 {
                let c = any.trailing_zeros();
                any &= any - 1;
                chunk_scores[c as usize] += if (det.watched >> c) & 1 == 1 {
                    caught
                } else {
                    differentiated
                };
            }
        }
        scores.extend(chunk_scores);
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_atpg::Podem;
    use tvs_exec::ThreadPool;
    use tvs_fault::{FaultList, FaultSim, SlotSpec};
    use tvs_logic::Prng;
    use tvs_netlist::{Netlist, ScanView};
    use tvs_scan::{CaptureTransform, ObserveTransform, ScanChain};

    use crate::{StitchConfig, StitchEngine, StrategyId};

    fn random_bits(rng: &mut Prng, len: usize) -> BitVec {
        (0..len).map(|_| rng.next_bool()).collect()
    }

    /// `image` with each bit flipped at probability 1/4, so images share
    /// most of their bits with the good one, as hidden images do.
    fn near(rng: &mut Prng, image: &BitVec) -> BitVec {
        image
            .iter()
            .map(|b| b ^ (rng.gen_range(0..4) == 0))
            .collect()
    }

    /// A `k`-bit stitched vector: random, with chain bits `k..L` pinned to
    /// `good_image[0..L-k]` as the constraint cube pins them.
    fn stitched(rng: &mut Prng, good_image: &BitVec, p: usize, k: usize) -> BitVec {
        let l = good_image.len();
        let mut v = random_bits(rng, p + l);
        for j in 0..l - k {
            v.set(p + k + j, good_image.get(j));
        }
        v
    }

    fn apply(vector: &BitVec, overrides: &[(usize, bool)]) -> BitVec {
        let mut v = vector.clone();
        for &(i, b) in overrides {
            v.set(i, b);
        }
        v
    }

    #[test]
    fn override_identity_matches_the_shifted_stimulus() {
        let mut rng = Prng::seed_from_u64(0x0E11);
        let observes = [ObserveTransform::Direct, ObserveTransform::HorizontalXor(3)];
        let captures = [CaptureTransform::Plain, CaptureTransform::VerticalXor];
        for _ in 0..48 {
            let (p, l) = (rng.gen_range(0..5), rng.gen_range(1..24));
            let chain = ScanChain::new(l);
            let good_image = random_bits(&mut rng, l);
            let image = near(&mut rng, &good_image);
            let resp = random_bits(&mut rng, l);
            for k in 1..=l {
                let vector = stitched(&mut rng, &good_image, p, k);
                let chain_tv = vector.slice(p..p + l);
                let incoming = chain_tv.rev_slice(0..k);
                let stim = apply(&vector, &hidden_overrides(&good_image, &image, p, k));
                for observe in observes {
                    let good = chain.shift(&good_image, &incoming, observe);
                    assert_eq!(good.new_image, chain_tv, "the vector is reachable");
                    let sh = chain.shift(&image, &incoming, observe);
                    let mut expect = vector.slice(0..p);
                    expect.extend(sh.new_image.iter());
                    assert_eq!(stim, expect, "p={p} l={l} k={k} {observe:?}");
                    for capture in captures {
                        assert_eq!(
                            capture.capture(&stim.slice(p..p + l), &resp),
                            capture.capture(&sh.new_image, &resp),
                        );
                    }
                }
            }
        }
    }

    /// The per-candidate scoring the pattern-parallel pass replaced, kept
    /// as its oracle: a fresh simulator per candidate, every hidden
    /// stimulus built by shifting the fault's image, outputs compared
    /// bit by bit.
    #[allow(clippy::too_many_arguments)]
    fn oracle_score(
        netlist: &Netlist,
        view: &ScanView,
        bits: &BitVec,
        uncaught: &[(Fault, u64)],
        hidden: &[(Fault, BitVec)],
        watched: &[usize],
        p: usize,
        k: usize,
    ) -> u64 {
        let l = view.ppi_count();
        let chain = ScanChain::new(l);
        let mut fsim = FaultSim::new(netlist, view);
        let good = fsim.good_outputs(bits);
        let mut score = 0u64;
        for chunk in uncaught.chunks(63) {
            let slots: Vec<SlotSpec<'_>> = chunk
                .iter()
                .map(|&(f, _)| SlotSpec {
                    stimulus: bits,
                    fault: Some(f),
                })
                .collect();
            let outs = fsim.run_slots(&slots).expect("63 view-width slots");
            for (&(_, unit), out) in chunk.iter().zip(&outs) {
                let caught = watched.iter().any(|&o| out.get(o) != good.get(o));
                if caught {
                    score += unit * 1000;
                } else if out != &good {
                    score += unit;
                }
            }
        }
        let incoming = bits.slice(p..p + l).rev_slice(0..k);
        let stimuli: Vec<BitVec> = hidden
            .iter()
            .map(|(_, image)| {
                let sh = chain.shift(image, &incoming, ObserveTransform::Direct);
                let mut stim = bits.slice(0..p);
                stim.extend(sh.new_image.iter());
                stim
            })
            .collect();
        for (chunk_i, chunk) in hidden.chunks(63).enumerate() {
            let slots: Vec<SlotSpec<'_>> = chunk
                .iter()
                .enumerate()
                .map(|(j, &(fault, _))| SlotSpec {
                    stimulus: &stimuli[chunk_i * 63 + j],
                    fault: Some(fault),
                })
                .collect();
            let outs = fsim.run_slots(&slots).expect("63 view-width slots");
            for out in &outs {
                if watched.iter().any(|&o| out.get(o) != good.get(o)) {
                    score += 1000;
                } else if out != &good {
                    score += 30;
                }
            }
        }
        score
    }

    /// The serial phase-A/B loop the claim loop replaced, kept as its
    /// oracle: one call at a time on `provers[0]`, each published by PODEM
    /// and charged as it returns.
    fn serial_candidates(
        st: &mut RunState<'_, '_>,
        targets: &[usize],
        constraint: &Cube,
        observable: &[bool],
    ) -> Vec<BitVec> {
        let mut candidates: Vec<BitVec> = Vec::new();
        for phase in 0..2 {
            let mut attempts = 0usize;
            for &idx in targets {
                if st.failed_targets.contains(&idx) {
                    continue;
                }
                if attempts >= st.cfg.max_targets_per_cycle {
                    break;
                }
                attempts += 1;
                let fault = st.sets.fault(idx);
                let podem = &mut st.provers[0];
                let outcome = if phase == 0 {
                    podem.generate_observable(fault, constraint, Some(observable))
                } else {
                    podem.generate(fault, constraint)
                };
                st.budget.charge(1 + u64::from(podem.last_backtracks()));
                match outcome {
                    PodemResult::Test(cube) => {
                        let bits = cube.random_fill(&mut st.rng);
                        if !st.cfg.strategy.resolve().is_greedy() {
                            return vec![bits];
                        }
                        candidates.push(bits);
                        if candidates.len() >= st.cfg.candidates {
                            break;
                        }
                    }
                    PodemResult::Untestable | PodemResult::Aborted => {
                        if phase == 1 {
                            st.failed_targets.insert(idx);
                        }
                    }
                }
            }
            if !candidates.is_empty() {
                break;
            }
        }
        candidates
    }

    /// The published PODEM work so far: `atpg.backtracks`,
    /// `atpg.podem_evals`. No other test of this crate publishes PODEM
    /// work, so a difference between two reads is the work published in
    /// between.
    fn published_work() -> (u64, u64) {
        (
            tvs_exec::counter("atpg.backtracks").get(),
            tvs_exec::counter("atpg.podem_evals").get(),
        )
    }

    #[test]
    fn claim_loop_matches_the_serial_select_loop() {
        let mut rng = Prng::seed_from_u64(0xC1A1);
        let mut circuits = vec![tvs_circuits::fig1()];
        for name in ["s444", "s526", "s641", "s953"] {
            circuits.push(tvs_circuits::profile(name).expect("profile").build());
        }
        // Rounds whose phase A found nothing, and whose phase B found a
        // test.
        let (mut a_failed, mut b_found) = (0, 0);
        for netlist in &circuits {
            let eng = StitchEngine::new(netlist).expect("sequential circuit");
            for strategy in [StrategyId::MostFaults, StrategyId::Random] {
                let cfg = StitchConfig {
                    strategy,
                    threads: 1,
                    ..StitchConfig::default()
                };
                let mut st = RunState::new(&eng, &cfg, None).expect("run state");
                let l = st.l();
                for threads in [1, 2, 3, 8] {
                    st.pool = ThreadPool::new(threads);
                    st.provers = (0..threads)
                        .map(|_| Podem::with_config(netlist, &eng.view, cfg.podem))
                        .collect();
                    for round in 0..12 {
                        let first = round == 0;
                        // Odd rounds shift one bit and leave about four
                        // targets eligible, so phase A often finds nothing.
                        let (k, keep) = if round % 2 == 1 {
                            (1, 4 * 1024 / st.sets.len().max(1))
                        } else {
                            (1 + rng.gen_range(0..l), 682)
                        };
                        st.good_image = random_bits(&mut rng, l);
                        st.failed_targets = st
                            .sets
                            .uncaught_indices()
                            .into_iter()
                            .filter(|_| rng.gen_range(0..1024) >= keep)
                            .collect();
                        let constraint = st.constraint(k, first);
                        let observable = st.observable_flags(if first { l } else { k });
                        let targets = st.ordered_targets();
                        let saved = (st.rng.clone(), st.budget, st.failed_targets.clone());

                        let before = published_work();
                        let want = serial_candidates(&mut st, &targets, &constraint, &observable);
                        let after = published_work();
                        let want_work = (after.0 - before.0, after.1 - before.1);
                        let want_state =
                            (st.rng.state(), st.budget.spent(), st.failed_targets.clone());

                        let spent = saved.1.spent();
                        (st.rng, st.budget, st.failed_targets) = saved;
                        let before = published_work();
                        let (got, stats) = st.candidates(&targets, &constraint, &observable);
                        let after = published_work();
                        let got_work = (after.0 - before.0, after.1 - before.1);
                        let got_state =
                            (st.rng.state(), st.budget.spent(), st.failed_targets.clone());

                        let at = format!(
                            "{} {strategy:?} {threads} threads round {round} k={k}",
                            netlist.name()
                        );
                        assert_eq!(got, want, "{at}: candidates");
                        assert_eq!(got_state, want_state, "{at}: PRNG, budget, failed targets");
                        assert_eq!(got_work, want_work, "{at}: published work");
                        // Each consumed call is charged 1 + its backtracks.
                        let consumed = stats.iter().sum::<usize>() as u64;
                        assert_eq!(got_state.1 - spent, consumed + got_work.0, "{at}");
                        a_failed += usize::from(stats[0] == 0);
                        b_found += usize::from(stats[2] > 0);
                    }
                }
            }
        }
        assert!(
            a_failed > 0 && b_found > 0,
            "phase B never found a test: {a_failed} {b_found}"
        );
    }

    #[test]
    fn greedy_scores_match_the_per_candidate_oracle() {
        let mut rng = Prng::seed_from_u64(0x6EED);
        for name in ["s444", "s953"] {
            let netlist = tvs_circuits::profile(name).expect("profile").build();
            let view = netlist.scan_view().expect("scan view");
            let faults = FaultList::collapsed(&netlist);
            let (p, q, l) = (view.pi_count(), view.po_count(), view.ppi_count());
            let mut session = SimSession::new(&netlist, &view);
            for (round, n) in [1usize, 2, 9, 64, 70].into_iter().enumerate() {
                let k = 1 + rng.gen_range(0..l);
                let good_image = random_bits(&mut rng, l);
                let candidates: Vec<BitVec> = (0..n)
                    .map(|_| stitched(&mut rng, &good_image, p, k))
                    .collect();
                let pick = |rng: &mut Prng| -> Vec<Fault> {
                    faults
                        .iter()
                        .copied()
                        .filter(|_| rng.gen_range(0..3) == 0)
                        .collect()
                };
                let uncaught: Vec<(Fault, u64)> = pick(&mut rng)
                    .into_iter()
                    .map(|f| (f, 1 + rng.gen_range(0..5) as u64))
                    .collect();
                let hidden: Vec<(Fault, BitVec)> = pick(&mut rng)
                    .into_iter()
                    .map(|f| (f, near(&mut rng, &good_image)))
                    .collect();
                let watched_at: Vec<usize> = (0..q).chain(q + l - k..q + l).collect();
                let mut watched = vec![false; q + l];
                for &o in &watched_at {
                    watched[o] = true;
                }
                let overrides: Vec<(Fault, Vec<(usize, bool)>)> = hidden
                    .iter()
                    .map(|(f, image)| (*f, hidden_overrides(&good_image, image, p, k)))
                    .collect();
                let got = greedy_scores(&mut session, &candidates, &uncaught, &overrides, &watched);
                let want: Vec<u64> = candidates
                    .iter()
                    .map(|c| {
                        oracle_score(&netlist, &view, c, &uncaught, &hidden, &watched_at, p, k)
                    })
                    .collect();
                assert_eq!(got, want, "{name} round {round}: {n} candidates, k={k}");
                assert!(
                    want.iter().any(|&s| s > 0),
                    "{name} round {round} scores nothing"
                );
            }
        }
    }
}
