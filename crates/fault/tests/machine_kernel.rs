//! The machine kernel (input-bit overrides plus one fault against a seeded
//! baseline) against plain sweeps: every detection mask and every output
//! vector it reports must equal what `run_slots` gives for the overridden
//! stimulus, compared as `BitVec`s.
//!
//! Machines carry random overrides, faults on overridden scan-cell stems
//! (the fault must win over the override) and DFF pin-0 capture faults, on
//! fig1 and s444–s953. A last check covers `ParallelSim::detect_mask` on a
//! baseline seeded with injections, which takes the general sweep.

use tvs_fault::{Fault, FaultList, Machine, SimSession, SlotSpec, StuckAt};
use tvs_logic::{BitVec, Prng};
use tvs_netlist::{GateKind, Netlist, ScanView};
use tvs_sim::{Detection, Injection, ParallelSim};

fn circuits() -> Vec<Netlist> {
    let mut all = vec![tvs_circuits::fig1()];
    all.extend(
        ["s444", "s526", "s641", "s953"]
            .into_iter()
            .map(|n| tvs_circuits::profile(n).expect("known profile").build()),
    );
    all
}

fn random_bits(rng: &mut Prng, len: usize) -> BitVec {
    (0..len).map(|_| rng.next_bool()).collect()
}

fn overridden(stimulus: &BitVec, overrides: &[(usize, bool)]) -> BitVec {
    let mut s = stimulus.clone();
    for &(i, bit) in overrides {
        s.set(i, bit);
    }
    s
}

/// Per-machine overrides, owned so the machines can borrow them.
struct Case {
    overrides: Vec<(usize, bool)>,
    fault: Fault,
}

/// A sample of the collapsed faults with random overrides, plus a stem
/// fault on an overridden scan cell and both capture faults of a few scan
/// cells.
fn cases(netlist: &Netlist, view: &ScanView, rng: &mut Prng) -> Vec<Case> {
    let inputs = view.input_count();
    let faults = FaultList::collapsed(netlist);
    let step = (faults.len() / 40).max(1);
    let mut cases: Vec<Case> = faults
        .iter()
        .step_by(step)
        .map(|&fault| Case {
            overrides: (0..rng.gen_range(0..5))
                .map(|_| (rng.gen_range(0..inputs), rng.next_bool()))
                .collect(),
            fault,
        })
        .collect();
    for (c, &cell) in view.ppis().iter().enumerate().step_by(3) {
        let i = view.pi_count() + c;
        let value = rng.next_bool();
        let stuck = if rng.next_bool() {
            StuckAt::Zero
        } else {
            StuckAt::One
        };
        cases.push(Case {
            overrides: vec![(i, value), (rng.gen_range(0..inputs), rng.next_bool())],
            fault: Fault::stem(cell, stuck),
        });
        assert_eq!(netlist.gate(cell).kind(), GateKind::Dff);
        for stuck in [StuckAt::Zero, StuckAt::One] {
            cases.push(Case {
                overrides: vec![(rng.gen_range(0..inputs), rng.next_bool())],
                fault: Fault::branch(cell, 0, stuck),
            });
        }
    }
    cases
}

fn machines(cases: &[Case]) -> Vec<Machine<'_>> {
    cases
        .iter()
        .map(|c| Machine {
            overrides: &c.overrides,
            fault: c.fault,
        })
        .collect()
}

/// `run_slots` outputs of up to 64 stimuli, each with `fault`.
fn run(sim: &mut SimSession<'_>, stimuli: &[BitVec], fault: Option<Fault>) -> Vec<BitVec> {
    let slots: Vec<SlotSpec<'_>> = stimuli
        .iter()
        .map(|stimulus| SlotSpec { stimulus, fault })
        .collect();
    sim.run_slots(&slots).expect("view-width stimuli")
}

#[test]
fn pattern_parallel_masks_match_plain_sweeps() {
    let mut rng = Prng::seed_from_u64(0x4D41534B);
    for netlist in circuits() {
        let view = netlist.scan_view().expect("scan view");
        let name = netlist.name().to_string();
        let cases = cases(&netlist, &view, &mut rng);
        let machines = machines(&cases);
        let mut kernel = SimSession::new(&netlist, &view);
        let mut oracle = SimSession::new(&netlist, &view);
        for n in [1usize, 8, 63, 64] {
            let patterns: Vec<BitVec> = (0..n)
                .map(|_| random_bits(&mut rng, view.input_count()))
                .collect();
            let watched: Vec<bool> = (0..view.output_count()).map(|_| rng.next_bool()).collect();
            let dets = kernel
                .detect_machines(&patterns, &machines, &watched)
                .expect("valid batch");
            assert_eq!(dets.len(), machines.len());
            let goods = run(&mut oracle, &patterns, None);
            for (m, det) in machines.iter().zip(&dets) {
                let stimuli: Vec<BitVec> = patterns
                    .iter()
                    .map(|p| overridden(p, m.overrides))
                    .collect();
                let outs = run(&mut oracle, &stimuli, Some(m.fault));
                let mut want = Detection::default();
                for (j, (faulty, good)) in outs.iter().zip(&goods).enumerate() {
                    if faulty != good {
                        want.any |= 1 << j;
                    }
                    if (0..good.len()).any(|o| watched[o] && faulty.get(o) != good.get(o)) {
                        want.watched |= 1 << j;
                    }
                }
                assert_eq!(
                    *det,
                    want,
                    "{name}: {} with {:?} over {n} patterns",
                    m.fault.display_in(&netlist),
                    m.overrides
                );
            }
        }
    }
}

#[test]
fn slot_parallel_outputs_match_plain_sweeps() {
    let mut rng = Prng::seed_from_u64(0x534C4F54);
    for netlist in circuits() {
        let view = netlist.scan_view().expect("scan view");
        let name = netlist.name().to_string();
        let cases = cases(&netlist, &view, &mut rng);
        let machines = machines(&cases);
        let mut kernel = SimSession::new(&netlist, &view);
        let mut oracle = SimSession::new(&netlist, &view);
        for _ in 0..4 {
            let stimulus = random_bits(&mut rng, view.input_count());
            let outs = kernel
                .run_machines(&stimulus, &machines)
                .expect("valid machines");
            assert_eq!(outs.len(), machines.len());
            let mut differing = 0usize;
            let good = run(&mut oracle, std::slice::from_ref(&stimulus), None).remove(0);
            for (m, out) in machines.iter().zip(&outs) {
                let stimuli = [overridden(&stimulus, m.overrides)];
                let faulty = run(&mut oracle, &stimuli, Some(m.fault)).remove(0);
                let want = (faulty != good).then_some(faulty);
                differing += usize::from(want.is_some());
                assert_eq!(
                    out,
                    &want,
                    "{name}: {} with {:?}",
                    m.fault.display_in(&netlist),
                    m.overrides
                );
            }
            assert!(differing > 0, "{name}: no machine differs");
        }
    }
}

#[test]
fn overrides_past_the_view_are_typed_errors() {
    let netlist = tvs_circuits::fig1();
    let view = netlist.scan_view().expect("scan view");
    let mut session = SimSession::new(&netlist, &view);
    let fault = Fault::stem(netlist.find("F").expect("gate F"), StuckAt::Zero);
    let bad = [(view.input_count(), true)];
    let machines = [
        Machine::fault(fault),
        Machine {
            overrides: &bad,
            fault,
        },
    ];
    let stimulus = BitVec::zeros(view.input_count());
    let err = tvs_fault::FaultError::InputIndex {
        machine: 1,
        index: view.input_count(),
        inputs: view.input_count(),
    };
    assert_eq!(session.run_machines(&stimulus, &machines), Err(err.clone()));
    assert_eq!(
        session.detect_machines(&[stimulus], &machines, &[]),
        Err(err)
    );
}

#[test]
fn injected_baseline_masks_and_outputs_match_a_full_sweep() {
    let mut rng = Prng::seed_from_u64(0x494E4A);
    for netlist in circuits() {
        let view = netlist.scan_view().expect("scan view");
        let name = netlist.name().to_string();
        let gates: Vec<_> = netlist.gate_ids().collect();
        let random_injection = |rng: &mut Prng| {
            let gate = gates[rng.gen_range(0..gates.len())];
            let arity = netlist.gate(gate).fanin().len();
            let pin = (arity > 0 && rng.next_bool()).then(|| rng.gen_range(0..arity) as u32);
            Injection {
                gate,
                pin,
                stuck: rng.next_bool(),
                slots: rng.next_u64(),
            }
        };
        let stimulus: Vec<u64> = (0..view.input_count()).map(|_| rng.next_u64()).collect();
        // The baseline carries a source-stem and a capture injection plus
        // random ones, each of which the later calls drop.
        let cell = view.ppis()[0];
        let mut base_inj = vec![
            Injection {
                gate: view.input_gate(0),
                pin: None,
                stuck: true,
                slots: rng.next_u64(),
            },
            Injection {
                gate: cell,
                pin: Some(0),
                stuck: false,
                slots: rng.next_u64(),
            },
        ];
        base_inj.extend((0..3).map(|_| random_injection(&mut rng)));
        let mut kernel = ParallelSim::new(&netlist, &view);
        kernel.seed_baseline(&stimulus, &base_inj);
        let mut reference = ParallelSim::new(&netlist, &view);
        reference.eval(&stimulus, &base_inj);
        let good: Vec<u64> = (0..view.output_count())
            .map(|o| reference.output_word(o))
            .collect();
        for round in 0..32 {
            let injections: Vec<Injection> = (0..1 + round % 4)
                .map(|_| random_injection(&mut rng))
                .collect();
            let watched: Vec<bool> = (0..view.output_count()).map(|_| rng.next_bool()).collect();
            reference.eval(&stimulus, &injections);
            let mut want = Detection::default();
            for (o, &g) in good.iter().enumerate() {
                let diff = reference.output_word(o) ^ g;
                want.any |= diff;
                if watched[o] {
                    want.watched |= diff;
                }
            }
            assert_eq!(
                kernel.detect_mask(&injections, &watched),
                want,
                "{name} round {round}"
            );
            for slot in 0..64 {
                assert_eq!(
                    kernel.detected_outputs(slot),
                    reference.output_slot(slot),
                    "{name} round {round} slot {slot}"
                );
            }
        }
    }
}
