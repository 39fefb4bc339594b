//! Consistency checks of the fault simulator against first principles.
//!
//! Seeded randomized invariants (formerly proptest-based; rewritten as
//! deterministic loops so the workspace has no external test deps).

use tvs_circuits::{synthesize, SynthConfig};
use tvs_fault::{Fault, FaultError, FaultList, FaultSim, SimSession, SlotSpec, StuckAt};
use tvs_logic::{BitVec, Prng};

fn circuit(seed: u64) -> tvs_netlist::Netlist {
    synthesize(
        "fsim",
        &SynthConfig {
            inputs: 4,
            outputs: 3,
            flip_flops: 8,
            gates: 60,
            seed,
            depth_hint: None,
        },
    )
}

#[test]
fn batched_detection_equals_one_fault_per_sweep() {
    let mut meta = Prng::seed_from_u64(0xFA01);
    for _ in 0..20 {
        let seed = meta.next_u64() % 300;
        let pat = meta.next_u64() % 300;
        let netlist = circuit(seed);
        let view = netlist.scan_view().expect("valid");
        let faults = FaultList::collapsed(&netlist);
        let mut sim = FaultSim::new(&netlist, &view);
        let mut rng = Prng::seed_from_u64(pat);
        let stimulus: BitVec = (0..view.input_count()).map(|_| rng.next_bool()).collect();

        let batched = sim.detect(&stimulus, faults.faults());
        let good = sim.good_outputs(&stimulus);
        for (i, &fault) in faults.faults().iter().enumerate().step_by(11) {
            let outs = sim
                .run_slots(&[SlotSpec {
                    stimulus: &stimulus,
                    fault: Some(fault),
                }])
                .unwrap();
            assert_eq!(
                batched[i],
                outs[0] != good,
                "fault {} batch/single disagree",
                fault.display_in(&netlist)
            );
        }
    }
}

#[test]
fn fault_free_slot_is_unaffected_by_faulty_neighbours() {
    let mut meta = Prng::seed_from_u64(0xFA02);
    for _ in 0..20 {
        let seed = meta.next_u64() % 300;
        let netlist = circuit(seed);
        let view = netlist.scan_view().expect("valid");
        let faults = FaultList::collapsed(&netlist);
        let mut sim = FaultSim::new(&netlist, &view);
        let mut rng = Prng::seed_from_u64(seed ^ 0xF00);
        let stimulus: BitVec = (0..view.input_count()).map(|_| rng.next_bool()).collect();

        let clean = sim.good_outputs(&stimulus);
        let some: Vec<Fault> = faults.faults().iter().copied().take(20).collect();
        let mut slots = vec![SlotSpec {
            stimulus: &stimulus,
            fault: None,
        }];
        slots.extend(some.iter().map(|&f| SlotSpec {
            stimulus: &stimulus,
            fault: Some(f),
        }));
        let outs = sim.run_slots(&slots).unwrap();
        assert_eq!(&outs[0], &clean, "slot isolation violated");
    }
}

#[test]
fn coverage_is_monotone_in_the_pattern_set() {
    let mut meta = Prng::seed_from_u64(0xFA03);
    for _ in 0..20 {
        let seed = meta.next_u64() % 200;
        let netlist = circuit(seed);
        let view = netlist.scan_view().expect("valid");
        let faults = FaultList::collapsed(&netlist);
        let mut sim = FaultSim::new(&netlist, &view);
        let mut rng = Prng::seed_from_u64(seed + 7);
        let patterns: Vec<BitVec> = (0..12)
            .map(|_| (0..view.input_count()).map(|_| rng.next_bool()).collect())
            .collect();
        let few = sim.coverage(&patterns[..6], faults.faults());
        let all = sim.coverage(&patterns, faults.faults());
        for (i, (&a, &b)) in few.iter().zip(&all).enumerate() {
            assert!(!a || b, "fault {i} lost coverage when patterns were added");
        }
    }
}

#[test]
fn stem_fault_on_observed_signal_is_always_caught_when_excited() {
    // A stuck-at on a primary output's driver must be detected by any
    // pattern that sets the signal to the opposite value.
    let netlist = circuit(99);
    let view = netlist.scan_view().expect("valid");
    let mut sim = FaultSim::new(&netlist, &view);
    let mut rng = Prng::seed_from_u64(5);
    let po_driver = view.pos()[0];
    for _ in 0..32 {
        let stimulus: BitVec = (0..view.input_count()).map(|_| rng.next_bool()).collect();
        let good = sim.good_outputs(&stimulus);
        let value = good.get(0);
        let fault = Fault::stem(po_driver, StuckAt::from(!value));
        assert!(
            sim.detect(&stimulus, &[fault])[0],
            "stuck-at-{} on an observed {}-valued PO missed",
            !value,
            value
        );
    }
}

/// Every built-in profile, the large ones scaled down to about 600 gates of
/// logic (the scan interface is kept at any scale).
fn profiles() -> Vec<(String, tvs_netlist::Netlist)> {
    tvs_circuits::all_profiles()
        .into_iter()
        .map(|p| {
            let scale = (600.0 / p.gates as f64).min(1.0);
            (p.name.to_string(), p.build_scaled(scale))
        })
        .collect()
}

#[test]
fn pattern_masks_equal_per_pattern_verdicts_on_every_profile() {
    for (name, netlist) in profiles() {
        let view = netlist.scan_view().expect("valid");
        let list = FaultList::collapsed(&netlist);
        // A strided sample keeps the debug-build run short on the big
        // profiles while still covering every fault kind.
        let stride = (list.len() / 160).max(1);
        let faults: Vec<Fault> = list.faults().iter().copied().step_by(stride).collect();
        let mut rng = Prng::seed_from_u64(0x9A77);
        let patterns: Vec<BitVec> = (0..64)
            .map(|_| (0..view.input_count()).map(|_| rng.next_bool()).collect())
            .collect();
        // One session for both shapes, so switching between a broadcast
        // and a packed baseline is exercised too.
        let mut session = SimSession::new(&netlist, &view);
        let verdicts: Vec<Vec<bool>> = patterns
            .iter()
            .map(|p| session.detect(p, &faults).expect("view-width"))
            .collect();
        for batch in [1usize, 8, 63, 64] {
            let masks = session
                .detect_patterns(&patterns[..batch], &faults)
                .expect("valid batch");
            assert_eq!(masks.len(), faults.len());
            for (i, &mask) in masks.iter().enumerate() {
                if batch < 64 {
                    assert_eq!(mask >> batch, 0, "{name}: bits beyond the batch");
                }
                for (j, verdict) in verdicts.iter().take(batch).enumerate() {
                    assert_eq!(
                        (mask >> j) & 1 == 1,
                        verdict[i],
                        "{name}: fault {} pattern {j} of {batch}",
                        faults[i].display_in(&netlist)
                    );
                }
            }
        }
    }
}

#[test]
fn malformed_pattern_batches_are_typed_errors() {
    let netlist = circuit(7);
    let view = netlist.scan_view().expect("valid");
    let faults = FaultList::collapsed(&netlist);
    let mut session = SimSession::new(&netlist, &view);
    let good = BitVec::zeros(view.input_count());
    assert_eq!(
        session.detect_patterns(&[], faults.faults()),
        Err(FaultError::EmptyBatch)
    );
    let too_many = vec![good.clone(); 65];
    assert_eq!(
        session.detect_patterns(&too_many, faults.faults()),
        Err(FaultError::TooManySlots { given: 65 })
    );
    let mut ragged = vec![good.clone(); 4];
    ragged[3] = BitVec::zeros(view.input_count() + 1);
    assert_eq!(
        session.detect_patterns(&ragged, faults.faults()),
        Err(FaultError::StimulusLength {
            slot: 3,
            got: view.input_count() + 1,
            want: view.input_count(),
        })
    );
    // A rejected batch leaves the session usable.
    assert_eq!(
        session
            .detect_patterns(&[good], faults.faults())
            .map(|m| m.len()),
        Ok(faults.len())
    );
}
