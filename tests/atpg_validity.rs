//! Cross-crate validity checks of the ATPG substrate: every cube PODEM
//! emits must detect its target under fault simulation, for any completion
//! of the don't-cares; `Untestable` verdicts must survive random search;
//! an out-of-budget baseline flow salvages a typed residual.

use tvs::atpg::{generate_tests, AtpgConfig, AtpgTermination, Podem, PodemConfig, PodemResult};
use tvs::circuits::{self, synthesize, SynthConfig};
use tvs::fault::{FaultList, FaultSim};
use tvs::logic::{BitVec, Cube, Logic, Prng};

#[test]
fn podem_cubes_detect_their_targets_for_any_fill() {
    for seed in 0..6u64 {
        let netlist = synthesize(
            "validity",
            &SynthConfig {
                inputs: 5,
                outputs: 3,
                flip_flops: 12,
                gates: 90,
                seed,
                depth_hint: None,
            },
        );
        let view = netlist.scan_view().expect("valid");
        let faults = FaultList::collapsed(&netlist);
        let mut podem = Podem::new(&netlist, &view);
        let mut fsim = FaultSim::new(&netlist, &view);
        let mut rng = Prng::seed_from_u64(seed ^ 0xABCD);
        let free = Cube::unspecified(view.input_count());
        for &fault in faults.faults() {
            if let PodemResult::Test(cube) = podem.generate(fault, &free) {
                for _ in 0..4 {
                    let bits = cube.random_fill(&mut rng);
                    assert!(
                        fsim.detect(&bits, &[fault])[0],
                        "seed {seed}: cube {cube} misses {}",
                        fault.display_in(&netlist)
                    );
                }
            }
        }
    }
}

#[test]
fn untestable_verdicts_survive_random_search() {
    let netlist = synthesize(
        "redundancy",
        &SynthConfig {
            inputs: 4,
            outputs: 3,
            flip_flops: 10,
            gates: 80,
            seed: 7,
            depth_hint: None,
        },
    );
    let view = netlist.scan_view().expect("valid");
    let faults = FaultList::collapsed(&netlist);
    let mut podem = Podem::with_config(
        &netlist,
        &view,
        PodemConfig {
            backtrack_limit: 10_000,
            ..PodemConfig::default()
        },
    );
    let mut fsim = FaultSim::new(&netlist, &view);
    let free = Cube::unspecified(view.input_count());
    let claimed: Vec<_> = faults
        .faults()
        .iter()
        .copied()
        .filter(|&f| podem.generate(f, &free) == PodemResult::Untestable)
        .collect();
    assert!(
        !claimed.is_empty(),
        "random logic always has some redundancy"
    );

    let mut rng = Prng::seed_from_u64(11);
    let mut alive = claimed;
    for _ in 0..3000 {
        if alive.is_empty() {
            break;
        }
        let tv: BitVec = (0..view.input_count()).map(|_| rng.next_bool()).collect();
        let hits = fsim.detect(&tv, &alive);
        let before = alive.len();
        alive = alive
            .iter()
            .zip(&hits)
            .filter(|(_, &h)| !h)
            .map(|(f, _)| *f)
            .collect();
        assert_eq!(
            alive.len(),
            before,
            "a claimed-redundant fault was detected"
        );
    }
}

#[test]
fn constrained_cubes_honor_their_pins() {
    let netlist = synthesize(
        "pins",
        &SynthConfig {
            inputs: 4,
            outputs: 3,
            flip_flops: 12,
            gates: 90,
            seed: 3,
            depth_hint: None,
        },
    );
    let view = netlist.scan_view().expect("valid");
    let faults = FaultList::collapsed(&netlist);
    let mut podem = Podem::new(&netlist, &view);
    let mut fsim = FaultSim::new(&netlist, &view);
    let mut rng = Prng::seed_from_u64(5);

    // Pin the last half of the scan cells to a random previous response.
    let v0: BitVec = (0..view.input_count()).map(|_| rng.next_bool()).collect();
    let out = fsim.good_outputs(&v0);
    let (p, q, l) = (view.pi_count(), view.po_count(), view.ppi_count());
    let k = l / 2;
    let mut constraint = Cube::unspecified(p + l);
    for j in k..l {
        constraint.set(p + j, Logic::from(out.get(q + j - k)));
    }

    for &fault in faults.faults() {
        if let PodemResult::Test(cube) = podem.generate(fault, &constraint) {
            for j in k..l {
                assert_eq!(
                    cube[p + j],
                    constraint[p + j],
                    "pinned bit {j} violated for {}",
                    fault.display_in(&netlist)
                );
            }
            let bits = cube.random_fill(&mut rng);
            assert!(fsim.detect(&bits, &[fault])[0]);
        }
    }
}

#[test]
fn budget_exhausted_baseline_salvages_its_residual() {
    let netlist = circuits::profile("s444").expect("profile").build();
    let faults = FaultList::collapsed(&netlist);
    // No random phase: the first PODEM call overruns the one-unit budget,
    // so nearly every fault is left untargeted.
    let config = AtpgConfig {
        budget: Some(1),
        random_patterns: 0,
        random_useless: 0,
        ..AtpgConfig::default()
    };
    let set = generate_tests(&netlist, &config).expect("levelizable profile");
    match &set.termination {
        AtpgTermination::BudgetExhausted { residual, spent } => {
            assert!(*spent >= 1, "the boundary check trips only once spent");
            assert!(set.patterns.len() <= 1, "at most the boundary overshoot");
            assert!(residual.len() + set.redundant.len() + set.aborted.len() < faults.len());
            assert!(residual.len() > faults.len() / 2);
            assert!(residual
                .iter()
                .all(|f| !set.redundant.contains(f) && !set.aborted.contains(f)));
            assert!(set.fault_coverage < 1.0);
        }
        AtpgTermination::Complete => panic!("a one-unit budget must run out"),
    }
    let full = generate_tests(&netlist, &AtpgConfig::default()).expect("levelizable profile");
    assert_eq!(full.termination, AtpgTermination::Complete);
}
