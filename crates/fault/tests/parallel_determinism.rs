//! Parallel fault simulation must be bit-identical to sequential: the
//! DESIGN.md §6.4 invariant. `detect_parallel` shards the fault universe
//! into fixed 64-fault words and merges detection flags in fault-index
//! order, so the thread count must never change a detection set.

use tvs_exec::ThreadPool;
use tvs_fault::{detect_parallel, FaultList, FaultSim};
use tvs_logic::{BitVec, Prng};

fn detection_sets(netlist: &tvs_netlist::Netlist, patterns: usize) -> Vec<Vec<bool>> {
    let view = netlist.scan_view().expect("valid view");
    let faults = FaultList::collapsed(netlist);
    let pool1 = ThreadPool::new(1);
    let pool8 = ThreadPool::new(8);
    let mut rng = Prng::seed_from_u64(0xDE7);
    let mut sets = Vec::new();
    for _ in 0..patterns {
        let stimulus: BitVec = (0..view.input_count()).map(|_| rng.next_bool()).collect();
        let seq = FaultSim::new(netlist, &view).detect(&stimulus, faults.faults());
        let par1 = detect_parallel(netlist, &view, &pool1, &stimulus, faults.faults());
        let par8 = detect_parallel(netlist, &view, &pool8, &stimulus, faults.faults());
        assert_eq!(seq, par1, "threads=1 diverged from plain detect");
        assert_eq!(seq, par8, "threads=8 diverged from plain detect");
        sets.push(seq);
    }
    sets
}

#[test]
fn fig1_detection_sets_are_thread_count_invariant() {
    let netlist = tvs_circuits::fig1();
    let sets = detection_sets(&netlist, 16);
    assert!(
        sets.iter().any(|s| s.iter().any(|&d| d)),
        "nothing detected on fig1"
    );
}

#[test]
fn synthetic_profile_detection_sets_are_thread_count_invariant() {
    // Large enough that the fault universe spans many 64-fault shards, so
    // the parallel path (not its small-input fallback) is exercised.
    let netlist = tvs_circuits::synthesize(
        "det",
        &tvs_circuits::SynthConfig {
            inputs: 6,
            outputs: 4,
            flip_flops: 12,
            gates: 220,
            seed: 42,
            depth_hint: None,
        },
    );
    assert!(FaultList::collapsed(&netlist).len() > 64 * 4);
    let sets = detection_sets(&netlist, 8);
    assert!(sets.iter().any(|s| s.iter().any(|&d| d)));
}
