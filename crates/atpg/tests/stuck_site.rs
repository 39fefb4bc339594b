//! A fault site the constraint alone holds at the stuck value can never be
//! activated. PODEM answers such a call without opening the fault's cone
//! (DESIGN.md §11.7), and the answer must read exactly as the search's
//! would: its verdict, one backtrack in `last_backtracks()` and in
//! `atpg.backtracks`, and an armed `atpg.podem.abort` still winning.
//!
//! One test function, because arming the chaos site is process-wide.

use tvs_atpg::{Podem, PodemConfig, PodemResult};
use tvs_exec::inject::{self, Trigger};
use tvs_fault::{Fault, StuckAt};
use tvs_logic::Cube;
use tvs_netlist::{GateKind, Netlist, NetlistBuilder};

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
fn a_site_held_at_its_stuck_value_answers_like_the_search() {
    let netlist = fig1();
    let view = netlist.scan_view().unwrap();
    let gate = |name: &str| netlist.find(name).unwrap();
    // Under a = 0 every one of these sites reads 0: D = AND(a, b) as a
    // stem, D's pin 0 as a branch, cell a itself as a pinned PPI stem, and
    // cell a's D input (F = AND(D, E)) as a DFF pin fault.
    let held: Cube = "0XX".parse().unwrap();
    let faults = [
        Fault::stem(gate("D"), StuckAt::Zero),
        Fault::branch(gate("D"), 0, StuckAt::Zero),
        Fault::stem(gate("a"), StuckAt::Zero),
        Fault::branch(gate("a"), 0, StuckAt::Zero),
    ];
    let backtracks = tvs_exec::counter("atpg.backtracks");
    for (limit, want) in [
        (0, PodemResult::Aborted),
        (1, PodemResult::Untestable),
        (256, PodemResult::Untestable),
    ] {
        let config = PodemConfig {
            backtrack_limit: limit,
            ..PodemConfig::default()
        };
        let mut podem = Podem::with_config(&netlist, &view, config);
        for fault in faults {
            let what = fault.display_in(&netlist);
            let before = backtracks.get();
            assert_eq!(
                podem.generate(fault, &held),
                want,
                "{what} at limit {limit}"
            );
            assert_eq!(podem.last_backtracks(), 1, "{what} at limit {limit}");
            assert_eq!(backtracks.get() - before, 1, "{what} at limit {limit}");
            // The same fault with its site free still gets a test.
            assert!(
                podem
                    .generate(fault, &Cube::unspecified(3))
                    .test()
                    .is_some()
                    || limit == 0,
                "{what} at limit {limit}"
            );
        }
    }

    // Release builds compile the injection sites out.
    if cfg!(debug_assertions) {
        let mut podem = Podem::new(&netlist, &view);
        inject::arm("atpg.podem.abort", Trigger::always());
        for fault in faults {
            assert_eq!(podem.generate(fault, &held), PodemResult::Aborted);
            assert_eq!(podem.last_backtracks(), 0, "the abort fires first");
        }
        inject::disarm_all();
        assert_eq!(podem.generate(faults[0], &held), PodemResult::Untestable);
        assert_eq!(podem.last_backtracks(), 1);
    }
}
