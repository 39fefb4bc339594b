//! The [`Verdicts`] lookup rule against live PODEM runs.
//!
//! Every collapsed fault is proven once at the prescreen's deep limit
//! (8 × the default). For each query limit, every answer the table gives
//! must equal a live run at that limit exactly: verdict, cube and
//! `last_backtracks()`, including the `(Aborted, L + 1)` answer for a
//! verdict that needed more than `L` backtracks. The low limits 0, 1 and 2
//! put records with one or two backtracks right on the boundary, so an
//! off-by-one in the comparison cannot pass. Debug builds check the four
//! smallest Table 2 circuits; release builds add s1196 and s1423.

use std::sync::Mutex;

use tvs_atpg::{Podem, PodemConfig, PodemResult, Verdicts};
use tvs_exec::inject::{self, Trigger};
use tvs_fault::FaultList;
use tvs_logic::Cube;
use tvs_netlist::Netlist;

/// Query limits checked against live runs; the recording limit is added.
const LIMITS: &[u32] = &[0, 1, 2, 4, 16, 64, 256];

/// Serializes the tests: the abort storm arms a process-wide site.
static SERIAL: Mutex<()> = Mutex::new(());

fn circuits() -> Vec<Netlist> {
    let mut names = vec!["s444", "s526", "s641", "s953"];
    if cfg!(not(debug_assertions)) {
        names.extend(["s1196", "s1423"]);
    }
    names
        .into_iter()
        .map(|n| tvs_circuits::profile(n).expect("known profile").build())
        .collect()
}

fn deep() -> PodemConfig {
    let base = PodemConfig::default();
    PodemConfig {
        backtrack_limit: base.backtrack_limit * 8,
        ..base
    }
}

/// Every collapsed fault of `netlist`, proven once at the deep limit.
fn record(netlist: &Netlist) -> Verdicts {
    let view = netlist.scan_view().expect("levelizable profile");
    let mut prover = Podem::with_config(netlist, &view, deep());
    let free = Cube::unspecified(view.input_count());
    let mut verdicts = Verdicts::new(deep());
    for &fault in FaultList::collapsed(netlist).faults() {
        let result = prover.generate(fault, &free);
        verdicts.record(fault, result, prover.last_backtracks());
    }
    verdicts
}

#[test]
fn every_answer_equals_a_live_run_at_its_limit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for netlist in circuits() {
        let verdicts = record(&netlist);
        let view = netlist.scan_view().expect("levelizable profile");
        let free = Cube::unspecified(view.input_count());
        let faults = FaultList::collapsed(&netlist);
        let mut boundary = 0usize;
        for &limit in LIMITS.iter().chain([&deep().backtrack_limit]) {
            let query = PodemConfig {
                backtrack_limit: limit,
                ..deep()
            };
            let mut live = Podem::with_config(&netlist, &view, query);
            let mut answered = Podem::with_config(&netlist, &view, query);
            for &fault in faults.faults() {
                // At or below the recording limit every record decides the
                // query: a deep abort (b = deep + 1) exceeds it.
                let answer = verdicts.lookup(fault, &query).unwrap_or_else(|| {
                    panic!("{}: no answer for {fault:?} at {limit}", netlist.name())
                });
                let want = live.generate(fault, &free);
                let want = (want, live.last_backtracks());
                assert_eq!(
                    answer,
                    want,
                    "{}: {fault:?} at limit {limit}",
                    netlist.name()
                );
                let via_podem = answered.generate_free(fault, &verdicts);
                assert_eq!((via_podem, answered.last_backtracks()), want);
                if matches!(want.0, PodemResult::Aborted) && want.1 == limit + 1 {
                    boundary += 1;
                }
            }
        }
        assert!(
            boundary > 0,
            "{}: no query crossed the limit",
            netlist.name()
        );
    }
}

#[test]
fn deep_aborts_answer_nothing_above_the_recording_limit() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let netlist = tvs_circuits::profile("s444").expect("profile").build();
    let verdicts = record(&netlist);
    let query = PodemConfig {
        backtrack_limit: deep().backtrack_limit * 2,
        ..deep()
    };
    for &fault in FaultList::collapsed(&netlist).faults() {
        // At the recording limit every record answers as itself.
        let recorded = verdicts.lookup(fault, &deep()).expect("recorded fault");
        let got = verdicts.lookup(fault, &query);
        match recorded {
            (PodemResult::Aborted, _) => assert_eq!(got, None, "{fault:?}"),
            recorded => assert_eq!(got, Some(recorded), "{fault:?}"),
        }
    }
}

#[test]
fn an_xpath_check_mismatch_answers_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let netlist = tvs_circuits::profile("s444").expect("profile").build();
    let verdicts = record(&netlist);
    for limit in [0, 256, deep().backtrack_limit] {
        let query = PodemConfig {
            backtrack_limit: limit,
            xpath_check: !deep().xpath_check,
        };
        for &fault in FaultList::collapsed(&netlist).faults() {
            assert_eq!(verdicts.lookup(fault, &query), None, "{fault:?}");
        }
    }
}

#[test]
fn an_abort_storm_record_answers_nothing() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let netlist = tvs_circuits::profile("s444").expect("profile").build();
    let view = netlist.scan_view().expect("levelizable profile");
    let free = Cube::unspecified(view.input_count());
    let faults = FaultList::collapsed(&netlist);
    let mut prover = Podem::with_config(&netlist, &view, deep());
    let mut verdicts = Verdicts::new(deep());
    // Release builds compile the injection sites out; there the record an
    // armed storm leaves behind is written by hand.
    inject::arm("atpg.podem.abort", Trigger::always());
    for &fault in faults.faults() {
        if cfg!(debug_assertions) {
            let result = prover.generate(fault, &free);
            verdicts.record(fault, result, prover.last_backtracks());
        } else {
            verdicts.record(fault, PodemResult::Aborted, 0);
        }
    }
    inject::disarm_all();
    for limit in [0, 1, 256, deep().backtrack_limit, u32::MAX] {
        let query = PodemConfig {
            backtrack_limit: limit,
            ..deep()
        };
        for &fault in faults.faults() {
            assert_eq!(verdicts.lookup(fault, &query), None, "{fault:?} at {limit}");
        }
    }
}
