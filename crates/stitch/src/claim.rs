//! The claim loop: independent PODEM calls spread over per-thread provers,
//! with results handed back in call order (DESIGN.md §11.8).
//!
//! A stitched cycle's phase-A/B calls and the prescreen's deep calls are
//! each a pure function of (fault, constraint, mask): a prover's verdict and
//! work never depend on which calls it ran before. So any thread may make
//! any call, as long as the caller reduces them in call order and drops the
//! calls the serial order would not have made.

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use tvs_atpg::{Podem, PodemResult, PodemWork};
use tvs_exec::{payload_message, ThreadPool};

/// One call's verdict and work, or the message of the panic it raised.
pub(crate) type CallOutcome = Result<(PodemResult, PodemWork), String>;

/// Makes calls `0..n` with `call(prover, i)` on `pool`, one worker per
/// prover in `provers`, until `need` of them have returned a test.
///
/// Workers claim indices from one counter. Before each claim a worker reads
/// how many finished calls returned [`PodemResult::Test`], and it stops
/// once that count reaches `need`. Indices are claimed in increasing order,
/// so every counted test lies below any index not yet claimed: whatever
/// prefix a serial loop that stops at its `need`-th test would consume is
/// fully computed. Pass `usize::MAX` as `need` to make every call.
///
/// Returns the outcomes of the longest computed prefix, in call order.
/// Calls past the serial stop point may be in it too; the caller drops them
/// unread. A panicking call is caught and its prover replaced by a fresh
/// one, so a dropped panic leaves no state behind. With one worker the
/// loop runs inline on the caller.
pub(crate) fn claim_calls<'p, F>(
    pool: &ThreadPool,
    provers: &mut [Podem<'p>],
    n: usize,
    need: usize,
    call: F,
) -> Vec<CallOutcome>
where
    F: Fn(&mut Podem<'p>, usize) -> (PodemResult, PodemWork) + Sync,
{
    let slots: Vec<OnceLock<CallOutcome>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let tests = AtomicUsize::new(0);
    let work = |prover: &mut Podem<'p>| {
        while tests.load(Ordering::SeqCst) < need {
            let i = next.fetch_add(1, Ordering::SeqCst);
            let Some(slot) = slots.get(i) else { break };
            let outcome =
                panic::catch_unwind(AssertUnwindSafe(|| call(prover, i))).map_err(payload_message);
            let found = matches!(outcome, Ok((PodemResult::Test(_), _)));
            if outcome.is_err() {
                *prover = prover.fresh();
            }
            // Each index is claimed once, so its slot is still empty.
            let _first = slot.set(outcome);
            if found {
                tests.fetch_add(1, Ordering::SeqCst);
            }
        }
    };
    let workers = provers.len().min(n);
    if pool.threads() <= 1 || workers <= 1 {
        if let Some(prover) = provers.first_mut() {
            work(prover);
        }
    } else {
        let work = &work;
        pool.scope(|s| {
            for prover in &mut provers[..workers] {
                s.spawn(move || work(prover));
            }
        });
    }
    // A worker claims only the index it is about to call, so every claimed
    // index below `n` holds an outcome. The consumed prefix relies on it.
    let claimed = next.into_inner().min(n);
    debug_assert!(
        slots[..claimed].iter().all(|slot| slot.get().is_some()),
        "a claimed call was never made"
    );
    slots.into_iter().map_while(OnceLock::into_inner).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_logic::Cube;

    #[test]
    fn a_panicking_call_is_caught_in_its_slot() {
        let netlist = tvs_circuits::fig1();
        let view = netlist.scan_view().expect("scan view");
        let faults = tvs_fault::FaultList::collapsed(&netlist);
        let free = Cube::unspecified(view.input_count());
        let mut serial = Podem::new(&netlist, &view);
        for threads in [1, 2, 8] {
            let pool = ThreadPool::new(threads);
            let mut provers: Vec<Podem<'_>> =
                (0..threads).map(|_| Podem::new(&netlist, &view)).collect();
            let got = claim_calls(&pool, &mut provers, faults.len(), usize::MAX, |p, i| {
                if i == 3 {
                    std::panic::panic_any(format!("call {i}"));
                }
                p.solve(faults.faults()[i], &free, None)
            });
            assert_eq!(got.len(), faults.len(), "{threads} threads");
            for (i, outcome) in got.into_iter().enumerate() {
                let want = match i {
                    3 => Err("call 3".to_string()),
                    _ => Ok(serial.solve(faults.faults()[i], &free, None)),
                };
                assert_eq!(outcome, want, "{threads} threads, call {i}");
            }
        }
    }
}
