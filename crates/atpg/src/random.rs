//! Random-pattern phase of the baseline ATPG flow.

use tvs_logic::{BitVec, Prng};
use tvs_netlist::{Netlist, ScanView};

use tvs_fault::{Fault, SimSession};

/// Runs the random-pattern phase: draws random fully specified patterns,
/// keeps each pattern that detects at least one still-undetected fault
/// (fault dropping), and stops after `max_useless` consecutive useless
/// patterns or `max_patterns` draws.
///
/// Returns the kept patterns and the per-fault detection flags. The
/// remaining undetected faults are the "hard" faults handed to deterministic
/// PODEM.
///
/// Patterns are fault-simulated 64 at a time
/// ([`SimSession::detect_patterns`]); the batch is then walked in draw
/// order, where a fault's lowest mask bit is the pattern that drops it. The
/// keep/useless/stop rules see exactly the per-pattern sequence, and `rng`
/// is rewound and re-advanced by the patterns that sequence consumed, so
/// both the result and the stream left in `rng` match one-pattern-at-a-time
/// simulation bit for bit.
///
/// # Examples
///
/// ```
/// use tvs_atpg::random_phase;
/// use tvs_fault::FaultList;
/// use tvs_logic::Prng;
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("t");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::Xor, &["a", "b"])?;
/// b.mark_output("y")?;
/// let n = b.build()?;
/// let view = n.scan_view()?;
/// let faults = FaultList::collapsed(&n);
/// let mut rng = Prng::seed_from_u64(1);
/// let (patterns, detected) = random_phase(&n, &view, faults.faults(), &mut rng, 256, 32);
/// assert!(detected.iter().all(|&d| d), "XOR faults are all easy");
/// assert!(!patterns.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn random_phase(
    netlist: &Netlist,
    view: &ScanView,
    faults: &[Fault],
    rng: &mut Prng,
    max_patterns: usize,
    max_useless: usize,
) -> (Vec<BitVec>, Vec<bool>) {
    let mut sim = SimSession::new(netlist, view);
    let mut detected = vec![false; faults.len()];
    let mut alive: Vec<usize> = (0..faults.len()).collect();
    let mut patterns = Vec::new();
    let mut useless = 0usize;
    let mut drawn = 0usize;

    while drawn < max_patterns && !alive.is_empty() && useless < max_useless {
        let start = rng.clone();
        let batch: Vec<BitVec> = (0..(max_patterns - drawn).min(64))
            .map(|_| random_pattern(view, rng))
            .collect();
        let subset: Vec<Fault> = alive.iter().map(|&i| faults[i]).collect();
        let masks = match sim.detect_patterns(&batch, &subset) {
            Ok(masks) => masks,
            Err(_) => unreachable!("random batches are 1..=64 view-width patterns"),
        };
        // Faults dropped by each pattern of the batch, in draw order.
        let mut drops = vec![0usize; batch.len()];
        for &mask in &masks {
            if mask != 0 {
                drops[mask.trailing_zeros() as usize] += 1;
            }
        }
        let mut left = alive.len();
        let mut used = 0usize;
        for (j, pattern) in batch.into_iter().enumerate() {
            if left == 0 || useless >= max_useless {
                break;
            }
            used = j + 1;
            if drops[j] > 0 {
                useless = 0;
                left -= drops[j];
                patterns.push(pattern);
            } else {
                useless += 1;
            }
        }
        // Rewind and re-advance by exactly the patterns the walk consumed.
        *rng = start;
        for _ in 0..used {
            random_pattern(view, rng);
        }
        drawn += used;

        let seen = u64::MAX >> (64 - used);
        let mut next = Vec::with_capacity(left);
        for (&fi, &mask) in alive.iter().zip(&masks) {
            if mask & seen != 0 {
                detected[fi] = true;
            } else {
                next.push(fi);
            }
        }
        alive = next;
    }
    (patterns, detected)
}

/// Draws one fully specified pattern over the view's inputs.
fn random_pattern(view: &ScanView, rng: &mut Prng) -> BitVec {
    (0..view.input_count()).map(|_| rng.next_bool()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_fault::FaultList;
    use tvs_netlist::{GateKind, NetlistBuilder};

    #[test]
    fn detects_easy_faults_and_stops() {
        let mut b = NetlistBuilder::new("t");
        b.add_input("a").unwrap();
        b.add_input("b").unwrap();
        b.add_gate("y", GateKind::Nand, &["a", "b"]).unwrap();
        b.mark_output("y").unwrap();
        let n = b.build().unwrap();
        let view = n.scan_view().unwrap();
        let faults = FaultList::collapsed(&n);
        let mut rng = Prng::seed_from_u64(3);
        let (patterns, detected) = random_phase(&n, &view, faults.faults(), &mut rng, 512, 64);
        assert!(detected.iter().all(|&d| d));
        // Dropping means few patterns are kept for a 2-input gate.
        assert!(patterns.len() <= 4, "{} patterns kept", patterns.len());
    }

    #[test]
    fn gives_up_after_useless_budget() {
        // A wide AND's output-1 faults are random-resistant.
        let mut b = NetlistBuilder::new("wide");
        let names: Vec<String> = (0..16).map(|i| format!("i{i}")).collect();
        for nm in &names {
            b.add_input(nm).unwrap();
        }
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        b.add_gate("y", GateKind::And, &refs).unwrap();
        b.mark_output("y").unwrap();
        let n = b.build().unwrap();
        let view = n.scan_view().unwrap();
        let faults = FaultList::collapsed(&n);
        let mut rng = Prng::seed_from_u64(5);
        let (_, detected) = random_phase(&n, &view, faults.faults(), &mut rng, 200, 16);
        assert!(
            detected.iter().any(|&d| !d),
            "random-resistant fault should survive the random phase"
        );
    }
}
