//! The full-shift baseline ATPG flow (the paper's "ATALANTA" column).

use tvs_exec::Budget;
use tvs_logic::{BitVec, Cube, Prng};
use tvs_netlist::{Netlist, NetlistError, ScanView};

use tvs_fault::{Fault, FaultList, SimSession};

use crate::{random_phase, FillStrategy, Podem, PodemConfig, PodemResult};

/// Configuration of the baseline flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtpgConfig {
    /// RNG seed (random phase and random fill).
    pub seed: u64,
    /// Random-phase pattern budget.
    pub random_patterns: usize,
    /// Random-phase consecutive-useless cutoff.
    pub random_useless: usize,
    /// PODEM settings for the deterministic phase.
    pub podem: PodemConfig,
    /// How generated cubes are completed.
    pub fill: FillStrategy,
    /// Apply reverse-order static compaction to the final pattern set.
    pub compact: bool,
    /// Optional work budget in deterministic work units (PODEM backtracks +
    /// fault-simulation slots); `None` runs unbounded. Checked at stage
    /// boundaries: an exhausted budget ends the deterministic phase early
    /// with a [`AtpgTermination::BudgetExhausted`] outcome carrying the
    /// partial pattern set and the residual untargeted faults.
    pub budget: Option<u64>,
}

impl Default for AtpgConfig {
    fn default() -> Self {
        AtpgConfig {
            seed: 0xA7A1_A27A,
            random_patterns: 1024,
            random_useless: 48,
            podem: PodemConfig::default(),
            fill: FillStrategy::Random,
            compact: true,
            budget: None,
        }
    }
}

/// A generated pattern set with its bookkeeping.
#[derive(Debug, Clone)]
pub struct PatternSet {
    /// Fully specified test vectors over the combinational inputs
    /// (PIs then PPIs).
    pub patterns: Vec<BitVec>,
    /// Faults proven untestable (redundant).
    pub redundant: Vec<Fault>,
    /// Faults on which PODEM exhausted its backtrack budget.
    pub aborted: Vec<Fault>,
    /// Fault coverage over the collapsed list, counting redundant faults out
    /// of the denominator (i.e. *attainable* coverage).
    pub fault_coverage: f64,
    /// How the flow ended: complete, or out of budget with salvage.
    pub termination: AtpgTermination,
}

/// How a [`generate_tests`] run ended.
#[derive(Debug, Clone, PartialEq)]
pub enum AtpgTermination {
    /// Every fault was targeted (detected, proven redundant, or aborted).
    Complete,
    /// The work budget ran out; the pattern set is a valid partial result.
    BudgetExhausted {
        /// Faults never targeted because the budget ended the run.
        residual: Vec<Fault>,
        /// Work units spent when the boundary check tripped.
        spent: u64,
    },
}

impl PatternSet {
    /// Number of test vectors — the paper's `aTV` column.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Returns `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

/// Errors from [`generate_tests`].
#[derive(Debug)]
pub enum AtpgOutcome {
    /// The netlist's combinational core could not be levelized.
    Netlist(NetlistError),
}

impl std::fmt::Display for AtpgOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AtpgOutcome::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl std::error::Error for AtpgOutcome {}

impl From<NetlistError> for AtpgOutcome {
    fn from(e: NetlistError) -> Self {
        AtpgOutcome::Netlist(e)
    }
}

/// Runs the complete baseline flow against the collapsed fault list:
/// random phase → deterministic PODEM with fault dropping → optional
/// reverse-order static compaction.
///
/// The resulting vector count is the `aTV` of the paper's Table 2 (what a
/// conventional full-shift flow would apply).
///
/// # Errors
///
/// Returns [`AtpgOutcome::Netlist`] if the netlist cannot be levelized.
///
/// # Examples
///
/// ```
/// use tvs_atpg::{generate_tests, AtpgConfig};
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("t");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::And, &["a", "b"])?;
/// b.mark_output("y")?;
/// let n = b.build()?;
/// let set = generate_tests(&n, &AtpgConfig::default())?;
/// assert!(set.fault_coverage >= 1.0 - 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn generate_tests(netlist: &Netlist, config: &AtpgConfig) -> Result<PatternSet, AtpgOutcome> {
    tvs_lint::debug_assert_netlist_clean(netlist, "atpg::generate_tests");
    let view = netlist.scan_view()?;
    let faults = FaultList::collapsed(netlist);
    let mut rng = Prng::seed_from_u64(config.seed);

    // Phase 1: random patterns with fault dropping.
    let (mut patterns, mut detected) = random_phase(
        netlist,
        &view,
        faults.faults(),
        &mut rng,
        config.random_patterns,
        config.random_useless,
    );

    // Phase 2: deterministic PODEM on the survivors, under the work budget.
    // All charges are computed from sequentially observed values (backtrack
    // counts, slot counts), so the bookkeeping is identical at any thread
    // count — the budget is about work, never wall clock.
    let mut budget = Budget::from_limit(config.budget);
    budget.charge((patterns.len() * faults.len()) as u64);
    let mut podem = Podem::with_config(netlist, &view, config.podem);
    let mut session = SimSession::new(netlist, &view);
    let free = Cube::unspecified(view.input_count());
    let mut redundant = Vec::new();
    let mut aborted = Vec::new();
    let mut residual: Vec<Fault> = Vec::new();

    for target in 0..faults.len() {
        if detected[target] {
            continue;
        }
        if budget.exhausted() {
            // Stage boundary: salvage by listing every remaining untargeted
            // fault instead of starting another PODEM run.
            residual.push(faults.faults()[target]);
            continue;
        }
        match podem.generate(faults.faults()[target], &free) {
            PodemResult::Test(cube) => {
                let bits = config.fill.apply(&cube, &mut rng);
                // Drop everything the filled vector detects.
                let alive: Vec<usize> = (0..faults.len()).filter(|&i| !detected[i]).collect();
                let subset: Vec<Fault> = alive.iter().map(|&i| faults.faults()[i]).collect();
                budget.charge(1 + u64::from(podem.last_backtracks()) + subset.len() as u64);
                let hits = match session.detect(&bits, &subset) {
                    Ok(hits) => hits,
                    Err(_) => unreachable!("filled cubes are view-width"),
                };
                let mut useful = false;
                for (slot, &fi) in alive.iter().enumerate() {
                    if hits[slot] {
                        detected[fi] = true;
                        useful = true;
                    }
                }
                debug_assert!(useful, "a generated test must detect its target");
                if useful {
                    patterns.push(bits);
                }
            }
            PodemResult::Untestable => {
                budget.charge(1 + u64::from(podem.last_backtracks()));
                redundant.push(faults.faults()[target]);
            }
            PodemResult::Aborted => {
                budget.charge(1 + u64::from(podem.last_backtracks()));
                aborted.push(faults.faults()[target]);
            }
        }
    }

    // Phase 3: reverse-order static compaction.
    if config.compact {
        patterns = compact_patterns(netlist, &view, faults.faults(), &patterns);
    }

    let testable = faults.len() - redundant.len();
    let covered = detected.iter().filter(|&&d| d).count();
    let fault_coverage = if testable == 0 {
        1.0
    } else {
        covered as f64 / testable as f64
    };

    let termination = if residual.is_empty() {
        AtpgTermination::Complete
    } else {
        AtpgTermination::BudgetExhausted {
            residual,
            spent: budget.spent(),
        }
    };

    Ok(PatternSet {
        patterns,
        redundant,
        aborted,
        fault_coverage,
        termination,
    })
}

/// Reverse-order static compaction: simulate the set backwards with fault
/// dropping and keep only vectors that detect a not-yet-covered fault.
///
/// Coverage of `faults` under full observation is preserved exactly; the
/// result is typically substantially smaller for sets produced in
/// easy-faults-first order.
///
/// The set is fault-simulated 64 patterns at a time from its end
/// ([`SimSession::detect_patterns`]): a vector is kept iff it is the highest
/// set bit — the first detecting pattern in reverse order — of some live
/// fault's mask, which is exactly the one-vector-at-a-time rule.
///
/// # Examples
///
/// See [`generate_tests`], which applies this as its final phase.
pub fn compact_patterns(
    netlist: &Netlist,
    view: &ScanView,
    faults: &[Fault],
    patterns: &[BitVec],
) -> Vec<BitVec> {
    let mut session = SimSession::new(netlist, view);
    let mut alive: Vec<usize> = (0..faults.len()).collect();
    let mut kept = Vec::new();
    for batch in patterns.rchunks(64) {
        if alive.is_empty() {
            break;
        }
        let subset: Vec<Fault> = alive.iter().map(|&i| faults[i]).collect();
        let masks = match session.detect_patterns(batch, &subset) {
            Ok(masks) => masks,
            Err(_) => unreachable!("patterns under compaction are view-width"),
        };
        let mut keep = 0u64;
        for &mask in &masks {
            if mask != 0 {
                keep |= 1u64 << (63 - mask.leading_zeros());
            }
        }
        for j in (0..batch.len()).rev() {
            if (keep >> j) & 1 == 1 {
                kept.push(batch[j].clone());
            }
        }
        alive = alive
            .into_iter()
            .zip(&masks)
            .filter(|&(_, &mask)| mask == 0)
            .map(|(i, _)| i)
            .collect();
    }
    kept.reverse();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use tvs_netlist::{GateKind, NetlistBuilder};

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
    fn full_flow_reaches_complete_attainable_coverage() {
        let n = fig1();
        let set = generate_tests(&n, &AtpgConfig::default()).unwrap();
        assert!((set.fault_coverage - 1.0).abs() < 1e-9);
        assert_eq!(set.redundant.len(), 1, "exactly the paper's E-F/1");
        assert!(set.aborted.is_empty());
        // 3-bit input space: compaction should land near the paper's 4.
        assert!(
            (3..=6).contains(&set.len()),
            "vector count {} implausible",
            set.len()
        );
    }

    #[test]
    fn compaction_never_reduces_coverage() {
        let n = fig1();
        let view = n.scan_view().unwrap();
        let faults = FaultList::collapsed(&n);
        let cfg_nc = AtpgConfig {
            compact: false,
            ..AtpgConfig::default()
        };
        let uncompacted = generate_tests(&n, &cfg_nc).unwrap();
        let compacted = generate_tests(&n, &AtpgConfig::default()).unwrap();
        assert!(compacted.len() <= uncompacted.len());

        let mut fsim = tvs_fault::FaultSim::new(&n, &view);
        let det = fsim.coverage(&compacted.patterns, faults.faults());
        let covered = det.iter().filter(|&&d| d).count();
        assert_eq!(covered, faults.len() - 1); // all but the redundant one
    }

    #[test]
    fn budget_exhaustion_salvages_a_partial_set() {
        let n = fig1();
        // Starve the deterministic phase: the random phase alone overruns a
        // tiny budget, so every surviving fault lands in the residual.
        let cfg = AtpgConfig {
            budget: Some(1),
            random_patterns: 0,
            random_useless: 0,
            ..AtpgConfig::default()
        };
        let set = generate_tests(&n, &cfg).unwrap();
        match &set.termination {
            AtpgTermination::BudgetExhausted { residual, .. } => {
                assert!(!residual.is_empty());
                assert!(set.patterns.len() <= 1, "at most the boundary overshoot");
            }
            other => panic!("expected exhaustion, got {other:?}"),
        }
        // An unbudgeted run is untouched.
        let full = generate_tests(&n, &AtpgConfig::default()).unwrap();
        assert_eq!(full.termination, AtpgTermination::Complete);
        // Budgeted runs are deterministic too.
        let again = generate_tests(&n, &cfg).unwrap();
        assert_eq!(set.patterns, again.patterns);
        assert_eq!(set.termination, again.termination);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let n = fig1();
        let a = generate_tests(&n, &AtpgConfig::default()).unwrap();
        let b = generate_tests(&n, &AtpgConfig::default()).unwrap();
        assert_eq!(a.patterns, b.patterns);
    }
}
