//! A run-wide table of free-constraint PODEM verdicts.
//!
//! PODEM is deterministic and its backtrack limit only cuts the search off
//! (`backtracks > limit` ends a run as [`Aborted`](PodemResult::Aborted)),
//! so a run at limit `Lq` follows a deeper run's path exactly until one of
//! them stops. A verdict recorded once at a deep limit therefore answers
//! every shallower unconstrained query for the same fault without running
//! the search again (DESIGN.md §11.5).

use std::collections::BTreeMap;

use tvs_fault::Fault;
use tvs_logic::{Cube, Logic};

use crate::{PodemConfig, PodemResult};

/// Free-constraint PODEM verdicts, each with its backtrack count, recorded
/// under one [`PodemConfig`].
///
/// Lookup rule, for a query at limit `Lq` with the recording's
/// `xpath_check`: a `Test` or `Untestable` verdict found within
/// `b ≤ Lq` backtracks is returned unchanged; a record with `b > Lq`
/// answers `(Aborted, Lq + 1)`, the point where the shallower run gives up;
/// anything else answers nothing and the caller runs PODEM live. An
/// injected abort records `b = 0` and so never answers.
///
/// # Examples
///
/// ```
/// use tvs_atpg::{Podem, PodemConfig, PodemResult, Verdicts};
/// use tvs_fault::{Fault, StuckAt};
/// use tvs_logic::Cube;
/// use tvs_netlist::{GateKind, NetlistBuilder};
///
/// let mut b = NetlistBuilder::new("t");
/// b.add_input("a")?;
/// b.add_input("b")?;
/// b.add_gate("y", GateKind::And, &["a", "b"])?;
/// b.mark_output("y")?;
/// let n = b.build()?;
/// let view = n.scan_view()?;
/// let deep = PodemConfig { backtrack_limit: 2048, ..PodemConfig::default() };
/// let mut prover = Podem::with_config(&n, &view, deep);
/// let fault = Fault::stem(n.find("y").unwrap(), StuckAt::Zero);
/// let result = prover.generate(fault, &Cube::unspecified(2));
///
/// let mut verdicts = Verdicts::new(deep);
/// verdicts.record(fault, result.clone(), prover.last_backtracks());
/// assert_eq!(verdicts.lookup(fault, &PodemConfig::default()), Some((result, 0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Verdicts {
    config: PodemConfig,
    table: BTreeMap<Fault, (Record, u32)>,
}

/// A recorded verdict. The table lives for the whole run, so a `Test` cube
/// is kept as two bit-planes (care, then value) instead of one byte per
/// position, and rebuilt on lookup.
#[derive(Debug)]
enum Record {
    Test {
        /// The cube's position count.
        len: usize,
        /// The care plane's words, then the value plane's.
        planes: Box<[u64]>,
    },
    Untestable,
    Aborted,
}

impl Record {
    fn pack(result: &PodemResult) -> Record {
        match result {
            PodemResult::Test(cube) => {
                let words = cube.len().div_ceil(64);
                let mut planes = vec![0u64; 2 * words];
                for (i, v) in cube.iter().enumerate() {
                    if let Some(bit) = v.to_bool() {
                        planes[i / 64] |= 1 << (i % 64);
                        planes[words + i / 64] |= u64::from(bit) << (i % 64);
                    }
                }
                Record::Test {
                    len: cube.len(),
                    planes: planes.into_boxed_slice(),
                }
            }
            PodemResult::Untestable => Record::Untestable,
            PodemResult::Aborted => Record::Aborted,
        }
    }

    fn unpack(&self) -> PodemResult {
        match self {
            Record::Test { len, planes } => {
                let words = len.div_ceil(64);
                let bit = |w: usize, i: usize| (planes[w + i / 64] >> (i % 64)) & 1 == 1;
                PodemResult::Test(Cube::from_values(
                    (0..*len)
                        .map(|i| {
                            if bit(0, i) {
                                Logic::from(bit(words, i))
                            } else {
                                Logic::X
                            }
                        })
                        .collect(),
                ))
            }
            Record::Untestable => PodemResult::Untestable,
            Record::Aborted => PodemResult::Aborted,
        }
    }
}

impl Verdicts {
    /// An empty table for verdicts found under `config`.
    pub fn new(config: PodemConfig) -> Self {
        Verdicts {
            config,
            table: BTreeMap::new(),
        }
    }

    /// The configuration the verdicts were found under.
    pub fn config(&self) -> PodemConfig {
        self.config
    }

    /// Records the verdict of an unconstrained run on `fault` under
    /// [`config`](Self::config), with its `last_backtracks()`.
    pub fn record(&mut self, fault: Fault, result: PodemResult, backtracks: u32) {
        self.table
            .insert(fault, (Record::pack(&result), backtracks));
    }

    /// The verdict and backtrack count an unconstrained run on `fault`
    /// under `query` would return, if the table decides it (see the type's
    /// lookup rule).
    pub fn lookup(&self, fault: Fault, query: &PodemConfig) -> Option<(PodemResult, u32)> {
        if query.xpath_check != self.config.xpath_check {
            return None;
        }
        let (record, b) = self.table.get(&fault)?;
        let limit = query.backtrack_limit;
        if *b > limit {
            Some((PodemResult::Aborted, limit.saturating_add(1)))
        } else if matches!(record, Record::Aborted) {
            None
        } else {
            Some((record.unpack(), *b))
        }
    }
}
