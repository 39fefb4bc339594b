//! Output checks: every emitted program is replayed on the virtual ATE, and
//! the budget sweep is compared with the committed strategies sweep.

use std::collections::BTreeSet;

use tvs_ate::{Dut, TestProgram, VirtualAte};
use tvs_fault::{Fault, FaultList};
use tvs_logic::Prng;
use tvs_netlist::Netlist;
use tvs_serve::json::{self, Value};
use tvs_stitch::{StitchReport, Termination};

/// Faults the report claims as caught: the collapsed list minus proven
/// redundant, aborted and residual (still uncaught) faults. Prescreen
/// aborts that were caught by accident stay out, so the set is a safe
/// under-approximation.
pub fn claimed_caught(netlist: &Netlist, report: &StitchReport) -> Vec<Fault> {
    let mut excluded: BTreeSet<Fault> = report.redundant.iter().copied().collect();
    excluded.extend(report.aborted.iter().copied());
    match &report.termination {
        Termination::Complete => {}
        Termination::BudgetExhausted { residual } | Termination::WorkerPanic { residual, .. } => {
            excluded.extend(residual.iter().copied());
        }
    }
    FaultList::collapsed(netlist)
        .faults()
        .iter()
        .copied()
        .filter(|f| !excluded.contains(f))
        .collect()
}

/// A seeded sample of `k` distinct items (all of them when fewer).
pub fn sample<T: Copy>(items: &[T], k: usize, seed: u64) -> Vec<T> {
    let mut idx: Vec<usize> = (0..items.len()).collect();
    let mut rng = Prng::seed_from_u64(seed);
    let take = k.min(idx.len());
    for i in 0..take {
        let j = i + (rng.next_u64() % (idx.len() - i) as u64) as usize;
        idx.swap(i, j);
    }
    idx[..take].iter().map(|&i| items[i]).collect()
}

/// Replays `program` on the virtual ATE: the fault-free part must pass and
/// each of `faults` must make it fail.
///
/// # Errors
///
/// Describes the first violation.
pub fn screen(netlist: &Netlist, program: &TestProgram, faults: &[Fault]) -> Result<(), String> {
    let view = netlist.scan_view().map_err(|e| e.to_string())?;
    let mut dut = Dut::new(netlist, &view, program.capture, program.observe);
    if !VirtualAte::execute(program, &mut dut).passed() {
        return Err(format!(
            "{}: fault-free part fails its program",
            netlist.name()
        ));
    }
    for &fault in faults {
        dut.inject(fault);
        if VirtualAte::execute(program, &mut dut).passed() {
            return Err(format!(
                "{}: claimed-caught fault {} escapes the program",
                netlist.name(),
                fault.display_in(netlist)
            ));
        }
    }
    Ok(())
}

/// One committed sweep row, rendered the way the sweep file prints it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRow {
    /// Profile name.
    pub profile: String,
    /// Strategy name.
    pub strategy: String,
    /// `coverage`, `memory_ratio`, `time_ratio` at four decimals, then
    /// the stitched and extra vector counts.
    pub figures: [String; 5],
}

impl SweepRow {
    /// Renders a measured row in the committed file's number format.
    pub fn measured(profile: &str, strategy: &str, report: &StitchReport) -> SweepRow {
        let m = &report.metrics;
        SweepRow {
            profile: profile.to_owned(),
            strategy: strategy.to_owned(),
            figures: [
                format!("{:.4}", m.fault_coverage),
                format!("{:.4}", m.memory_ratio),
                format!("{:.4}", m.time_ratio),
                m.stitched_vectors.to_string(),
                m.extra_vectors.to_string(),
            ],
        }
    }
}

/// Reads the committed rows of `profiles` from a strategies-sweep document.
///
/// # Errors
///
/// Malformed documents, or a requested profile the document lacks.
pub fn committed_rows(text: &str, profiles: &[&str]) -> Result<Vec<SweepRow>, String> {
    let doc = json::parse(text).map_err(|e| format!("strategies sweep: {e}"))?;
    let Some(Value::Arr(entries)) = doc.get("profiles") else {
        return Err("strategies sweep lacks \"profiles\"".to_owned());
    };
    let num = |v: Option<&Value>| match v {
        Some(Value::Num(s)) => Ok(s.clone()),
        _ => Err("strategies sweep row lacks a number".to_owned()),
    };
    let mut rows = Vec::new();
    for &want in profiles {
        let entry = entries
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some(want))
            .ok_or_else(|| format!("strategies sweep lacks profile {want}"))?;
        let Some(Value::Arr(list)) = entry.get("rows") else {
            return Err(format!("strategies sweep profile {want} lacks rows"));
        };
        for row in list {
            rows.push(SweepRow {
                profile: want.to_owned(),
                strategy: row
                    .get("strategy")
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                figures: [
                    num(row.get("coverage"))?,
                    num(row.get("memory_ratio"))?,
                    num(row.get("time_ratio"))?,
                    num(row.get("stitched_vectors"))?,
                    num(row.get("extra_vectors"))?,
                ],
            });
        }
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_are_seeded_and_distinct() {
        let items: Vec<u32> = (0..50).collect();
        let a = sample(&items, 10, 7);
        assert_eq!(a, sample(&items, 10, 7));
        let unique: BTreeSet<u32> = a.iter().copied().collect();
        assert_eq!(unique.len(), 10);
        assert_eq!(sample(&items[..3], 10, 7).len(), 3);
    }

    #[test]
    fn committed_rows_parse() {
        let text = r#"{"profiles": [{"name": "s1", "gates": 3, "rows": [
            {"strategy": "most", "coverage": 1.0000, "memory_ratio": 0.5000,
             "time_ratio": 0.2500, "stitched_vectors": 4, "extra_vectors": 1,
             "pareto": true}], "pareto": ["most"]}]}"#;
        let rows = committed_rows(text, &["s1"]).expect("parses");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].strategy, "most");
        assert_eq!(rows[0].figures[1], "0.5000");
        assert!(committed_rows(text, &["s2"]).is_err());
    }
}
