//! The paper's Tables 1–5 and the plain-text table format they print in.
//!
//! [`render`] reproduces one table as the text `tvs bench table <n>`
//! prints. Tables 2–5 fan their circuit profiles out over a worker pool,
//! one profile per worker, and reduce rows in profile order, so the text
//! is byte-identical at any thread count. Progress goes to stderr.

use tvs_scan::{CaptureTransform, CostModel, ObserveTransform};
use tvs_stitch::{ShiftPolicy, StitchConfig, StitchEngine, StitchError, StrategyId};

use crate::runner::{map_profiles, run_profile, Scaling};

/// A simple fixed-width text table.
///
/// # Examples
///
/// ```
/// use tvs_bench::tables::TextTable;
///
/// let mut t = TextTable::new(vec!["circ", "m", "t"]);
/// t.row(vec!["s444".into(), "0.73".into(), "0.53".into()]);
/// let s = t.to_string();
/// assert!(s.contains("s444"));
/// ```
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (shorter rows are padded with empty cells).
    pub fn row(&mut self, cells: Vec<String>) {
        self.rows.push(cells);
    }
}

impl std::fmt::Display for TextTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut width: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (c, cell) in row.iter().enumerate().take(width.len()) {
                width[c] = width[c].max(cell.len());
            }
        }
        let fmt_row = |f: &mut std::fmt::Formatter<'_>, cells: &[String]| {
            let mut line = String::new();
            for (c, w) in width.iter().enumerate() {
                let cell = cells.get(c).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:>w$}  "));
            }
            writeln!(f, "{}", line.trim_end())
        };
        fmt_row(f, &self.header)?;
        let total: usize = width.iter().sum::<usize>() + 2 * width.len();
        writeln!(f, "{}", "-".repeat(total.saturating_sub(2)))?;
        for row in &self.rows {
            fmt_row(f, row)?;
        }
        Ok(())
    }
}

/// Formats a ratio with two decimals, the tables' house style.
pub fn ratio(v: f64) -> String {
    format!("{v:.2}")
}

/// Computes the mean of an iterator of ratios.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Renders Table `n` of the paper as `tvs bench table <n>` prints it, or
/// `None` when there is no Table `n`. `scaling` and `threads` apply to
/// Tables 2–5; Table 1 is the fixed Figure 1 example.
///
/// # Examples
///
/// ```
/// use tvs_bench::{runner::Scaling, tables};
///
/// let text = tables::render(1, &Scaling::default(), 1).unwrap()?;
/// assert!(text.starts_with("Table 1: "));
/// assert!(tables::render(6, &Scaling::default(), 1).is_none());
/// # Ok::<(), tvs_stitch::StitchError>(())
/// ```
pub fn render(n: u8, scaling: &Scaling, threads: usize) -> Option<Result<String, StitchError>> {
    Some(match n {
        1 => table1(),
        2 => Ok(table2(scaling, threads)),
        3 => Ok(ratio_table(
            "Table 3: hidden fault observability (m, t per scheme)",
            &[
                ("NXOR", CaptureTransform::Plain, ObserveTransform::Direct),
                ("VXOR", CaptureTransform::VerticalXor, ObserveTransform::Direct),
                ("HXOR", CaptureTransform::Plain, ObserveTransform::HorizontalXor(3)),
            ]
            .map(|(label, capture, observe)| {
                let config = StitchConfig {
                    capture,
                    observe,
                    ..StitchConfig::default()
                };
                (label, config)
            }),
            "(paper, averages: NXOR m=0.74 t=0.48; VXOR m=0.66 t=0.41; HXOR m=0.69 t=0.43)",
            scaling,
            threads,
        )),
        4 => Ok(ratio_table(
            "Table 4: selection of test vectors (m, t per strategy)",
            &[
                ("Rand", StrategyId::Random),
                ("Hard", StrategyId::Hardness),
                ("Most", StrategyId::MostFaults),
            ]
            .map(|(label, strategy)| {
                let config = StitchConfig {
                    strategy,
                    ..StitchConfig::default()
                };
                (label, config)
            }),
            "(paper, averages: Random m=0.80 t=0.48; Hardness m=0.74 t=0.44; Most-faults m=0.64 t=0.38)",
            scaling,
            threads,
        )),
        5 => Ok(table5(scaling, threads)),
        _ => return None,
    })
}

/// **Table 1**: the fault-behaviour table of the Figure 1 circuit under the
/// paper's four stitched test vectors.
///
/// Each tracked fault's row shows, per cycle, the test vector its faulty
/// machine actually received and the response it produced; tracking stops
/// (blank cells) once the fault's effect has reached the tester. The paper's
/// highlights reproduce exactly: `F/0` hides in cycle 1 and surfaces in
/// cycle 2 through the mutated vector `000`; `F/1`-class faults mutate the
/// third vector to `101`; the branch `E-F/1` is redundant and never caught.
fn table1() -> Result<String, StitchError> {
    let netlist = tvs_circuits::fig1();
    let trace = StitchEngine::new(&netlist)?.replay(
        &tvs_circuits::fig1_vectors(),
        &[3, 2, 2, 2],
        2,
        &StitchConfig::default(),
    )?;

    let mut header = vec!["fault".to_owned()];
    for c in 1..=trace.cycles.len() {
        header.push(format!("TV{c}"));
        header.push(format!("RP{c}"));
    }
    let mut table = TextTable::new(header);
    let mut correct = vec!["correct".to_owned()];
    for cycle in &trace.cycles {
        correct.push(cycle.vector.to_string());
        correct.push(cycle.response.to_string());
    }
    table.row(correct);
    for row in &trace.rows {
        let mut cells = vec![row.fault.display_in(&netlist)];
        for entry in &row.entries {
            cells.push(entry.vector.to_string());
            cells.push(entry.response.to_string());
        }
        table.row(cells);
    }

    let caught = trace.rows.iter().filter(|r| r.caught_at.is_some()).count();
    let uncaught: Vec<String> = trace
        .rows
        .iter()
        .filter(|r| r.caught_at.is_none())
        .map(|r| r.fault.display_in(&netlist))
        .collect();
    Ok(format!(
        "Table 1: fault behaviour under the paper's stitched schedule\n\
         (circuit: Fig. 1; shifts 3,2,2,2; closing flush 2)\n\n\
         {table}\n\
         caught {caught}/{} tracked faults; never caught: {uncaught:?}\n\
         (the paper's only uncaught fault is the redundant E-F/1)\n",
        trace.rows.len()
    ))
}

/// **Table 2**: fixed shift sizes at the 3/8, 5/8 and 7/8 info ratios
/// versus the variable shift policy, on the eight Table-2 circuits.
///
/// Columns per the paper: `shift` (bits per cycle / scan length), `TV`
/// (stitched vectors), `ex` (fallback full vectors), `m` (memory ratio), `t`
/// (time ratio). Profiles where an info ratio is unattainable because the
/// primary inputs alone exceed it are marked `/`, as in the paper.
fn table2(scaling: &Scaling, threads: usize) -> String {
    let infos = [3.0 / 8.0, 5.0 / 8.0, 7.0 / 8.0];
    let mut table = TextTable::new([
        "circ", "gates", "aTV", // baseline
        "shift", "TV", "ex", "m", "t", // 3/8
        "shift", "TV", "ex", "m", "t", // 5/8
        "shift", "TV", "ex", "m", "t", // 7/8
        "TV", "ex", "m", "t", // variable
    ]);
    let profiles = tvs_circuits::profiles_table2();
    let all_cells = map_profiles(&profiles, threads, |profile| {
        // `gates` and `aTV` come from the 3/8 run, or from the variable
        // shift run when 3/8 is unattainable.
        let mut cells = vec![profile.name.to_owned(), String::new(), String::new()];
        let model = CostModel {
            scan_len: profile.flip_flops,
            pi_count: profile.inputs,
            po_count: profile.outputs,
        };
        let push_run = |cells: &mut Vec<String>, config: &StitchConfig, first: bool| {
            let row = run_profile(profile, scaling, config);
            let m = &row.report.metrics;
            if first {
                cells[1] = row.gates.to_string();
                cells[2] = m.baseline_vectors.to_string();
            }
            cells.push(m.stitched_vectors.to_string());
            cells.push(m.extra_vectors.to_string());
            cells.push(ratio(m.memory_ratio));
            cells.push(ratio(m.time_ratio));
        };
        for (i, target) in infos.into_iter().enumerate() {
            match model.shift_for_info(target) {
                Some(k) => {
                    cells.push(format!("{k}/{}", profile.flip_flops));
                    let config = StitchConfig {
                        policy: ShiftPolicy::Fixed(k),
                        ..StitchConfig::default()
                    };
                    push_run(&mut cells, &config, i == 0);
                }
                None => cells.extend(std::iter::repeat_n("/".to_owned(), 5)),
            }
        }
        let first = cells[1].is_empty();
        push_run(&mut cells, &StitchConfig::default(), first);
        eprintln!("  [{}] done", profile.name);
        cells
    });
    for cells in all_cells {
        table.row(cells);
    }
    format!(
        "Table 2: varying the size and type of shifting\n\
         (columns: three fixed-shift info points 3/8, 5/8, 7/8, then variable shift)\n\n\
         {table}\n\
         (paper, averages: 3/8 m=0.88 t=0.84; 5/8 m=0.73 t=0.59; 7/8 m=0.78 t=0.73; variable m=0.63 t=0.38)\n"
    )
}

/// **Tables 3 and 4**: per Table-2 circuit, one stitched run per `(label,
/// config)` column, printed as an `m`/`t` pair under `<label> m` and
/// `<label> t`, with an `Ave` row of column means. Table 3 compares the
/// hidden-fault observability schemes (plain, vertical XOR, horizontal
/// XOR), Table 4 the vector selection strategies.
fn ratio_table(
    title: &str,
    columns: &[(&str, StitchConfig)],
    note: &str,
    scaling: &Scaling,
    threads: usize,
) -> String {
    let mut header = vec!["circ".to_owned(), "gates".to_owned()];
    for (label, _) in columns {
        header.push(format!("{label} m"));
        header.push(format!("{label} t"));
    }
    let mut table = TextTable::new(header);
    let profiles = tvs_circuits::profiles_table2();
    let runs = map_profiles(&profiles, threads, |profile| {
        let rows: Vec<_> = columns
            .iter()
            .map(|(_, config)| run_profile(profile, scaling, config))
            .collect();
        eprintln!("  [{}] done", profile.name);
        rows
    });

    let mut sums = vec![Vec::new(); 2 * columns.len()];
    for (profile, rows) in profiles.iter().zip(&runs) {
        let gates = rows.last().map_or(String::new(), |r| r.gates.to_string());
        let mut cells = vec![profile.name.to_owned(), gates];
        let ratios = rows.iter().flat_map(|r| {
            let m = &r.report.metrics;
            [m.memory_ratio, m.time_ratio]
        });
        for (sum, value) in sums.iter_mut().zip(ratios) {
            cells.push(ratio(value));
            sum.push(value);
        }
        table.row(cells);
    }
    let mut average = vec!["Ave".to_owned(), String::new()];
    average.extend(sums.into_iter().map(|s| ratio(mean(s))));
    table.row(average);
    format!("{title}\n\n{table}\n{note}\n")
}

/// **Table 5**: the overall scheme (variable shift + Most-faults greedy +
/// no XOR hardware) on the seven largest circuits, reporting I/O, scan
/// length, `m` and `t`. Interface counts — the I/O and scan# columns the
/// paper prints — are exact at any scaling.
fn table5(scaling: &Scaling, threads: usize) -> String {
    let mut table = TextTable::new(["circ", "I/O", "scan#", "gates", "TV", "ex", "cov", "m", "t"]);
    let profiles = tvs_circuits::profiles_table5();
    let rows = map_profiles(&profiles, threads, |profile| {
        let row = run_profile(profile, scaling, &StitchConfig::default());
        let m = &row.report.metrics;
        eprintln!(
            "  [{}] done (m={:.2} t={:.2})",
            profile.name, m.memory_ratio, m.time_ratio
        );
        row
    });

    let (mut ms, mut ts) = (Vec::new(), Vec::new());
    for (profile, row) in profiles.iter().zip(&rows) {
        let m = &row.report.metrics;
        table.row(vec![
            profile.name.to_owned(),
            format!("{}/{}", profile.inputs, profile.outputs),
            profile.flip_flops.to_string(),
            row.gates.to_string(),
            m.stitched_vectors.to_string(),
            m.extra_vectors.to_string(),
            format!("{:.3}", m.fault_coverage),
            ratio(m.memory_ratio),
            ratio(m.time_ratio),
        ]);
        ms.push(m.memory_ratio);
        ts.push(m.time_ratio);
    }
    let mut average = vec![String::new(); 7];
    average[0] = "Ave".to_owned();
    average.extend([ratio(mean(ms)), ratio(mean(ts))]);
    table.row(average);
    format!(
        "Table 5: experimental results for large circuits\n\
         (variable shift + Most-faults selection + no XOR hardware)\n\n\
         {table}\n\
         (paper, average: m=0.61 t=0.51; best row s35932 m=0.20 t=0.07)\n"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a", "long-header"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("long-header"));
        assert!(lines[2].contains("xxxx"));
    }

    #[test]
    fn ratio_and_mean() {
        assert_eq!(ratio(0.731), "0.73");
        assert!((mean([1.0, 2.0, 3.0]) - 2.0).abs() < 1e-12);
        assert_eq!(mean(std::iter::empty::<f64>()), 0.0);
    }
}
