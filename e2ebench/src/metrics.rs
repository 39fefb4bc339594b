//! The metric catalogue and the result line.
//!
//! Every name the benchmark prints is declared here with its unit and
//! direction; `BENCHMARK.json` at the repository root lists the same names
//! (a test keeps the two in step). An untraced run prints every
//! [`END_TO_END`] metric, a traced run every [`PER_LAYER`] metric.

use std::fmt::Write as _;

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"` is better.
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the library or the daemon sees, per workload.
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", "lower"),
    m("setup_s", "s", "lower"),
    m("peak_rss_mib", "MiB", "lower"),
    m("ok_frac", "frac", "higher"),
    m("memory_ratio", "ratio", "lower"),
    m("time_ratio", "ratio", "lower"),
    m("coverage", "frac", "higher"),
    m("jobs_per_s", "1/s", "higher"),
    m("job_p50_ms", "ms", "lower"),
    m("job_p90_ms", "ms", "lower"),
];

/// Single-layer figures from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    m("netlist.parse_s", "s", "lower"),
    m("lint.admission_s", "s", "lower"),
    m("fault.scoap_s", "s", "lower"),
    m("fault.collapsed", "count", "lower"),
    m("atpg.baseline_s", "s", "lower"),
    m("atpg.baseline_slots", "count", "lower"),
    m("atpg.baseline_backtracks", "count", "lower"),
    m("atpg.baseline_patterns", "count", "lower"),
    m("stitch.prescreen_s", "s", "lower"),
    m("stitch.prescreen_slots", "count", "lower"),
    m("stitch.prescreen_backtracks", "count", "lower"),
    m("stitch.prescreen_units", "units", "lower"),
    m("stitch.prescreen_budget_frac", "frac", "lower"),
    m("stitch.prescreen_wall_frac", "frac", "lower"),
    m("stitch.prescreen_sim_settled_frac", "frac", "higher"),
    m("stitch.prescreen_aborted", "count", "lower"),
    m("stitch.cycles_s", "s", "lower"),
    m("stitch.cycles", "count", "lower"),
    m("stitch.cycle_slots", "count", "lower"),
    m("stitch.cycle_gates_evaluated", "count", "lower"),
    m("stitch.cycle_backtracks", "count", "lower"),
    m("stitch.catches_per_cycle", "count", "higher"),
    m("stitch.hidden_convert_frac", "frac", "higher"),
    m("stitch.finish_s", "s", "lower"),
    m("stitch.fallback_vectors", "count", "lower"),
    m("stitch.finish_backtracks", "count", "lower"),
    m("ate.emit_s", "s", "lower"),
    m("ate.program_bytes", "bytes", "lower"),
    m("ate.verify_s", "s", "lower"),
    m("serve.submit_ms_p50", "ms", "lower"),
    m("serve.fetch_ms_p50", "ms", "lower"),
    m("serve.hit_ms_p50", "ms", "lower"),
    m("serve.miss_ms_p50", "ms", "lower"),
    m("serve.edit_ms_p50", "ms", "lower"),
    m("serve.cache_hit_frac", "frac", "higher"),
    m("serve.engine_runs", "count", "lower"),
    m("serve.engine_s", "s", "lower"),
    m("serve.latency_samples", "count", "higher"),
    m("delta.plans", "count", "higher"),
    m("delta.faults_reused_frac", "frac", "higher"),
    m("cache.bytes", "bytes", "lower"),
    m("exec.tasks", "count", "lower"),
    m("exec.steals", "count", "lower"),
    m("trace.overhead_frac", "frac", "lower"),
    m("trace.standalone_s", "s", "lower"),
    m("trace.hot_layer_share", "frac", "lower"),
];

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: at most 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// The values one run reports, keyed by catalogue name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// The value under `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The final summary of one invocation.
#[derive(Debug)]
pub struct Outcome {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted (engine runs or served requests).
    pub attempted: u64,
    /// Operations that errored, panicked or failed an oracle check.
    pub failed: u64,
    /// The reported metrics.
    pub values: Values,
}

impl Outcome {
    /// Renders the one-line JSON result for `catalogue`, in catalogue
    /// order. Every catalogue metric must have been recorded.
    ///
    /// # Errors
    ///
    /// Names the first catalogue metric the run did not record.
    pub fn to_json(&self, catalogue: &[MetricDef]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, def) in catalogue.iter().enumerate() {
            let value = self
                .values
                .get(def.name)
                .ok_or_else(|| format!("metric {} was not recorded", def.name))?;
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                number(value),
                def.unit
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// A JSON number with every digit of the measurement (Rust's shortest
/// round-trip rendering).
fn number(x: f64) -> String {
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(number(1.2034567891), "1.2034567891");
        assert_eq!(number(3.0), "3.0");
        assert_eq!(number(0.0), "0.0");
    }

    #[test]
    fn missing_metrics_are_an_error() {
        let outcome = Outcome {
            correct: true,
            attempted: 1,
            failed: 0,
            values: Values::default(),
        };
        assert!(outcome.to_json(END_TO_END).is_err());
    }
}
