//! In-memory span recording and the per-layer ledger of a traced pass.
//!
//! Spans are recorded from outside the library: around each public call,
//! and at the engine's own observation hooks (`on_prescreen` closes the
//! pre-cycle span, each `on_progress` closes a cycle span, the return of
//! `run_with` closes `finish`). Work counters are the ones the library
//! already exports through the `tvs-exec` registry, snapshotted at the same
//! boundaries.

use std::time::{Duration, Instant};

use tvs_exec::Counter;
use tvs_stitch::{PodemVerdict, PrescreenRecord};

/// One recorded span, in seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span name (`"stitch.cycle"`, `"atpg.baseline"`, …).
    pub name: &'static str,
    /// Start offset.
    pub start: f64,
    /// End offset.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Keeps spans in memory and accounts for its own bookkeeping time.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    cost: Duration,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            cost: Duration::ZERO,
        }
    }
}

impl Tracer {
    /// Records a closed span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
    ) -> usize {
        let at = Instant::now();
        self.spans.push(Span {
            name,
            start: start.saturating_duration_since(self.origin).as_secs_f64(),
            end: end.saturating_duration_since(self.origin).as_secs_f64(),
            parent,
        });
        self.cost += at.elapsed();
        self.spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends, so later spans can
    /// name it as their parent.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent)
    }

    /// Ends a span opened with [`open`](Self::open).
    pub fn close(&mut self, span: usize) {
        let end = Instant::now().saturating_duration_since(self.origin);
        if let Some(s) = self.spans.get_mut(span) {
            s.end = end.as_secs_f64();
        }
    }

    /// Adds time spent in tracing hooks to the tracer's own cost.
    pub fn charge(&mut self, cost: Duration) {
        self.cost += cost;
    }

    /// Summed duration of every span called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    /// Number of spans called `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Time spent recording spans and running tracing hooks.
    pub fn cost(&self) -> Duration {
        self.cost
    }
}

/// Cached handles on the registry counters the ledger reads.
#[derive(Debug, Clone)]
pub struct Probes {
    slots: Counter,
    gates: Counter,
    backtracks: Counter,
    tasks: Counter,
    steals: Counter,
}

impl Default for Probes {
    fn default() -> Self {
        Probes {
            slots: tvs_exec::counter("fault.slots_simulated"),
            gates: tvs_exec::counter("sim.gates_evaluated"),
            backtracks: tvs_exec::counter("atpg.backtracks"),
            tasks: tvs_exec::counter("exec.tasks"),
            steals: tvs_exec::counter("exec.steals"),
        }
    }
}

impl Probes {
    /// Reads every probed counter.
    pub fn read(&self) -> Counters {
        Counters {
            slots: self.slots.get(),
            gates: self.gates.get(),
            backtracks: self.backtracks.get(),
            tasks: self.tasks.get(),
            steals: self.steals.get(),
        }
    }
}

/// A snapshot of the probed counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `fault.slots_simulated`.
    pub slots: u64,
    /// `sim.gates_evaluated`.
    pub gates: u64,
    /// `atpg.backtracks`.
    pub backtracks: u64,
    /// `exec.tasks`.
    pub tasks: u64,
    /// `exec.steals`.
    pub steals: u64,
}

impl Counters {
    /// The growth from `earlier` to `self`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            slots: self.slots.saturating_sub(earlier.slots),
            gates: self.gates.saturating_sub(earlier.gates),
            backtracks: self.backtracks.saturating_sub(earlier.backtracks),
            tasks: self.tasks.saturating_sub(earlier.tasks),
            steals: self.steals.saturating_sub(earlier.steals),
        }
    }
}

/// Work units the prescreen charged, recomputed from its trace with the
/// engine's own charging rule: the alive fault count of every random
/// simulation round that ran, plus `1 + backtracks` per PODEM verdict.
pub fn prescreen_units(records: &[PrescreenRecord]) -> u64 {
    let mut units = 0u64;
    for round in 0..8u8 {
        let alive = records
            .iter()
            .filter(|r| r.first_detect_round.is_none_or(|d| d >= round))
            .count();
        if alive == 0 {
            break;
        }
        units += alive as u64;
    }
    units
        + records
            .iter()
            .filter_map(|r| r.podem)
            .map(|(_, bt)| 1 + u64::from(bt))
            .sum::<u64>()
}

/// Per-layer totals of a traced pass. Times are in seconds; counts are
/// summed over every engine run of the pass.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    pub parse_s: f64,
    pub lint_s: f64,
    pub engine_new_s: f64,
    pub scoap_s: f64,
    pub collapsed: u64,
    pub baseline_s: f64,
    pub baseline_slots: u64,
    pub baseline_backtracks: u64,
    pub baseline_patterns: u64,
    /// The whole pre-cycle span: SCOAP, baseline ATPG, prescreen and
    /// strategy `prepare`.
    pub precycle_s: f64,
    pub precycle: Counters,
    pub prescreen_backtracks: u64,
    pub prescreen_units: u64,
    pub budget_limit_units: u64,
    pub prescreen_faults: u64,
    pub sim_settled: u64,
    pub prescreen_aborted: u64,
    pub cycles_s: f64,
    pub cycles: u64,
    pub cycle: Counters,
    pub catches: u64,
    pub hidden_entered: u64,
    pub hidden_converted: u64,
    pub finish_s: f64,
    pub fallback_vectors: u64,
    pub finish: Counters,
    pub emit_s: f64,
    pub program_bytes: u64,
    pub verify_s: f64,
    pub exec: Counters,
}

impl Ledger {
    /// Folds one prescreen trace into the ledger.
    pub fn add_prescreen(&mut self, records: &[PrescreenRecord]) {
        self.prescreen_units += prescreen_units(records);
        self.prescreen_faults += records.len() as u64;
        for r in records {
            if r.first_detect_round.is_some() {
                self.sim_settled += 1;
            }
            if let Some((verdict, bt)) = r.podem {
                self.prescreen_backtracks += u64::from(bt);
                if verdict == PodemVerdict::Aborted {
                    self.prescreen_aborted += 1;
                }
            }
        }
    }

    /// The prescreen's self time: the pre-cycle span minus the SCOAP and
    /// baseline-ATPG work that runs inside it (measured standalone on the
    /// same netlist and configuration). Strategy `prepare` stays in.
    pub fn prescreen_s(&self) -> f64 {
        (self.precycle_s - self.scoap_s - self.baseline_s).max(0.0)
    }

    /// Fault slots the prescreen (and `prepare`) simulated.
    pub fn prescreen_slots(&self) -> u64 {
        self.precycle.slots.saturating_sub(self.baseline_slots)
    }

    /// `(layer, self seconds)` for every direct-path layer.
    pub fn layers(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("netlist", self.parse_s),
            ("lint", self.lint_s),
            ("fault", self.scoap_s + self.engine_new_s),
            ("atpg", self.baseline_s),
            ("stitch.prescreen", self.prescreen_s()),
            ("stitch.cycles", self.cycles_s),
            ("stitch.finish", self.finish_s),
            ("ate", self.emit_s + self.verify_s),
        ]
    }
}

/// The layer with the largest self time and its share of the summed
/// layer times.
pub fn hottest(layers: &[(&'static str, f64)]) -> (&'static str, f64) {
    let total: f64 = layers.iter().map(|&(_, s)| s).sum();
    let (name, top) = layers
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .unwrap_or(("none", 0.0));
    (name, if total > 0.0 { top / total } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(round: Option<u8>, podem: Option<(PodemVerdict, u32)>) -> PrescreenRecord {
        PrescreenRecord {
            first_detect_round: round,
            podem,
        }
    }

    #[test]
    fn units_follow_the_engine_charging_rule() {
        // Four faults: two caught in round 0, one in round 2, one never
        // (proved by PODEM with 5 backtracks). Alive per round: 4, 2, 2,
        // then 1 for rounds 3..8 → 4 + 2 + 2 + 5 = 13 simulation units,
        // plus 1 + 5 for the verdict.
        let records = [
            rec(Some(0), None),
            rec(Some(0), None),
            rec(Some(2), None),
            rec(None, Some((PodemVerdict::Untestable, 5))),
        ];
        assert_eq!(prescreen_units(&records), 13 + 6);
    }

    #[test]
    fn units_stop_once_every_fault_is_settled() {
        let records = [rec(Some(0), None), rec(Some(1), None)];
        assert_eq!(prescreen_units(&records), 2 + 1);
    }

    #[test]
    fn hottest_layer_and_share() {
        let (name, share) = hottest(&[("a", 1.0), ("b", 3.0)]);
        assert_eq!(name, "b");
        assert!((share - 0.75).abs() < 1e-12);
    }
}
