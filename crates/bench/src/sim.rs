//! The kernel bench behind `tvs bench sim`: the incremental and
//! pattern-parallel fault-simulation kernels against their reference modes.
//!
//! Runs two fault-simulation workloads on the largest built-in profile
//! (s38417), each in two modes.
//!
//! The classify-style row — one good-machine stimulus, the collapsed fault
//! list swept in 63-slot chunks:
//!
//! * **full**: every chunk is a plain levelized sweep ([`ParallelSim::eval`]);
//! * **incremental**: one baseline seed, then every chunk re-evaluates only
//!   the injection fanout cones ([`ParallelSim::eval_incremental`]).
//!
//! The random-phase-style row — 64 random patterns against
//! the whole collapsed list:
//!
//! * **single-pattern**: one [`SimSession::detect`] per pattern (64 faults
//!   per sweep, one broadcast baseline per pattern);
//! * **pattern-parallel**: one [`SimSession::detect_patterns`] call (one
//!   packed baseline, then one sweep per fault across every pattern).
//!
//! Each pair of modes must agree bit for bit, and the faster mode must beat
//! the slower by at least `MIN_GATE_EVAL_RATIO`× (classify) and
//! `MIN_PPSFP_RATIO`× (random phase) on the `sim.gates_evaluated` counter.
//! The gates are **deterministic**: counter values are a pure function of
//! the workload, so a build passes or fails identically on a loaded CI box
//! and a quiet workstation. Wall-clock medians are measured and reported in
//! the JSON, but purely as information — they gate nothing.

use tvs_fault::{FaultList, SimSession};
use tvs_logic::{BitVec, Prng};
use tvs_sim::{Injection, ParallelSim};

use crate::microbench::BenchGroup;

/// The classify gate: the incremental kernel must evaluate at least this
/// many times fewer gates than full sweeps on the s38417 workload. The
/// observed ratio is 129.42×; 2.0 still catches a broken fanout-cone cut
/// (which collapses the ratio to ~1).
const MIN_GATE_EVAL_RATIO: f64 = 2.0;

/// Patterns in the random-phase row: one full pattern-parallel batch.
const PPSFP_PATTERNS: usize = 64;

/// The random-phase gate: pattern-parallel simulation must evaluate at
/// least this many times fewer gates than one single-pattern detection per
/// pattern. The observed ratio is 12.26×; the gate is half of it, so only
/// a lost cone cut or a per-fault full sweep trips it.
const MIN_PPSFP_RATIO: f64 = 6.13;

/// One kernel bench run.
#[derive(Debug, Clone)]
pub struct SimBench {
    /// The `BENCH_sim.json` document: gate-evaluation counts per mode and
    /// the informational median wall times.
    pub json: String,
    /// The counter-ratio gate that tripped, if any.
    pub gate_failure: Option<String>,
}

/// Runs both workloads in both modes: one counted correctness pass per
/// mode, then timed passes (median of five after a warm-up, timing lines on
/// stdout). Fails if a mode's outputs diverge from its reference mode.
pub fn run() -> Result<SimBench, String> {
    let profile = tvs_circuits::profile("s38417").ok_or("the s38417 profile is missing")?;
    eprintln!(
        "bench sim: building {} ({} gates)…",
        profile.name, profile.gates
    );
    let netlist = profile.build();
    let view = netlist.scan_view().map_err(|e| e.to_string())?;
    let list = FaultList::collapsed(&netlist);
    let faults = list.faults();

    // The classify-style workload: one stimulus, all faults in 63-slot
    // chunks (slot 63 stays free, as the engine reserves it for the good
    // machine when packing comparison sweeps).
    let mut rng = Prng::seed_from_u64(0x38417);
    let words: Vec<u64> = (0..view.input_count()).map(|_| rng.next_u64()).collect();
    let chunks: Vec<Vec<Injection>> = faults
        .chunks(63)
        .map(|c| {
            c.iter()
                .enumerate()
                .map(|(slot, f)| f.injection(1u64 << slot))
                .collect()
        })
        .collect();
    eprintln!(
        "bench sim: {} faults in {} chunks",
        faults.len(),
        chunks.len()
    );

    let gates = tvs_exec::counter("sim.gates_evaluated");
    let outputs = view.output_count();
    let mut sim = ParallelSim::new(&netlist, &view);

    // Counted correctness passes: one per mode, comparing every output word.
    let before = gates.get();
    let mut full_outs: Vec<u64> = Vec::with_capacity(chunks.len() * outputs);
    for chunk in &chunks {
        sim.eval(&words, chunk);
        full_outs.extend((0..outputs).map(|o| sim.output_word(o)));
    }
    let gates_full = gates.get() - before;

    let before = gates.get();
    let mut inc_outs: Vec<u64> = Vec::with_capacity(chunks.len() * outputs);
    sim.seed_baseline(&words, &[]);
    for chunk in &chunks {
        sim.eval_incremental(&words, chunk);
        inc_outs.extend((0..outputs).map(|o| sim.output_word(o)));
    }
    let gates_incremental = gates.get() - before;
    if full_outs != inc_outs {
        return Err("incremental outputs diverged from full sweeps".into());
    }

    // Timed passes (median of five, after one warm-up each).
    let group = BenchGroup::new("sim", 5);
    let wall_full = group.bench_timed("full", || {
        for chunk in &chunks {
            sim.eval(&words, chunk);
        }
    });
    let wall_incremental = group.bench_timed("incremental", || {
        sim.seed_baseline(&words, &[]);
        for chunk in &chunks {
            sim.eval_incremental(&words, chunk);
        }
    });

    // The random-phase row: PPSFP_PATTERNS patterns against every fault,
    // pattern by pattern vs. one pattern-parallel batch.
    let patterns: Vec<BitVec> = (0..PPSFP_PATTERNS)
        .map(|_| (0..view.input_count()).map(|_| rng.next_bool()).collect())
        .collect();
    let mut session = SimSession::new(&netlist, &view);
    let single_pattern = |session: &mut SimSession<'_>| -> Result<Vec<u64>, String> {
        let mut masks = vec![0u64; faults.len()];
        for (j, pattern) in patterns.iter().enumerate() {
            let hits = session.detect(pattern, faults).map_err(|e| e.to_string())?;
            for (mask, hit) in masks.iter_mut().zip(hits) {
                *mask |= u64::from(hit) << j;
            }
        }
        Ok(masks)
    };
    let before = gates.get();
    let single_masks = single_pattern(&mut session)?;
    let gates_single = gates.get() - before;
    let before = gates.get();
    let ppsfp_masks = session
        .detect_patterns(&patterns, faults)
        .map_err(|e| e.to_string())?;
    let gates_ppsfp = gates.get() - before;
    if single_masks != ppsfp_masks {
        return Err("pattern-parallel masks diverged from per-pattern detection".into());
    }
    let wall_single = group.bench_timed("single-pattern", || single_pattern(&mut session));
    let wall_ppsfp = group.bench_timed("pattern-parallel", || {
        session.detect_patterns(&patterns, faults)
    });

    let ratio = gates_full as f64 / gates_incremental.max(1) as f64;
    let ppsfp_ratio = gates_single as f64 / gates_ppsfp.max(1) as f64;
    let json = format!(
        "{{\n  \"circuit\": \"{}\",\n  \"gates\": {},\n  \"faults\": {},\n  \"chunks\": {},\n  \"gates_evaluated_full\": {},\n  \"gates_evaluated_incremental\": {},\n  \"gate_eval_ratio\": {:.2},\n  \"wall_ms_full\": {:.3},\n  \"wall_ms_incremental\": {:.3},\n  \"ppsfp_patterns\": {},\n  \"gates_evaluated_single_pattern\": {},\n  \"gates_evaluated_pattern_parallel\": {},\n  \"ppsfp_gate_eval_ratio\": {:.2},\n  \"wall_ms_single_pattern\": {:.3},\n  \"wall_ms_pattern_parallel\": {:.3}\n}}\n",
        profile.name,
        netlist.gate_count(),
        faults.len(),
        chunks.len(),
        gates_full,
        gates_incremental,
        ratio,
        wall_full.as_secs_f64() * 1e3,
        wall_incremental.as_secs_f64() * 1e3,
        PPSFP_PATTERNS,
        gates_single,
        gates_ppsfp,
        ppsfp_ratio,
        wall_single.as_secs_f64() * 1e3,
        wall_ppsfp.as_secs_f64() * 1e3,
    );
    let gate_failure = if ppsfp_ratio < MIN_PPSFP_RATIO {
        Some(format!(
            "pattern-parallel evaluated {gates_ppsfp} gates vs {gates_single} \
             single-pattern ({ppsfp_ratio:.2}x, gate requires {MIN_PPSFP_RATIO}x)"
        ))
    } else if ratio < MIN_GATE_EVAL_RATIO {
        Some(format!(
            "incremental evaluated {gates_incremental} gates vs {gates_full} full \
             ({ratio:.2}x, gate requires {MIN_GATE_EVAL_RATIO}x)"
        ))
    } else {
        None
    };
    Ok(SimBench { json, gate_failure })
}
