//! The four fuzz targets. Each is a pure function of the seed bytes that
//! returns an [`Outcome`]: `Ok` with a deterministic digest, `TypedError`
//! when a library layer rejected the input through its error type, or
//! `Violation` when an *accepted* input broke an invariant the target
//! checks (round-trip identity, thread-count independence). Anything else —
//! a panic, an abort, nondeterminism — is the bug class this crate exists
//! to find.

use std::io::Cursor;
use std::sync::OnceLock;

use tvs_circuits::fig1;
use tvs_core::json::{self, Value};
use tvs_lint::{admission_diagnostics, has_deny, TestabilityConfig};
use tvs_netlist::bench;
use tvs_serve::proto::{read_frame, write_frame, PROTO_VERSION};
use tvs_serve::{check_version, config_from_wire};
use tvs_stitch::{
    fnv1a, RunOptions, Snapshot, StitchConfig, StitchEngine, StitchReport, Termination,
};

use crate::gen;
use crate::rng::FuzzRng;
use crate::Outcome;

// ---------------------------------------------------------------- bench --

/// `.bench` netlist text: grammar synthesis (with and without injected
/// defects), near-valid mutation of cached base circuits, and raw noise.
/// Accepted netlists must round-trip through the canonical writer.
pub fn bench_target(seed: &[u8]) -> Outcome {
    let mut rng = FuzzRng::new(seed);
    let text = match rng.range(4) {
        0 => gen::grammar_bench(&mut rng, false),
        1 => gen::grammar_bench(&mut rng, true),
        2 => {
            let bases = gen::base_texts();
            let base = &bases[rng.range(bases.len())];
            gen::mutate(base, &mut rng)
        }
        _ => String::from_utf8_lossy(&rng.take(256)).into_owned(),
    };
    let netlist = match bench::parse("fuzz", &text) {
        Err(e) => return Outcome::TypedError(format!("netlist: {e}")),
        Ok(n) => n,
    };
    // Round-trip: the canonical rendering of an accepted netlist must parse
    // back to the same structure.
    let canon = bench::to_string(&netlist);
    let back = match bench::parse("fuzz", &canon) {
        Err(e) => return Outcome::Violation(format!("canonical text failed to reparse: {e}")),
        Ok(n) => n,
    };
    let shape = |n: &tvs_netlist::Netlist| {
        (
            n.gate_count(),
            n.input_count(),
            n.output_count(),
            n.dff_count(),
        )
    };
    if shape(&netlist) != shape(&back) {
        return Outcome::Violation(format!(
            "round-trip changed the shape: {:?} -> {:?}",
            shape(&netlist),
            shape(&back)
        ));
    }
    // The admission lint must hold its no-panic contract on anything the
    // parser admits.
    let diags = admission_diagnostics(&netlist, &TestabilityConfig::default());
    Outcome::Ok(format!(
        "shape {:?}, {} diagnostics, deny {}",
        shape(&netlist),
        diags.len(),
        has_deny(&diags)
    ))
}

// ---------------------------------------------------------------- frame --

const OPS: &[&str] = &[
    "submit", "status", "wait", "fetch", "stats", "lint", "shutdown", "nonsense",
];

/// Builds a request document the way a (possibly broken) client would.
fn build_request(rng: &mut FuzzRng) -> Value {
    let mut pairs = Vec::new();
    match rng.range(4) {
        0 => pairs.push(("v".to_string(), Value::num_u64(PROTO_VERSION))),
        1 => pairs.push(("v".to_string(), Value::num_u64(u64::from(rng.byte())))),
        2 => pairs.push(("v".to_string(), Value::str("one"))),
        _ => {} // absent
    }
    pairs.push(("op".to_string(), Value::str(OPS[rng.range(OPS.len())])));
    if rng.chance(128) {
        pairs.push((
            "bench".to_string(),
            Value::str(String::from_utf8_lossy(&rng.take(24)).into_owned()),
        ));
    }
    if rng.chance(128) {
        pairs.push(("job".to_string(), Value::str(format!("j{}", rng.byte()))));
    }
    if rng.chance(160) {
        let mut config = Vec::new();
        for _ in 0..rng.range(4) {
            let key = [
                "seed", "fixed", "select", "vxor", "hxor", "budget", "bogus", "strategy",
            ][rng.range(8)]
            .to_string();
            // `select` is an unknown key now (`strategy` is the only
            // strategy key); it stays in the key pool so the seed schedule
            // and every corpus seed replay unchanged. The string pool mixes
            // valid strategy names, near-miss spellings (case drift,
            // missing dash) and plain garbage: every unknown key or name
            // must come back as a typed rejection, never a panic.
            let value = match rng.range(4) {
                0 => Value::num_u64(u64::from(rng.u16())),
                1 => Value::str(
                    [
                        "random",
                        "most",
                        "sideways",
                        "adi",
                        "scheme-search",
                        "buckets",
                        "adI",
                        "schemesearch",
                        "warp",
                    ][rng.range(9)],
                ),
                2 => Value::Bool(rng.chance(128)),
                _ => Value::Null,
            };
            config.push((key, value));
        }
        pairs.push(("config".to_string(), Value::Obj(config)));
    }
    Value::Obj(pairs)
}

/// Length-prefixed JSON protocol frames, exactly as the serve daemon and the
/// fleet coordinator read them: framing → JSON → version check → config
/// decode. Mutations cover version drift, oversize declared lengths,
/// truncation and raw garbage.
pub fn frame_target(seed: &[u8]) -> Outcome {
    let mut rng = FuzzRng::new(seed);

    // The mutation plan is drawn *before* the request builder so short seeds
    // still reach every stream-level corruption (the builder consumes most
    // of the seed; after exhaustion every draw is the fixed zero tail).
    let mutation = rng.range(5);
    let cut = rng.u16() as usize;
    let decl_kind = rng.range(4);
    let decl_extra = u64::from(rng.u16());

    // A well-formed stream of 1..=3 frames...
    let mut stream: Vec<u8> = Vec::new();
    for _ in 0..1 + rng.range(3) {
        let doc = build_request(&mut rng).to_text();
        if write_frame(&mut stream, &doc).is_err() {
            return Outcome::TypedError("oversize frame at write time".to_string());
        }
    }
    // ...then mutated at the byte level.
    match mutation {
        0 => {} // leave well-formed
        1 => stream.truncate(cut % (stream.len() + 1)),
        2 => {
            // Overwrite the length line with a seed-chosen declared length:
            // plausible, just-over-cap, u64::MAX, or zero-padded past the
            // digit bound (more digits than any u64 ever needs).
            let rewritten_len = match decl_kind {
                0 => format!("{decl_extra}\n"),
                1 => format!("{}\n", 64 * 1024 * 1024 + 1 + decl_extra),
                2 => format!("{}\n", u64::MAX),
                _ => format!("{decl_extra:0>24}\n"),
            };
            let mut rewritten = rewritten_len.into_bytes();
            let old_end = stream.iter().position(|&b| b == b'\n').unwrap_or(0);
            rewritten.extend_from_slice(&stream[(old_end + 1).min(stream.len())..]);
            stream = rewritten;
        }
        3 => {
            if !stream.is_empty() {
                let at = rng.range(stream.len());
                stream[at] = rng.byte();
            }
        }
        _ => {
            let mut garbage = rng.take(32);
            garbage.extend_from_slice(&stream);
            stream = garbage;
        }
    }

    // Drain the stream the way a connection loop does.
    let mut reader = Cursor::new(stream);
    let mut digest = String::new();
    for _ in 0..4 {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => {
                digest.push_str("eof;");
                break;
            }
            Err(e) => return Outcome::TypedError(format!("proto: {e}")),
        };
        let doc = match json::parse(&frame) {
            Ok(v) => v,
            Err(e) => return Outcome::TypedError(format!("json: {e}")),
        };
        match check_version(&doc) {
            Ok(()) => digest.push_str("v-ok,"),
            Err(e) => return Outcome::TypedError(format!("version: {e}")),
        }
        match config_from_wire(doc.get("config")) {
            Ok(c) => digest.push_str(&format!("cfg-seed {};", c.seed)),
            Err(e) => return Outcome::TypedError(format!("config: {e}")),
        }
    }
    Outcome::Ok(digest)
}

// ------------------------------------------------------------- snapshot --

/// The engine configuration the snapshot target runs and resumes under.
fn snapshot_config() -> StitchConfig {
    StitchConfig {
        threads: 1,
        ..StitchConfig::default()
    }
}

/// A real checkpoint of the paper's Figure 1 circuit, captured once per
/// process. The run is deterministic, so the cache cannot perturb outcomes.
fn base_snapshot_text() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let netlist = fig1();
        let mut first: Option<Snapshot> = None;
        if let Ok(engine) = StitchEngine::new(&netlist) {
            let mut keep = |s: Snapshot| {
                if first.is_none() {
                    first = Some(s);
                }
            };
            let _ = engine.run_with(
                &snapshot_config(),
                RunOptions {
                    resume: None,
                    checkpoint_every: 1,
                    on_checkpoint: Some(&mut keep),
                    on_progress: None,
                    prescreen_plan: None,
                    on_prescreen: None,
                },
            );
        }
        match first {
            Some(s) => s.to_text(),
            // Unreachable in practice (fig1 always runs); a header-only text
            // keeps the target total without a panic path.
            None => "tvs-snapshot v2\n".to_string(),
        }
    })
}

/// Rewrites the closing checksum line so a structurally mutated body is
/// self-consistent again — corruption the checksum *cannot* catch, which is
/// exactly what the parser's per-line validation must absorb.
fn fix_checksum(body_lines: &[&str]) -> String {
    let mut body = body_lines.join("\n");
    body.push('\n');
    let sum = fnv1a(body.as_bytes());
    body.push_str(&format!("checksum {sum:016x}\n"));
    body
}

/// `.tvsnap` checkpoint text: raw corruption (checksum catches), structural
/// mutation under a refreshed checksum (per-line validation catches),
/// truncation, and synthetic section-count lies. Accepted snapshots must
/// round-trip and must resume — or be rejected with a typed error — by the
/// engine they were captured from.
pub fn snapshot_target(seed: &[u8]) -> Outcome {
    let mut rng = FuzzRng::new(seed);
    let base = base_snapshot_text();
    let text: String = match rng.range(4) {
        // Untouched: the accept path, exercised end to end.
        0 => base.to_string(),
        // Raw corruption with the checksum left stale.
        1 => {
            let mut chars: Vec<char> = base.chars().collect();
            match rng.range(3) {
                0 => {
                    let cut = rng.range(chars.len() + 1);
                    chars.truncate(cut);
                }
                1 => {
                    if !chars.is_empty() {
                        let at = rng.range(chars.len());
                        chars[at] = char::from(b' ' + (rng.byte() % 95));
                    }
                }
                _ => {
                    let at = rng.range(chars.len() + 1);
                    chars.insert(at, '\u{fffd}');
                }
            }
            chars.into_iter().collect()
        }
        // Structural mutation, checksum refreshed: the checksum proves
        // self-consistency, not honesty, so every forged body must die on
        // per-line validation (or typed resume mismatch), never in an
        // allocator abort or a panic.
        2 => {
            let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
            if lines.len() < 2 {
                return Outcome::TypedError("base snapshot too short".to_string());
            }
            lines.pop(); // drop the stale checksum line; recomputed below
            match rng.range(6) {
                // Lie about a section count, far past what the body holds.
                0 => {
                    let key = ["window", "cycles", "faults"][rng.range(3)];
                    if let Some(at) = lines.iter().position(|l| l.starts_with(key)) {
                        let count = [u64::MAX, 99_999_999, u64::from(rng.u16())][rng.range(3)];
                        lines[at] = format!("{key} {count}");
                    }
                }
                // Foreign header version.
                1 => lines[0] = format!("tvs-snapshot v{}", rng.byte()),
                // Forge the configuration fingerprint (typed resume mismatch).
                2 => {
                    if let Some(at) = lines.iter().position(|l| l.starts_with("config")) {
                        lines[at] = format!("config {:016x}", rng.u64());
                    }
                }
                // Delete one body line.
                3 => {
                    let at = rng.range(lines.len());
                    lines.remove(at);
                }
                // Duplicate one body line.
                4 => {
                    let at = rng.range(lines.len());
                    let dup = lines[at].clone();
                    lines.insert(at, dup);
                }
                // Overwrite one line with noise.
                _ => {
                    let at = rng.range(lines.len());
                    lines[at] = String::from_utf8_lossy(&rng.take(16)).into_owned();
                }
            }
            let refs: Vec<&str> = lines.iter().map(String::as_str).collect();
            fix_checksum(&refs)
        }
        // Synthetic from fragments.
        _ => {
            let fragments = [
                "tvs-snapshot v2",
                "tvs-snapshot v1", // the pre-strategy format: foreign now
                "tvs-snapshot v9",
                "circuit 3 3 8 fig1",
                "config 0000000000000000",
                "rng 1 2 3 4",
                "budget-spent 7",
                "strategy-cursor 2",
                "strategy-cursor 18446744073709551615",
                "sc 7",
                "cursor 2 0",
                "window 18446744073709551615",
                "cycles 18446744073709551615",
                "faults 99999999",
                "w 1 3ff0000000000000",
                "f H 101",
                "good-image 101",
                "never-target -",
            ];
            let mut lines = Vec::new();
            for _ in 0..1 + rng.range(10) {
                lines.push(fragments[rng.range(fragments.len())]);
            }
            if rng.chance(200) {
                fix_checksum(&lines)
            } else {
                let mut text = lines.join("\n");
                text.push('\n');
                text
            }
        }
    };

    let snap = match Snapshot::parse(&text) {
        Err(e) => return Outcome::TypedError(format!("snapshot: {e}")),
        Ok(s) => s,
    };
    // Round-trip identity on anything the parser accepts.
    match Snapshot::parse(&snap.to_text()) {
        Err(e) => return Outcome::Violation(format!("round-trip reparse failed: {e}")),
        Ok(back) if back != snap => {
            return Outcome::Violation("round-trip changed the snapshot".to_string())
        }
        Ok(_) => {}
    }
    // Resume the engine it was captured from: typed rejection or success.
    let netlist = fig1();
    let engine = match StitchEngine::new(&netlist) {
        Err(e) => return Outcome::TypedError(format!("engine: {e}")),
        Ok(e) => e,
    };
    match engine.run_with(
        &snapshot_config(),
        RunOptions {
            resume: Some(snap),
            ..RunOptions::default()
        },
    ) {
        Err(e) => Outcome::TypedError(format!("resume: {e}")),
        Ok(report) => Outcome::Ok(format!(
            "resumed to {} cycles, coverage {:.4}",
            report.cycles.len(),
            report.metrics.fault_coverage
        )),
    }
}

// ------------------------------------------------------------------ e2e --

fn describe_report(report: &StitchReport) -> String {
    // Debug rendering is a byte-exact digest of the full report (bit
    // vectors, metrics, termination), which is what the thread-count and
    // resume equivalence checks compare.
    format!("{report:?}")
}

/// Whole random netlists end to end: parse → admission lint → run with
/// checkpoints at 1 thread → straight run at 4 threads → resume from a
/// mid-run checkpoint at 4 threads, byte-comparing all three reports.
pub fn e2e_target(seed: &[u8]) -> Outcome {
    let mut rng = FuzzRng::new(seed);
    let text = gen::grammar_bench(&mut rng, false);
    let netlist = match bench::parse("fuzz-e2e", &text) {
        Err(e) => return Outcome::TypedError(format!("netlist: {e}")),
        Ok(n) => n,
    };
    let diags = admission_diagnostics(&netlist, &TestabilityConfig::default());
    if has_deny(&diags) {
        return Outcome::TypedError(format!("admission denied ({} diagnostics)", diags.len()));
    }
    let engine = match StitchEngine::new(&netlist) {
        Err(e) => return Outcome::TypedError(format!("engine: {e}")),
        Ok(e) => e,
    };
    let config = StitchConfig {
        seed: rng.u64(),
        budget: Some(2_000 + 1_000 * rng.range(4) as u64),
        threads: 1,
        ..StitchConfig::default()
    };

    let mut snapshots: Vec<Snapshot> = Vec::new();
    let mut keep = |s: Snapshot| snapshots.push(s);
    let reference = match engine.run_with(
        &config,
        RunOptions {
            resume: None,
            checkpoint_every: 1 + rng.range(3),
            on_checkpoint: Some(&mut keep),
            on_progress: None,
            prescreen_plan: None,
            on_prescreen: None,
        },
    ) {
        Err(e) => return Outcome::TypedError(format!("stitch: {e}")),
        Ok(r) => r,
    };
    let reference_digest = describe_report(&reference);

    let wide_config = StitchConfig {
        threads: 4,
        ..config.clone()
    };
    match engine.run(&wide_config) {
        Err(e) => return Outcome::Violation(format!("4-thread run failed after 1-thread: {e}")),
        Ok(wide) => {
            if describe_report(&wide) != reference_digest {
                return Outcome::Violation(
                    "1-thread and 4-thread reports are not byte-identical".to_string(),
                );
            }
        }
    }

    let mut resumed_from = "none".to_string();
    if !snapshots.is_empty() {
        let snap = snapshots[snapshots.len() / 2].clone();
        resumed_from = format!("cycle {}", snap.cycles.len());
        match engine.run_with(
            &wide_config,
            RunOptions {
                resume: Some(snap),
                ..RunOptions::default()
            },
        ) {
            Err(e) => return Outcome::Violation(format!("resume failed on own snapshot: {e}")),
            Ok(resumed) => {
                if describe_report(&resumed) != reference_digest {
                    return Outcome::Violation(
                        "resumed 4-thread run diverged from the uninterrupted run".to_string(),
                    );
                }
            }
        }
    }

    let ended = match reference.termination {
        Termination::Complete => "complete",
        Termination::BudgetExhausted { .. } => "budget",
        Termination::WorkerPanic { .. } => "worker-panic",
    };
    Outcome::Ok(format!(
        "{} cycles, coverage {:.4}, {ended}, resume {resumed_from}",
        reference.cycles.len(),
        reference.metrics.fault_coverage
    ))
}

// ---------------------------------------------------------------- delta --

/// One engine run capturing the prescreen trace alongside the report.
fn run_traced(
    engine: &StitchEngine,
    config: &StitchConfig,
    plan: Option<Vec<Option<tvs_stitch::PrescreenRecord>>>,
) -> Result<(StitchReport, Option<tvs_stitch::PrescreenTrace>), String> {
    let mut trace: Option<tvs_stitch::PrescreenTrace> = None;
    let mut sink = |t: tvs_stitch::PrescreenTrace| trace = Some(t);
    let report = engine
        .run_with(
            config,
            RunOptions {
                resume: None,
                checkpoint_every: 0,
                on_checkpoint: None,
                on_progress: None,
                prescreen_plan: plan,
                on_prescreen: Some(&mut sink),
            },
        )
        .map_err(|e| e.to_string())?;
    Ok((report, trace))
}

/// Base + mutation netlist pairs through the full delta pipeline: cold run
/// of the base, manifest build and text round trip, plan derivation for an
/// id-preserving one-gate mutation, then cold vs delta runs of the mutant
/// byte-compared — the subsystem's non-negotiable invariant under fuzz.
pub fn delta_target(seed: &[u8]) -> Outcome {
    let mut rng = FuzzRng::new(seed);
    let text = gen::grammar_bench(&mut rng, false);
    let base = match bench::parse("fuzz-delta", &text) {
        Err(e) => return Outcome::TypedError(format!("netlist: {e}")),
        Ok(n) => n,
    };
    let diags = admission_diagnostics(&base, &TestabilityConfig::default());
    if has_deny(&diags) {
        return Outcome::TypedError(format!("admission denied ({} diagnostics)", diags.len()));
    }

    // An id-preserving mutation: one combinational gate flipped to its
    // same-arity dual in the canonical text, so the edited netlist keeps
    // the base's interface and gate names.
    let canonical = bench::to_string(&base);
    let duals: &[(&str, &str)] = &[
        ("AND", "OR"),
        ("OR", "AND"),
        ("NAND", "NOR"),
        ("NOR", "NAND"),
        ("XOR", "XNOR"),
        ("XNOR", "XOR"),
        ("NOT", "BUF"),
        ("BUF", "NOT"),
    ];
    let flippable: Vec<_> = base
        .gate_ids()
        .filter(|&id| {
            let kw = base.gate(id).kind().keyword();
            duals.iter().any(|(from, _)| *from == kw)
        })
        .collect();
    if flippable.is_empty() {
        return Outcome::TypedError("no flippable combinational gate".to_string());
    }
    let victim = flippable[rng.range(flippable.len())];
    let kw = base.gate(victim).kind().keyword();
    let (_, to) = duals
        .iter()
        .find(|(from, _)| *from == kw)
        .copied()
        .unwrap_or(("", "AND"));
    let name = base.gate_name(victim);
    let mutated_text =
        canonical.replacen(&format!("{name} = {kw}("), &format!("{name} = {to}("), 1);
    let edited = match bench::parse("fuzz-delta", &mutated_text) {
        Err(e) => return Outcome::TypedError(format!("mutant netlist: {e}")),
        Ok(n) => n,
    };
    if has_deny(&admission_diagnostics(
        &edited,
        &TestabilityConfig::default(),
    )) {
        return Outcome::TypedError("mutant denied at admission".to_string());
    }

    let config = StitchConfig {
        seed: rng.u64(),
        budget: Some(2_000 + 1_000 * rng.range(4) as u64),
        threads: 1,
        ..StitchConfig::default()
    };

    // Cold run of the base, manifest from its trace.
    let base_engine = match StitchEngine::new(&base) {
        Err(e) => return Outcome::TypedError(format!("engine: {e}")),
        Ok(e) => e,
    };
    let (_, base_trace) = match run_traced(&base_engine, &config, None) {
        Err(e) => return Outcome::TypedError(format!("base stitch: {e}")),
        Ok(r) => r,
    };
    let Some(base_trace) = base_trace else {
        return Outcome::Violation("cold run produced no prescreen trace".to_string());
    };
    let manifest =
        match tvs_delta::ConeManifest::build(&base, config.fingerprint(), &base_trace.records) {
            Err(e) => return Outcome::TypedError(format!("manifest build: {e}")),
            Ok(m) => m,
        };
    // Text round trip must be the identity.
    match tvs_delta::ConeManifest::parse(&manifest.to_text()) {
        Err(e) => return Outcome::Violation(format!("own manifest fails parse: {e}")),
        Ok(back) => {
            if back.to_text() != manifest.to_text() {
                return Outcome::Violation("manifest text round trip not identity".to_string());
            }
        }
    }

    // Plan for the mutant; an id-preserving flip keeps the interface, so
    // plan derivation must succeed.
    let plan = match tvs_delta::plan_for(&manifest, &edited, config.fingerprint()) {
        Err(e) => return Outcome::Violation(format!("plan for id-preserving mutant: {e}")),
        Ok(p) => p,
    };

    // The invariant: delta run byte-identical to the mutant's cold run.
    let edited_engine = match StitchEngine::new(&edited) {
        Err(e) => return Outcome::TypedError(format!("mutant engine: {e}")),
        Ok(e) => e,
    };
    let (cold, _) = match run_traced(&edited_engine, &config, None) {
        Err(e) => return Outcome::TypedError(format!("mutant cold stitch: {e}")),
        Ok(r) => r,
    };
    let (delta, delta_trace) = match run_traced(&edited_engine, &config, Some(plan.plan)) {
        Err(e) => return Outcome::Violation(format!("delta run failed after cold: {e}")),
        Ok(r) => r,
    };
    if describe_report(&delta) != describe_report(&cold) {
        return Outcome::Violation(
            "delta run not byte-identical to the cold run of the mutant".to_string(),
        );
    }
    let reused = delta_trace.map(|t| t.reused).unwrap_or(0);
    if reused > plan.faults_matched {
        return Outcome::Violation(format!(
            "reused {reused} verdicts but only {} matched the plan",
            plan.faults_matched
        ));
    }
    Outcome::Ok(format!(
        "{} faults, reused {reused}/{} matched, {} cones dirty",
        plan.faults_total, plan.faults_matched, plan.cones_dirty
    ))
}
