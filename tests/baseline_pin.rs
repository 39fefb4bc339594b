//! Byte-identity pins of the baseline ATPG flow (`generate_tests`) and of
//! its random phase.
//!
//! The digests below were captured on the commit *before* the random phase,
//! reverse-order compaction and fault-dropping coverage moved from one
//! pattern per sweep to the pattern-parallel kernel
//! (`SimSession::detect_patterns`, DESIGN.md §11.3). Each is FNV-1a-64 of a
//! `Debug` rendering, so any change to the kept patterns, their order, the
//! redundant/aborted lists, the termination or the coverage — or to the
//! number of PRNG draws the random phase consumes — shifts a digest.
//!
//! Every profile is built with the table runner's default scaling (the six
//! small circuits at full published size, the large ones capped at 1 200
//! gates) and then scaled by [`SCALE`], which keeps the debug-build run
//! short while still exercising multi-batch random phases.

use tvs::atpg::{generate_tests, random_phase, AtpgConfig};
use tvs::bench::runner::Scaling;
use tvs::fault::FaultList;
use tvs::logic::Prng;
use tvs::netlist::Netlist;
use tvs::stitch::fnv1a;

/// Multiplier on top of the runner's default per-profile scale.
const SCALE: f64 = 0.25;

/// (profile, FNV-1a-64 of `format!("{set:?}")`) for the default config.
const GENERATE_PINS: &[(&str, u64)] = &[
    ("s444", 0x66ade5f5bc2b5cf6),
    ("s526", 0xc04e3ad558def4f8),
    ("s641", 0xa2c10e099a452b2e),
    ("s953", 0x1174e17036b89fc3),
    ("s1196", 0xf097a307b0c013dd),
    ("s1423", 0x5dfa9109b6d5653d),
    ("s5378", 0xab7fce2e2cd7c1b8),
    ("s9234", 0xc9b00f42f489e33e),
    ("s13207", 0x1dce95bc5802ed57),
    ("s15850", 0xf0845798be97471c),
    ("s35932", 0xba253a61400af478),
    ("s38417", 0xb59a67d8fa338631),
    ("s38584", 0x2ccdb3580bb6321d),
];

/// A budget small enough to end the deterministic phase of s1423 early.
const EXHAUSTED_BUDGET: u64 = 40_000;
/// Digest of the budget-exhausted s1423 run.
const EXHAUSTED_PIN: u64 = 0xeb3fb333578334ec;

/// (max_patterns, max_useless, digest of `(patterns, detected, state)`)
/// for `random_phase` on s1423 with seed [`RANDOM_SEED`].
const RANDOM_PINS: &[(usize, usize, u64)] = &[
    (0, 48, 0x008047cb89e89450),
    (1, 48, 0xcb4291a21f242afc),
    (63, 48, 0xe14a4e34be390b71),
    (64, 48, 0x89d36a71cf7ed0de),
    (65, 48, 0x3e3fa928cdbbbc3a),
    (1024, 48, 0x871c4900655026f2),
    (1024, USELESS_MID_BATCH, 0x366790771887d48b),
];

/// A useless-pattern cutoff that trips inside a 64-pattern batch (the test
/// asserts that it does).
const USELESS_MID_BATCH: usize = 5;
/// Seed of the pinned random phases.
const RANDOM_SEED: u64 = 0x5EED_0013;

fn build(name: &str) -> Netlist {
    let profile = tvs::circuits::profile(name).expect("known profile");
    let scaling = Scaling::default();
    profile.build_scaled((scaling.effective(&profile) * SCALE).clamp(1e-3, 1.0))
}

fn generate_digest(netlist: &Netlist, config: &AtpgConfig) -> u64 {
    let set = generate_tests(netlist, config).expect("levelizable profile");
    fnv1a(format!("{set:?}").as_bytes())
}

/// Runs every check and reports all mismatches at once, so a re-capture
/// needs one run.
fn report(mismatches: &[String]) {
    assert!(
        mismatches.is_empty(),
        "baseline pins diverged:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn generate_tests_is_byte_identical_on_every_profile() {
    let mut mismatches = Vec::new();
    for &(name, expected) in GENERATE_PINS {
        let digest = generate_digest(&build(name), &AtpgConfig::default());
        if digest != expected {
            mismatches.push(format!("    (\"{name}\", {digest:#018x}),"));
        }
    }
    report(&mismatches);
}

#[test]
fn budget_exhausted_generate_tests_is_byte_identical() {
    let netlist = build("s1423");
    let config = AtpgConfig {
        budget: Some(EXHAUSTED_BUDGET),
        ..AtpgConfig::default()
    };
    let set = generate_tests(&netlist, &config).expect("levelizable profile");
    assert!(
        format!("{:?}", set.termination).starts_with("BudgetExhausted"),
        "the pinned budget must run out"
    );
    let digest = fnv1a(format!("{set:?}").as_bytes());
    report(&if digest == EXHAUSTED_PIN {
        Vec::new()
    } else {
        vec![format!("EXHAUSTED_PIN = {digest:#018x}")]
    });
}

/// Number of `next_u64` draws separating a fresh `seed` generator from
/// `state`, searched up to `limit`.
fn draws_to(seed: u64, state: [u64; 4], limit: usize) -> Option<usize> {
    let mut rng = Prng::seed_from_u64(seed);
    for n in 0..=limit {
        if rng.state() == state {
            return Some(n);
        }
        rng.next_u64();
    }
    None
}

#[test]
fn random_phase_returns_and_rng_state_are_byte_identical() {
    let netlist = build("s1423");
    let view = netlist.scan_view().expect("scan view");
    let faults = FaultList::collapsed(&netlist);
    let width = view.input_count();
    let mut mismatches = Vec::new();
    for &(max_patterns, max_useless, expected) in RANDOM_PINS {
        let mut rng = Prng::seed_from_u64(RANDOM_SEED);
        let (patterns, detected) = random_phase(
            &netlist,
            &view,
            faults.faults(),
            &mut rng,
            max_patterns,
            max_useless,
        );
        let state = rng.state();
        if max_useless == USELESS_MID_BATCH {
            let draws = draws_to(RANDOM_SEED, state, 64 * 64 * width)
                .expect("the phase consumed whole patterns");
            assert_eq!(draws % width, 0, "draws come in whole patterns");
            assert_ne!(
                (draws / width) % 64,
                0,
                "the useless cutoff must trip inside a batch"
            );
        }
        let digest = fnv1a(format!("{patterns:?}{detected:?}{state:?}").as_bytes());
        if digest != expected {
            mismatches.push(format!(
                "    ({max_patterns}, {max_useless}, {digest:#018x}),"
            ));
        }
    }
    report(&mismatches);
}
