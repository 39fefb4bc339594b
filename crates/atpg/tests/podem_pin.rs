//! Byte-identity pins of the PODEM search itself.
//!
//! For every collapsed fault of each circuit, the digest folds in the
//! verdict (with its cube) and `last_backtracks()`, so any change to the
//! decision order, the backtrace, the conflict checks or the abort point
//! shifts it. Three modes cover the three ways the engine calls PODEM:
//!
//! * `free` — unconstrained at the default backtrack limit (baseline ATPG);
//! * `deep` — unconstrained at 8× the limit (the redundancy prescreen);
//! * `pinned` — a seeded PPI constraint with a phase-A observable mask,
//!   shaped like a stitched cycle: cells `k..l` pinned to random bits, every
//!   PO plus the last `k` cells observable.
//!
//! The digests were captured on the solver before its cone-bounded step
//! (DESIGN.md §11.4). Debug builds run the four smallest Table 2 circuits;
//! release builds add s1196, s1423, s5378 and s9234; `TVS_PIN_FULL=1` adds
//! s13207 and s15850.

use tvs_atpg::{Podem, PodemConfig, PodemResult};
use tvs_fault::FaultList;
use tvs_logic::{Cube, Logic, Prng};
use tvs_netlist::Netlist;

/// (circuit, mode, FNV-1a-64 over every fault's `(verdict, backtracks)`).
const PINS: &[(&str, &str, u64)] = &[
    ("s444", "free", 0x0db3b950b29a7415),
    ("s526", "free", 0x620f7987ff11a5f0),
    ("s641", "free", 0x616cb146ba1b5c02),
    ("s953", "free", 0x7d8a54e4d6807fe4),
    ("s1196", "free", 0xfa2d45c2e4618927),
    ("s1423", "free", 0xa73581562fb4db13),
    ("s5378", "free", 0x143d133f9a934949),
    ("s9234", "free", 0x8a9204e577fa9c3e),
    ("s13207", "free", 0x6239d8ab98ff6e2d),
    ("s15850", "free", 0xb5051fd43598c0e8),
    ("s444", "deep", 0x0db3b950b29a7415),
    ("s526", "deep", 0x620f7987ff11a5f0),
    ("s641", "deep", 0x2d0a1078ef6bd430),
    ("s953", "deep", 0x5271a00a1d15707c),
    ("s1196", "deep", 0xa9eb743195c4d41d),
    ("s1423", "deep", 0x37ef96c39463e63c),
    ("s5378", "deep", 0xa37077d498d1c000),
    ("s9234", "deep", 0x6c09f35d638e223d),
    ("s13207", "deep", 0x16d9c22a45ace9e3),
    ("s15850", "deep", 0xb5051fd43598c0e8),
    ("s444", "pinned", 0x915ea47437a9987f),
    ("s526", "pinned", 0x7335395c6cc4088e),
    ("s641", "pinned", 0xfb6821a503185f08),
    ("s953", "pinned", 0xa613036027733585),
    ("s1196", "pinned", 0x72c8dc70248af31c),
    ("s1423", "pinned", 0x5ac1b78315dc4726),
    ("s5378", "pinned", 0x0d09d518569d13aa),
    ("s9234", "pinned", 0x0533d168fffc2631),
    ("s13207", "pinned", 0x7ac727f07fff41fa),
    ("s15850", "pinned", 0xaf6d1cbe8c2ae628),
];

/// Seed of the pinned mode's constraint draws.
const PIN_SEED: u64 = 0x5EED_0015;

fn enabled(name: &str) -> bool {
    if std::env::var_os("TVS_PIN_FULL").is_some() {
        return true;
    }
    match name {
        "s444" | "s526" | "s641" | "s953" => true,
        "s1196" | "s1423" | "s5378" | "s9234" => cfg!(not(debug_assertions)),
        _ => false,
    }
}

/// Table 2 circuits at full size; the large ones capped near 1 200 gates.
fn build(name: &str) -> Netlist {
    let profile = tvs_circuits::profile(name).expect("known profile");
    let scale = (1_200.0 / profile.gates as f64).clamp(1e-3, 1.0);
    profile.build_scaled(scale)
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn digest(netlist: &Netlist, mode: &str) -> u64 {
    let view = netlist.scan_view().expect("levelizable profile");
    let base = PodemConfig::default();
    let config = match mode {
        "deep" => PodemConfig {
            backtrack_limit: base.backtrack_limit * 8,
            ..base
        },
        _ => base,
    };
    let mut podem = Podem::with_config(netlist, &view, config);
    let (p, l) = (view.pi_count(), view.ppi_count());
    let free = Cube::unspecified(view.input_count());
    let mut rng = Prng::seed_from_u64(PIN_SEED);
    let mut hash = Fnv::new();
    for &fault in FaultList::collapsed(netlist).faults() {
        let result = if mode == "pinned" {
            let k = 1 + rng.gen_range(0..l.max(1));
            let mut constraint = Cube::unspecified(p + l);
            for j in k.min(l)..l {
                constraint.set(p + j, Logic::from(rng.next_bool()));
            }
            let mut observable = vec![false; view.output_count()];
            let q = view.po_count();
            observable[..q].fill(true);
            observable[q + l.saturating_sub(k)..].fill(true);
            podem.generate_observable(fault, &constraint, Some(&observable))
        } else {
            podem.generate(fault, &free)
        };
        let verdict = match &result {
            PodemResult::Test(cube) => format!("T{cube}"),
            PodemResult::Untestable => "U".to_owned(),
            PodemResult::Aborted => "A".to_owned(),
        };
        hash.write(format!("{verdict}/{};", podem.last_backtracks()).as_bytes());
    }
    hash.0
}

const CIRCUITS: &[&str] = &[
    "s444", "s526", "s641", "s953", "s1196", "s1423", "s5378", "s9234", "s13207", "s15850",
];

/// Checks every enabled circuit in one mode and reports all mismatches at
/// once, as paste-ready table rows, so a re-capture needs one run.
fn check(mode: &str) {
    let mut mismatches = Vec::new();
    let mut checked = 0;
    for &name in CIRCUITS.iter().filter(|n| enabled(n)) {
        let got = digest(&build(name), mode);
        match PINS.iter().find(|&&(c, m, _)| c == name && m == mode) {
            Some(&(_, _, want)) if want == got => {}
            _ => mismatches.push(format!("    (\"{name}\", \"{mode}\", {got:#018x}),")),
        }
        checked += 1;
    }
    assert!(
        mismatches.is_empty(),
        "{mode} PODEM digests diverged from the pinned solver:\n{}",
        mismatches.join("\n")
    );
    assert!(checked >= 4, "the debug subset must stay covered");
}

#[test]
fn free_search_is_pinned() {
    check("free");
}

#[test]
fn deep_search_is_pinned() {
    check("deep");
}

#[test]
fn pinned_search_is_pinned() {
    check("pinned");
}
