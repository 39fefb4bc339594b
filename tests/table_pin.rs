//! Byte-identity pins of the paper's Tables 1–5.
//!
//! Each digest is FNV-1a-64 of a table's stdout: Table 1 as printed, and
//! Tables 2–5 at `--scale 0.02 --threads 1`. The digests were captured
//! from the standalone `table1` … `table5` binaries before the tables moved
//! behind `tvs bench table <n>`; every render must still match them, at 1
//! and at 8 threads (profiles fan out one per worker but rows reduce in
//! profile order, DESIGN.md §6.4).
//!
//! Tiers: debug builds check Tables 1–3, release builds add Table 4, and
//! `TVS_PIN_FULL=1` in a release build adds Table 5 (minutes even at this
//! scale, so it renders once, at 8 threads).

use std::process::Command;

use tvs::bench::runner::Scaling;
use tvs::bench::tables;
use tvs::stitch::fnv1a;

/// The digests of Tables 1–5, in order.
const PINS: [u64; 5] = [
    0x842ce24442de124a,
    0x4ec5968829fca4a9,
    0x98b2f89258094162,
    0x97efe95c10c332b6,
    0xa191ea6af089e116,
];

fn assert_pinned(n: u8, threads: &[usize]) {
    let scaling = Scaling {
        factor: 0.02,
        full: false,
    };
    for &t in threads {
        let text = tables::render(n, &scaling, t)
            .expect("a table of the paper")
            .expect("table renders");
        let digest = fnv1a(text.as_bytes());
        assert_eq!(digest, PINS[usize::from(n) - 1], "table {n} at {t} threads");
    }
}

const RELEASE: bool = !cfg!(debug_assertions);

#[test]
fn tables_1_and_2_are_pinned() {
    assert_pinned(1, &[1]);
    assert_pinned(2, &[1, 8]);
}

#[test]
fn table3_is_pinned() {
    assert_pinned(3, &[1, 8]);
}

#[test]
fn table4_is_pinned_in_release() {
    if RELEASE {
        assert_pinned(4, &[1, 8]);
    }
}

#[test]
fn table5_is_pinned_under_tvs_pin_full() {
    if RELEASE && std::env::var_os("TVS_PIN_FULL").is_some_and(|v| v == "1") {
        assert_pinned(5, &[8]);
    }
}

#[test]
fn tvs_bench_table_1_prints_the_pinned_bytes() {
    let out = Command::new(env!("CARGO_BIN_EXE_tvs"))
        .args(["bench", "table", "1"])
        .output()
        .expect("spawn tvs");
    assert!(out.status.success(), "tvs bench table 1 failed");
    assert_eq!(fnv1a(&out.stdout), PINS[0]);
}
