//! Byte-identity pins of the `tvs` command line, and its usage contract.
//!
//! `tvs run … --program <out.tvp>` replaced the separate `tvs stitch` and
//! `tvs program` subcommands. The digests below were captured from the
//! binary *before* that fold: `tvs program <bench> <out.tvp>` (the `.tvp`
//! bytes and its one-line stdout) and `tvs run <bench>` (stdout) for s444
//! and s1423, each built from its profile exactly as `tvs gen` writes it.
//! Each digest is FNV-1a-64; the output path in the `wrote …` line is
//! replaced by `<out>` before hashing.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use tvs::netlist::bench;
use tvs::stitch::fnv1a;

/// (profile, `.tvp` digest, `wrote …` line digest, `tvs run` stdout digest).
const PINS: &[(&str, u64, u64, u64)] = &[
    (
        "s444",
        0x3695527f48791a3b,
        0xd7e5489a97e3b1a2,
        0x0ca80487f02b2a18,
    ),
    (
        "s1423",
        0x075ef6d4107b3a85,
        0x679992779091063a,
        0xeb5c31c49bf1ea17,
    ),
];

/// A per-test scratch directory holding `<profile>.bench`, and that path.
fn scratch(test: &str, profile: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("tvs-cli-pin-{test}-{}", std::process::id()));
    fs::create_dir_all(&dir).expect("temp dir");
    let netlist = tvs::circuits::profile(profile)
        .expect("known profile")
        .build();
    let circuit = dir.join(format!("{profile}.bench"));
    fs::write(&circuit, bench::to_string(&netlist)).expect("write circuit");
    let circuit = circuit.to_str().expect("utf-8 path").to_owned();
    (dir, circuit)
}

/// `<dir>/<profile>.tvp` as a string operand.
fn program_path(dir: &Path, profile: &str) -> String {
    let out = dir.join(format!("{profile}.tvp"));
    out.to_str().expect("utf-8 path").to_owned()
}

fn tvs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_tvs"))
        .args(args)
        .output()
        .expect("spawn tvs")
}

#[test]
fn run_with_program_reproduces_the_pre_fold_outputs() {
    for &(profile, tvp_pin, wrote_pin, run_pin) in PINS {
        let (dir, circuit) = scratch("program", profile);
        let out = program_path(&dir, profile);
        let run = tvs(&["run", &circuit, "--program", &out]);
        assert!(
            run.status.success(),
            "{profile}: tvs run failed: {}",
            String::from_utf8_lossy(&run.stderr)
        );
        let stdout = String::from_utf8(run.stdout).expect("utf-8 stdout");
        let at = stdout.rfind("wrote ").expect("a wrote line");
        let (report, wrote) = stdout.split_at(at);
        let wrote = wrote.replace(&out, "<out>");
        let program = fs::read(&out).expect("program written");

        let got = (
            fnv1a(&program),
            fnv1a(wrote.as_bytes()),
            fnv1a(report.as_bytes()),
        );
        assert_eq!(
            got,
            (tvp_pin, wrote_pin, run_pin),
            "{profile}: (.tvp, wrote line, run stdout) digests drifted; stdout:\n{stdout}"
        );
        fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn retired_commands_flags_and_stray_operands_exit_2() {
    let (dir, circuit) = scratch("usage", "s444");
    let out = program_path(&dir, "s444");
    // The retired alias of `--strategy`.
    let select = ["--", "select"].concat();
    for args in [
        vec!["stitch", &circuit],
        vec!["program", &circuit, &out],
        vec!["run", &circuit, &select, "most"],
        vec!["run", &circuit, "42"],
        vec!["run", &circuit, "--seed"],
        vec!["run", &circuit, "--seed", "x"],
        vec!["verify", &circuit, &out, "extra"],
    ] {
        let got = tvs(&args);
        assert_eq!(
            got.status.code(),
            Some(2),
            "{args:?}: stderr {}",
            String::from_utf8_lossy(&got.stderr)
        );
        assert!(String::from_utf8_lossy(&got.stderr).starts_with("error: usage: "));
    }
    assert!(
        !Path::new(&out).exists(),
        "no usage error may write a program"
    );
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn verify_exits_12_when_the_virtual_ate_fails_the_program() {
    let (dir, circuit) = scratch("verify", "s444");
    let out = program_path(&dir, "s444");
    let run = tvs(&["run", &circuit, "--program", &out]);
    assert!(run.status.success(), "tvs run --program failed");

    let pass = tvs(&["verify", &circuit, &out]);
    assert!(pass.status.success(), "fault-free program must pass");
    assert_eq!(String::from_utf8_lossy(&pass.stdout), "Pass\n");

    // Flip the first expected bit of the closing flush.
    let text = fs::read_to_string(&out).expect("read program");
    let at = text.find("\nflush ").expect("flush line") + "\nflush ".len();
    let flipped = if &text[at..=at] == "0" { "1" } else { "0" };
    let tampered = format!("{}{flipped}{}", &text[..at], &text[at + 1..]);
    fs::write(&out, tampered).expect("write tampered program");

    let fail = tvs(&["verify", &circuit, &out]);
    assert_eq!(
        fail.status.code(),
        Some(12),
        "stderr: {}",
        String::from_utf8_lossy(&fail.stderr)
    );
    assert!(String::from_utf8_lossy(&fail.stderr).contains("closing flush bit 0"));
    fs::remove_dir_all(&dir).ok();
}
