//! `tvs-client` validates its whole command line before it connects: a
//! usage error exits 2 whether or not a server is listening, and only a
//! well-formed command reaches the transport (exit 8 with nobody there).

use std::net::TcpListener;
use std::process::Command;

fn client(addr: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_tvs-client"))
        .arg("--addr")
        .arg(addr)
        .args(args)
        .output()
        .expect("spawn tvs-client");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_2_without_a_server() {
    // A loopback port that was bound and released: nothing listens there.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.local_addr().expect("local addr").to_string()
    };
    for args in [
        &["frobnicate"][..],
        &["status"],
        &["wait"],
        &["fetch"],
        &["status", "j1", "j2"],
        &["wait", "j1", "--out", "f.json"],
        &["fetch", "j1", "--out"],
        &["fetch", "j1", "j2"],
        &["submit"],
        &["submit", "a.bench", "b.bench"],
        &["submit", "--seed", "x", "a.bench"],
        &["submit", "a.bench", "--budget"],
        &["lint", "a.bench", "b.bench"],
        &["stats", "extra"],
        &["shutdown", "--now"],
    ] {
        let (code, stderr) = client(&addr, args);
        assert_eq!(code, Some(2), "{args:?}: stderr {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: stderr {stderr}");
    }
    // The same port refuses a well-formed command at the transport.
    let (code, stderr) = client(&addr, &["stats"]);
    assert_eq!(code, Some(8), "stderr {stderr}");
}
