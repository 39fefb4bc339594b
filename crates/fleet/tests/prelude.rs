//! The request prelude is shared: a worker and a coordinator answer the
//! same malformed or mis-versioned frames with byte-identical responses.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

use tvs_fleet::{Coordinator, CoordinatorConfig};
use tvs_serve::proto::{read_frame, write_frame, PROTO_VERSION};
use tvs_serve::{Client, Server, ServerConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tvs-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sends one raw payload (no client-side version stamping) on a fresh
/// connection and returns the response frame as received.
fn raw_exchange(addr: &str, payload: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, payload).expect("write");
    read_frame(&mut reader).expect("read").expect("response")
}

#[test]
fn worker_and_coordinator_answer_bad_preludes_byte_identically() {
    let cache = temp_dir("prelude-worker");
    let server = Server::bind(&ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: cache.clone(),
        workers: 1,
        queue_capacity: 4,
        checkpoint_every: 0,
        cache_cap_bytes: 0,
        client_quota: 0,
    })
    .expect("bind worker");
    let worker_addr = server.local_addr().expect("worker addr").to_string();
    let worker_thread = std::thread::spawn(move || server.run().expect("worker run"));

    let coordinator = Coordinator::bind(&CoordinatorConfig {
        listen: "127.0.0.1:0".into(),
        workers: vec![worker_addr.clone()],
        health_interval: std::time::Duration::from_secs(120),
        ..CoordinatorConfig::default()
    })
    .expect("bind coordinator");
    let coordinator_addr = coordinator.local_addr().expect("addr").to_string();
    let coordinator_thread = std::thread::spawn(move || coordinator.run().expect("run"));

    let wrong_version = format!("{{\"op\":\"stats\",\"v\":{}}}", PROTO_VERSION + 41);
    let no_op = format!("{{\"v\":{PROTO_VERSION}}}");
    let unknown_op = format!("{{\"op\":\"frobnicate\",\"v\":{PROTO_VERSION}}}");
    let frames = [
        ("no v", r#"{"op":"stats"}"#, "version"),
        ("wrong v", wrong_version.as_str(), "version"),
        ("no op", no_op.as_str(), "protocol"),
        ("unknown op", unknown_op.as_str(), "protocol"),
        ("not json", "this is not json", "protocol"),
    ];
    for (what, payload, code) in frames {
        let from_worker = raw_exchange(&worker_addr, payload);
        let from_coordinator = raw_exchange(&coordinator_addr, payload);
        assert_eq!(from_worker, from_coordinator, "{what}: responses differ");
        assert!(
            from_worker.starts_with(&format!("{{\"ok\":false,\"error\":\"{code}\"")),
            "{what}: {from_worker}"
        );
    }

    // Coordinator shutdown drains the worker too.
    Client::connect(&coordinator_addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    coordinator_thread.join().expect("coordinator join");
    worker_thread.join().expect("worker join");
    let _ = std::fs::remove_dir_all(&cache);
}
