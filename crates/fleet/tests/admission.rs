//! Coordinator-side lint admission: a deny-level netlist is rejected
//! locally with the typed `rejected` error before any worker sees it, the
//! verdict is cached per artifact key, the `lint` op is answered by the
//! coordinator itself, and the coordinator's `stats` op reports its own
//! `fleet.rejected*` counters.

use tvs_fleet::{Coordinator, CoordinatorConfig};
use tvs_serve::json::Value;
use tvs_serve::{Client, ServeError, Server, ServerConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tvs-fleet-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A netlist whose builder trips on the `b <-> c` combinational cycle.
const CYCLIC: &str = "INPUT(a)\nOUTPUT(y)\nb = AND(a, c)\nc = NOT(b)\ny = AND(a, b)\n";

/// A counter from the coordinator's own report in a `stats` response.
fn counter(stats: &Value, name: &str) -> u64 {
    stats
        .get("stats")
        .and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

#[test]
fn coordinator_rejects_deny_level_netlists_before_routing() {
    let cache = temp_dir("admission-worker");
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
    let addr = coordinator.local_addr().expect("addr").to_string();
    let coordinator_thread = std::thread::spawn(move || coordinator.run().expect("run"));

    // The coordinator speaks the worker protocol, so the stock client works.
    let mut client = Client::connect(&addr).expect("connect");
    // The worker runs in this process and shares the counter ledger, so
    // the coordinator's counters are read as deltas.
    let before = client.stats().expect("coordinator stats");

    // Lint op: answered locally, reports the cycle.
    let (admitted, lint) = client.lint("cyclic", CYCLIC).expect("lint op");
    assert!(!admitted);
    assert!(lint.to_text().contains("IR004"));

    // Submit: typed rejection without touching the worker's job count.
    let err = client
        .submit("cyclic", CYCLIC, Value::Obj(vec![]))
        .expect_err("cyclic submit must fail");
    match &err {
        ServeError::Rejected {
            diagnostics,
            cached,
        } => {
            assert!(!cached);
            assert!(diagnostics.contains("IR004"), "{diagnostics}");
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // Resubmission hits the coordinator's rejection cache.
    let err = client
        .submit("cyclic", CYCLIC, Value::Obj(vec![]))
        .expect_err("cached cyclic submit must fail");
    match &err {
        ServeError::Rejected { cached, .. } => assert!(cached),
        other => panic!("expected cached Rejected, got {other:?}"),
    }

    // The coordinator's own counters saw one fresh rejection and one
    // rejection-cache hit.
    let after = client.stats().expect("coordinator stats");
    for name in ["fleet.rejected", "fleet.rejected_cache_hits"] {
        assert_eq!(
            counter(&after, name) - counter(&before, name),
            1,
            "{name} in {}",
            after.to_text()
        );
    }

    // The worker never issued a job for either attempt.
    let mut worker_client = Client::connect(&worker_addr).expect("worker connect");
    let worker_stats = worker_client.stats().expect("worker stats");
    let issued = worker_stats
        .get("server")
        .and_then(|s| s.get("jobs_issued"))
        .and_then(Value::as_u64);
    assert_eq!(issued, Some(0), "rejection must not reach the worker");

    // A clean submission still routes.
    let clean = "INPUT(a)\nOUTPUT(y)\nq = DFF(y)\ny = AND(a, q)\n";
    let (job, _) = client
        .submit("clean", clean, Value::Obj(vec![]))
        .expect("clean submit");
    let status = client.wait(&job).expect("wait");
    assert_eq!(status.get("state").and_then(Value::as_str), Some("done"));

    client.shutdown().expect("shutdown");
    coordinator_thread.join().expect("coordinator join");
    worker_thread.join().expect("worker join");
    let _ = std::fs::remove_dir_all(&cache);
}
