//! Draining with a blocked waiter: a `shutdown` that arrives while another
//! client is blocked in `wait` on a running job still answers that waiter
//! with the finished job, persists the artifact, and returns cleanly.

use std::io::{BufReader, BufWriter};
use std::net::TcpStream;

use tvs_serve::json::{self, Value};
use tvs_serve::proto::{read_frame, stamp_version, write_frame};
use tvs_serve::{ArtifactKey, ArtifactStore, Client, Server, ServerConfig};

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("tvs-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn s444_bench() -> String {
    let netlist = tvs_circuits::profile("s444").expect("s444 profile").build();
    tvs_netlist::bench::to_string(&netlist)
}

fn seed(seed: u64) -> Value {
    Value::Obj(vec![("seed".into(), Value::num_u64(seed))])
}

fn state(status: &Value) -> &str {
    status.get("state").and_then(Value::as_str).unwrap_or("")
}

#[test]
fn shutdown_answers_a_client_blocked_in_wait() {
    let cache = temp_dir("drain-waiter");
    // One engine worker: the two jobs submitted first keep the waited-on
    // job queued until client A's `wait` is in and the poll below runs.
    let server = Server::bind(&ServerConfig {
        listen: "127.0.0.1:0".into(),
        cache_dir: cache.clone(),
        workers: 1,
        queue_capacity: 8,
        checkpoint_every: 0,
        cache_cap_bytes: 0,
        client_quota: 0,
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let server_thread = std::thread::spawn(move || server.run());

    let bench = s444_bench();
    let mut b = Client::connect(&addr).expect("connect b");
    for s in [1, 2] {
        b.submit("s444", &bench, seed(s)).expect("filler submit");
    }
    let (job, admission) = b.submit("s444", &bench, seed(3)).expect("submit");
    assert_eq!(admission, "miss");
    // Client A's `wait` frame is on the wire before anything else happens:
    // written here, answered on A's own thread.
    let stream = TcpStream::connect(&addr).expect("connect a");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let wait = Value::Obj(vec![
        ("op".into(), Value::str("wait")),
        ("job".into(), Value::str(job.clone())),
    ]);
    let mut writer = BufWriter::new(stream);
    write_frame(&mut writer, &stamp_version(&wait).to_text()).expect("send wait");
    let waiter = std::thread::spawn(move || {
        let frame = read_frame(&mut reader).expect("read").expect("response");
        json::parse(&frame).expect("response parses")
    });
    // Shut down as soon as the waited-on job is running.
    loop {
        let status = b.status(&job).expect("status");
        if state(&status) != "queued" {
            assert_eq!(state(&status), "running", "shut down too late");
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    b.shutdown().expect("shutdown");

    let done = waiter.join().expect("waiter thread");
    drop(writer);
    assert_eq!(state(&done), "done", "{}", done.to_text());
    server_thread
        .join()
        .expect("server thread")
        .expect("server run");

    let key = done
        .get("key")
        .and_then(Value::as_str)
        .and_then(ArtifactKey::parse)
        .expect("status carries the key");
    let store = ArtifactStore::open(&cache).expect("open store");
    assert!(
        store.load(key).expect("load").is_some(),
        "the drained job's artifact is in the store"
    );
    let _ = std::fs::remove_dir_all(&cache);
}
