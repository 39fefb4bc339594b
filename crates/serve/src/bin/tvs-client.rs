//! Command-line client for a `tvs serve` daemon.
//!
//! ```text
//! tvs-client --addr HOST:PORT submit [--wait] [--fetch [--out FILE]]
//!            [--name N] [stitch options] <circuit.bench>
//! tvs-client --addr HOST:PORT lint   [--name N] <circuit.bench>
//! tvs-client --addr HOST:PORT status <job>
//! tvs-client --addr HOST:PORT wait   <job>
//! tvs-client --addr HOST:PORT fetch  <job> [--out FILE]
//! tvs-client --addr HOST:PORT stats
//! tvs-client --addr HOST:PORT shutdown
//! ```
//!
//! Stitch options mirror `tvs run`: `--seed N`, `--fixed K`, `--strategy S`,
//! `--vxor`, `--hxor G`, `--budget N`, `--threads N`.
//!
//! Exit codes: 0 success, 2 usage, 8 any server/transport error. Server
//! errors print as `tvs-client: [<wire-code>] <message>` — the bracketed
//! code (`busy`, `unknown-job`, `version`, …) is stable for scripting.

use std::fs;
use std::process::ExitCode;

use tvs_serve::json::Value;
use tvs_serve::{Client, ServeError};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(Failure::Usage(message)) => {
            eprintln!("tvs-client: {message}");
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Err(Failure::Serve(e)) => {
            // The bracketed wire code is stable; scripts branch on it
            // (e.g. `[busy]`, `[unknown-job]`) instead of parsing prose.
            eprintln!("tvs-client: [{}] {e}", e.wire_code());
            ExitCode::from(8)
        }
    }
}

const USAGE: &str = "\
usage:
  tvs-client --addr HOST:PORT submit [--wait] [--fetch [--out FILE]]
             [--name N] [--seed N] [--fixed K] [--strategy S] [--vxor]
             [--hxor G] [--budget N] [--threads N] <circuit.bench>
  tvs-client --addr HOST:PORT lint   [--name N] <circuit.bench>
  tvs-client --addr HOST:PORT status <job>
  tvs-client --addr HOST:PORT wait   <job>
  tvs-client --addr HOST:PORT fetch  <job> [--out FILE]
  tvs-client --addr HOST:PORT stats
  tvs-client --addr HOST:PORT shutdown";

enum Failure {
    Usage(String),
    Serve(ServeError),
}

impl From<ServeError> for Failure {
    fn from(e: ServeError) -> Self {
        Failure::Serve(e)
    }
}

fn usage(message: impl Into<String>) -> Failure {
    Failure::Usage(message.into())
}

fn run(args: &[String]) -> Result<(), Failure> {
    let mut addr: Option<&str> = None;
    let mut rest: Vec<&String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--addr" {
            addr = args.get(i + 1).map(String::as_str);
            i += 2;
        } else {
            rest.push(&args[i]);
            i += 1;
        }
    }
    let addr = addr.ok_or_else(|| usage("--addr HOST:PORT is required"))?;
    let verb = rest.first().ok_or_else(|| usage("missing verb"))?;
    let mut client = Client::connect(addr)?;
    match verb.as_str() {
        "submit" => submit(&mut client, &rest[1..]),
        "lint" => lint(&mut client, &rest[1..]),
        "status" | "wait" => {
            let job = rest.get(1).ok_or_else(|| usage("missing job id"))?;
            let doc = if verb.as_str() == "wait" {
                client.wait(job)?
            } else {
                client.status(job)?
            };
            print_status(&doc);
            Ok(())
        }
        "fetch" => {
            let job = rest.get(1).ok_or_else(|| usage("missing job id"))?;
            let out = flag_value(&rest[2..], "--out");
            let artifact = client.fetch(job)?;
            emit_artifact(&artifact, out)
        }
        "stats" => {
            let doc = client.stats()?;
            println!("{}", doc.to_text());
            Ok(())
        }
        "shutdown" => {
            client.shutdown()?;
            println!("server draining");
            Ok(())
        }
        other => Err(usage(format!("unknown verb {other:?}"))),
    }
}

fn submit(client: &mut Client, args: &[&String]) -> Result<(), Failure> {
    let mut wait = false;
    let mut fetch = false;
    let mut out: Option<&str> = None;
    let mut name: Option<&str> = None;
    let mut config: Vec<(String, Value)> = Vec::new();
    let mut bench_path: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        let mut take = |what: &str| -> Result<&str, Failure> {
            i += 1;
            args.get(i)
                .map(|s| s.as_str())
                .ok_or_else(|| usage(format!("{arg} needs {what}")))
        };
        match arg {
            "--wait" => wait = true,
            "--fetch" => fetch = true,
            "--out" => out = Some(take("a path")?),
            "--name" => name = Some(take("a name")?),
            "--seed" => config.push(("seed".into(), num(take("a seed")?)?)),
            "--fixed" => config.push(("fixed".into(), num(take("a shift size")?)?)),
            "--strategy" => config.push(("strategy".into(), Value::str(take("a strategy")?))),
            "--vxor" => config.push(("vxor".into(), Value::Bool(true))),
            "--hxor" => config.push(("hxor".into(), num(take("a tap count")?)?)),
            "--budget" => config.push(("budget".into(), num(take("a budget")?)?)),
            "--threads" => config.push(("threads".into(), num(take("a thread count")?)?)),
            other if other.starts_with("--") => {
                return Err(usage(format!("unknown option {other:?}")))
            }
            path => bench_path = Some(path),
        }
        i += 1;
    }
    let path = bench_path.ok_or_else(|| usage("missing <circuit.bench>"))?;
    let bench = fs::read_to_string(path).map_err(|e| Failure::Serve(ServeError::io(path, e)))?;
    let default_name = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".bench");
    let (job, admission) =
        client.submit(name.unwrap_or(default_name), &bench, Value::Obj(config))?;
    println!("job {job} admission {admission}");
    if wait {
        let doc = client.wait(&job)?;
        print_status(&doc);
    }
    if fetch {
        let artifact = client.fetch(&job)?;
        emit_artifact(&artifact, out)?;
    }
    Ok(())
}

fn lint(client: &mut Client, args: &[&String]) -> Result<(), Failure> {
    let name = flag_value(args, "--name");
    let path = args
        .iter()
        .map(|s| s.as_str())
        .filter(|a| !a.starts_with("--"))
        .find(|a| Some(*a) != name)
        .ok_or_else(|| usage("missing <circuit.bench>"))?;
    let bench = fs::read_to_string(path).map_err(|e| Failure::Serve(ServeError::io(path, e)))?;
    let default_name = path
        .rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".bench");
    let (admitted, doc) = client.lint(name.unwrap_or(default_name), &bench)?;
    println!("{}", doc.to_text());
    println!("admitted {admitted}");
    Ok(())
}

fn num(text: &str) -> Result<Value, Failure> {
    text.parse::<u64>()
        .map(Value::num_u64)
        .map_err(|_| usage(format!("{text:?} is not a number")))
}

fn flag_value<'a>(args: &'a [&String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a.as_str() == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn print_status(doc: &Value) {
    let get = |k: &str| doc.get(k).map(Value::to_text).unwrap_or_default();
    println!(
        "state {} key {} cycle {} caught {} hidden {} uncaught {}",
        get("state"),
        get("key"),
        get("cycle"),
        get("caught"),
        get("hidden"),
        get("uncaught"),
    );
}

fn emit_artifact(artifact: &Value, out: Option<&str>) -> Result<(), Failure> {
    let text = artifact.to_text();
    match out {
        Some(path) => {
            fs::write(path, &text).map_err(|e| Failure::Serve(ServeError::io(path, e)))?;
            let key = artifact.get("key").and_then(Value::as_str).unwrap_or("?");
            println!("artifact {key} written to {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}
