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
//! Exit codes: 0 success, 2 usage, 8 any server/transport error. The whole
//! command line is validated before connecting, so a usage error exits 2
//! whether or not a server is listening. Server
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

/// What a validated command line does once connected.
type Action<'a> = Box<dyn FnOnce(&mut Client) -> Result<(), Failure> + 'a>;

fn run(args: &[String]) -> Result<(), Failure> {
    // The whole command line is validated before connecting, so a usage
    // error exits 2 whether or not a server is listening.
    let (addr, action) = parse(args)?;
    action(&mut Client::connect(addr)?)
}

fn parse(args: &[String]) -> Result<(&str, Action<'_>), Failure> {
    let mut addr = None;
    let mut rest = Vec::new();
    let mut args = args.iter().map(String::as_str);
    while let Some(arg) = args.next() {
        if arg == "--addr" {
            addr = Some(args.next().ok_or_else(|| usage("--addr needs HOST:PORT"))?);
        } else {
            rest.push(arg);
        }
    }
    let addr = addr.ok_or_else(|| usage("--addr HOST:PORT is required"))?;
    let (&verb, rest) = rest.split_first().ok_or_else(|| usage("missing verb"))?;
    let action: Action<'_> = match verb {
        "submit" => {
            let opts = Opts::parse(rest, SUBMIT_FLAGS, "<circuit.bench>")?;
            let mut config = Vec::new();
            for &(flag, value) in &opts.flags {
                let key = flag.trim_start_matches("--").to_owned();
                match (flag, value) {
                    ("--vxor", _) => config.push((key, Value::Bool(true))),
                    ("--strategy", Some(v)) => config.push((key, Value::str(v))),
                    ("--seed" | "--fixed" | "--hxor" | "--budget" | "--threads", Some(v)) => {
                        config.push((key, num(v)?))
                    }
                    _ => {}
                }
            }
            Box::new(move |client| {
                let bench = read_bench(opts.operand)?;
                let name = opts.value("--name").unwrap_or(default_name(opts.operand));
                let (job, admission) = client.submit(name, &bench, Value::Obj(config))?;
                println!("job {job} admission {admission}");
                if opts.has("--wait") {
                    print_status(&client.wait(&job)?);
                }
                if opts.has("--fetch") {
                    emit_artifact(&client.fetch(&job)?, opts.value("--out"))?;
                }
                Ok(())
            })
        }
        "lint" => {
            let opts = Opts::parse(rest, &[("--name", true)], "<circuit.bench>")?;
            Box::new(move |client| {
                let bench = read_bench(opts.operand)?;
                let name = opts.value("--name").unwrap_or(default_name(opts.operand));
                let (admitted, doc) = client.lint(name, &bench)?;
                println!("{}", doc.to_text());
                println!("admitted {admitted}");
                Ok(())
            })
        }
        "status" | "wait" => {
            let job = Opts::parse(rest, &[], "job id")?.operand;
            Box::new(move |client| {
                let doc = if verb == "wait" {
                    client.wait(job)?
                } else {
                    client.status(job)?
                };
                print_status(&doc);
                Ok(())
            })
        }
        "fetch" => {
            let opts = Opts::parse(rest, &[("--out", true)], "job id")?;
            Box::new(move |client| emit_artifact(&client.fetch(opts.operand)?, opts.value("--out")))
        }
        "stats" | "shutdown" => {
            if let Some(extra) = rest.first() {
                return Err(usage(format!("unexpected argument {extra:?}")));
            }
            Box::new(move |client| {
                if verb == "stats" {
                    println!("{}", client.stats()?.to_text());
                } else {
                    client.shutdown()?;
                    println!("server draining");
                }
                Ok(())
            })
        }
        other => return Err(usage(format!("unknown verb {other:?}"))),
    };
    Ok((addr, action))
}

/// `submit`'s options: each name and whether it takes a value.
const SUBMIT_FLAGS: &[(&str, bool)] = &[
    ("--wait", false),
    ("--fetch", false),
    ("--out", true),
    ("--name", true),
    ("--seed", true),
    ("--fixed", true),
    ("--strategy", true),
    ("--vxor", false),
    ("--hxor", true),
    ("--budget", true),
    ("--threads", true),
];

/// A verb's options and its one operand.
struct Opts<'a> {
    flags: Vec<(&'static str, Option<&'a str>)>,
    operand: &'a str,
}

impl<'a> Opts<'a> {
    /// Parses `args` against `table` (each option's name and whether it
    /// takes a value) and exactly one operand, named `what` when missing.
    /// An unknown option, a value option at the end of the line or a
    /// second operand is a usage error.
    fn parse(
        args: &[&'a str],
        table: &[(&'static str, bool)],
        what: &str,
    ) -> Result<Self, Failure> {
        let mut flags = Vec::new();
        let mut operand = None;
        let mut args = args.iter().copied();
        while let Some(arg) = args.next() {
            match table.iter().find(|&&(name, _)| name == arg) {
                Some(&(name, true)) => {
                    let value = args
                        .next()
                        .ok_or_else(|| usage(format!("{arg} needs a value")))?;
                    flags.push((name, Some(value)));
                }
                Some(&(name, false)) => flags.push((name, None)),
                None if arg.starts_with("--") => {
                    return Err(usage(format!("unknown option {arg:?}")))
                }
                None if operand.is_none() => operand = Some(arg),
                None => return Err(usage(format!("unexpected operand {arg:?}"))),
            }
        }
        let operand = operand.ok_or_else(|| usage(format!("missing {what}")))?;
        Ok(Opts { flags, operand })
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|&(n, _)| n == name)
    }

    /// The value of option `name`; the last occurrence wins.
    fn value(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|&&(n, _)| n == name)
            .and_then(|&(_, v)| v)
    }
}

fn read_bench(path: &str) -> Result<String, Failure> {
    fs::read_to_string(path).map_err(|e| Failure::Serve(ServeError::io(path, e)))
}

/// The circuit name a submission defaults to: the file name sans `.bench`.
fn default_name(path: &str) -> &str {
    path.rsplit('/')
        .next()
        .unwrap_or(path)
        .trim_end_matches(".bench")
}

fn num(text: &str) -> Result<Value, Failure> {
    text.parse::<u64>()
        .map(Value::num_u64)
        .map_err(|_| usage(format!("{text:?} is not a number")))
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
