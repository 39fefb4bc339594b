//! `tvs` — command-line front end for the test vector stitching toolkit.
//!
//! ```text
//! tvs stats   <circuit.bench>                circuit statistics
//! tvs faults  <circuit.bench>                collapsed fault list summary
//! tvs atpg    <circuit.bench>                conventional full-shift ATPG
//! tvs run     <circuit.bench> [options]      stitched test generation with
//!                                            budgets, checkpoint/resume and
//!                                            tester-program export
//! tvs verify  <circuit.bench> <prog.tvp>     execute a program on the virtual ATE
//! tvs gen     <name|profile> <out.bench>     synthesize a calibrated benchmark
//! tvs lint    [options] [circuit.bench ...]  static analysis (IR + determinism)
//! tvs serve   --listen ADDR [options]        batching compression daemon with a
//!                                            content-addressed artifact cache
//! tvs fleet   --listen ADDR --workers a,b,…  sharded coordinator over several
//!                                            serve daemons with health checks
//! tvs fuzz    --target <t> [options]         deterministic structured fuzzing
//!                                            of the toolkit's input surfaces
//! tvs bench   strategies|delta [options]     byte-stable benchmark sweeps
//! ```
//!
//! Run options: `--vxor`, `--hxor <g>`, `--fixed <k>`, `--strategy <s>`,
//! `--seed <n>`, `--budget <n>`, `--threads <n>` (also the `TVS_THREADS`
//! environment variable), `--stats`, `--program <out.tvp>`, plus the
//! checkpoint and delta options listed by `tvs help`.
//!
//! Each subcommand declares its flags in one table ([`Flags`]) that a single
//! parser ([`Cli`]) reads; an unknown flag or a stray operand is a usage
//! error. Every failure maps to a [`TvsError`] and its structured exit code
//! (2 usage, 3 malformed input, 4 engine, 5 snapshot, 6 I/O, 7 lint,
//! 8 serve, 9 fleet, 10 fuzz, 11 bench gate, 12 program failed on the
//! virtual ATE); exit code 1 stays reserved for panics.

use std::fs;
use std::process::ExitCode;
use std::str::FromStr;

use tvs::ate::{Dut, TestOutcome, TestProgram, VirtualAte};
use tvs::atpg::{generate_tests, AtpgConfig};
use tvs::fault::FaultList;
use tvs::netlist::{bench, Netlist};
use tvs::scan::{CaptureTransform, ObserveTransform};
use tvs::stitch::{
    RunOptions, ShiftPolicy, Snapshot, StitchConfig, StitchEngine, StrategyId, Termination,
};
use tvs::TvsError;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(e.exit_code())
        }
    }
}

fn run() -> Result<(), TvsError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str).unwrap_or("help");
    match cmd {
        "stats" => stats(&args[1..]),
        "faults" => faults(&args[1..]),
        "atpg" => atpg(&args[1..]),
        "run" => run_cmd(&args[1..]),
        "verify" => verify(&args[1..]),
        "gen" => gen(&args[1..]),
        "lint" => lint(&args[1..]),
        "serve" => serve(&args[1..]),
        "fleet" => fleet(&args[1..]),
        "fuzz" => fuzz(&args[1..]),
        "bench" => bench_cmd(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(TvsError::usage(format!(
            "unknown command {other:?} (see tvs help)"
        ))),
    }
}

const USAGE: &str = "\
tvs — test vector stitching toolkit (DATE 2003 reproduction)

  tvs stats   <circuit.bench>              circuit statistics
  tvs faults  <circuit.bench>              collapsed fault list summary
  tvs atpg    <circuit.bench>              conventional full-shift ATPG
  tvs run     <circuit.bench> [options]    stitched generation with budgets,
                                           checkpoint/resume and tester-
                                           program export
  tvs verify  <circuit.bench> <prog.tvp>   run a program on the virtual ATE
  tvs gen     <profile> <out.bench>        synthesize a calibrated benchmark
  tvs lint    [options] [circuit.bench …]  static analysis (IR + determinism)
  tvs serve   --listen ADDR [options]      batching compression daemon
  tvs fleet   --listen ADDR --workers a,b  sharded coordinator over several
                                           serve daemons
  tvs fuzz    --target <t> [options]       deterministic structured fuzzing of
                                           the toolkit's input surfaces
  tvs bench strategies [options]           strategies × profiles sweep with
                                           per-profile compression/coverage
                                           Pareto fronts
  tvs bench delta [options]                delta-reuse ratio × edit size table
                                           over the built-in profiles

lint options:
  --profiles           analyze every built-in circuit profile
  --workspace          run the source determinism lint over the source tree
  --root <dir>         workspace root for --workspace (default: .)
  --testability        add the SCOAP testability dataflow (TB001-TB003)
  --deny-unobservable  escalate TB003 (unobservable net) to deny level
  --scores <file>      write per-net SCOAP scores as JSON (implies --testability)
  --program <p.tvp>    abstract-interpret a tester program (SP006/SP007)
                       against one circuit (.bench path or profile name)
  --format <f>         text | json   (default: text)
  (no arguments at all: --profiles --workspace)

run options:
  --vxor            vertical-XOR capture (paper Fig. 3)
  --hxor <g>        horizontal-XOR observation with g taps (paper Fig. 4)
  --fixed <k>       fixed shift size instead of the variable policy
  --strategy <s>    random | hardness | most | weighted | adi |
                    scheme-search | buckets   (default: most)
  --seed <n>        RNG seed
  --budget <n>      work budget in deterministic work units (backtracks,
                    simulation slots, cycles — never wall clock); on
                    exhaustion the run stops at a stage boundary with a
                    valid partial program and the residual fault list
  --threads <n>     worker threads (default: TVS_THREADS env, then all cores;
                    results are bit-identical at any thread count)
  --stats           print instrumentation counters and span timers after the run
  --program <f>     write the stitched tester program (.tvp) to f
  --checkpoint-every <n>   write a checkpoint snapshot every n cycles
  --checkpoint <file>      snapshot path (default: <circuit.bench>.tvsnap)
  --resume <file>          resume from a snapshot; the continued run is
                           bit-identical to one that never stopped
  --stats-json <file>      write the instrumentation report as JSON (the
                           same serializer behind the daemon's stats op)
  --cache-dir <dir>        artifact cache for cone manifests (default:
                           tvs-cache); the run stores its own manifest there
  --delta-from <key>       reuse prescreen verdicts from the cached cone
                           manifest with this 16-hex artifact key; any
                           mismatch falls back to a cold run with a notice,
                           and the result is byte-identical either way

serve options:
  --listen <addr>          TCP address to bind, e.g. 127.0.0.1:7077 (:0 picks
                           a free port; the bound address is printed)
  --cache-dir <dir>        artifact cache directory (default: tvs-cache)
  --workers <n>            engine worker threads (default: 2)
  --queue <n>              max open jobs before submits get busy (default: 64)
  --checkpoint-every <n>   snapshot running jobs every n cycles (default: 8)
  --cache-cap-bytes <n>    evict oldest cached artifacts once the cache
                           exceeds n bytes (default: 0 = unbounded)
  --client-quota <n>       max open jobs per client id (default: 0 = none;
                           anonymous submissions are exempt)

fleet options:
  --listen <addr>            TCP address to bind (:0 picks a free port; the
                             bound address is printed)
  --workers <a,b,…>          comma-separated worker daemon addresses (required)
  --vnodes <n>               virtual nodes per worker on the hash ring
                             (default: 64)
  --health-interval-ms <n>   pause between health-probe sweeps (default: 500)
  --probe-timeout-ms <n>     connect/read timeout for probes and quick
                             forwarded ops (default: 1000)
  --fail-threshold <n>       consecutive probe failures that mark a worker
                             dead (default: 2)
  --cache-cap-bytes <n>      broadcast this artifact-cache byte cap to every
                             worker at startup (default: 0 = leave workers'
                             own caps in place)

fuzz options:
  --target <t>      bench | frame | snapshot | e2e | delta | all   (required)
  --rounds <n>      schedule-driven rounds per target (default: 256)
  --base-seed <n>   base of the deterministic seed schedule (default: 5707716)
  --seed-hex <hex>  replay one seed given as hex bytes (overrides --rounds)
  --seed-file <f>   replay one corpus seed file (hex with # comments)

bench strategies options:
  --out <f>         report path (default: BENCH_strategies.json); the file is
                    byte-identical across reruns with the same options
  --profiles <a,b>  comma-separated profile names (default: all 13)
  --budget <n>      deterministic work budget per run (default: 20000)
  --scale <f>       gate-count scaling factor (default: 0.08)
  --threads <n>     worker threads per run (default: 1; results identical)
  --gate            fail (exit 11) if any strategy's coverage falls below
                    the most-faults baseline column on any profile

bench delta options:
  --out <f>         report path (default: BENCH_delta.json); byte-identical
                    across reruns with the same options
  --profiles <a,b>  comma-separated profile names (default: all 13)
  --edits <a,b>     comma-separated edit sizes in flipped gates
                    (default: 1,2,4,8)
  --scale <f>       gate-count scaling factor (default: 1.0)
  --floor <f>       one-gate reuse-ratio floor for --gate (default: 0.5)
  --gate            fail (exit 11) if any profile's one-gate edit reuses no
                    faults or falls below the floor

exit codes: 0 ok · 2 usage · 3 bad input · 4 engine · 5 snapshot · 6 io ·
7 lint · 8 serve · 9 fleet · 10 fuzz · 11 bench gate · 12 program failed
on the virtual ATE (1 stays reserved for panics)
";

/// A subcommand's flag table: each flag's name and, for a flag that takes
/// a value, what that value is (named in "missing …" and "malformed …"
/// usage errors). `None` marks a switch.
type Flags = &'static [(&'static str, Option<&'static str>)];

/// One command line parsed against its subcommand's [`Flags`] table.
struct Cli<'a> {
    table: Flags,
    operands: Vec<&'a str>,
    flags: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Cli<'a> {
    /// Splits `args` into the table's flags and at most `max_operands`
    /// operands. A value flag takes the next argument verbatim; an unknown
    /// `--` flag or an operand past `max_operands` is a usage error.
    fn parse(args: &'a [String], table: Flags, max_operands: usize) -> Result<Self, TvsError> {
        let mut cli = Cli {
            table,
            operands: Vec::new(),
            flags: Vec::new(),
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(arg) = args.next() {
            match table.iter().find(|(name, _)| *name == arg) {
                Some(&(name, None)) => cli.flags.push((name, None)),
                Some(&(name, Some(what))) => {
                    let value = args
                        .next()
                        .ok_or_else(|| TvsError::usage(format!("missing {what}")))?;
                    cli.flags.push((name, Some(value)));
                }
                None if arg.starts_with("--") => {
                    return Err(TvsError::usage(format!("unknown option {arg:?}")))
                }
                None if cli.operands.len() < max_operands => cli.operands.push(arg),
                None => return Err(TvsError::usage(format!("unexpected operand {arg:?}"))),
            }
        }
        Ok(cli)
    }

    /// The `i`-th operand, described as `what` when it is missing.
    fn operand(&self, i: usize, what: &str) -> Result<&'a str, TvsError> {
        self.operands
            .get(i)
            .copied()
            .ok_or_else(|| TvsError::usage(format!("missing {what}")))
    }

    /// Whether the flag `name` was given.
    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|&(n, _)| n == name)
    }

    /// The value of the flag `name`; the last occurrence wins.
    fn text(&self, name: &str) -> Option<&'a str> {
        self.flags
            .iter()
            .rev()
            .find(|&&(n, _)| n == name)
            .and_then(|&(_, value)| value)
    }

    /// The value of the flag `name` parsed as `T`.
    fn value<T: FromStr>(&self, name: &str) -> Result<Option<T>, TvsError> {
        let what = self
            .table
            .iter()
            .find(|&&(n, _)| n == name)
            .and_then(|&(_, what)| what)
            .unwrap_or(name);
        self.text(name)
            .map(|text| parse_value(text, what))
            .transpose()
    }
}

fn load(path: &str) -> Result<Netlist, TvsError> {
    let text = fs::read_to_string(path).map_err(|e| TvsError::io(path, e))?;
    let name = std::path::Path::new(path)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("circuit");
    Ok(bench::parse(name, &text)?)
}

/// Parses an option value, mapping malformed text to a usage error naming
/// what the value is.
fn parse_value<T: FromStr>(text: &str, what: &str) -> Result<T, TvsError> {
    text.parse()
        .map_err(|_| TvsError::usage(format!("malformed {what} {text:?}")))
}

/// Splits a comma-separated list option.
fn list(text: &str) -> Vec<String> {
    text.split(',').map(str::to_owned).collect()
}

/// The circuit a single-operand subcommand works on.
fn circuit(args: &[String]) -> Result<Netlist, TvsError> {
    load(Cli::parse(args, &[], 1)?.operand(0, "circuit path")?)
}

fn stats(args: &[String]) -> Result<(), TvsError> {
    let netlist = circuit(args)?;
    println!("{netlist}");
    println!("{}", netlist.stats());
    let view = netlist.scan_view()?;
    println!(
        "full-scan view: {} inputs -> {} outputs, depth {}",
        view.input_count(),
        view.output_count(),
        view.depth()
    );
    Ok(())
}

fn faults(args: &[String]) -> Result<(), TvsError> {
    let netlist = circuit(args)?;
    let full = FaultList::full(&netlist);
    let collapsed = FaultList::collapsed(&netlist);
    println!(
        "{}: {} faults in the universe, {} after equivalence collapsing ({:.1}%)",
        netlist.name(),
        full.len(),
        collapsed.len(),
        100.0 * collapsed.len() as f64 / full.len().max(1) as f64
    );
    Ok(())
}

fn atpg(args: &[String]) -> Result<(), TvsError> {
    let netlist = circuit(args)?;
    let set = generate_tests(&netlist, &AtpgConfig::default())?;
    println!(
        "{}: {} vectors, coverage {:.4}, {} redundant, {} aborted",
        netlist.name(),
        set.len(),
        set.fault_coverage,
        set.redundant.len(),
        set.aborted.len()
    );
    Ok(())
}

/// The engine configuration a `tvs run` command line selects.
fn run_config(cli: &Cli<'_>) -> Result<StitchConfig, TvsError> {
    let mut config = StitchConfig {
        threads: match cli.value::<usize>("--threads")? {
            Some(threads) => threads.max(1),
            None => tvs::exec::default_threads(),
        },
        budget: cli.value("--budget")?,
        ..StitchConfig::default()
    };
    if cli.has("--vxor") {
        config.capture = CaptureTransform::VerticalXor;
    }
    if let Some(taps) = cli.value("--hxor")? {
        config.observe = ObserveTransform::HorizontalXor(taps);
    }
    if let Some(k) = cli.value("--fixed")? {
        config.policy = ShiftPolicy::Fixed(k);
    }
    if let Some(name) = cli.text("--strategy") {
        config.strategy = StrategyId::parse(name).ok_or_else(|| {
            TvsError::usage(format!(
                "unknown strategy {name:?} (expected one of {})",
                tvs::stitch::ALL_STRATEGIES.map(|s| s.name()).join(", ")
            ))
        })?;
    }
    if let Some(seed) = cli.value("--seed")? {
        config.seed = seed;
    }
    Ok(config)
}

fn run_cmd(args: &[String]) -> Result<(), TvsError> {
    const FLAGS: Flags = &[
        ("--vxor", None),
        ("--hxor", Some("tap count")),
        ("--fixed", Some("shift size")),
        ("--strategy", Some("strategy")),
        ("--seed", Some("seed")),
        ("--budget", Some("work budget")),
        ("--threads", Some("thread count")),
        ("--stats", None),
        ("--program", Some("program path")),
        ("--checkpoint-every", Some("checkpoint interval")),
        ("--checkpoint", Some("checkpoint path")),
        ("--resume", Some("resume path")),
        ("--stats-json", Some("stats json path")),
        ("--delta-from", Some("ancestor artifact key")),
        ("--cache-dir", Some("cache directory")),
    ];
    let cli = Cli::parse(args, FLAGS, 1)?;
    let circuit_path = cli.operand(0, "circuit path")?;
    let netlist = load(circuit_path)?;
    let config = run_config(&cli)?;
    let checkpoint_every = cli.value("--checkpoint-every")?.unwrap_or(0);
    let delta_from = cli.text("--delta-from");
    let cache_dir = cli.text("--cache-dir");

    let resume = match cli.text("--resume") {
        Some(path) => {
            let text = fs::read_to_string(path).map_err(|e| TvsError::io(path, e))?;
            Some(Snapshot::parse(&text)?)
        }
        None => None,
    };
    let checkpoint_path = cli
        .text("--checkpoint")
        .map_or_else(|| format!("{circuit_path}.tvsnap"), str::to_owned);

    // Delta reuse is strictly best-effort: a missing store, absent or
    // corrupt manifest, or interface/config mismatch prints a notice and
    // the run proceeds cold. The result is byte-identical either way; only
    // the work done differs.
    let store = if delta_from.is_some() || cache_dir.is_some() {
        let dir = cache_dir.unwrap_or("tvs-cache");
        match tvs::core::ArtifactStore::open(dir) {
            Ok(store) => Some((store, dir)),
            Err(e) => {
                println!("delta: cache {dir} unavailable ({e}); running cold");
                None
            }
        }
    } else {
        None
    };
    let mut delta_applied: Option<(tvs::core::ArtifactKey, usize, usize)> = None;
    let prescreen_plan = match (&store, delta_from) {
        (Some((store, dir)), Some(text)) => {
            let ancestor = tvs::core::ArtifactKey::parse(text).ok_or_else(|| {
                TvsError::usage(format!(
                    "malformed artifact key {text:?} (expected 16 hex digits)"
                ))
            })?;
            match load_delta_plan(store, ancestor, &netlist, &config) {
                Ok(plan) => {
                    tvs::exec::counter("delta.plans").incr();
                    tvs::exec::counter("delta.cones_dirty").add(plan.cones_dirty as u64);
                    delta_applied = Some((ancestor, plan.faults_total, plan.cones_dirty));
                    Some(plan.plan)
                }
                Err(reason) => {
                    println!("delta: {reason} (ancestor {ancestor} in {dir}); running cold");
                    None
                }
            }
        }
        _ => None,
    };

    let engine = StitchEngine::new(&netlist)?;
    // Snapshots are written atomically (tmp + rename) so an interrupt mid-
    // write can never leave a truncated checkpoint behind; the checksum
    // line guards against everything else.
    let mut write_error: Option<TvsError> = None;
    let mut written = 0usize;
    let mut on_checkpoint = |snap: Snapshot| {
        if write_error.is_some() {
            return;
        }
        let tmp = format!("{checkpoint_path}.tmp");
        let result =
            fs::write(&tmp, snap.to_text()).and_then(|()| fs::rename(&tmp, &checkpoint_path));
        match result {
            Ok(()) => written += 1,
            Err(e) => write_error = Some(TvsError::io(&*checkpoint_path, e)),
        }
    };
    let mut trace: Option<tvs::stitch::PrescreenTrace> = None;
    let mut on_prescreen = |t: tvs::stitch::PrescreenTrace| trace = Some(t);
    let want_trace = store.is_some();
    let report = engine.run_with(
        &config,
        RunOptions {
            resume,
            checkpoint_every,
            on_checkpoint: if checkpoint_every > 0 {
                Some(&mut on_checkpoint)
            } else {
                None
            },
            on_progress: None,
            prescreen_plan,
            on_prescreen: if want_trace {
                Some(&mut on_prescreen)
            } else {
                None
            },
        },
    )?;
    if let Some(e) = write_error {
        return Err(e);
    }

    if let Some(trace) = &trace {
        tvs::exec::counter("delta.faults_reused").add(trace.reused as u64);
        if let Some((ancestor, total, dirty)) = &delta_applied {
            println!(
                "delta: reused {}/{total} prescreen verdicts from {ancestor} ({dirty} cones dirty)",
                trace.reused
            );
        }
    }
    // Persist this run's own cone manifest so future edits can diff against
    // it. Resumed runs skip the prescreen (no trace) and store nothing.
    if let (Some((store, dir)), Some(trace)) = (&store, &trace) {
        let canonical = bench::to_string(&netlist);
        let key = tvs::core::SubmissionIdentity::of(&netlist, &canonical, &config).key;
        match tvs::delta::ConeManifest::build(&netlist, config.fingerprint(), &trace.records) {
            Ok(manifest) => match store.store_manifest(key, &manifest.to_text()) {
                Ok(()) => println!("delta: manifest for key {key} stored in {dir}"),
                Err(e) => println!("delta: manifest write failed ({e})"),
            },
            Err(e) => println!("delta: manifest build skipped ({e})"),
        }
    }

    println!("{}: {}", netlist.name(), report.metrics);
    let tail = report
        .shifts
        .get(1..report.shifts.len().min(9))
        .unwrap_or(&[]);
    println!(
        "shift schedule: initial {} then {:?}… closing flush {}",
        report.shifts.first().copied().unwrap_or(0),
        tail,
        report.final_flush
    );
    let (entered, converted, erased) = report.hidden_transitions;
    println!("hidden faults: {entered} entered, {converted} caught, {erased} erased");
    match &report.termination {
        Termination::Complete => println!("termination: complete"),
        Termination::BudgetExhausted { residual } => println!(
            "termination: budget exhausted ({} residual faults; partial program is valid)",
            residual.len()
        ),
        Termination::WorkerPanic { message, residual } => println!(
            "termination: worker panic ({message}; {} residual faults; partial program is valid)",
            residual.len()
        ),
    }
    if written > 0 {
        println!("checkpoints: {written} written to {checkpoint_path}");
    }
    if let Some(out) = cli.text("--program") {
        let program = TestProgram::from_report(&netlist, &report, &config);
        fs::write(out, program.to_text()).map_err(|e| TvsError::io(out, e))?;
        println!(
            "wrote {} ({} cycles, {} shift clocks; {})",
            out,
            program.cycles.len(),
            program.shift_cycles(),
            report.metrics
        );
    }
    if cli.has("--stats") {
        print!("{}", tvs::exec::report());
    }
    if let Some(path) = cli.text("--stats-json") {
        fs::write(path, tvs::exec::report().to_json()).map_err(|e| TvsError::io(path, e))?;
        println!("stats written to {path}");
    }
    Ok(())
}

/// Loads the ancestor manifest behind `--delta-from` and derives a prescreen
/// replay plan for this run's netlist. Every failure mode comes back as a
/// reason string for the cold-run notice — none of them is fatal.
fn load_delta_plan(
    store: &tvs::core::ArtifactStore,
    ancestor: tvs::core::ArtifactKey,
    netlist: &Netlist,
    config: &StitchConfig,
) -> Result<tvs::delta::DeltaPlan, String> {
    let text = store
        .load_manifest(ancestor)
        .map_err(|e| format!("manifest unreadable: {e}"))?
        .ok_or_else(|| "no manifest cached".to_owned())?;
    let manifest = tvs::delta::ConeManifest::parse(&text).map_err(|e| {
        tvs::exec::counter("delta.manifest_rejected").incr();
        format!("manifest rejected: {e}")
    })?;
    tvs::delta::plan_for(&manifest, netlist, config.fingerprint())
        .map_err(|e| format!("plan rejected: {e}"))
}

fn serve(args: &[String]) -> Result<(), TvsError> {
    const FLAGS: Flags = &[
        ("--listen", Some("listen address")),
        ("--cache-dir", Some("cache directory")),
        ("--workers", Some("worker count")),
        ("--queue", Some("queue capacity")),
        ("--checkpoint-every", Some("checkpoint interval")),
        ("--cache-cap-bytes", Some("cache cap")),
        ("--client-quota", Some("client quota")),
    ];
    let cli = Cli::parse(args, FLAGS, 0)?;
    let mut config = tvs::serve::ServerConfig::default();
    if let Some(listen) = cli.text("--listen") {
        config.listen = listen.to_owned();
    }
    if let Some(dir) = cli.text("--cache-dir") {
        config.cache_dir = dir.into();
    }
    if let Some(workers) = cli.value::<usize>("--workers")? {
        config.workers = workers.max(1);
    }
    if let Some(capacity) = cli.value::<usize>("--queue")? {
        config.queue_capacity = capacity.max(1);
    }
    if let Some(every) = cli.value("--checkpoint-every")? {
        config.checkpoint_every = every;
    }
    if let Some(cap) = cli.value("--cache-cap-bytes")? {
        config.cache_cap_bytes = cap;
    }
    if let Some(quota) = cli.value("--client-quota")? {
        config.client_quota = quota;
    }
    let server = tvs::serve::Server::bind(&config)?;
    let addr = server.local_addr()?;
    // The smoke harness and scripts parse this line to learn the port.
    println!("tvs-serve: listening on {addr}");
    println!(
        "tvs-serve: cache {} · {} workers · queue {} · checkpoint every {} cycles",
        config.cache_dir.display(),
        config.workers,
        config.queue_capacity,
        config.checkpoint_every
    );
    if config.cache_cap_bytes > 0 {
        println!("tvs-serve: cache cap {} bytes", config.cache_cap_bytes);
    }
    if config.client_quota > 0 {
        println!(
            "tvs-serve: client quota {} open jobs per client",
            config.client_quota
        );
    }
    server.run()?;
    println!("tvs-serve: drained, exiting");
    Ok(())
}

fn fleet(args: &[String]) -> Result<(), TvsError> {
    use std::time::Duration;

    const FLAGS: Flags = &[
        ("--listen", Some("listen address")),
        ("--workers", Some("worker address list")),
        ("--vnodes", Some("vnode count")),
        ("--health-interval-ms", Some("health interval")),
        ("--probe-timeout-ms", Some("probe timeout")),
        ("--fail-threshold", Some("fail threshold")),
        ("--cache-cap-bytes", Some("cache cap")),
    ];
    let cli = Cli::parse(args, FLAGS, 0)?;
    let mut config = tvs::fleet::CoordinatorConfig::default();
    if let Some(listen) = cli.text("--listen") {
        config.listen = listen.to_owned();
    }
    if let Some(workers) = cli.text("--workers") {
        config.workers = workers
            .split(',')
            .map(str::trim)
            .filter(|a| !a.is_empty())
            .map(str::to_owned)
            .collect();
    }
    if let Some(vnodes) = cli.value::<usize>("--vnodes")? {
        config.vnodes = vnodes.max(1);
    }
    if let Some(ms) = cli.value::<u64>("--health-interval-ms")? {
        config.health_interval = Duration::from_millis(ms.max(1));
    }
    if let Some(ms) = cli.value::<u64>("--probe-timeout-ms")? {
        config.probe_timeout = Duration::from_millis(ms.max(1));
    }
    if let Some(threshold) = cli.value::<u32>("--fail-threshold")? {
        config.fail_threshold = threshold.max(1);
    }
    if let Some(cap) = cli.value("--cache-cap-bytes")? {
        config.cache_cap_bytes = cap;
    }
    if config.workers.is_empty() {
        return Err(TvsError::usage(
            "fleet requires --workers with at least one worker address",
        ));
    }
    let coordinator = tvs::fleet::Coordinator::bind(&config)?;
    let addr = coordinator.local_addr()?;
    // The smoke harness and scripts parse this line to learn the port.
    println!("tvs-fleet: listening on {addr}");
    println!(
        "tvs-fleet: {} workers · {} vnodes/worker · probe every {}ms (timeout {}ms, threshold {})",
        config.workers.len(),
        config.vnodes,
        config.health_interval.as_millis(),
        config.probe_timeout.as_millis(),
        config.fail_threshold
    );
    if config.cache_cap_bytes > 0 {
        println!(
            "tvs-fleet: broadcasting cache cap {} bytes to workers",
            config.cache_cap_bytes
        );
    }
    coordinator.run()?;
    println!("tvs-fleet: drained, exiting");
    Ok(())
}

fn fuzz(args: &[String]) -> Result<(), TvsError> {
    const FLAGS: Flags = &[
        ("--target", Some("target name")),
        ("--rounds", Some("round count")),
        ("--base-seed", Some("base seed")),
        ("--seed-file", Some("seed file path")),
        ("--seed-hex", Some("seed hex")),
    ];
    let cli = Cli::parse(args, FLAGS, 0)?;
    let rounds = cli.value("--rounds")?.unwrap_or(256);
    let base_seed = cli.value("--base-seed")?.unwrap_or(0x5717C4);
    let target = cli.text("--target").ok_or_else(|| {
        TvsError::usage("fuzz requires --target (bench, frame, snapshot, e2e, delta or all)")
    })?;
    let targets: Vec<&str> = if target == "all" {
        tvs::fuzz::TARGETS.to_vec()
    } else {
        match tvs::fuzz::TARGETS.iter().find(|&&t| t == target) {
            Some(t) => vec![t],
            None => {
                return Err(TvsError::usage(format!(
                    "unknown fuzz target {target:?} (bench, frame, snapshot, e2e, delta, all)"
                )))
            }
        }
    };
    let replay_seed = match (cli.text("--seed-file"), cli.text("--seed-hex")) {
        (Some(_), Some(_)) => {
            return Err(TvsError::usage("--seed-file and --seed-hex are exclusive"))
        }
        (Some(path), None) => {
            let text = fs::read_to_string(path).map_err(|e| TvsError::io(path, e))?;
            Some(tvs::fuzz::parse_seed_text(&text).map_err(TvsError::usage)?)
        }
        (None, Some(hex)) => Some(tvs::fuzz::parse_seed_text(hex).map_err(TvsError::usage)?),
        (None, None) => None,
    };

    // The harness catches target panics, but the default panic hook would
    // still print a backtrace for each one; keep the loop quiet and restore
    // the hook afterwards so a genuine driver panic stays visible.
    let saved_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = fuzz_drive(&targets, replay_seed, rounds, base_seed);
    std::panic::set_hook(saved_hook);
    result
}

/// The fuzz loop proper: replay one seed, or drive `rounds` schedule seeds
/// per target. Any harness-contract failure prints the seed in replayable
/// form and exits with code 10.
fn fuzz_drive(
    targets: &[&str],
    replay_seed: Option<Vec<u8>>,
    rounds: u64,
    base_seed: u64,
) -> Result<(), TvsError> {
    use tvs::fuzz::{check, schedule_seed, seed_to_hex, Outcome};

    if let Some(seed) = replay_seed {
        for t in targets {
            match check(t, &seed) {
                Ok(outcome) => println!("{t}: {}", outcome.describe()),
                Err(failure) => {
                    eprintln!("{t}: seed {} failed", seed_to_hex(&seed));
                    return Err(failure.into());
                }
            }
        }
        return Ok(());
    }

    for t in targets {
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for round in 0..rounds {
            let seed = schedule_seed(base_seed, round);
            match check(t, &seed) {
                Ok(Outcome::Ok(_)) => accepted += 1,
                Ok(_) => rejected += 1,
                Err(failure) => {
                    let hex = seed_to_hex(&seed);
                    eprintln!("fuzz failure: target={t} round={round} seed={hex}");
                    eprintln!("replay with: tvs fuzz --target {t} --seed-hex {hex}");
                    return Err(failure.into());
                }
            }
        }
        println!(
            "{t}: {rounds} rounds (base seed {base_seed}) · {accepted} accepted · \
             {rejected} typed-error · 0 contract failures"
        );
    }
    Ok(())
}

fn verify(args: &[String]) -> Result<(), TvsError> {
    let cli = Cli::parse(args, &[], 2)?;
    let netlist = load(cli.operand(0, "circuit path")?)?;
    let path = cli.operand(1, "program path")?;
    let text = fs::read_to_string(path).map_err(|e| TvsError::io(path, e))?;
    let program = TestProgram::parse(&text)?;
    let view = netlist.scan_view()?;
    let mut dut = Dut::new(&netlist, &view, program.capture, program.observe);
    let outcome = VirtualAte::execute(&program, &mut dut);
    println!("{outcome:?}");
    match outcome {
        TestOutcome::Pass => Ok(()),
        TestOutcome::Fail { cycle, kind, bit } => Err(TvsError::Verify { cycle, kind, bit }),
    }
}

fn lint(args: &[String]) -> Result<(), TvsError> {
    use tvs::lint::{
        analyze_netlist, analyze_testability, analyze_trace, has_deny, render_json, render_text,
        testability_json, Diagnostic, IrGraph, Testability, TestabilityConfig,
    };

    const FLAGS: Flags = &[
        ("--profiles", None),
        ("--workspace", None),
        ("--testability", None),
        ("--deny-unobservable", None),
        ("--scores", Some("scores path")),
        ("--program", Some("program path")),
        ("--root", Some("workspace root")),
        ("--format", Some("format")),
    ];
    let cli = Cli::parse(args, FLAGS, usize::MAX)?;
    let files = &cli.operands;
    let mut profiles = cli.has("--profiles");
    let mut workspace = cli.has("--workspace");
    let scores_path = cli.text("--scores");
    let program_path = cli.text("--program");
    let root = cli.text("--root").unwrap_or(".");
    let tb_config = TestabilityConfig {
        deny_unobservable: cli.has("--deny-unobservable"),
        ..TestabilityConfig::default()
    };
    let testability =
        cli.has("--testability") || tb_config.deny_unobservable || scores_path.is_some();
    let json = match cli.text("--format") {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => return Err(TvsError::usage(format!("unknown format {other:?}"))),
    };
    // Bare `tvs lint` checks everything checkable without arguments.
    if !profiles && !workspace && files.is_empty() && program_path.is_none() {
        profiles = true;
        workspace = true;
    }

    // `--program <prog.tvp>` interprets a tester program against one
    // circuit (a `.bench` path or a built-in profile name).
    if let Some(path) = program_path {
        let circuit = files
            .first()
            .ok_or_else(|| TvsError::usage("--program needs a circuit (.bench or profile)"))?;
        if files.len() > 1 {
            return Err(TvsError::usage("--program takes exactly one circuit"));
        }
        let netlist = match tvs::circuits::profile(circuit) {
            Some(profile) => profile.build(),
            None => load(circuit)?,
        };
        let text = fs::read_to_string(path).map_err(|e| TvsError::io(path, e))?;
        let program = TestProgram::parse(&text)?;
        let graph = IrGraph::from(&netlist);
        let diags = analyze_trace(&graph, &lower_program(&program));
        if json {
            print!("{}", render_json(&diags));
        } else {
            print!("{}", render_text(&diags));
        }
        if has_deny(&diags) {
            return Err(TvsError::Lint("deny-level diagnostics found".into()));
        }
        return Ok(());
    }

    // Each netlist under analysis, with its graph for the testability pass.
    let mut targets: Vec<Netlist> = Vec::new();
    for file in files {
        targets.push(load(file)?);
    }
    if profiles {
        for profile in tvs::circuits::all_profiles() {
            targets.push(profile.build());
        }
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut scores = String::new();
    for netlist in &targets {
        let graph = IrGraph::from(netlist);
        diags.extend(analyze_netlist(netlist));
        if testability {
            diags.extend(analyze_testability(&graph, &tb_config));
            if scores_path.is_some() {
                if let Some(t) = Testability::compute(&graph) {
                    scores.push_str(&testability_json(&graph, &t));
                }
            }
        }
    }
    if workspace {
        diags.extend(
            tvs::lint::lint_workspace(std::path::Path::new(root))
                .map_err(|e| TvsError::io(root, e))?,
        );
    }
    if let Some(path) = scores_path {
        fs::write(path, &scores).map_err(|e| TvsError::io(path, e))?;
        println!("testability scores written to {path}");
    }

    if json {
        print!("{}", render_json(&diags));
    } else {
        print!("{}", render_text(&diags));
    }
    if has_deny(&diags) {
        return Err(TvsError::Lint("deny-level diagnostics found".into()));
    }
    Ok(())
}

/// Lowers a tester program to the abstract interpreter's trace form: the
/// stimulus is copied bit for bit; expectations are dropped (the
/// interpreter derives its own).
fn lower_program(program: &TestProgram) -> tvs::lint::ProgramTrace {
    use tvs::logic::Logic;
    let bits = |bv: &tvs::logic::BitVec| -> Vec<Logic> { bv.iter().map(Logic::from).collect() };
    tvs::lint::ProgramTrace {
        capture: program.capture,
        observe: program.observe,
        cycles: program
            .cycles
            .iter()
            .map(|c| tvs::lint::TraceCycle {
                pi: bits(&c.pi),
                scan_in: bits(&c.scan_in),
            })
            .collect(),
        final_flush: program.expected_flush.len(),
    }
}

fn gen(args: &[String]) -> Result<(), TvsError> {
    let cli = Cli::parse(args, &[], 2)?;
    let name = cli.operand(0, "profile name")?;
    let out = cli.operand(1, "output path")?;
    let profile = tvs::circuits::profile(name).ok_or_else(|| {
        TvsError::usage(format!(
            "unknown profile {name:?} (try s444, s1423, s5378, …)"
        ))
    })?;
    let netlist = profile.build();
    fs::write(out, bench::to_string(&netlist)).map_err(|e| TvsError::io(out, e))?;
    println!("wrote {out}: {netlist}");
    Ok(())
}

fn bench_cmd(args: &[String]) -> Result<(), TvsError> {
    match args.first().map(String::as_str) {
        Some("strategies") => bench_strategies(&args[1..]),
        Some("delta") => bench_delta(&args[1..]),
        Some(other) => Err(TvsError::usage(format!(
            "unknown bench experiment {other:?} (expected strategies or delta)"
        ))),
        None => Err(TvsError::usage("missing bench experiment name")),
    }
}

fn bench_strategies(args: &[String]) -> Result<(), TvsError> {
    use tvs::bench::strategies::{coverage_regressions, sweep, to_json, SweepOpts};

    const FLAGS: Flags = &[
        ("--out", Some("output path")),
        ("--profiles", Some("profile list")),
        ("--budget", Some("work budget")),
        ("--scale", Some("scaling factor")),
        ("--threads", Some("thread count")),
        ("--gate", None),
    ];
    let cli = Cli::parse(args, FLAGS, 0)?;
    let mut opts = SweepOpts::default();
    let out = cli.text("--out").unwrap_or("BENCH_strategies.json");
    if let Some(profiles) = cli.text("--profiles") {
        opts.profiles = list(profiles);
    }
    if let Some(budget) = cli.value("--budget")? {
        opts.budget = budget;
    }
    if let Some(scale) = cli.value("--scale")? {
        opts.scale = scale;
    }
    if let Some(threads) = cli.value::<usize>("--threads")? {
        opts.threads = threads.max(1);
    }
    let result = sweep(&opts).map_err(TvsError::usage)?;
    let json = to_json(&result);
    fs::write(out, &json).map_err(|e| TvsError::io(out, e))?;
    println!(
        "wrote {out}: {} profiles x {} strategies",
        result.profiles.len(),
        result.profiles.first().map_or(0, |p| p.rows.len())
    );
    for profile in &result.profiles {
        let front: Vec<&str> = profile
            .rows
            .iter()
            .filter(|r| r.pareto)
            .map(|r| r.strategy)
            .collect();
        println!("  {:8} pareto: {}", profile.name, front.join(", "));
    }
    if cli.has("--gate") {
        let regressions = coverage_regressions(&result);
        if !regressions.is_empty() {
            let mut lines = Vec::new();
            for (profile, strategy, got, baseline) in &regressions {
                lines.push(format!(
                    "{profile}/{strategy} coverage {got:.4} < most {baseline:.4}"
                ));
            }
            return Err(TvsError::Bench(format!(
                "coverage regression vs most-faults baseline: {}",
                lines.join("; ")
            )));
        }
    }
    Ok(())
}

fn bench_delta(args: &[String]) -> Result<(), TvsError> {
    use tvs::bench::delta::{reuse_failures, sweep, to_json, DeltaOpts};

    const FLAGS: Flags = &[
        ("--out", Some("output path")),
        ("--profiles", Some("profile list")),
        ("--edits", Some("edit size list")),
        ("--scale", Some("scaling factor")),
        ("--floor", Some("reuse floor")),
        ("--gate", None),
    ];
    let cli = Cli::parse(args, FLAGS, 0)?;
    let mut opts = DeltaOpts::default();
    let out = cli.text("--out").unwrap_or("BENCH_delta.json");
    let floor = cli.value("--floor")?.unwrap_or(0.5f64);
    if let Some(profiles) = cli.text("--profiles") {
        opts.profiles = list(profiles);
    }
    if let Some(edits) = cli.text("--edits") {
        opts.edits = edits
            .split(',')
            .map(|t| parse_value(t, "edit size"))
            .collect::<Result<Vec<usize>, TvsError>>()?;
    }
    if let Some(scale) = cli.value("--scale")? {
        opts.scale = scale;
    }
    let result = sweep(&opts).map_err(TvsError::usage)?;
    let json = to_json(&result);
    fs::write(out, &json).map_err(|e| TvsError::io(out, e))?;
    println!(
        "wrote {out}: {} profiles x {} edit sizes",
        result.profiles.len(),
        opts.edits.len()
    );
    for profile in &result.profiles {
        let ratios: Vec<String> = profile
            .rows
            .iter()
            .map(|r| format!("{}:{:.2}", r.edits, r.reuse_ratio()))
            .collect();
        println!(
            "  {:8} {} gates, {} cones · reuse {}",
            profile.name,
            profile.gates,
            profile.cones,
            ratios.join(" ")
        );
    }
    if cli.has("--gate") {
        let failures = reuse_failures(&result, floor);
        if !failures.is_empty() {
            let lines: Vec<String> = failures
                .iter()
                .map(|(profile, ratio)| format!("{profile} one-gate reuse {ratio:.4} < {floor}"))
                .collect();
            return Err(TvsError::Bench(format!(
                "delta reuse below floor: {}",
                lines.join("; ")
            )));
        }
    }
    Ok(())
}
