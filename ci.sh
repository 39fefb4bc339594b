#!/usr/bin/env bash
# Offline CI gate for the TVS workspace. The environment has no network
# access, so every cargo invocation runs with --offline; the workspace has
# no external dependencies, making that a no-op resolver-wise.
set -euxo pipefail

cd "$(dirname "$0")"

cargo build --release --workspace --offline
cargo test -q --workspace --offline
# Byte-identity pins at full size: the debug run above checks each pin's
# debug subset; this release run adds every circuit the pins know.
TVS_PIN_FULL=1 cargo test -q --release --offline --test baseline_pin --test strategy_pin
TVS_PIN_FULL=1 cargo test -q --release --offline -p tvs-atpg --test podem_pin
cargo clippy --workspace --all-targets --offline -- -D warnings

# Microbench smoke: the incremental simulation kernel must evaluate fewer
# gates than full sweeps on the largest profile (s38417), with bit-identical
# outputs. Writes BENCH_sim.json; exits nonzero on any regression.
cargo run -q -p tvs-bench --release --offline --bin simbench

# Static analysis (tvs-lint): fails on any deny-level diagnostic.
# Engine 2 (source determinism lint) over the workspace tree:
cargo run -q -p tvs-lint --release --offline --bin tvs-lint -- --workspace --format json
# Engine 1 (IR design rules) + the SCOAP testability dataflow (TB001-TB003)
# over every built-in circuit profile:
cargo run -q --release --offline --bin tvs -- lint --testability --profiles > /dev/null

# Abstract interpretation and ATE replay of emitted programs: stitch a
# tester program for every built-in profile (`tvs run --program`), require
# each to be SP006-clean (no capture may depend on unestablished power-up
# state; `tvs lint --program` exits nonzero on any deny), and replay it on
# the fault-free virtual ATE (`tvs verify` exits 12 on any mismatch). The
# six small profiles run to completion; the larger ones run under a
# deterministic work budget, stopping at a stage boundary with a valid
# partial program — same contracts, and the budget is work units, so the
# emitted program is machine-independent.
PROGS=$(mktemp -d)
TVS=./target/release/tvs
emit_and_interpret() { # <profile> [--budget N]
  local p=$1; shift
  "$TVS" gen "$p" "$PROGS/$p.bench" > /dev/null
  "$TVS" run "$PROGS/$p.bench" --program "$PROGS/$p.tvp" "$@"
  "$TVS" lint --program "$PROGS/$p.tvp" "$p" > "$PROGS/$p.lint"
  "$TVS" verify "$PROGS/$p.bench" "$PROGS/$p.tvp"
}
for p in s444 s526 s641 s953 s1196 s1423; do
  emit_and_interpret "$p"
done
emit_and_interpret s5378  --budget 4000000
emit_and_interpret s9234  --budget 8000000
for p in s13207 s15850; do
  emit_and_interpret "$p" --budget 16000000
done
for p in s35932 s38417 s38584; do
  emit_and_interpret "$p" --budget 24000000
done
# Guard against catalog drift: the calls above must cover every profile.
test "$(ls "$PROGS"/*.tvp | wc -l)" = "$(grep -c 'name: "' crates/circuits/src/profiles.rs)"
rm -rf "$PROGS"

# Serve smoke: start the daemon on a loopback port, drive a job through
# submit/wait/fetch with the client binary, check the warm path is a cache
# hit with byte-identical bytes, then shut down and assert a clean drain.
SMOKE=$(mktemp -d)
ADDR=""
cargo run -q --release --offline --bin tvs -- gen s444 "$SMOKE/s444.bench"
cargo run -q --release --offline --bin tvs -- serve --listen 127.0.0.1:0 \
  --cache-dir "$SMOKE/cache" --workers 2 --queue 8 > "$SMOKE/serve.log" &
SERVE_PID=$!
for _ in $(seq 1 100); do
  ADDR=$(sed -n 's/^tvs-serve: listening on //p' "$SMOKE/serve.log")
  if [ -n "$ADDR" ]; then break; fi
  sleep 0.1
done
test -n "$ADDR"
client() { cargo run -q --release --offline -p tvs-serve --bin tvs-client -- --addr "$ADDR" "$@"; }
client submit --wait --fetch --out "$SMOKE/artifact.json" "$SMOKE/s444.bench"
# Capture before grepping: grep -q closes the pipe at first match, and under
# pipefail the client's SIGPIPE would read as a stage failure.
client submit --fetch --out "$SMOKE/artifact2.json" "$SMOKE/s444.bench" > "$SMOKE/resubmit.out"
grep -q cache-hit "$SMOKE/resubmit.out"
cmp "$SMOKE/artifact.json" "$SMOKE/artifact2.json"
client stats > "$SMOKE/stats.out"
grep -q '"serve.engine_runs":1' "$SMOKE/stats.out"

# Admission smoke: a deny-level netlist (combinational cycle) is rejected
# with the typed wire code before any engine run; the resubmit is answered
# from the rejection cache; the engine-run count is untouched.
printf 'INPUT(a)\nOUTPUT(y)\nb = AND(a, c)\nc = NOT(b)\ny = AND(a, b)\n' \
  > "$SMOKE/cyclic.bench"
client lint "$SMOKE/cyclic.bench" > "$SMOKE/lint.out"
grep -q 'admitted false' "$SMOKE/lint.out"
grep -q 'IR004' "$SMOKE/lint.out"
if client submit "$SMOKE/cyclic.bench" 2> "$SMOKE/reject1.err"; then
  echo "deny-level submit was admitted" >&2; exit 1
fi
grep -q '\[rejected\]' "$SMOKE/reject1.err"
if client submit "$SMOKE/cyclic.bench" 2> "$SMOKE/reject2.err"; then
  echo "deny-level resubmit was admitted" >&2; exit 1
fi
grep -q '\[rejected\]' "$SMOKE/reject2.err"
client stats > "$SMOKE/stats2.out"
grep -q '"serve.engine_runs":1' "$SMOKE/stats2.out"
grep -q '"serve.rejected":1' "$SMOKE/stats2.out"
grep -q '"serve.rejected_cache_hits":1' "$SMOKE/stats2.out"

client shutdown
wait "$SERVE_PID"
grep -q "drained, exiting" "$SMOKE/serve.log"
rm -rf "$SMOKE"

# Fleet smoke: two workers sharing a cache dir behind the coordinator.
# Kill the job's home worker mid-run and assert the retried artifact is
# byte-identical to a cold single-serve reference, the fleet-wide engine
# run count is exact, the warm path is a cache hit, and shutdown drains
# the survivors. Workers run as direct binaries (not via cargo run) so the
# kill reaches the process that holds the job.
FLEET=$(mktemp -d)
TVS=./target/release/tvs
TVS_CLIENT=./target/release/tvs-client
"$TVS" gen s1423 "$FLEET/s1423.bench"
"$TVS" gen s444 "$FLEET/s444.bench"
await_addr() { # <logfile> <prefix> — poll for the "listening on" line
  local addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n "s/^$2: listening on //p" "$1")
    if [ -n "$addr" ]; then break; fi
    sleep 0.1
  done
  test -n "$addr"
  echo "$addr"
}

# Reference artifacts from a solo daemon with its own cold cache.
"$TVS" serve --listen 127.0.0.1:0 --cache-dir "$FLEET/ref-cache" \
  --workers 2 > "$FLEET/ref.log" &
REF_PID=$!
REF_ADDR=$(await_addr "$FLEET/ref.log" tvs-serve)
"$TVS_CLIENT" --addr "$REF_ADDR" submit --wait --fetch \
  --out "$FLEET/ref-s1423.json" --seed 3 "$FLEET/s1423.bench"
"$TVS_CLIENT" --addr "$REF_ADDR" submit --wait --fetch \
  --out "$FLEET/ref-s444.json" --seed 3 "$FLEET/s444.bench"
"$TVS_CLIENT" --addr "$REF_ADDR" shutdown
wait "$REF_PID"

# The fleet: two workers, one shared cache, the coordinator in front.
"$TVS" serve --listen 127.0.0.1:0 --cache-dir "$FLEET/cache" \
  --workers 2 --checkpoint-every 4 > "$FLEET/w1.log" &
W1_PID=$!
"$TVS" serve --listen 127.0.0.1:0 --cache-dir "$FLEET/cache" \
  --workers 2 --checkpoint-every 4 > "$FLEET/w2.log" &
W2_PID=$!
W1_ADDR=$(await_addr "$FLEET/w1.log" tvs-serve)
W2_ADDR=$(await_addr "$FLEET/w2.log" tvs-serve)
"$TVS" fleet --listen 127.0.0.1:0 --workers "$W1_ADDR,$W2_ADDR" \
  > "$FLEET/fleet.log" &
COORD_PID=$!
FLEET_ADDR=$(await_addr "$FLEET/fleet.log" tvs-fleet)
fclient() { "$TVS_CLIENT" --addr "$FLEET_ADDR" "$@"; }

# Submit the slow job, map its home worker from the coordinator's routing
# line to a PID, and kill that worker mid-run.
fclient submit --seed 3 "$FLEET/s1423.bench" > "$FLEET/submit.out"
JOB=$(sed -n 's/^job \([^ ]*\) admission.*/\1/p' "$FLEET/submit.out")
test -n "$JOB"
HOME_ADDR=""
for _ in $(seq 1 100); do
  HOME_ADDR=$(sed -n "s/^tvs-fleet: job $JOB key .* -> worker //p" "$FLEET/fleet.log")
  if [ -n "$HOME_ADDR" ]; then break; fi
  sleep 0.1
done
test -n "$HOME_ADDR"
if [ "$HOME_ADDR" = "$W1_ADDR" ]; then
  DOOMED_PID=$W1_PID SURVIVOR_PID=$W2_PID
else
  DOOMED_PID=$W2_PID SURVIVOR_PID=$W1_PID
fi
kill -9 "$DOOMED_PID"
wait "$DOOMED_PID" || true

# The blocked wait survives the death: the coordinator marks the worker
# dead and replays the job on the ring successor.
fclient wait "$JOB" > "$FLEET/wait.out"
grep -q "state \"done\"" "$FLEET/wait.out"
grep -q "retry -> worker" "$FLEET/fleet.log"
fclient fetch "$JOB" --out "$FLEET/fleet-s1423.json"
cmp "$FLEET/ref-s1423.json" "$FLEET/fleet-s1423.json"

# A second job routes around the dead worker and matches its reference.
fclient submit --wait --fetch --out "$FLEET/fleet-s444.json" \
  --seed 3 "$FLEET/s444.bench"
cmp "$FLEET/ref-s444.json" "$FLEET/fleet-s444.json"

# Fleet-wide stats: exactly two engine runs across the surviving fleet
# (the dead worker's partial run died with it), and exactly one death.
fclient stats > "$FLEET/stats.out"
grep -q '"engine_runs":2' "$FLEET/stats.out"
grep -q '"worker_deaths":1' "$FLEET/stats.out"

# Warm resubmission through the coordinator is a cache hit.
fclient submit --seed 3 "$FLEET/s1423.bench" > "$FLEET/resubmit.out"
grep -q cache-hit "$FLEET/resubmit.out"

# Coordinator shutdown drains the coordinator and the surviving worker.
fclient shutdown
wait "$COORD_PID"
grep -q "drained, exiting" "$FLEET/fleet.log"
wait "$SURVIVOR_PID"
rm -rf "$FLEET"

# Delta smoke: incremental recompression through the daemon. Submit a base
# s1423, then a one-gate edit of it; the edit must land as a miss that
# reuses prescreen verdicts from the base's cone manifest
# (delta.faults_reused > 0) while its artifact stays byte-identical to a
# cold run of the same edit on a separate daemon with a cold cache.
DELTA=$(mktemp -d)
"$TVS" gen s1423 "$DELTA/s1423.bench"
# One-gate edit: flip the first AND to its same-arity dual. The gate keeps
# its name, so the edit dirties exactly the cones containing it.
sed '0,/ = AND(/s// = OR(/' "$DELTA/s1423.bench" > "$DELTA/s1423_edit.bench"
cmp -s "$DELTA/s1423.bench" "$DELTA/s1423_edit.bench" && exit 1

"$TVS" serve --listen 127.0.0.1:0 --cache-dir "$DELTA/ref-cache" \
  --workers 2 > "$DELTA/ref.log" &
REF_PID=$!
REF_ADDR=$(await_addr "$DELTA/ref.log" tvs-serve)
"$TVS_CLIENT" --addr "$REF_ADDR" submit --wait --fetch \
  --out "$DELTA/ref-edit.json" --seed 3 "$DELTA/s1423_edit.bench"
"$TVS_CLIENT" --addr "$REF_ADDR" shutdown
wait "$REF_PID"

"$TVS" serve --listen 127.0.0.1:0 --cache-dir "$DELTA/cache" \
  --workers 2 > "$DELTA/delta.log" &
DELTA_PID=$!
DELTA_ADDR=$(await_addr "$DELTA/delta.log" tvs-serve)
dclient() { "$TVS_CLIENT" --addr "$DELTA_ADDR" "$@"; }
dclient submit --wait --seed 3 "$DELTA/s1423.bench"
dclient submit --wait --fetch --out "$DELTA/delta-edit.json" \
  --seed 3 "$DELTA/s1423_edit.bench"
cmp "$DELTA/ref-edit.json" "$DELTA/delta-edit.json"
dclient stats > "$DELTA/stats.out"
grep -q '"delta.plans":1' "$DELTA/stats.out"
grep -q '"delta.faults_reused":[1-9]' "$DELTA/stats.out"
dclient shutdown
wait "$DELTA_PID"

# Cache hygiene: under a tiny byte cap the store evicts oldest-first
# (deterministic insertion order, no clock reads) and says so in the
# counters; the newest artifact always survives.
"$TVS" gen s444 "$DELTA/s444.bench"
"$TVS" serve --listen 127.0.0.1:0 --cache-dir "$DELTA/evict-cache" \
  --cache-cap-bytes 1024 --workers 2 > "$DELTA/evict.log" &
EVICT_PID=$!
EVICT_ADDR=$(await_addr "$DELTA/evict.log" tvs-serve)
for seed in 1 2 3; do
  "$TVS_CLIENT" --addr "$EVICT_ADDR" submit --wait --seed "$seed" \
    "$DELTA/s444.bench"
done
"$TVS_CLIENT" --addr "$EVICT_ADDR" stats > "$DELTA/evict-stats.out"
grep -q '"cache.evictions":[1-9]' "$DELTA/evict-stats.out"
test "$(ls "$DELTA/evict-cache"/*.json | wc -l)" -ge 1
"$TVS_CLIENT" --addr "$EVICT_ADDR" shutdown
wait "$EVICT_PID"
rm -rf "$DELTA"

# Delta-reuse gate: the reuse × edit-size table must be byte-reproducible,
# and a one-gate edit of the largest profile (s38417) must keep at least
# half of its fault classification reusable — the table is pure manifest
# arithmetic, so this gate is exactly deterministic.
DBENCH=$(mktemp -d)
"$TVS" bench delta --profiles s1423,s38417 --edits 1,8 --gate --floor 0.5 \
  --out "$DBENCH/a.json"
"$TVS" bench delta --profiles s1423,s38417 --edits 1,8 --gate --floor 0.5 \
  --out "$DBENCH/b.json"
cmp "$DBENCH/a.json" "$DBENCH/b.json"
rm -rf "$DBENCH"

# Strategy sweep gate: run the strategies × profiles Pareto bench twice on
# the three smallest profiles at a comfortable budget. `--gate` fails (exit
# 11) if any strategy's coverage drops strictly below the MostFaults
# baseline on the same profile; the cmp fails if the sweep is not
# byte-for-byte reproducible. (The tight default budget is not gated: there,
# prepare-heavy strategies legitimately trade coverage for budget — see
# EXPERIMENTS.md "Strategy Pareto sweep".)
SWEEP=$(mktemp -d)
"$TVS" bench strategies --profiles s444,s526,s641 --budget 200000 --gate \
  --out "$SWEEP/a.json"
"$TVS" bench strategies --profiles s444,s526,s641 --budget 200000 --gate \
  --out "$SWEEP/b.json"
cmp "$SWEEP/a.json" "$SWEEP/b.json"
rm -rf "$SWEEP"

# Chaos suite: deterministic fault injection (worker panics, PODEM abort
# storms, corrupted hidden-chain images, truncated inputs). The injection
# sites only exist in debug builds, so this stage runs unoptimized on
# purpose; release builds compile them out entirely.
cargo test -q --offline --test chaos
cargo test -q --offline --test checkpoint_resume

# Fuzz stage: bounded deterministic structured fuzzing of every input
# surface (.bench text, wire frames, .tvsnap checkpoints, and the whole
# run→checkpoint→resume pipeline). The seed schedule is a pure function of
# the base seed, so this stage either passes identically everywhere or
# fails printing a replayable seed (exit 10); corrupt-snapshot sweeps and
# the checked-in corpus ride along in the same stage.
for fuzz_target in bench frame snapshot e2e delta; do
  "$TVS" fuzz --target "$fuzz_target" --rounds 256 --base-seed 5707716
done
cargo test -q --offline --test snapshot_corrupt
cargo test -q --offline -p tvs-fuzz

cargo fmt --check
