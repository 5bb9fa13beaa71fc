#!/bin/sh
# Regenerates every paper artifact at the given scale and stores the
# outputs under results/ (used to fill EXPERIMENTS.md), or runs a gate.
#
#   sh scripts_run_experiments.sh          regenerate results/*.txt
#   sh scripts_run_experiments.sh verify   fmt + clippy + study + scale1 + sketch + daemon + perfbench
#   sh scripts_run_experiments.sh study    traced study at 1 and N threads vs its baselines
#   sh scripts_run_experiments.sh faults   adversarial fault-injection run
#   sh scripts_run_experiments.sh scale1   paper-scale setup+harvest gate
#   sh scripts_run_experiments.sh sketch   exact-vs-streaming sketch differential gate
#   sh scripts_run_experiments.sh daemon   golden landscaped session + ticker progression gate
#
# Every gate writes its run outputs to a fresh temporary directory,
# kept (and named in the message) only on failure, so a passing gate
# leaves the tree as it found it.
set -e
RUN=
DAEMON_PID=

# Never leave a daemon running when a gate fails.
trap '[ -z "$DAEMON_PID" ] || kill "$DAEMON_PID" 2>/dev/null || true' EXIT

fail() {
  echo "FAIL: $*${RUN:+ (run outputs in $RUN)}"
  exit 1
}

# check_baseline FILTER BASELINE CURRENT LABEL: diffs FILTER's view of
# the run output CURRENT against its view of the committed BASELINE.
# FILTER is a command taking one file name (e.g. cat).
check_baseline() {
  [ -f "$2" ] || fail "missing $2"
  views=$(mktemp -d)
  "$1" "$2" > "$views/baseline" || true
  "$1" "$3" > "$views/current" || true
  if ! diff -u "$views/baseline" "$views/current"; then
    rm -rf "$views"
    fail "$4 drifted from $2 (determinism regression)"
  fi
  rm -rf "$views"
  echo "$4: matches $2"
}

# Per-stage counter lines of a bench_stages JSON, wall clock removed.
strip_wall() {
  sed 's/"wall_ms": [0-9.]*, //' "$1" | grep '"stage"'
}

# The run's start-to-finish elapsed_wall_ms in a bench_stages JSON.
# (Per-stage walls overlap once sibling stages run side by side, so
# their sum says nothing about the run's wall time.)
elapsed_wall() {
  sed -n 's/.*"elapsed_wall_ms": \([0-9.]*\).*/\1/p' "$1"
}

# A daemon transcript with its wall-clock values masked: STATUS FULL
# ages, Prometheus series whose name carries a wall unit (_us
# histograms, _seconds gauges), and span-tree microsecond offsets
# (` 12us`, `..40us`; never digits inside an onion address).
# Everything else (line set, counters, hashes, ids) stays.
mask_wall() {
  sed -E \
    -e 's/^(epoch_age_ms|uptime_ms)=[0-9]+$/\1=MASKED/' \
    -e '/^landscaped_[a-z_]*(_us|_seconds)/s/ [0-9eE.+-]+$/ MASKED/' \
    -e 's/( |\.\.)[0-9]+us/\1MASKEDus/g' \
    "$1"
}

# start_daemon LOG [FLAGS...]: boots a seed-7 landscaped on an
# OS-assigned port with stderr in LOG; sets DAEMON_PID and PORT.
start_daemon() {
  log=$1
  shift
  port_file="$RUN/port"
  : > "$port_file"
  target/release/landscaped serve --addr 127.0.0.1:0 --seed 7 --threads 2 \
    --port-file "$port_file" "$@" 2> "$log" &
  DAEMON_PID=$!
  i=0
  while [ ! -s "$port_file" ] && [ "$i" -lt 200 ]; do
    sleep 0.1
    i=$((i + 1))
  done
  [ -s "$port_file" ] || fail "daemon never reported its port (see $log)"
  PORT=$(cat "$port_file")
  rm -f "$port_file"
}

# Sends SHUTDOWN (appending the reply to $1) and reaps the daemon.
stop_daemon() {
  printf 'SHUTDOWN\n' | target/release/landscaped script "127.0.0.1:$PORT" >> "$1" \
    || fail "daemon did not answer SHUTDOWN"
  wait "$DAEMON_PID" || true
  DAEMON_PID=
}

if [ "${1:-}" = "verify" ]; then
  echo "== cargo fmt --check"
  cargo fmt --check
  echo "== cargo clippy --workspace --all-targets -- -D warnings"
  cargo clippy --workspace --all-targets -- -D warnings
  sh "$0" study
  sh "$0" scale1
  sh "$0" sketch
  sh "$0" daemon
  # perfbench is a workspace of its own that path-depends on the
  # pipeline and daemon APIs; --locked keeps its Cargo.lock untouched.
  echo "== perfbench: cargo test --release"
  CARGO_TARGET_DIR=target cargo test --release --offline --locked -q \
    --manifest-path perfbench/Cargo.toml
  echo "verify ok"
  exit 0
fi
if [ "${1:-}" = "study" ]; then
  # One traced seed-7 study at scale 0.03, run at 1 wave thread and at
  # HS_PAR_THREADS (default 4). Each run must reproduce byte for byte
  # the committed report, the per-stage counters (any drift means the
  # sim hot path lost determinism) and the sim-clock Chrome trace (a
  # pure function of seed and plan). Wall clocks are machine-relative
  # and only reported: the study's elapsed wall time at both thread
  # counts.
  PAR_THREADS="${HS_PAR_THREADS:-4}"
  cargo build --release -q -p hs-landscape --bin landscape
  LANDSCAPE="$(pwd)/target/release/landscape"
  RUN=$(mktemp -d)
  for T in 1 "$PAR_THREADS"; do
    OUT="$RUN/t$T"
    mkdir -p "$OUT"
    echo "== landscape study --scale 0.03 --seed 7 --threads $T --trace"
    # Run inside OUT: the CLI writes results/bench_stages.json there.
    (cd "$OUT" && "$LANDSCAPE" study --scale 0.03 --seed 7 --threads "$T" \
      --trace trace.json > study.txt 2> study.log) \
      || fail "$T-thread study exited non-zero (see $OUT/study.log)"
    check_baseline cat results/par_study_baseline.txt "$OUT/study.txt" "$T-thread report"
    check_baseline strip_wall results/bench_stages_baseline.json \
      "$OUT/results/bench_stages.json" "$T-thread stage counters"
    grep -q "sim-clock trace written" "$OUT/study.log" || fail "trace export not reported"
    [ -s "$OUT/trace.json" ] || fail "empty trace at $OUT/trace.json"
    # Structural sanity without a JSON tool: balanced containers and
    # an array-shaped file.
    [ "$(tr -cd '{' < "$OUT/trace.json" | wc -c)" = "$(tr -cd '}' < "$OUT/trace.json" | wc -c)" ] \
      && [ "$(tr -cd '[' < "$OUT/trace.json" | wc -c)" = "$(tr -cd ']' < "$OUT/trace.json" | wc -c)" ] \
      || fail "unbalanced JSON in $OUT/trace.json"
    head -c 1 "$OUT/trace.json" | grep -q '\[' || fail "trace is not a trace_event array"
    check_baseline cat results/trace_baseline.json "$OUT/trace.json" "$T-thread sim-clock trace"
  done
  echo "report, counters and trace byte-identical at 1 and $PAR_THREADS threads"
  T1_MS=$(elapsed_wall "$RUN/t1/results/bench_stages.json")
  TN_MS=$(elapsed_wall "$RUN/t$PAR_THREADS/results/bench_stages.json")
  awk -v a="$T1_MS" -v b="$TN_MS" -v n="$PAR_THREADS" 'BEGIN {
    if (b > 0) printf "study elapsed (traced): %.0fms @1 thread, %.0fms @%d threads (%.2fx)\n", a, b, n, a / b
  }'
  rm -rf "$RUN"
  echo "study ok"
  exit 0
fi
if [ "${1:-}" = "daemon" ]; then
  # Boot one landscaped (3 pool workers, a cache byte budget, debug
  # logging) and drive the golden session over one connection.
  # Every reply is a pure function of the seed once wall-clock values
  # are masked, and the connection is the pool's only job, so the pool
  # families are deterministic too. The trace dump is validated, then
  # SHUTDOWN's reply closes the transcript, which must equal the
  # committed baseline.
  SESSION=scripts_daemon_session.txt
  [ -f "$SESSION" ] || fail "missing $SESSION"
  cargo build --release -q -p hs-serve
  RUN=$(mktemp -d)
  echo "== landscaped serve --seed 7 --workers 3 --cache-bytes 67108864 --log debug"
  start_daemon "$RUN/serve.log" --workers 3 --cache-bytes 67108864 --log debug
  target/release/landscaped script "127.0.0.1:$PORT" < "$SESSION" > "$RUN/session.txt" \
    || fail "scripted session aborted"
  # dump-trace validates the Chrome trace_event JSON itself and exits
  # non-zero on a malformed document.
  target/release/landscaped dump-trace "127.0.0.1:$PORT" "$RUN/trace.json" \
    || fail "TRACE DUMP invalid"
  stop_daemon "$RUN/session.txt"
  grep -q 'RUN_UNTIL' "$RUN/trace.json" || fail "flight-recorder dump holds no query lanes"
  check_baseline mask_wall results/daemon_baseline.txt "$RUN/session.txt" "daemon transcript"
  # Query 6 (RUN_UNTIL port_scan after the tick) ends OK in the session.
  grep -q 'query id=6 outcome=ok' "$RUN/serve.log" || fail "debug log missing per-query lines"
  # Then the background ticker: a second daemon advances 6 sim-hours
  # every 100 wall-ms; poll STATUS until it has published a
  # few epochs and check the arithmetic from one consistent reply: the
  # ticker reuses the TICK path, so sim_time == base + epoch * 6h.
  echo "== landscaped serve --tick-every 6/100 (ticker progression)"
  start_daemon "$RUN/ticker.log" --tick-every 6/100
  EPOCH=0
  i=0
  while [ "$i" -lt 100 ]; do
    printf 'STATUS\n' | target/release/landscaped script "127.0.0.1:$PORT" > "$RUN/ticker_status.txt"
    EPOCH=$(sed -n 's/^epoch=//p' "$RUN/ticker_status.txt")
    [ "${EPOCH:-0}" -ge 3 ] && break
    sleep 0.1
    i=$((i + 1))
  done
  SIM_TIME=$(sed -n 's/^sim_time=//p' "$RUN/ticker_status.txt")
  stop_daemon /dev/null
  [ "${EPOCH:-0}" -ge 3 ] || fail "ticker never reached epoch 3"
  WANT=$((1359680400 + EPOCH * 21600))
  [ "$SIM_TIME" = "$WANT" ] || fail "ticker epoch $EPOCH reports sim_time=$SIM_TIME, want $WANT"
  echo "ticker reached epoch $EPOCH with sim_time=$SIM_TIME (exact)"
  rm -rf "$RUN"
  echo "daemon ok"
  exit 0
fi
if [ "${1:-}" = "sketch" ]; then
  # The streaming-sketch gate: the bench binary asserts the streaming
  # popularity path reproduces the exact Table II top-20 at scale 0.03
  # and measures synthetic sketch ingest; this wrapper then diffs the
  # deterministic fields against the committed baseline and enforces
  # its error and throughput budgets.
  BASELINE=results/bench_sketch_baseline.json
  cargo build --release -q -p hs-bench --bin bench_sketch
  BIN="$(pwd)/target/release/bench_sketch"
  RUN=$(mktemp -d)
  CURRENT="$RUN/results/bench_sketch.json"
  echo "== bench_sketch (exact-vs-streaming differential)"
  # Run inside RUN: the binary writes results/bench_sketch.json there.
  (cd "$RUN" && "$BIN" > bench_sketch.txt 2> bench_sketch.log) \
    || fail "bench_sketch exited non-zero (see $RUN/bench_sketch.log)"
  strip_volatile() {
    grep -v 'events_per_sec\|budget' "$1"
  }
  check_baseline strip_volatile "$BASELINE" "$CURRENT" "sketch differential"
  grep -q '"top20_rank_match": 1' "$CURRENT" \
    || fail "streaming top-20 diverged from the exact ranking"
  grep -q '"cms_overestimate_ok": 1' "$CURRENT" \
    || fail "count-min sketch underestimated a true count"
  ERR_PCT=$(awk -F': ' '/"hll_error_pct"/ { gsub(/[,}]/, "", $2); print $2 }' "$CURRENT")
  ERR_BUDGET=$(awk -F': ' '/"hll_error_budget_pct"/ { gsub(/[,}]/, "", $2); print $2 }' "$BASELINE")
  echo "hll error: ${ERR_PCT}% (budget ${ERR_BUDGET}%)"
  awk -v c="$ERR_PCT" -v b="$ERR_BUDGET" 'BEGIN { exit !(c > b) }' \
    && fail "hll error ${ERR_PCT}% exceeds committed budget ${ERR_BUDGET}%"
  EPS=$(awk -F': ' '/"events_per_sec"/ { gsub(/[,}]/, "", $2); print $2 }' "$CURRENT")
  MIN_EPS=$(awk -F': ' '/"min_events_per_sec"/ { gsub(/[,}]/, "", $2); print $2 }' "$BASELINE")
  echo "ingest throughput: ${EPS} events/s (floor ${MIN_EPS})"
  awk -v c="$EPS" -v b="$MIN_EPS" 'BEGIN { exit !(c < b) }' \
    && fail "ingest ${EPS} events/s below committed floor ${MIN_EPS}"
  cat "$RUN/bench_sketch.txt"
  rm -rf "$RUN"
  echo "sketch ok"
  exit 0
fi
if [ "${1:-}" = "scale1" ]; then
  # The paper-scale gate: run setup+harvest at scale 1.0 at 1 and N
  # wave threads (the binary itself asserts cross-thread counter
  # identity), then diff the deterministic counters against the
  # committed baseline and enforce its wall-clock budget.
  BASELINE=results/bench_scale1_baseline.json
  cargo build --release -q -p hs-bench --bin bench_scale1
  BIN="$(pwd)/target/release/bench_scale1"
  RUN=$(mktemp -d)
  CURRENT="$RUN/results/bench_scale1.json"
  echo "== bench_scale1 (paper-scale setup+harvest)"
  # Run inside RUN: the binary writes results/bench_scale1.json there.
  (cd "$RUN" && "$BIN" > bench_scale1.txt 2> bench_scale1.log) \
    || fail "bench_scale1 exited non-zero (see $RUN/bench_scale1.log)"
  strip_volatile() {
    grep -v 'wall_ms\|threads_n\|speedup\|budget_ms' "$1"
  }
  check_baseline strip_volatile "$BASELINE" "$CURRENT" "scale-1.0 counters"
  BUDGET_MS=$(awk -F': ' '/"budget_ms"/ { gsub(/[,}]/, "", $2); print $2 }' "$BASELINE")
  CUR_MS=$(awk -F': ' '/"wall_ms_tn"/ { gsub(/[,}]/, "", $2); print $2 }' "$CURRENT")
  echo "threaded wall: ${CUR_MS}ms (budget ${BUDGET_MS}ms)"
  awk -v c="$CUR_MS" -v b="$BUDGET_MS" 'BEGIN { exit !(c > b) }' \
    && fail "scale-1.0 wall ${CUR_MS}ms exceeds committed budget ${BUDGET_MS}ms"
  cat "$RUN/bench_scale1.txt"
  rm -rf "$RUN"
  echo "scale1 ok"
  exit 0
fi
if [ "${1:-}" = "faults" ]; then
  # Run the committed adversarial fault profile end to end. The run
  # must complete (exit 0) with a *partial* report — the injected certs
  # failure degrades that stage, the flaky geomap stage recovers on
  # retry — and the stage counters (faults fired, retries absorbed,
  # stages degraded) must match the committed baseline exactly: fault
  # injection is deterministic, so any drift is a regression.
  BASELINE=results/bench_stages_faults_baseline.json
  cargo build --release -q -p hs-landscape --bin landscape
  LANDSCAPE="$(pwd)/target/release/landscape"
  RUN=$(mktemp -d)
  CURRENT="$RUN/results/bench_stages.json"
  echo "== landscape study --scale 0.03 --seed 7 --faults adversarial"
  # Run inside RUN: the CLI writes results/bench_stages.json there.
  (cd "$RUN" && "$LANDSCAPE" study --scale 0.03 --seed 7 --threads 2 \
    --faults adversarial > faults_study.txt 2> faults_study.log) \
    || fail "adversarial study exited non-zero (see $RUN/faults_study.log)"
  grep -q "PARTIAL REPORT" "$RUN/faults_study.txt" \
    || fail "adversarial run did not degrade into a partial report"
  grep -q "^faults: " "$RUN/faults_study.log" \
    || fail "no fault counter summary in the stage timings"
  grep -q '"degraded": \[' "$CURRENT" || fail "no degraded section in $CURRENT"
  grep -Eq '"fetch_drops": [1-9]' "$CURRENT" || fail "adversarial plan injected no fetch drops"
  grep -Eq '"relay_crashes": [1-9]' "$CURRENT" || fail "adversarial plan crashed no relays"
  check_baseline strip_wall "$BASELINE" "$CURRENT" "fault counters"
  rm -rf "$RUN"
  echo "faults ok"
  exit 0
fi
SCALE="${HS_SCALE:-0.25}"
export HS_SCALE="$SCALE"
mkdir -p results
for bin in fig1_ports table1_http fig2_topics table2_popularity fig3_geomap \
           sec3_certs sec5_stats harvest_coverage; do
  echo "== $bin (scale $SCALE)"
  cargo run --release -q -p hs-bench --bin "$bin" > "results/$bin.txt" 2>"results/$bin.log" || true
done
echo "== sec7_tracking"
cargo run --release -q -p hs-bench --bin sec7_tracking > results/sec7_tracking.txt 2>results/sec7_tracking.log || true
echo "== deanon_rate"
cargo run --release -q -p hs-bench --bin deanon_rate > results/deanon_rate.txt 2>results/deanon_rate.log || true
echo done
