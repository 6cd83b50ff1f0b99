#!/usr/bin/env bash
# Tier-1 CI driver: release build + full ctest (plus the pasa_bench smoke
# and stream-digest ctests against the release server), an AddressSanitizer
# + UndefinedBehaviorSanitizer build (any UB report aborts its test) + full
# ctest (both followed by a bounded state-space-explorer leg
# that must cover its instance exhaustively with zero invariant violations
# and reproduce the committed golden counterexample), a ThreadSanitizer
# build running the concurrency suites with a widened chaos seed sweep
# (PASA_CHAOS_SEEDS=8), the overhead gate (bench_overhead: every gated
# instrumentation hook must cost at most 5%), and a smoke pasa_benchstat
# run that proves the perf-regression gate works end to end (writes
# BENCH_smoke.json and self-compares it, which must pass, then compares
# loosely against the committed bench/baseline snapshots). The net leg additionally smoke-tests the HTTP admin plane:
# /metrics is format-checked and cross-checked against loadgen's client-side
# count, and /profile must name the Bulk_dp spans recorded at startup. A
# final traced leg runs loadgen and the server with tracing armed on both
# sides and asserts one trace id end to end: /trace, `pasa_cli slowest`,
# the client latency log, the /metrics exemplars, and the trace-merge'd
# Perfetto timeline.
#
# Usage: tools/ci.sh [build-dir-prefix]
#
# Knobs (environment):
#   PASA_CI_SKIP_RELEASE=1  skip the release build (also skips the
#                           benchstat smoke, which needs its binaries)
#   PASA_CI_SKIP_ASAN=1     skip the sanitizer build (e.g. on hosts
#                           without ASan runtimes)
#   PASA_CI_SKIP_TSAN=1     skip the thread-sanitizer build
#   PASA_CI_JOBS=N          parallelism (default: nproc)
#   PASA_CI_BENCH_SCALE=S   workload scale for the benchstat smoke run
#                           (default 0.002: a couple of seconds)
#   PASA_CI_OVERHEAD_SCALE=S  workload scale for the overhead gate
#                           (default 0.02: large enough that the 5% bound
#                           measures instrumentation, not timer noise)
set -euo pipefail

cd "$(dirname "$0")/.."
prefix="${1:-build-ci}"
jobs="${PASA_CI_JOBS:-$(nproc)}"
scale="${PASA_CI_BENCH_SCALE:-0.002}"
overhead_scale="${PASA_CI_OVERHEAD_SCALE:-0.02}"

step() { printf '\n== %s ==\n' "$*"; }

# Bounded state-space-explorer smoke (docs/robustness.md): the instance
# (8 users, 2 advances, all six fault points) must be covered exhaustively
# with zero invariant violations, and the committed golden counterexample
# (broken repair double) must reproduce its k-anonymity violation (exit 4).
explore_leg() {
  local cli="$1/tools/pasa_cli"
  local out visited rc
  out=$("${cli}" explore --users 8 --k 3 --advances 2 --depth 3 \
        --budget 20000 --log-level error)
  printf '%s\n' "${out}"
  grep -q 'exhausted=yes' <<<"${out}"
  grep -q 'no violation' <<<"${out}"
  visited=$(sed -n 's/.*states_visited=\([0-9]*\).*/\1/p' <<<"${out}")
  test "${visited}" -ge 300
  rc=0
  "${cli}" explore --replay tools/testdata/explore_broken_repair.json \
      --log-level error >/dev/null || rc=$?
  test "${rc}" -eq 4
}

if [[ "${PASA_CI_SKIP_RELEASE:-0}" != "1" ]]; then
  step "release build + tests (${prefix}-release)"
  cmake -B "${prefix}-release" -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build "${prefix}-release" -j "${jobs}"
  ctest --test-dir "${prefix}-release" --output-on-failure -j "${jobs}"
  step "state-space explorer leg (release)"
  explore_leg "${prefix}-release"
  step "pasa_bench smoke against the release server (~30 s)"
  # The benchmark is its own CMake project (benchmark/). Its output checks
  # compare every served cloak, group size, POI set and per-advance
  # policy cost against an in-process replay, end to end.
  cmake -B "${prefix}-release/benchmark" -S benchmark \
      -DCMAKE_BUILD_TYPE=Release \
      -DPASA_SERVER="$(cd "${prefix}-release" && pwd)/tools/pasa_cli"
  cmake --build "${prefix}-release/benchmark" -j "${jobs}" --target pasa_bench
  ctest --test-dir "${prefix}-release/benchmark" --output-on-failure \
        -R 'pasa_bench_smoke|pasa_bench_stream_digest'
else
  step "release build skipped (PASA_CI_SKIP_RELEASE=1)"
fi

if [[ "${PASA_CI_SKIP_ASAN:-0}" != "1" ]]; then
  step "asan+ubsan build + tests (${prefix}-asan)"
  cmake -B "${prefix}-asan" -S . -DCMAKE_BUILD_TYPE=Debug \
        -DPASA_SANITIZE=address,undefined \
        -DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined
  cmake --build "${prefix}-asan" -j "${jobs}"
  ctest --test-dir "${prefix}-asan" --output-on-failure -j "${jobs}"
  step "state-space explorer leg (asan)"
  explore_leg "${prefix}-asan"
else
  step "asan build skipped (PASA_CI_SKIP_ASAN=1)"
fi

if [[ "${PASA_CI_SKIP_TSAN:-0}" != "1" ]]; then
  step "tsan build + concurrency tests (${prefix}-tsan)"
  cmake -B "${prefix}-tsan" -S . -DCMAKE_BUILD_TYPE=Debug \
        -DPASA_SANITIZE=thread
  cmake --build "${prefix}-tsan" -j "${jobs}" \
        --target chaos_test parallel_test trace_sink_test \
                 trace_context_test tail_trace_test \
                 provenance_test window_test slo_test \
                 net_wire_test net_server_test
  # The threaded suites: jurisdiction workers + fault injector (chaos),
  # the worker pool itself (parallel), the concurrent trace ring, the
  # lock-light obs v3 primitives (provenance ring, windows, SLO tracker),
  # and the network front end (event loop vs client threads).
  # The chaos suite widens its seed sweep here (8 seeds instead of the
  # local default 3) — TSan is where extra schedules pay off.
  PASA_CHAOS_SEEDS=8 \
  ctest --test-dir "${prefix}-tsan" --output-on-failure -j "${jobs}" \
        -R 'Chaos|Parallel|TraceSink|TraceContext|TailTraceRing|Provenance|Window|Slo|NetWire|NetServer'
else
  step "tsan build skipped (PASA_CI_SKIP_TSAN=1)"
fi

if [[ "${PASA_CI_SKIP_RELEASE:-0}" != "1" ]]; then
  step "overhead gate (scale ${overhead_scale})"
  # Exits non-zero when any gated row costs more than 5%: the obs metrics
  # kill switch on Bulk_dp; the quiet-plan fault injector and the disarmed
  # provenance/window/SLO/tail-trace stack on the CSP request path.
  PASA_BENCH_SCALE="${overhead_scale}" "${prefix}-release/bench/bench_overhead"

  step "memory footprint benchstat (BENCH_footprint.json)"
  # Capacity regression gate: the sweep re-measures bytes-per-user at each
  # |D| and benchstat flags growth beyond 25% against the committed
  # baseline. Memory is deterministic per seed (stddev 0), so the noise
  # gate is a pure threshold; the allowance absorbs allocator/libstdc++
  # bucket-geometry drift across hosts, not real footprint regressions.
  # PASA_FOOTPRINT_MAX caps the sweep on constrained hosts — compare only
  # examines the keys both snapshots share.
  PASA_FOOTPRINT_MAX="${PASA_CI_FOOTPRINT_MAX:-1000000}" \
      "${prefix}-release/bench/bench_footprint" \
      --out "${prefix}-release/BENCH_footprint.json"
  "${prefix}-release/tools/pasa_benchstat" compare \
      --baseline bench/baseline/BENCH_footprint.json \
      --candidate "${prefix}-release/BENCH_footprint.json" \
      --threshold 0.25 --noise-sigma 0

  step "benchstat smoke run (scale ${scale})"
  "${prefix}-release/tools/pasa_benchstat" run \
      --bench "${prefix}-release/bench/bench_fig4a_bulk_time" \
      --iterations 2 --scale "${scale}" \
      --name smoke --out "${prefix}-release/BENCH_smoke.json"
  # A snapshot must never regress against itself: exercises the compare
  # path and the exit-code contract.
  "${prefix}-release/tools/pasa_benchstat" compare \
      --baseline "${prefix}-release/BENCH_smoke.json" \
      --candidate "${prefix}-release/BENCH_smoke.json"
  # And against the committed baseline: hosts differ, so the threshold is
  # deliberately loose (100% + 3 sigma) — this catches order-of-magnitude
  # regressions, not percent-level drift.
  "${prefix}-release/tools/pasa_benchstat" compare \
      --baseline bench/baseline/BENCH_smoke.json \
      --candidate "${prefix}-release/BENCH_smoke.json" \
      --threshold 1.0 --noise-sigma 3.0

  step "net throughput benchstat (BENCH_net.json) + admin-plane smoke"
  # Real sockets on loopback: pasa_loadgen drives `pasa_cli serve --listen`
  # and writes a latency-denominated snapshot (seconds per request, p99)
  # that the benchstat gate can compare across builds. Self-compare here
  # proves the gate wiring; a perf branch compares against a saved baseline.
  # The serve process also opens the HTTP admin plane, so the same run
  # verifies the telemetry endpoints against live traffic.
  net_port="${PASA_CI_NET_PORT:-19575}"
  admin_port="${PASA_CI_ADMIN_PORT:-19576}"
  net_locs="${prefix}-release/tools/net_ci_locations.csv"
  "${prefix}-release/tools/pasa_cli" generate --n 20000 --seed 7 \
      --out "${net_locs}"
  "${prefix}-release/tools/pasa_cli" serve --in "${net_locs}" --k 50 \
      --listen "${net_port}" --listen-duration 120 \
      --admin-port "${admin_port}" &
  serve_pid=$!
  # The main run keeps the server alive (no --shutdown) and cross-checks its
  # client-side dispatched count against the scraped pasa_net_requests_served
  # counter; a mismatch exits non-zero.
  "${prefix}-release/tools/pasa_loadgen" --port "${net_port}" \
      --in "${net_locs}" --k 50 --connections 4 --requests 100000 \
      --wait-ready-seconds 30 --admin-port "${admin_port}" \
      --benchstat-out "${prefix}-release/BENCH_net.json"
  # /metrics must be valid Prometheus exposition text, /healthz must answer,
  # and /profile must contain folded stacks naming the Bulk_dp spans
  # recorded during the policy build (span self times, no profiling flag).
  # The scrape also names the (min,+) kernel ISA Bulk_dp dispatched to.
  # Each body is captured before grep reads it: piped, `grep -q` exits at
  # its first match and the scrape's next write dies of SIGPIPE, which
  # pipefail turns into a failed step.
  metrics_doc="$("${prefix}-release/tools/pasa_cli" scrape \
      --port "${admin_port}" --path /metrics --check 1)"
  grep -q '^pasa_bulk_dp_kernel_info{isa="' <<< "${metrics_doc}"
  healthz_doc="$("${prefix}-release/tools/pasa_cli" scrape \
      --port "${admin_port}" --path /healthz)"
  grep -q '^ok' <<< "${healthz_doc}"
  # /healthz now carries drain state and uptime alongside the ok contract.
  healthz_doc="$("${prefix}-release/tools/pasa_cli" scrape \
      --port "${admin_port}" --path /healthz)"
  grep -q 'state=serving' <<< "${healthz_doc}"
  profile_doc="$("${prefix}-release/tools/pasa_cli" scrape \
      --port "${admin_port}" --path /profile)"
  grep -q 'bulk_dp' <<< "${profile_doc}"
  # Memory accounting over live traffic: GET /memory reports the serving
  # structures, and the event-loop saturation histogram shows worked ticks.
  mem_doc="$("${prefix}-release/tools/pasa_cli" scrape \
      --port "${admin_port}" --path /memory)"
  for subsystem in csp/snapshot csp/policy_tree lbs/answer_cache \
                   net/conn_buffers; do
    grep -q "\"${subsystem}\"" <<< "${mem_doc}"
  done
  metrics_doc="$("${prefix}-release/tools/pasa_cli" scrape \
      --port "${admin_port}" --path /metrics)"
  grep -q 'pasa_net_loop_lag_seconds_count' <<< "${metrics_doc}"
  memstats_doc="$("${prefix}-release/tools/pasa_cli" memstats \
      --port "${admin_port}")"
  grep -q 'csp/policy_tree' <<< "${memstats_doc}"
  # A final small run shuts the server down cleanly. No --admin-port here:
  # the cross-check compares a single run's client count against the
  # server's cumulative counter, which by now also holds the main run.
  "${prefix}-release/tools/pasa_loadgen" --port "${net_port}" \
      --in "${net_locs}" --k 50 --connections 1 --requests 100 \
      --shutdown 1
  wait "${serve_pid}"
  "${prefix}-release/tools/pasa_benchstat" compare \
      --baseline "${prefix}-release/BENCH_net.json" \
      --candidate "${prefix}-release/BENCH_net.json"
  "${prefix}-release/tools/pasa_benchstat" compare \
      --baseline bench/baseline/BENCH_net.json \
      --candidate "${prefix}-release/BENCH_net.json" \
      --threshold 1.0 --noise-sigma 3.0

  step "traced net leg: wire trace context, /trace, trace-merge, exemplars"
  # A dedicated small run with tracing armed on both sides of the socket:
  # loadgen originates a trace context per request and carries it in the
  # wire v2 frame; the server adopts it, feeds the tail ring, stamps
  # exemplars, and writes its own Chrome trace. The leg asserts one trace
  # id observed end to end: in the server's /trace report (raw and as
  # rendered by `pasa_cli slowest`), in loadgen's per-request latency log,
  # in the exemplar-annotated /metrics scrape, and in the merged
  # two-process Perfetto timeline.
  trace_port=$((net_port + 2))
  trace_admin=$((admin_port + 2))
  trace_dir="${prefix}-release/tools"
  "${prefix}-release/tools/pasa_cli" serve --in "${net_locs}" --k 50 \
      --listen "${trace_port}" --listen-duration 120 \
      --admin-port "${trace_admin}" --exemplars 1 \
      --trace-out "${trace_dir}/ci_server_trace.json" &
  trace_pid=$!
  "${prefix}-release/tools/pasa_loadgen" --port "${trace_port}" \
      --in "${net_locs}" --k 50 --connections 2 --requests 500 \
      --wait-ready-seconds 30 \
      --trace-out "${trace_dir}/ci_client_trace.json" \
      --latency-out "${trace_dir}/ci_latency.csv"
  # The slowest request's trace id, as kept by the server's tail ring.
  slow_id=$("${prefix}-release/tools/pasa_cli" scrape \
      --port "${trace_admin}" --path /trace \
      | sed -n 's/.*"trace_id": "\([0-9a-f]\{16\}\)".*/\1/p' | head -n 1)
  test -n "${slow_id}"
  # pasa_cli slowest parses the same /trace body and names the same trace.
  "${prefix}-release/tools/pasa_cli" slowest --port "${trace_admin}" \
      > "${trace_dir}/ci_slowest.txt"
  grep -q "${slow_id}" "${trace_dir}/ci_slowest.txt"
  # The client logged the same id when it originated the request...
  grep -q "${slow_id}" "${trace_dir}/ci_latency.csv"
  # ...and the Prometheus scrape carries exemplars and stays conformant.
  metrics_doc="$("${prefix}-release/tools/pasa_cli" scrape \
      --port "${trace_admin}" --path /metrics --check 1)"
  grep -q '# {trace_id=' <<< "${metrics_doc}"
  "${prefix}-release/tools/pasa_loadgen" --port "${trace_port}" \
      --in "${net_locs}" --k 50 --connections 1 --requests 10 \
      --shutdown 1
  wait "${trace_pid}"
  "${prefix}-release/tools/pasa_cli" trace-merge \
      --client "${trace_dir}/ci_client_trace.json" \
      --server "${trace_dir}/ci_server_trace.json" \
      --out "${trace_dir}/ci_merged_trace.json"
  grep -q "${slow_id}" "${trace_dir}/ci_merged_trace.json"
fi

step "ci passed"
