# ctest driver for the pasa_cli end-to-end smoke test.

function(run_or_die expected_rc)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR "command ${ARGN} exited ${rc} (expected "
                        "${expected_rc})\nstdout: ${out}\nstderr: ${err}")
  endif()
endfunction()

# Like run_or_die, but hands the command's stdout back in `out_var` so the
# caller can assert on its content.
function(run_capture expected_rc out_var)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${expected_rc})
    message(FATAL_ERROR "command ${ARGN} exited ${rc} (expected "
                        "${expected_rc})\nstdout: ${out}\nstderr: ${err}")
  endif()
  set(${out_var} "${out}" PARENT_SCOPE)
endfunction()

function(require_fragment haystack_var fragment what)
  string(FIND "${${haystack_var}}" "${fragment}" fragment_at)
  if(fragment_at EQUAL -1)
    message(FATAL_ERROR "${what} is missing '${fragment}':\n"
                        "${${haystack_var}}")
  endif()
endfunction()

set(LOC ${WORK_DIR}/cli_smoke_locations.csv)
set(OPT ${WORK_DIR}/cli_smoke_opt.csv)
set(CASPER ${WORK_DIR}/cli_smoke_casper.csv)
# Written into a non-existent subdirectory on purpose: the exporters must
# create missing parent directories.
set(METRICS ${WORK_DIR}/cli_smoke_out/metrics.json)
set(TRACE ${WORK_DIR}/cli_smoke_out/trace.json)

run_or_die(0 ${CLI} generate --n 3000 --seed 7 --map-log2-side 13 --out ${LOC})
run_or_die(0 ${CLI} stats --in ${LOC} --k 20)

# The policy-aware optimum passes the audit...
run_or_die(0 ${CLI} anonymize --in ${LOC} --k 20 --out ${OPT} --algorithm opt
           --metrics-out ${METRICS} --trace-out ${TRACE} --log-level debug)
run_or_die(0 ${CLI} audit --locations ${LOC} --cloaks ${OPT} --k 20)

# The observability snapshot must exist and contain the per-phase DP spans,
# the request-path latency histograms and the answer-cache counters.
if(NOT EXISTS ${METRICS})
  message(FATAL_ERROR "anonymize --metrics-out did not write ${METRICS}")
endif()
file(READ ${METRICS} metrics_json)
foreach(required_key
        "\"counters\"" "\"gauges\"" "\"histograms\"" "\"spans\""
        "\"bulk_dp/leaf_init\"" "\"bulk_dp/temp_convolution\""
        "\"bulk_dp/suffix_sweep\"" "\"anonymizer/cloak_lookup_seconds\""
        "\"lbs/serve_seconds\"" "\"lbs/answer_cache/hits\""
        "\"lbs/answer_cache/misses\"")
  string(FIND "${metrics_json}" "${required_key}" key_at)
  if(key_at EQUAL -1)
    message(FATAL_ERROR "metrics JSON is missing ${required_key}:\n"
                        "${metrics_json}")
  endif()
endforeach()

# The timeline trace must be a Chrome trace_event JSON: a traceEvents
# array of begin/end pairs with thread ids and monotonic timestamps, plus
# the thread_name metadata record for the registered main thread.
if(NOT EXISTS ${TRACE})
  message(FATAL_ERROR "anonymize --trace-out did not write ${TRACE}")
endif()
file(READ ${TRACE} trace_json)
foreach(required_fragment
        "\"traceEvents\"" "\"displayTimeUnit\"" "\"droppedEventCount\""
        "\"ph\": \"B\"" "\"ph\": \"E\"" "\"ph\": \"M\""
        "\"name\": \"thread_name\"" "\"args\": {\"name\": \"main\"}"
        "\"ts\": " "\"tid\": " "\"cat\": \"pasa\""
        "\"name\": \"bulk_dp\"" "\"name\": \"anonymizer/build\"")
  string(FIND "${trace_json}" "${required_fragment}" fragment_at)
  if(fragment_at EQUAL -1)
    message(FATAL_ERROR "trace JSON is missing ${required_fragment}")
  endif()
endforeach()

# An invalid --log-level is a usage error.
run_or_die(2 ${CLI} stats --in ${LOC} --log-level shouting)

# The resilient serving path: fault-free first, then under an armed fault
# plan (flaky provider + dirty move feed + failing repairs). Both must exit
# 0 — the k-anonymity audit inside `serve` has to pass even under chaos.
set(PLAN ${WORK_DIR}/cli_smoke_fault_plan.json)
file(WRITE ${PLAN} "{\n"
     "  \"seed\": 42,\n"
     "  \"points\": [\n"
     "    {\"point\": \"lbs/error\", \"probability\": 0.3},\n"
     "    {\"point\": \"lbs/latency\", \"probability\": 0.2,"
     " \"latency_micros\": 30000},\n"
     "    {\"point\": \"snapshot/corrupt_move\", \"probability\": 0.2},\n"
     "    {\"point\": \"snapshot/repair_fail\", \"probability\": 0.5}\n"
     "  ]\n"
     "}\n")
run_or_die(0 ${CLI} serve --in ${LOC} --k 20 --snapshots 3 --requests 500)
run_or_die(0 ${CLI} serve --in ${LOC} --k 20 --snapshots 3 --requests 500
           --fault-plan ${PLAN} --fault-seed 7)

# A malformed fault plan (unknown injection point) is a usage error, as is
# --fault-seed without a plan.
set(BAD_PLAN ${WORK_DIR}/cli_smoke_bad_plan.json)
file(WRITE ${BAD_PLAN} "{\"points\": [{\"point\": \"lbs/typo\"}]}\n")
run_or_die(2 ${CLI} serve --in ${LOC} --k 20 --fault-plan ${BAD_PLAN})
run_or_die(2 ${CLI} serve --in ${LOC} --k 20 --fault-seed 7)
run_or_die(2 ${CLI} serve --k 20)

# A snapshot that lists one user id twice is rejected at load time.
set(DUP ${WORK_DIR}/cli_smoke_dup.csv)
file(WRITE ${DUP} "userid,locx,locy\n1,0,0\n2,1,1\n1,2,2\n")
run_or_die(1 ${CLI} serve --in ${DUP} --k 1)

# The CSV grammar end to end: a CRLF file with a comment, a header, a blank
# line, spaces inside a field and no final newline loads exactly like the
# clean file; a file whose line 4 is malformed fails naming that line.
set(CLEAN ${WORK_DIR}/cli_smoke_clean.csv)
set(MESSY ${WORK_DIR}/cli_smoke_messy.csv)
set(BAD_LINE ${WORK_DIR}/cli_smoke_bad_line.csv)
file(WRITE ${CLEAN} "1,0,0\n2,5,1\n3,2,7\n4,6,6\n")
file(WRITE ${MESSY} "# snapshot\r\nuserid,locx,locy\r\n1,0,0\r\n"
     "2, 5 ,1\r\n\r\n3,2,7\r\n4,6,6")
run_capture(0 clean_stats ${CLI} stats --in ${CLEAN} --k 2)
run_capture(0 messy_stats ${CLI} stats --in ${MESSY} --k 2)
if(NOT clean_stats STREQUAL messy_stats)
  message(FATAL_ERROR "stats differ between the clean and the CRLF file:\n"
                      "${clean_stats}\n---\n${messy_stats}")
endif()
file(WRITE ${BAD_LINE} "userid,locx,locy\n1,0,0\n2,1,1\n3,x,2\n4,3,3\n")
execute_process(COMMAND ${CLI} serve --in ${BAD_LINE} --k 1
                RESULT_VARIABLE bad_line_rc OUTPUT_VARIABLE bad_line_out
                ERROR_VARIABLE bad_line_err)
if(NOT bad_line_rc EQUAL 1)
  message(FATAL_ERROR "serve on a malformed CSV exited ${bad_line_rc} "
                      "(expected 1)\nstderr: ${bad_line_err}")
endif()
set(bad_line_all "${bad_line_out}${bad_line_err}")
require_fragment(bad_line_all "line 4: malformed integer"
                 "serve on a malformed CSV")

# Fractional and overflowing schedule counts are typed parse errors, not
# silently truncated casts.
set(FRAC_PLAN ${WORK_DIR}/cli_smoke_frac_plan.json)
file(WRITE ${FRAC_PLAN}
     "{\"points\": [{\"point\": \"lbs/error\", \"max_fires\": 1.5}]}\n")
run_or_die(2 ${CLI} serve --in ${LOC} --k 20 --fault-plan ${FRAC_PLAN})
set(HUGE_PLAN ${WORK_DIR}/cli_smoke_huge_plan.json)
file(WRITE ${HUGE_PLAN}
     "{\"points\": [{\"point\": \"lbs/error\", \"after\": 1e30}]}\n")
run_or_die(2 ${CLI} serve --in ${LOC} --k 20 --fault-plan ${HUGE_PLAN})

# The provenance audit trail: --audit-out writes one JSONL record per
# sampled request (into a fresh subdirectory), `explain` reconstructs the
# cloak decisions from it, and no accepted request may ever be a
# k-anonymity violation.
set(AUDIT ${WORK_DIR}/cli_smoke_out/audit.jsonl)
run_or_die(0 ${CLI} anonymize --in ${LOC} --k 20 --out ${OPT}
           --audit-out ${AUDIT})
if(NOT EXISTS ${AUDIT})
  message(FATAL_ERROR "anonymize --audit-out did not write ${AUDIT}")
endif()
file(READ ${AUDIT} audit_jsonl)
foreach(required_key
        "\"rid\":" "\"sender\":" "\"outcome\":\"served\"" "\"k\":20"
        "\"cloak_area\":" "\"policy_node\":" "\"tree_path\":\"r"
        "\"group_size\":" "\"passed_up\":" "\"cache_hit\":true"
        "\"lbs_attempts\":" "\"fault_fires\":{}" "\"total_seconds\":")
  require_fragment(audit_jsonl "${required_key}" "audit JSONL")
endforeach()

run_capture(0 explain_out ${CLI} explain --audit ${AUDIT} --limit 3)
require_fragment(explain_out "cloak: [" "explain output")
require_fragment(explain_out "group size" "explain output")
require_fragment(explain_out "passed up" "explain output")
require_fragment(explain_out "record(s) matched (3 shown)" "explain output")

run_capture(0 violations_out ${CLI} explain --audit ${AUDIT}
            --only violations)
require_fragment(violations_out "0 of " "explain --only violations output")

# explain without an audit file is a usage error; a missing file fails, and
# so does a directory, which must not read as an audit with no records.
run_or_die(2 ${CLI} explain)
run_or_die(2 ${CLI} explain --audit ${AUDIT} --only sideways)
run_or_die(1 ${CLI} explain --audit ${WORK_DIR}/no_such_audit.jsonl)
run_or_die(1 ${CLI} explain --audit ${WORK_DIR}/cli_smoke_out)

# serve --watch renders the SLO / sliding-window dashboard against the
# steady clock at the requested epoch cadence.
run_capture(0 watch_out ${CLI} serve --in ${LOC} --k 20 --snapshots 2
            --requests 300 --watch 2)
require_fragment(watch_out "[watch] epoch 2" "serve --watch output")
require_fragment(watch_out "csp/availability" "serve --watch output")
require_fragment(watch_out "csp/serve_latency" "serve --watch output")
require_fragment(watch_out "csp/anonymity" "serve --watch output")
require_fragment(watch_out "csp/window/serve_latency_seconds"
                 "serve --watch output")
require_fragment(watch_out "fast_burn=" "serve --watch output")

# SLO objectives from JSON: a valid config replaces the compiled-in
# defaults (the custom objective must show up on the watch dashboard), a
# malformed one is a usage error.
set(SLO ${WORK_DIR}/cli_smoke_slo.json)
file(WRITE ${SLO} "{\n"
     "  \"objectives\": [\n"
     "    {\"name\": \"custom/latency\", \"kind\": \"latency\","
     " \"target\": 0.95, \"latency_threshold_seconds\": 0.5},\n"
     "    {\"name\": \"custom/availability\", \"kind\": \"availability\","
     " \"target\": 0.999}\n"
     "  ]\n"
     "}\n")
run_capture(0 slo_out ${CLI} serve --in ${LOC} --k 20 --snapshots 2
            --requests 300 --watch 2 --slo-config ${SLO})
require_fragment(slo_out "custom/latency" "serve --slo-config watch output")
require_fragment(slo_out "custom/availability"
                 "serve --slo-config watch output")
set(BAD_SLO ${WORK_DIR}/cli_smoke_bad_slo.json)
file(WRITE ${BAD_SLO} "{\"objectives\": [{\"name\": \"x\","
     " \"kind\": \"sideways\", \"target\": 0.9}]}\n")
run_or_die(2 ${CLI} serve --in ${LOC} --k 20 --slo-config ${BAD_SLO})
run_or_die(2 ${CLI} serve --in ${LOC} --k 20 --slo-config
           ${WORK_DIR}/no_such_slo.json)

# Streaming audit mode appends records to disk as they are made rather than
# dumping the ring at exit; the file must carry the same record shape.
set(STREAM_AUDIT ${WORK_DIR}/cli_smoke_out/audit_stream.jsonl)
run_or_die(0 ${CLI} anonymize --in ${LOC} --k 20 --out ${OPT}
           --audit-out ${STREAM_AUDIT} --audit-mode stream)
if(NOT EXISTS ${STREAM_AUDIT})
  message(FATAL_ERROR "--audit-mode stream did not write ${STREAM_AUDIT}")
endif()
file(READ ${STREAM_AUDIT} stream_jsonl)
foreach(required_key "\"rid\":" "\"outcome\":\"served\"" "\"k\":20"
        "\"group_size\":")
  require_fragment(stream_jsonl "${required_key}" "streamed audit JSONL")
endforeach()
run_capture(0 stream_explain_out ${CLI} explain --audit ${STREAM_AUDIT}
            --limit 1)
require_fragment(stream_explain_out "cloak: [" "explain on streamed audit")
# An unknown mode is a usage error, as is a mode without a destination.
run_or_die(2 ${CLI} anonymize --in ${LOC} --k 20 --out ${OPT}
           --audit-out ${STREAM_AUDIT} --audit-mode sideways)
run_or_die(2 ${CLI} anonymize --in ${LOC} --k 20 --out ${OPT}
           --audit-mode stream)

# trace-merge stitches two Chrome trace files into one two-process
# timeline with pasa-client/pasa-server process names. Missing flags are
# usage errors; an unreadable input is a runtime failure.
set(TRACE2 ${WORK_DIR}/cli_smoke_out/trace2.json)
set(MERGED ${WORK_DIR}/cli_smoke_out/merged.json)
run_or_die(0 ${CLI} anonymize --in ${LOC} --k 20 --out ${OPT}
           --trace-out ${TRACE2})
run_or_die(0 ${CLI} trace-merge --client ${TRACE} --server ${TRACE2}
           --out ${MERGED})
if(NOT EXISTS ${MERGED})
  message(FATAL_ERROR "trace-merge did not write ${MERGED}")
endif()
file(READ ${MERGED} merged_json)
require_fragment(merged_json "pasa-client" "merged trace")
require_fragment(merged_json "pasa-server" "merged trace")
require_fragment(merged_json "\"traceEvents\"" "merged trace")
run_or_die(2 ${CLI} trace-merge)
run_or_die(2 ${CLI} trace-merge --client ${TRACE} --out ${MERGED})
run_or_die(1 ${CLI} trace-merge --client ${WORK_DIR}/no_such_trace.json
           --server ${TRACE2} --out ${MERGED})

# slowest needs a server: missing --port is a usage error, an unreachable
# port a runtime failure.
run_or_die(2 ${CLI} slowest)
run_or_die(1 ${CLI} slowest --port 1)

# Bad --listen invocations are usage errors: out-of-range port,
# nonsensical pending bound.
run_or_die(2 ${CLI} serve --in ${LOC} --k 20 --listen 99999999)
run_or_die(2 ${CLI} serve --in ${LOC} --k 20 --listen 18080 --max-pending 0)

# The state-space explorer: a small bounded instance is covered
# exhaustively with zero violations (exit 0); the committed golden
# counterexample — a shrunk trace against the broken-repair double — must
# reproduce its k-anonymity violation deterministically (exit 4); and a
# live run against the broken double must find, shrink, and write a
# counterexample script that itself replays to the same violation.
run_capture(0 explore_out ${CLI} explore --users 6 --k 2 --advances 1
            --depth 2 --budget 5000 --log-level error)
require_fragment(explore_out "exhausted=yes" "explore output")
require_fragment(explore_out "no violation" "explore output")

run_capture(4 replay_out ${CLI} explore
            --replay ${SRC_DIR}/testdata/explore_broken_repair.json
            --log-level error)
require_fragment(replay_out "violation: invariant=kanon"
                 "explore --replay output")

set(CE ${WORK_DIR}/cli_smoke_out/counterexample.json)
run_capture(4 broken_explore_out ${CLI} explore --broken repair --depth 4
            --out ${CE} --log-level error)
require_fragment(broken_explore_out "violation: invariant=kanon"
                 "explore --broken output")
require_fragment(broken_explore_out "shrunk (" "explore --broken output")
if(NOT EXISTS ${CE})
  message(FATAL_ERROR "explore --out did not write ${CE}")
endif()
run_or_die(4 ${CLI} explore --replay ${CE} --log-level error)

# Unknown invariants or doubles are usage errors; a missing replay script
# is a runtime failure.
run_or_die(2 ${CLI} explore --invariants sideways)
run_or_die(2 ${CLI} explore --broken sideways)
run_or_die(1 ${CLI} explore --replay ${WORK_DIR}/no_such_ce.json)

# ...while the Casper baseline is expected to be flagged (exit code 3:
# k-inside policies are not policy-aware k-anonymous in general).
run_or_die(0 ${CLI} anonymize --in ${LOC} --k 20 --out ${CASPER}
           --algorithm casper)
run_or_die(3 ${CLI} audit --locations ${LOC} --cloaks ${CASPER} --k 20)

# Bad invocations are rejected.
run_or_die(2 ${CLI})
run_or_die(2 ${CLI} anonymize --in ${LOC})
run_or_die(1 ${CLI} anonymize --in /no/such.csv --k 5 --out ${OPT})

file(REMOVE ${LOC} ${OPT} ${CASPER} ${METRICS} ${TRACE} ${PLAN} ${BAD_PLAN}
     ${FRAC_PLAN} ${HUGE_PLAN} ${CE} ${AUDIT} ${SLO} ${BAD_SLO}
     ${STREAM_AUDIT} ${TRACE2} ${MERGED} ${DUP} ${CLEAN} ${MESSY} ${BAD_LINE})
