# ctest driver for the socket serving path: `pasa_cli serve --listen` and
# pasa_loadgen against each other over loopback.
#
# execute_process runs its COMMANDs concurrently as a pipeline, which is
# exactly what we need: the server starts listening while the load
# generator's --wait-ready-seconds connect loop retries until it is up.
# The loadgen verifies every response end to end (cloak contains the true
# location, group_size >= k), then sends a kShutdownRequest so the server
# exits on its own; --listen-duration is only the safety net.

set(LOC ${WORK_DIR}/net_smoke_locations.csv)
set(PORT 19473)

execute_process(COMMAND ${CLI} generate --n 3000 --seed 7 --map-log2-side 13
                        --out ${LOC}
                RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generate exited ${rc}\n${out}\n${err}")
endif()

# Closed-loop load. The loadgen comes first in the pipeline so its stdout
# drains into the still-running server (which ignores stdin) rather than
# into a closed pipe; the server's final stats table is what
# OUTPUT_VARIABLE captures. The loadgen's verification verdict is its exit
# code (1 on any non-k-anonymous answer, or on a /metrics cross-check
# mismatch against the admin plane: with --admin-port it scrapes
# pasa_net_requests_served before sending the shutdown and requires it to
# equal its own dispatched-request count).
math(EXPR ADMIN_PORT "${PORT} + 2")
execute_process(
  COMMAND ${LOADGEN} --port ${PORT} --in ${LOC} --k 20 --connections 4
          --requests 5000 --wait-ready-seconds 30 --shutdown 1
          --admin-port ${ADMIN_PORT}
  COMMAND ${CLI} serve --in ${LOC} --k 20 --listen ${PORT}
          --listen-duration 60 --admin-port ${ADMIN_PORT}
  RESULTS_VARIABLE rcs OUTPUT_VARIABLE serve_out ERROR_VARIABLE err)
list(GET rcs 0 loadgen_rc)
list(GET rcs 1 serve_rc)
if(NOT serve_rc EQUAL 0 OR NOT loadgen_rc EQUAL 0)
  message(FATAL_ERROR "serve exited ${serve_rc}, loadgen exited "
                      "${loadgen_rc}\n${serve_out}\n${err}")
endif()
foreach(required_fragment
        "final policy k-anonymous" "| yes" "requests served"
        "admission rejected" "admin connections / http requests")
  string(FIND "${serve_out}" "${required_fragment}" fragment_at)
  if(fragment_at EQUAL -1)
    message(FATAL_ERROR "serve output is missing '${required_fragment}':\n"
                        "${serve_out}")
  endif()
endforeach()

# Same exchange open loop, with the net/* fault plan armed: drops, torn
# writes and one-byte reads may cost latency and availability but never
# k-anonymity (the loadgen still verifies every answer that arrives).
set(PLAN ${WORK_DIR}/net_smoke_fault_plan.json)
file(WRITE ${PLAN} "{\n"
     "  \"seed\": 42,\n"
     "  \"points\": [\n"
     "    {\"point\": \"net/slow_read\", \"probability\": 0.2},\n"
     "    {\"point\": \"net/torn_write\", \"probability\": 0.3},\n"
     "    {\"point\": \"net/conn_drop\", \"probability\": 0.02}\n"
     "  ]\n"
     "}\n")
math(EXPR PORT2 "${PORT} + 1")
execute_process(
  COMMAND ${LOADGEN} --port ${PORT2} --in ${LOC} --k 20 --connections 2
          --mode open --rate 2000 --duration-seconds 1
          --wait-ready-seconds 30 --shutdown 1
  COMMAND ${CLI} serve --in ${LOC} --k 20 --listen ${PORT2}
          --listen-duration 60 --fault-plan ${PLAN}
  RESULTS_VARIABLE rcs OUTPUT_VARIABLE serve_out ERROR_VARIABLE err)
list(GET rcs 0 loadgen_rc)
list(GET rcs 1 serve_rc)
if(NOT serve_rc EQUAL 0 OR NOT loadgen_rc EQUAL 0)
  message(FATAL_ERROR "chaos serve exited ${serve_rc}, loadgen exited "
                      "${loadgen_rc}\n${serve_out}\n${err}")
endif()
# The fault plan must actually have fired, and the final policy must still
# audit k-anonymous (the loadgen's exit 0 already certifies every answer).
string(REGEX MATCH "net faults injected[^|]*\\|[ ]*([0-9]+)" fault_row
       "${serve_out}")
if(NOT fault_row OR CMAKE_MATCH_1 EQUAL 0)
  message(FATAL_ERROR "no net/* faults fired during the chaos leg:\n"
                      "${serve_out}")
endif()
string(FIND "${serve_out}" "final policy k-anonymous" anonymous_at)
if(anonymous_at EQUAL -1)
  message(FATAL_ERROR "serve output is missing the anonymity verdict:\n"
                      "${serve_out}")
endif()

file(REMOVE ${LOC} ${PLAN})
