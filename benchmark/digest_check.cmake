# Runs `pasa_bench --digest` for every workload: twice with one seed (the
# digests must match) and once with another (the digest must differ).
foreach(workload hot_1m hot_100k cold_lbs moving)
  foreach(seed 7 7 8)
    execute_process(COMMAND ${BENCH} --digest --workload ${workload}
                            --seed ${seed}
                    OUTPUT_VARIABLE out RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      message(FATAL_ERROR "${workload} seed ${seed}: exit ${rc}: ${out}")
    endif()
    string(STRIP "${out}" out)
    list(APPEND digests_${workload} "${out}")
  endforeach()
  list(GET digests_${workload} 0 first)
  list(GET digests_${workload} 1 again)
  list(GET digests_${workload} 2 other)
  if(NOT first STREQUAL again)
    message(FATAL_ERROR "${workload}: seed 7 gave ${first}, then ${again}")
  endif()
  if(first STREQUAL other)
    message(FATAL_ERROR "${workload}: seeds 7 and 8 both gave ${first}")
  endif()
  message(STATUS "${workload}: ${first} (seed 7, twice), ${other} (seed 8)")
endforeach()
