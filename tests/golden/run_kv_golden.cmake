# Run skipit-kv with KV_ARGS (one space-separated string) and compare
# its BENCH_kv.json against the golden copy byte for byte. Then validate
# the document's shape with cmake's JSON parser: schema tag, RUNS runs
# with one comparison per skip on/off pair, and the presence of the
# latency percentiles.
# Invoked by ctest; see tests/CMakeLists.txt (cli_kv_golden,
# cli_kv_read_golden).

separate_arguments(kv_args UNIX_COMMAND "${KV_ARGS}")
execute_process(
    COMMAND ${KV_BIN} ${kv_args} -o ${OUT}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "skipit-kv exited with ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "${OUT} differs from golden ${GOLDEN}")
endif()

# Schema validation: the machine-readable contract downstream tooling
# relies on.
file(READ ${OUT} doc)
string(JSON schema GET "${doc}" schema)
if(NOT schema STREQUAL "skipit-kv-bench-v1")
    message(FATAL_ERROR "unexpected schema tag: ${schema}")
endif()
string(JSON nruns LENGTH "${doc}" runs)
if(NOT nruns EQUAL ${RUNS})
    message(FATAL_ERROR "expected ${RUNS} runs, got ${nruns}")
endif()
math(EXPR want_cmp "${RUNS} / 2")
string(JSON ncmp LENGTH "${doc}" comparisons)
if(NOT ncmp EQUAL want_cmp)
    message(FATAL_ERROR "expected ${want_cmp} comparisons, got ${ncmp}")
endif()
string(JSON p99 GET "${doc}" runs 0 latency p99)
string(JSON thr GET "${doc}" runs 0 ops_per_kcycle)
if(p99 LESS_EQUAL 0 OR thr LESS_EQUAL 0)
    message(FATAL_ERROR "non-positive p99 (${p99}) or throughput "
                        "(${thr}) in run 0")
endif()
# Mix A commits with CBO.CLEAN, so the skip bit must drop some.
string(JSON mix GET "${doc}" comparisons 0 mix)
string(JSON drops GET "${doc}" comparisons 0 cleans_dropped_pct)
if(mix STREQUAL "A" AND drops LESS_EQUAL 0)
    message(FATAL_ERROR "mix A showed no skip-bit drop delta (${drops})")
endif()
