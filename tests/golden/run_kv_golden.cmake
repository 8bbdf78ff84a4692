# Run skipit-kv on a tiny fixed-seed grid (mixes A/B/C at 1 and 2
# cores, skip on/off each) and compare BENCH_kv.json against the golden
# copy byte for byte. Then validate the document's shape with cmake's
# JSON parser: schema tag, run count, and the presence of the latency
# percentiles.
# Invoked by ctest; see tests/CMakeLists.txt (cli_kv_golden).

execute_process(
    COMMAND ${KV_BIN} --mixes A,B,C --cores 1,2 --keys 64 --ops 60
            --seed 1 -o ${OUT}
    RESULT_VARIABLE rc
    OUTPUT_QUIET)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "skipit-kv exited with ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "BENCH_kv.json differs from golden ${GOLDEN}")
endif()

# Schema validation: the machine-readable contract downstream tooling
# relies on.
file(READ ${OUT} doc)
string(JSON schema GET "${doc}" schema)
if(NOT schema STREQUAL "skipit-kv-bench-v1")
    message(FATAL_ERROR "unexpected schema tag: ${schema}")
endif()
string(JSON nruns LENGTH "${doc}" runs)
if(NOT nruns EQUAL 12) # 3 mixes x 2 core counts x skip on/off
    message(FATAL_ERROR "expected 12 runs, got ${nruns}")
endif()
string(JSON ncmp LENGTH "${doc}" comparisons)
if(NOT ncmp EQUAL 6)
    message(FATAL_ERROR "expected 6 comparisons, got ${ncmp}")
endif()
string(JSON p99 GET "${doc}" runs 0 latency p99)
string(JSON thr GET "${doc}" runs 0 ops_per_kcycle)
if(p99 LESS_EQUAL 0 OR thr LESS_EQUAL 0)
    message(FATAL_ERROR "non-positive p99 (${p99}) or throughput "
                        "(${thr}) in run 0")
endif()
string(JSON drops GET "${doc}" comparisons 0 cleans_dropped_pct)
if(drops LESS_EQUAL 0)
    message(FATAL_ERROR "mix A showed no skip-bit drop delta (${drops})")
endif()
