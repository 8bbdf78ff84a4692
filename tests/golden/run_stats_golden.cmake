# Run skipit-run --stats on three fixed program sets and diff each
# output against its golden copy, so every counter name and value (and
# the cycle count) is pinned byte for byte. The third run puts the three
# programs on a 16-hart, 4-slice machine: it covers per-core counters
# and the sum over the L2 slices' "l2." counters. Invoked by ctest; see
# tests/CMakeLists.txt (cli_stats_golden).

function(check_run name)
    set(out ${WORKDIR}/${name}.out.txt)
    execute_process(
        COMMAND ${RUN_BIN} --stats ${ARGN}
        OUTPUT_FILE ${out}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "skipit-run (${name}) exited with ${rc}")
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${out}
                ${GOLDEN_DIR}/${name}.txt
        RESULT_VARIABLE diff)
    if(NOT diff EQUAL 0)
        message(FATAL_ERROR
            "${name}: --stats output differs from ${GOLDEN_DIR}/${name}.txt")
    endif()
endfunction()

check_run(stats_writeback ${PROGRAMS}/writeback.s)
check_run(stats_dual_core ${PROGRAMS}/dual_core_a.s
          ${PROGRAMS}/dual_core_b.s)
check_run(stats_cores16 --cores 16 --set l2_slices=4 ${PROGRAMS}/writeback.s
          ${PROGRAMS}/dual_core_a.s ${PROGRAMS}/dual_core_b.s)
