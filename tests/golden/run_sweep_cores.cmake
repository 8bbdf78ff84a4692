# Run skipit-sweep over the checked-in 16-core scale-out spec (threads
# x l2_slices x bytes on a 16-hart SoC) and diff the CSV against the
# golden copy.
# Invoked by ctest; see tests/CMakeLists.txt (cli_sweep_cores_golden).

execute_process(
    COMMAND ${SWEEP_BIN} --spec ${SPEC} -j2 -o ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "skipit-sweep exited with ${rc}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "sweep output differs from golden ${GOLDEN}")
endif()
