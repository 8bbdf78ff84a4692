# Run skipit-sweep over a checked-in spec on two workers and diff the
# CSV against its golden copy byte for byte. With FLUSH_AS_OP set, the
# leading flush column's 0/1 are first written as op clean/flush, the
# form tests/golden/fig09_cbo_scaling.csv keeps for its other readers.
# Invoked by ctest; see tests/CMakeLists.txt (cli_fig09_golden,
# cli_sweep_slices_golden, cli_sweep_cores_golden).

execute_process(
    COMMAND ${SWEEP_BIN} --spec ${SPEC} -j2 -o ${OUT}
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "skipit-sweep exited with ${rc}")
endif()

if(FLUSH_AS_OP)
    file(READ ${OUT} csv)
    string(REGEX REPLACE "^flush," "op," csv "${csv}")
    string(REPLACE "\n0," "\nclean," csv "${csv}")
    string(REPLACE "\n1," "\nflush," csv "${csv}")
    file(WRITE ${OUT} "${csv}")
endif()

execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${OUT} ${GOLDEN}
    RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
    message(FATAL_ERROR "sweep output differs from golden ${GOLDEN}")
endif()
