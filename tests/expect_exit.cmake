# Runs a binary and passes only when it exits with the expected status and
# its stderr matches a regular expression. Invoked by ctest (see
# bench/CMakeLists.txt):
#
#   cmake -DBIN=<binary> -DARGS=<arg;...> -DEXIT=<status> -DMATCH=<regex>
#         -P expect_exit.cmake

if(NOT BIN OR NOT DEFINED EXIT OR NOT MATCH)
  message(FATAL_ERROR "expect_exit.cmake needs -DBIN, -DEXIT and -DMATCH")
endif()

execute_process(
  COMMAND "${BIN}" ${ARGS}
  RESULT_VARIABLE run_rc
  OUTPUT_VARIABLE run_out
  ERROR_VARIABLE run_err)
if(NOT run_rc STREQUAL "${EXIT}")
  message(FATAL_ERROR
    "${BIN} ${ARGS}: exit status ${run_rc}, expected ${EXIT}\n"
    "${run_out}\n${run_err}")
endif()
if(NOT run_err MATCHES "${MATCH}")
  message(FATAL_ERROR
    "${BIN} ${ARGS}: stderr does not match '${MATCH}':\n${run_err}")
endif()
