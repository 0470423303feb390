# Runs CMD (a ;-list: program and arguments) and fails unless it exits with
# EXPECT_RC and its stderr contains EXPECT_ERR.  Used by the CLI exit-code
# tests in CMakeLists.txt:
#   cmake -DCMD=<prog;args...> -DEXPECT_RC=2 -DEXPECT_ERR=<text> \
#         -P expect_exit.cmake
execute_process(COMMAND ${CMD}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "expected exit ${EXPECT_RC}, got ${rc}; stderr: ${err}")
endif()
string(FIND "${err}" "${EXPECT_ERR}" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "stderr lacks \"${EXPECT_ERR}\": ${err}")
endif()
