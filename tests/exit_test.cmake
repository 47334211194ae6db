# One command line of a program must exit with EXPECT_CODE and print
# EXPECT_TEXT on EXPECT_STREAM (stdout or stderr): a bad flag exits 2 before
# any work, naming the flag, --help prints the usage and exits 0, and a
# bench program exits 0 after printing its verdict.
#
#   cmake -DEXPECT_CODE=<n> -DEXPECT_STREAM=<stdout|stderr> -DEXPECT_TEXT=<text> \
#         -P exit_test.cmake -- <program> <args...>
set(command "")
set(in_command FALSE)
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last})
  if(in_command)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(in_command TRUE)
  endif()
endforeach()
execute_process(COMMAND ${command}
  RESULT_VARIABLE code OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
string(FIND "${${EXPECT_STREAM}}" "${EXPECT_TEXT}" found)
if(NOT code STREQUAL EXPECT_CODE OR found EQUAL -1)
  list(JOIN command " " run)
  message(FATAL_ERROR "${run} exited ${code}; expected ${EXPECT_CODE} and "
    "\"${EXPECT_TEXT}\" on ${EXPECT_STREAM}\nstdout:\n${stdout}\nstderr:\n${stderr}")
endif()
