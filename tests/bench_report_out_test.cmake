# bench_report --out: a file that is not a bench_report file under the
# running mode's schema tag is refused before anything is measured and left
# byte-for-byte untouched; a file under the same tag is appended to.
#
#   cmake -DBENCH_REPORT=<bench_report> -DWORK_DIR=<scratch dir> \
#         -P bench_report_out_test.cmake
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(notes "${WORK_DIR}/notes.txt")
set(obs "${WORK_DIR}/BENCH_obs.json")
file(WRITE "${notes}" "notes kept next to the results\nsecond line\n")
file(WRITE "${obs}" "{\n  \"schema\": \"p2prank-obs-bench-v1\",\n  \"runs\": [\n    {\n      \"label\": \"fixture\"\n    }\n  ]\n}\n")
set(obs_args --obs --pages 300 --reps 1 --min-rep-seconds 0.01)

# check(<refuse|append> <out file> <schema tag> <bench_report args...>)
function(check expected out schema)
  file(SHA256 "${out}" before)
  execute_process(COMMAND "${BENCH_REPORT}" ${ARGN} --out "${out}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE stdout ERROR_VARIABLE stderr)
  file(SHA256 "${out}" after)
  list(JOIN ARGN " " args)
  set(run "bench_report ${args} --out ${out} exited ${rc}")
  if(expected STREQUAL "refuse")
    if(rc EQUAL 0 OR NOT before STREQUAL after)
      message(FATAL_ERROR "${run}; it must fail and leave the file untouched\n"
        "${stdout}${stderr}")
    endif()
    string(FIND "${stderr}" "${out}" names_file)
    string(FIND "${stderr}" "\"${schema}\"" names_schema)
    if(names_file EQUAL -1 OR names_schema EQUAL -1)
      message(FATAL_ERROR "${run}; the refusal must name the file and "
        "\"${schema}\":\n${stderr}")
    endif()
  elseif(NOT rc EQUAL 0 OR before STREQUAL after)
    message(FATAL_ERROR "${run}; it must append a run\n${stdout}${stderr}")
  endif()
endfunction()

check(refuse "${notes}" p2prank-obs-bench-v1 ${obs_args})
check(refuse "${obs}" p2prank-reliability-bench-v1
  --reliability --pages 300 --k 4)
check(append "${obs}" p2prank-obs-bench-v1 ${obs_args} --label appended)
file(READ "${obs}" text)
string(FIND "${text}" "\"fixture\"\n    },\n    {\n      \"label\": \"appended\"" joined)
if(joined EQUAL -1)
  message(FATAL_ERROR "the appended run must follow the fixture's:\n${text}")
endif()
