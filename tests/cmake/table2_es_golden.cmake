# Runs `BIN explore --workload suite#NAME --csv` in WORKDIR for every NAME
# in APPS (a comma-separated list), heads each block with a "--- NAME"
# line, and requires the concatenation to be byte-identical to EXPECTED.
#
#   cmake -DBIN=... -DAPPS=a,b,... -DWORKDIR=... -DEXPECTED=... \
#         -P table2_es_golden.cmake
string(REPLACE "," ";" apps "${APPS}")
set(out "")
foreach(app IN LISTS apps)
  execute_process(
    COMMAND "${BIN}" explore --workload "suite#${app}" --csv
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE block
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} explore --workload suite#${app} exited ${rc}:\n${err}")
  endif()
  string(APPEND out "--- ${app}\n${block}")
endforeach()
file(READ "${EXPECTED}" want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "output differs from ${EXPECTED}\n"
                      "--- expected ---\n${want}\n--- actual ---\n${out}")
endif()
