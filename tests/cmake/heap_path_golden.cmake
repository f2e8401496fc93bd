# Runs `BIN explore` on a random 9-core/36-packet CDCG with 200 Mbit of
# traffic on a 3x3 mesh in WORKDIR, and requires byte-identical output to
# GOLDEN. The traffic puts the worst-case schedule horizon past the bucket
# calendar's cap, so every scalar run takes the simulator's heap loop. Four
# blocks, joined by "---" lines: SA under link-claim, SA under flit credit
# flow control at depth 1, then the same two under exhaustive search.
#
#   cmake -DBIN=... -DWORKDIR=... -DGOLDEN=... -P heap_path_golden.cmake
set(instance explore --workload random --cores 9 --packets 36
             --bits 200000000 --mesh 3x3 --seed 7 --csv)

function(run_block out_var)
  execute_process(
    COMMAND "${BIN}" ${instance} ${ARGN}
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE block
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BIN} ${instance} ${ARGN} exited ${rc}:\n${err}")
  endif()
  set(${out_var} "${block}" PARENT_SCOPE)
endfunction()

run_block(sa_link --method sa)
run_block(sa_credit1 --method sa --backend flit --buffer-depth 1)
run_block(es_link --method es)
run_block(es_credit1 --method es --backend flit --buffer-depth 1)
set(out "${sa_link}---\n${sa_credit1}---\n${es_link}---\n${es_credit1}")
file(READ "${GOLDEN}" want)
if(NOT out STREQUAL want)
  message(FATAL_ERROR "output differs from ${GOLDEN}\n"
                      "--- expected ---\n${want}\n--- actual ---\n${out}")
endif()
