# Runs `BIN explore` on the seed-7 congestion instance (a random
# 8-core/40-packet CDCG, exhaustive search on a 3x3 mesh) in WORKDIR under
# link-claim and three flit configurations whose buffer constraints bind,
# and requires byte-identical output to two golden files:
#
#   CONGESTION  link-claim, then credit flow control at depth 1
#   FLIT        credit at depth 1, on/off at depth 2, then virtual
#               cut-through at the smallest legal depth (305 flits)
#
# Blocks are joined by "---" lines.
#
#   cmake -DBIN=... -DWORKDIR=... -DCONGESTION=... -DFLIT=... \
#         -P flit_binding_golden.cmake
set(instance explore --workload random --cores 8 --packets 40 --bits 81920
             --mesh 3x3 --method es --seed 7 --csv)

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

function(expect_golden out path)
  file(READ "${path}" want)
  if(NOT out STREQUAL want)
    message(FATAL_ERROR "output differs from ${path}\n"
                        "--- expected ---\n${want}\n--- actual ---\n${out}")
  endif()
endfunction()

run_block(link)
run_block(credit1 --backend flit --buffer-depth 1)
run_block(onoff2 --backend flit --buffer-depth 2 --flow-control onoff)
run_block(vct305 --backend flit --buffer-depth 305 --switching vct)
expect_golden("${link}---\n${credit1}" "${CONGESTION}")
expect_golden("${credit1}---\n${onoff2}---\n${vct305}" "${FLIT}")
