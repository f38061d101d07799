# Runs the vasim CLI with option keys its commands do not read and fails
# unless every run exits non-zero with an error naming the key.
#   cmake -DVASIM=path/to/vasim -P cli_rejects_unknown_options.cmake
function(expect_rejected key)
  execute_process(COMMAND ${VASIM} ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "vasim ${ARGN}: exited 0; expected it to refuse --${key}")
  endif()
  if(NOT err MATCHES "unknown option --${key} ")
    message(FATAL_ERROR "vasim ${ARGN}: exit ${rc}, error does not name --${key}: ${err}")
  endif()
endfunction()

expect_rejected(iqq run --bench bzip2 --scheme abs --iqq 512)
expect_rejected(kernel run --bench bzip2 --scheme abs --kernel delay-queue)
expect_rejected(vdd sweep --bench bzip2 --vdd 0.97)
expect_rejected(csv snap save --bench bzip2 --scheme abs --out unused.snap --csv)
expect_rejected(iq record --bench bzip2 --out unused.trace --iq 16)
expect_rejected(bench list --bench bzip2)
