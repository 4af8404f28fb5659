# CTest script: `emis_cli --help` must exit 0 and match the committed
# snapshot byte-for-byte, so the documented flag surface (--engine,
# --shards, graph specs) cannot drift from the golden file without a
# deliberate update. Regenerate with:
#   build/tools/emis_cli --help > tests/golden/emis_cli_help.txt
foreach(invocation "help" "--help" "-h")
  execute_process(
    COMMAND ${EMIS_CLI} ${invocation}
    OUTPUT_VARIABLE help_out
    RESULT_VARIABLE help_rc)
  if(NOT help_rc EQUAL 0)
    message(FATAL_ERROR "emis_cli ${invocation} exited ${help_rc}, want 0")
  endif()
  file(READ ${GOLDEN} golden_out)
  if(NOT help_out STREQUAL golden_out)
    message(FATAL_ERROR
      "emis_cli ${invocation} output does not match ${GOLDEN}; if the change "
      "is intentional, regenerate the snapshot (see header of this script)")
  endif()
endforeach()
