# CTest script: `emis_cli run --report-out` and `emis_cli sweep --report-out`
# must produce documents that `emis_cli validate-report` accepts.
foreach(alg cd nocd)
  set(report "${WORK_DIR}/report_${alg}.json")
  execute_process(
    COMMAND ${EMIS_CLI} run --graph er:n=96,p=0.06 --alg ${alg} --seed 2
            --report-out ${report} --quiet
    RESULT_VARIABLE run_rc)
  if(NOT run_rc EQUAL 0)
    message(FATAL_ERROR "emis_cli run --alg ${alg} failed (rc=${run_rc})")
  endif()
  execute_process(
    COMMAND ${EMIS_CLI} validate-report ${report}
    RESULT_VARIABLE validate_rc)
  if(NOT validate_rc EQUAL 0)
    message(FATAL_ERROR "validate-report rejected ${report} (rc=${validate_rc})")
  endif()
endforeach()

# Sweep round-trip on the parallel path: the emitted emis-bench-report/1
# document (with jobs/wall_seconds execution facts) must validate too.
set(sweep_report "${WORK_DIR}/report_sweep.json")
execute_process(
  COMMAND ${EMIS_CLI} sweep --alg cd --family er --sizes 32,64 --seeds 2
          --jobs 2 --report-out ${sweep_report} --quiet
  RESULT_VARIABLE sweep_rc)
if(NOT sweep_rc EQUAL 0)
  message(FATAL_ERROR "emis_cli sweep --jobs 2 failed (rc=${sweep_rc})")
endif()
execute_process(
  COMMAND ${EMIS_CLI} validate-report ${sweep_report}
  RESULT_VARIABLE sweep_validate_rc)
if(NOT sweep_validate_rc EQUAL 0)
  message(FATAL_ERROR "validate-report rejected ${sweep_report} (rc=${sweep_validate_rc})")
endif()
