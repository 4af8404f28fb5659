# CTest script: the observability sinks and the bench regression gate,
# end to end through the shipped binaries.
#
#  1. `emis_cli run` with every sink flag produces a valid report plus
#     non-empty flamegraph / telemetry artifacts.
#  2. `emis_report_diff` on identical artifacts exits 0 (self-diff clean),
#     and its emis-diff-report/1 output validates.
#  3. `emis_report_diff` between runs with different seeds exits 1
#     (out-of-tolerance), so real drift cannot pass the gate.

set(report_a "${WORK_DIR}/gate_a.json")
set(report_b "${WORK_DIR}/gate_b.json")
set(flame "${WORK_DIR}/gate_a.folded")
set(telemetry "${WORK_DIR}/gate_a.ndjson")

execute_process(
  COMMAND ${EMIS_CLI} run --graph er:n=96,p=0.06 --alg cd --seed 2
          --report-out ${report_a} --flamegraph-out ${flame}
          --telemetry-out ${telemetry} --quiet
  RESULT_VARIABLE run_a_rc)
if(NOT run_a_rc EQUAL 0)
  message(FATAL_ERROR "emis_cli run with sink flags failed (rc=${run_a_rc})")
endif()
foreach(artifact ${flame} ${telemetry})
  if(NOT EXISTS ${artifact})
    message(FATAL_ERROR "sink artifact ${artifact} was not written")
  endif()
  file(SIZE ${artifact} artifact_size)
  if(artifact_size EQUAL 0)
    message(FATAL_ERROR "sink artifact ${artifact} is empty")
  endif()
endforeach()

execute_process(
  COMMAND ${EMIS_CLI} validate-report ${report_a}
  RESULT_VARIABLE validate_rc)
if(NOT validate_rc EQUAL 0)
  message(FATAL_ERROR "validate-report rejected ${report_a} (rc=${validate_rc})")
endif()

# Self-diff must be clean, and the diff report itself must validate.
set(diff_clean "${WORK_DIR}/gate_diff_clean.json")
execute_process(
  COMMAND ${EMIS_REPORT_DIFF} --baseline ${report_a} --current ${report_a}
          --out ${diff_clean} --quiet
  RESULT_VARIABLE self_rc)
if(NOT self_rc EQUAL 0)
  message(FATAL_ERROR "self-diff was not clean (rc=${self_rc})")
endif()
execute_process(
  COMMAND ${EMIS_CLI} validate-report ${diff_clean}
  RESULT_VARIABLE diff_validate_rc)
if(NOT diff_validate_rc EQUAL 0)
  message(FATAL_ERROR "validate-report rejected ${diff_clean} (rc=${diff_validate_rc})")
endif()

# A genuinely different run (new seed) must trip the gate with exit 1.
execute_process(
  COMMAND ${EMIS_CLI} run --graph er:n=96,p=0.06 --alg cd --seed 3
          --report-out ${report_b} --quiet
  RESULT_VARIABLE run_b_rc)
if(NOT run_b_rc EQUAL 0)
  message(FATAL_ERROR "emis_cli run (seed 3) failed (rc=${run_b_rc})")
endif()
execute_process(
  COMMAND ${EMIS_REPORT_DIFF} --baseline ${report_a} --current ${report_b} --quiet
  RESULT_VARIABLE drift_rc)
if(NOT drift_rc EQUAL 1)
  message(FATAL_ERROR "drifted diff should exit 1, got rc=${drift_rc}")
endif()
