# CTest driver for net_quickstart_wire_lint: run the net_quickstart example
# against a real loopback EvalServer (it scrapes its own GET /metrics over
# HTTP and writes the exposition), then lint the scraped text with
# tools/wire_lint.py.  Split into a -P script because the two steps must
# share the artifact path and fail the test as one unit.
execute_process(
  COMMAND ${QUICKSTART} --metrics-out ${OUT_DIR}/net_quickstart.prom
  RESULT_VARIABLE run_rc)
if(NOT run_rc EQUAL 0)
  message(FATAL_ERROR "net_quickstart run failed (rc=${run_rc})")
endif()
execute_process(
  COMMAND ${PYTHON} ${LINT} ${OUT_DIR}/net_quickstart.prom
  RESULT_VARIABLE lint_rc)
if(NOT lint_rc EQUAL 0)
  message(FATAL_ERROR "wire_lint failed (rc=${lint_rc})")
endif()

# Negative case: the same scrape with one farm-wide total edited so it no
# longer equals the sum of its per-chip twins must fail the lint, naming
# the unbalanced family.
file(READ ${OUT_DIR}/net_quickstart.prom scrape)
string(REGEX MATCH "\ncofhee_service_sessions_total ([0-9]+)\n" line "${scrape}")
if(NOT line)
  message(FATAL_ERROR "scrape has no cofhee_service_sessions_total sample")
endif()
math(EXPR edited "${CMAKE_MATCH_1} + 1")
string(REPLACE "${line}" "\ncofhee_service_sessions_total ${edited}\n" scrape "${scrape}")
file(WRITE ${OUT_DIR}/net_quickstart_unbalanced.prom "${scrape}")
execute_process(
  COMMAND ${PYTHON} ${LINT} ${OUT_DIR}/net_quickstart_unbalanced.prom
  RESULT_VARIABLE bad_rc
  ERROR_VARIABLE bad_err)
if(bad_rc EQUAL 0 OR NOT bad_err MATCHES "cofhee_service_sessions_total")
  message(FATAL_ERROR "wire_lint accepted an unbalanced farm total: ${bad_err}")
endif()
