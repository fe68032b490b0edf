# cli_tests.cmake — end-to-end checks of the plee_fleet command line, one
# case per ctest entry (registered in CMakeLists.txt):
#
#   cmake -DPLEE_FLEET=<binary> -DWORK_DIR=<scratch dir> -DCASE=<name> \
#         -P tests/cli_tests.cmake
#
# Every case checks the exact exit status and a message, not just "failed".

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")

# Runs plee_fleet with ARGN in WORK_DIR; the test fails unless it exits with
# `status` and its stdout + stderr match `pattern`.
function(expect_run status pattern)
  execute_process(COMMAND "${PLEE_FLEET}" ${ARGN}
                  WORKING_DIRECTORY "${WORK_DIR}"
                  RESULT_VARIABLE result
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT result STREQUAL "${status}")
    message(FATAL_ERROR
            "plee_fleet ${ARGN}: exit ${result}, expected ${status}\n${out}${err}")
  endif()
  if(NOT "${out}${err}" MATCHES "${pattern}")
    message(FATAL_ERROR
            "plee_fleet ${ARGN}: output does not match '${pattern}'\n${out}${err}")
  endif()
endfunction()

# Fails the test unless `file` contains exactly `expected` matches of `regex`.
function(expect_count file regex expected)
  file(READ "${WORK_DIR}/${file}" text)
  string(REGEX MATCHALL "${regex}" hits "${text}")
  list(LENGTH hits n)
  if(NOT n EQUAL expected)
    message(FATAL_ERROR "${file}: ${n} matches of '${regex}', expected ${expected}")
  endif()
endfunction()

if(CASE STREQUAL "fleet_of_one")
  # A single-circuit run: the fleet row, then the per-circuit artifacts
  # (the report opens with the dense marked-graph check of the rebuilt
  # netlist).
  expect_run(0 "wrote trace\\.jsonl.*marked graph: well-formed live safe\n.*support pins.*wrote pl\\.dot"
             --circuits b05 --vectors 20 --report --dot pl.dot
             --trace-out trace.jsonl)
  expect_count(trace.jsonl "\"type\":\"job\"" 1)
  expect_count(trace.jsonl "\"type\":\"metrics\"" 1)
  expect_count(pl.dot "digraph" 1)
elseif(CASE STREQUAL "artifacts_need_one_circuit")
  expect_run(1 "need exactly one circuit.*usage: plee_fleet"
             --circuits b05,b07 --dot x.dot)
  if(EXISTS "${WORK_DIR}/x.dot")
    message(FATAL_ERROR "x.dot written despite the usage error")
  endif()
elseif(CASE STREQUAL "bad_number")
  # "1O0" (letter O) is a partial number: rejected, not read as 1.
  expect_run(1 "--vectors: invalid value '1O0'.*usage: plee_fleet"
             --circuits b05 --vectors 1O0)
elseif(CASE STREQUAL "retired_flags")
  # Each job runs once, so the retry and fail-fast flags are gone; a stale
  # command line fails loudly, naming the option.
  expect_run(1 "unknown option: --max-retries.*usage: plee_fleet"
             --circuits b05 --max-retries 2)
  expect_run(1 "unknown option: --fail-fast.*usage: plee_fleet"
             --circuits b05 --fail-fast)
  expect_run(1 "unknown action 'transient'.*usage: plee_fleet"
             --circuits b05 --inject synth.map=0.4:transient)
elseif(CASE STREQUAL "queue_names")
  # The simulator engine is spelled `sweep`; `calendar`, its former name,
  # stays an alias.
  expect_run(0 "simulator \\(sweep queue" --circuits b01 --vectors 5 --queue sweep)
  expect_run(0 "simulator \\(sweep queue" --circuits b01 --vectors 5 --queue calendar)
  expect_run(0 "simulator \\(heap queue" --circuits b01 --vectors 5 --queue heap)
  expect_run(1 "unknown queue kind: 'splay'.*usage: plee_fleet"
             --circuits b01 --queue splay)
elseif(CASE STREQUAL "truncated_blif")
  # A BLIF file cut off inside a cover row.
  file(WRITE "${WORK_DIR}/truncated.blif"
       ".model cut\n.inputs a b\n.outputs y\n.names a b y\n1")
  expect_run(1 "BLIF line [0-9]+" --circuits truncated.blif)
elseif(CASE STREQUAL "unwritable_dot")
  expect_run(1 "no_such_dir/x\\.dot"
             --circuits b05 --vectors 5 --dot no_such_dir/x.dot)
else()
  message(FATAL_ERROR "unknown CASE '${CASE}'")
endif()
