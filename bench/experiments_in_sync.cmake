# Fails unless the claims block of EXPERIMENTS.md is byte-identical to
# `bench_fidelity 1 --figure=claims`. Run by ctest with
# -DFIDELITY=<bench_fidelity binary> -DEXPERIMENTS=<EXPERIMENTS.md>.
set(begin_marker "<!-- bench_fidelity 1 --figure=claims: begin -->\n```text\n")
set(end_marker "```\n<!-- bench_fidelity 1 --figure=claims: end -->")

execute_process(COMMAND ${FIDELITY} 1 --figure=claims
    OUTPUT_VARIABLE printed RESULT_VARIABLE rc)
file(READ ${EXPERIMENTS} doc)
string(FIND "${doc}" "${begin_marker}" begin)
string(FIND "${doc}" "${end_marker}" end)
if(begin EQUAL -1 OR end EQUAL -1)
    message(FATAL_ERROR "EXPERIMENTS.md has no bench_fidelity claims block")
endif()
string(LENGTH "${begin_marker}" skip)
math(EXPR first "${begin} + ${skip}")
math(EXPR length "${end} - ${first}")
string(SUBSTRING "${doc}" ${first} ${length} block)
if(NOT block STREQUAL printed)
    message(FATAL_ERROR
        "EXPERIMENTS.md's claims block differs from "
        "`bench_fidelity 1 --figure=claims` (exit ${rc}): replace the "
        "block with the program's output")
endif()
