# Trace-file round trip through the command-line tools: record a
# PABPDTF1 trace with tracetool, replay and inspect it, characterise
# it with pabp-stats, and check that a file of another format (the
# retired PABPTRC2 magic) is refused with a typed error and exit 2.
#
#   cmake -DTRACETOOL=<tracetool> -DPABP_STATS=<pabp-stats> \
#         -DWORK_DIR=<dir> -P trace_smoke.cmake

set(trace "${WORK_DIR}/trace_smoke.trace")
set(foreign "${WORK_DIR}/trace_smoke_pabptrc2.trace")

# Run a command; it must exit 0 and print something matching EXPECT.
function(expect_ok expect)
    execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc
                    OUTPUT_VARIABLE out ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "exit ${rc}: ${ARGN}\n${out}${err}")
    endif()
    if(NOT out MATCHES "${expect}")
        message(FATAL_ERROR "no '${expect}' from: ${ARGN}\n${out}")
    endif()
endfunction()

expect_ok("recorded 20000 events"
          "${TRACETOOL}" --record=dchain --steps=20000 "--out=${trace}")
expect_ok("replayed 20000 insts" "${TRACETOOL}" "--replay=${trace}")
expect_ok("trace: 20000 events" "${TRACETOOL}" "--inspect=${trace}")
expect_ok("predictability" "${PABP_STATS}" --characterize "${trace}")

file(WRITE "${foreign}" "PABPTRC2 and bytes of the retired format")
execute_process(COMMAND "${PABP_STATS}" --characterize "${foreign}"
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "BadMagic: .*not a PABPDTF1 trace")
    message(FATAL_ERROR
            "PABPTRC2 file: want exit 2 and a typed BadMagic error, "
            "got exit ${rc}: ${err}")
endif()

file(REMOVE "${trace}" "${foreign}")
