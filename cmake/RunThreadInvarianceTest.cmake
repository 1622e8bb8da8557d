# Gate: answers do not depend on the host worker-thread count.
#
# Runs the answer-digest driver (tests/core/answer_digest.cc) with
# ALPHA_PIM_THREADS=1 and =4. Each run prints the thread limit it got
# and two digests per answer. Within a run both digests must agree,
# and the 4-thread digests must equal the 1-thread ones bit for bit.
# Where the machine has fewer than 2 hardware threads, the second run
# would be serial too, so the test reports SKIP instead of passing.
#
# Arguments (all -D):
#   DRIVER  path to the answer_digest binary

foreach(_threads 1 4)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env ALPHA_PIM_THREADS=${_threads}
                ${DRIVER}
        RESULT_VARIABLE _code
        OUTPUT_VARIABLE _out_${_threads}
        ERROR_VARIABLE _err
    )
    if(NOT _code EQUAL 0)
        message(FATAL_ERROR
            "answer_digest at ALPHA_PIM_THREADS=${_threads} failed "
            "(${_code}):\n${_err}")
    endif()
    if(NOT _out_${_threads} MATCHES "^threads ([0-9]+)\n")
        message(FATAL_ERROR
            "no thread count in:\n${_out_${_threads}}")
    endif()
    set(_got_${_threads} ${CMAKE_MATCH_1})
    string(REGEX REPLACE "^threads [0-9]+\n" "" _answers_${_threads}
        "${_out_${_threads}}")

    # Both in-process runs of every answer must agree.
    string(REGEX MATCHALL "[^\n]+ run 1 [0-9a-f]+" _second
        "${_answers_${_threads}}")
    if(NOT _second)
        message(FATAL_ERROR "no digests in:\n${_out_${_threads}}")
    endif()
    foreach(_line IN LISTS _second)
        string(REPLACE " run 1 " " run 0 " _first "${_line}")
        string(FIND "${_answers_${_threads}}" "${_first}\n" _at)
        if(_at EQUAL -1)
            message(FATAL_ERROR
                "repeated run differs at ${_got_${_threads}} "
                "thread(s):\n${_answers_${_threads}}")
        endif()
    endforeach()
endforeach()

if(_got_4 LESS 2)
    message(STATUS "SKIP: ${_got_4} hardware thread(s), so the "
        "ALPHA_PIM_THREADS=4 run was serial as well")
    return()
endif()
if(NOT _answers_1 STREQUAL _answers_4)
    message(FATAL_ERROR
        "answers depend on the thread count\n"
        "--- 1 thread:\n${_answers_1}"
        "--- ${_got_4} threads:\n${_answers_4}")
endif()
message(STATUS "identical at 1 and ${_got_4} threads:\n${_answers_1}")
