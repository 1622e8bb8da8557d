# Gate: alphapim_explain keeps its report header whole for a long
# trace path. The fixture is copied under a relative path of more
# than 600 characters; the report must still print "window:" at the
# start of a line, not glued onto a cut-off header line.
#
# Arguments (all -D):
#   EXPLAIN  path to the alphapim_explain binary
#   FIXTURE  committed Chrome-trace fixture
#   WORKDIR  scratch directory for the copy

string(REPEAT "d" 200 _dir)
set(_trace "${_dir}/${_dir}/${_dir}/fixture.trace.json")
configure_file(${FIXTURE} ${WORKDIR}/${_trace} COPYONLY)

execute_process(
    COMMAND ${EXPLAIN} --trace ${_trace}
    WORKING_DIRECTORY ${WORKDIR}
    RESULT_VARIABLE _code
    OUTPUT_VARIABLE _out
    ERROR_VARIABLE _err
)
if(NOT _code EQUAL 0)
    message(FATAL_ERROR "alphapim_explain failed (${_code}): ${_err}")
endif()
if(NOT "${_out}" MATCHES "\nwindow: ")
    message(FATAL_ERROR
        "no line starts with 'window:' -- the header was cut off:\n"
        "${_out}")
endif()
