# Adds the benchmark targets to the root project without editing its
# build files. Pass it at configure time:
#
#   cmake -S . -B BUILD -DCMAKE_PROJECT_alpha_pim_INCLUDE=$PWD/bench/suite/attach.cmake
#
# CMake includes this file right after the root project() call, before
# the library targets and GTest exist, so the suite's CMakeLists.txt is
# included at the end of the root CMakeLists.txt instead. Arguments
# of a deferred call expand when it runs, hence the variable.
set(ALPHA_BENCH_SUITE_LISTS ${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt)
cmake_language(DEFER CALL include ${ALPHA_BENCH_SUITE_LISTS})
