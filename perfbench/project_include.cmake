# Adds bench_perf to the top-level project without editing its files.
# Configure the top-level project with
#
#   cmake -S . -B build \
#     -DCMAKE_PROJECT_benchtemp_INCLUDE=$PWD/perfbench/project_include.cmake
#
# and CMake includes this file right after project(benchtemp). The deferred
# call includes bench_perf.cmake at the end of the top-level CMakeLists.txt,
# after it has set the language level, the compiler flags and the include
# root, so bench_perf and the library it measures build exactly like every
# other target. run.py configures its build this way.
cmake_language(EVAL CODE
  "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/bench_perf.cmake]])")
