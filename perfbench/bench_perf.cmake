# bench_perf, the repository benchmark (see README.md).
#
# Included by project_include.cmake at the end of the top-level
# CMakeLists.txt, so these targets live in the top-level directory and take
# its language level, compiler flags and sanitizer presets.

add_executable(bench_perf ${CMAKE_CURRENT_LIST_DIR}/bench_perf.cc)
target_link_libraries(bench_perf benchtemp)

# All four workloads at one epoch: failure checks, bit-identical repeats,
# traced == untraced, and trace files that parse as JSON and cover the
# training-thread epoch wall.
add_test(NAME bench_perf_smoke
         COMMAND python3 ${CMAKE_CURRENT_LIST_DIR}/run.py --smoke
                 --binary $<TARGET_FILE:bench_perf>
                 --out ${CMAKE_CURRENT_BINARY_DIR}/bench_perf_smoke)
