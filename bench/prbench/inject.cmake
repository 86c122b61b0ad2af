# inject.cmake — adds the prbench target to the top-level project without
# editing any CMakeLists.txt outside this directory.
#
# run.sh configures the root project with
#   -DCMAKE_PROJECT_press_read_INCLUDE=<this file>
# so CMake includes this file at the end of the root project() call. The
# pr_* libraries do not exist yet at that point, so the real target
# definitions (targets.cmake) are deferred to the end of the root
# directory. The paths are baked into the deferred call through EVAL CODE
# because a deferred call's arguments are evaluated when it runs, not when
# it is scheduled.
cmake_language(EVAL CODE
  "cmake_language(DEFER DIRECTORY [[${CMAKE_SOURCE_DIR}]] CALL include [[${CMAKE_CURRENT_LIST_DIR}/targets.cmake]])")
