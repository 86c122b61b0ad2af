# targets.cmake — the prbench benchmark binary. Included (deferred) by
# inject.cmake after the root CMakeLists.txt has defined the pr_* libraries.
add_executable(prbench
  ${CMAKE_CURRENT_LIST_DIR}/prbench.cpp
  ${CMAKE_CURRENT_LIST_DIR}/spans.cpp
  ${CMAKE_CURRENT_LIST_DIR}/workloads.cpp)
target_link_libraries(prbench PRIVATE
  pr_exp pr_core pr_policy pr_press pr_sim pr_obs pr_workload pr_trace pr_util
  press_read_warnings)
target_include_directories(prbench PRIVATE
  ${CMAKE_SOURCE_DIR}/src ${CMAKE_CURRENT_LIST_DIR})
target_compile_definitions(prbench PRIVATE
  PRBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}"
  PRBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}")
set_target_properties(prbench PROPERTIES
  RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR})
