# Knob-table guard, run by ctest as `knob_table`:
#
#   cmake -DROOT=<source dir> -P knob_table.cmake
#
# Fails when
#   * a RESILOCK_* environment variable read in src/ or tools/ has no
#     row in README.md's "Environment knobs" table. A read is a quoted
#     "RESILOCK_..." name; build macros (RESILOCK_HAVE_FUTEX, ...) are
#     never quoted, so they are not counted;
#   * a row of that table names a variable nothing there reads.
# So a new knob cannot land undocumented, and a deleted one cannot
# linger in the table.
cmake_minimum_required(VERSION 3.16)

if(NOT ROOT)
  message(FATAL_ERROR "usage: cmake -DROOT=<source dir> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

file(GLOB_RECURSE sources
     "${ROOT}/src/*.cpp" "${ROOT}/src/*.hpp"
     "${ROOT}/tools/*.cpp" "${ROOT}/tools/*.hpp")
set(read "")
foreach(f IN LISTS sources)
  file(READ "${f}" text)
  string(REGEX MATCHALL "\"RESILOCK_[A-Z0-9_]+\"" quoted "${text}")
  foreach(q IN LISTS quoted)
    string(REPLACE "\"" "" name "${q}")
    list(APPEND read "${name}")
  endforeach()
endforeach()
list(REMOVE_DUPLICATES read)

file(READ "${ROOT}/README.md" readme)
string(FIND "${readme}" "\n## Environment knobs" at)
if(at EQUAL -1)
  message(FATAL_ERROR "README.md has no \"## Environment knobs\" section")
endif()
string(SUBSTRING "${readme}" ${at} -1 section)
string(SUBSTRING "${section}" 1 -1 rest)
string(FIND "${rest}" "\n## " end)
if(NOT end EQUAL -1)
  string(SUBSTRING "${rest}" 0 ${end} section)
endif()
string(REGEX MATCHALL "\n\\| `RESILOCK_[A-Z0-9_]+` \\|" rows "${section}")
set(documented "")
foreach(row IN LISTS rows)
  string(REGEX MATCH "RESILOCK_[A-Z0-9_]+" name "${row}")
  list(APPEND documented "${name}")
endforeach()

set(problems "")
foreach(name IN LISTS read)
  if(NOT name IN_LIST documented)
    list(APPEND problems "${name} is read but has no knob-table row")
  endif()
endforeach()
foreach(name IN LISTS documented)
  if(NOT name IN_LIST read)
    list(APPEND problems "${name} has a knob-table row but nothing reads it")
  endif()
endforeach()

list(LENGTH read n_read)
list(LENGTH documented n_rows)
list(LENGTH problems n)
if(n GREATER 0)
  string(REPLACE ";" "\n  " shown "${problems}")
  message(FATAL_ERROR "knob table: ${n} problem(s) (${n_read} variables "
                      "read, ${n_rows} rows):\n  ${shown}")
endif()
message(STATUS "knob table: the ${n_read} RESILOCK_* variables read in "
               "src/ and tools/ are exactly the ${n_rows} README rows")
