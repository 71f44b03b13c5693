# ABI guard for libresilock_preload.so, run by ctest as `preload_abi`:
#
#   cmake -DNM=<nm> -DLIB=<libresilock_preload.so> -P preload_abi.cmake
#
# Fails when the library
#   * imports __tls_get_addr: some thread_local on the interposed path
#     is reached through the general-dynamic TLS model instead of one
#     %fs-relative load (the library is built -ftls-model=initial-exec);
#   * exports any defined symbol besides the interposed pthread_* entry
#     points: every other export is a symbol its own calls reach through
#     the PLT (src/interpose/preload.map keeps them local).
cmake_minimum_required(VERSION 3.16)

set(interposed
  pthread_mutex_init pthread_mutex_lock pthread_mutex_trylock
  pthread_mutex_timedlock pthread_mutex_clocklock pthread_mutex_unlock
  pthread_mutex_destroy
  pthread_rwlock_init pthread_rwlock_rdlock pthread_rwlock_wrlock
  pthread_rwlock_tryrdlock pthread_rwlock_trywrlock
  pthread_rwlock_timedrdlock pthread_rwlock_timedwrlock
  pthread_rwlock_clockrdlock pthread_rwlock_clockwrlock
  pthread_rwlock_unlock pthread_rwlock_destroy
  pthread_cond_init pthread_cond_wait pthread_cond_timedwait
  pthread_cond_clockwait pthread_cond_signal pthread_cond_broadcast
  pthread_cond_destroy)

if(NOT NM OR NOT LIB)
  message(FATAL_ERROR "usage: cmake -DNM=<nm> -DLIB=<lib.so> -P ${CMAKE_CURRENT_LIST_FILE}")
endif()

execute_process(COMMAND ${NM} -D ${LIB}
                OUTPUT_VARIABLE symbols
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} -D ${LIB} failed (${rc})")
endif()

string(REPLACE "\n" ";" lines "${symbols}")
set(problems "")
set(exported "")
foreach(line IN LISTS lines)
  # "<address> <type> <name>" for a defined symbol, "<type> <name>" for
  # an undefined one; the name may carry an @version suffix.
  if(NOT line MATCHES "([A-Za-z]) ([^ ]+)$")
    continue()
  endif()
  set(type "${CMAKE_MATCH_1}")
  string(REGEX REPLACE "@.*" "" name "${CMAKE_MATCH_2}")
  if(type MATCHES "^[Uwv]$")
    if(name STREQUAL "__tls_get_addr")
      list(PREPEND problems "imports __tls_get_addr (general-dynamic TLS)")
    endif()
  else()
    list(APPEND exported "${name}")
    if(NOT name IN_LIST interposed)
      list(APPEND problems "exports ${name}")
    endif()
  endif()
endforeach()

foreach(name IN LISTS interposed)
  if(NOT name IN_LIST exported)
    list(APPEND problems "does not export ${name}")
  endif()
endforeach()

list(LENGTH problems n)
if(n GREATER 0)
  list(LENGTH exported n_exported)
  list(SUBLIST problems 0 20 shown)
  string(REPLACE ";" "\n  " shown "${shown}")
  message(FATAL_ERROR "${LIB}: ${n} ABI problem(s), ${n_exported} "
                      "defined exports; first ones:\n  ${shown}")
endif()
list(LENGTH interposed n_interposed)
message(STATUS "${LIB}: no __tls_get_addr import; exports exactly the "
               "${n_interposed} interposed pthread_* symbols")
