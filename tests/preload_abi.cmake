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
#     the PLT (src/interpose/preload.map keeps them local);
#   * defines, in its full symbol table (`nm -C`), anything of the
#     algorithm registry or another lock than the preload's own:
#     resilock::make_lock, an AnyLockAdapter, a base lock other than
#     the resilient MCS (BasicTicketLock, BasicClhLock, ...), or a
#     cohort lock other than the rwlock writer side's resilient
#     C-PTKT-TKT, whose partitioned-ticket and ticket parts are the only
#     other bases allowed. A table without the interposed entry points
#     (a stripped library) fails rather than passing vacuously.
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

# The full symbol table. The one cohort the rwlocks run, and its two
# parts, are renamed first, so that every resilock::Basic*< or
# resilock::CohortLock< left names a lock the preload must not carry.
execute_process(COMMAND ${NM} -C --defined-only ${LIB}
                OUTPUT_VARIABLE symtab
                ERROR_VARIABLE symtab_err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${NM} -C ${LIB} failed (${rc}): ${symtab_err}")
endif()
set(R "\\(resilock::Resilience\\)")
string(REGEX REPLACE
  "resilock::CohortLock<${R}1, resilock::BasicPartitionedTicketLock<${R}0>, resilock::BasicTicketLock<${R}1> >"
  "C-PTKT-TKT" symtab "${symtab}")
string(REGEX REPLACE "resilock::BasicPartitionedTicketLock<${R}0>"
       "C-PTKT-TKT.global" symtab "${symtab}")
string(REGEX REPLACE "resilock::BasicTicketLock<${R}1>"
       "C-PTKT-TKT.local" symtab "${symtab}")
string(REGEX REPLACE "resilock::BasicMcsLock<${R}1>" "MCS" symtab
       "${symtab}")
string(REPLACE ";" "\\;" symtab "${symtab}")
string(REPLACE "\n" ";" symlines "${symtab}")
set(n_symbols 0)
set(n_foreign 0)
foreach(line IN LISTS symlines)
  if(line MATCHES " [A-Za-z] ")
    math(EXPR n_symbols "${n_symbols} + 1")
  endif()
  if(line MATCHES " [TW] pthread_mutex_lock(@.*)?$")
    set(has_entry_points TRUE)
  endif()
  # A cohort part behind a shield on its own would be a ticket mutex.
  if(line MATCHES "resilock::make_lock|AnyLockAdapter|resilock::(Basic[A-Za-z0-9]+|CohortLock|BoCohortLocal)<|Shield<C-PTKT-TKT\\.")
    math(EXPR n_foreign "${n_foreign} + 1")
    if(n_foreign LESS_EQUAL 5)
      string(SUBSTRING "${line}" 0 240 shown_line)
      list(APPEND problems "defines ${shown_line}")
    endif()
  endif()
endforeach()
if(NOT has_entry_points)
  list(APPEND problems
       "no symbol table to check (${n_symbols} symbols, no pthread_mutex_lock)")
endif()
if(n_foreign GREATER 5)
  list(APPEND problems
       "defines ${n_foreign} registry or foreign-lock symbols in all")
endif()

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
               "${n_interposed} interposed pthread_* symbols; none of its "
               "${n_symbols} symbols is the registry's or another lock's")
