// Address-keyed adoption registry for LD_PRELOAD interposition.
//
// A preloaded pthread program hands us pthread_mutex_t* / pthread_rwlock_t*
// pointers it initialized itself — often statically, via
// PTHREAD_MUTEX_INITIALIZER, with no init call we could intercept. The
// registry maps those addresses to resilock handles (the rl_* shim's
// rl_mutex_t / rl_rwlock_t: a mutex is always shield<MCS>, see
// pthread_shim.hpp), adopting unknown addresses lazily on first
// use with exactly-once semantics: however many threads race the first
// lock of a static-initializer mutex, exactly one handle is created and
// every racer gets it.
//
// Structure: a fixed array of buckets, each an insertion-ordered singly
// linked list. Lookups are lock-free (acquire loads down the chain);
// inserts and re-inits serialize on a per-bucket spinlock (atomic_flag —
// deliberately NOT a pthread mutex, since in the preload this code runs
// inside the interposition path itself). Nodes are never freed:
// pthread_mutex_destroy tombstones the node (handle destroyed, slot
// kept), and a later init or adoption at the same address revives it.
// The leak is bounded by the number of DISTINCT lock addresses the
// program ever uses — the same bound LiTL accepts, and what makes
// lock-free readers safe without an epoch scheme.
//
// An rwlock is adopted as the C-RW variant its glibc kind asks for
// (C-RW-RP for the reader-preference kinds, C-RW-WP for
// PREFER_WRITER_NONRECURSIVE_NP), read from the lock's own bytes. A
// PTHREAD_PROCESS_SHARED rwlock, and a mutex that is pshared, robust or
// priority-inheritance / priority-protect, gets a pass-through node
// with no handle: another process may operate on the same bytes, or
// glibc owes the caller a dead owner's EOWNERDEAD or a priority boost,
// so the caller forwards every operation on it to glibc.
#pragma once

#include <cstdint>

#include "interpose/pthread_shim.hpp"

namespace resilock::interpose {

struct PreloadRegistryStats {
  std::uint64_t adopted_mutexes = 0;   // lazy adoptions (static init path)
  std::uint64_t init_mutexes = 0;      // eager pthread_mutex_init routes
  std::uint64_t destroyed_mutexes = 0;
  // Mutex adoptions and inits left to glibc, by reason; a handle's
  // kind is tested in this order, so each counts once.
  std::uint64_t mutexes_robust = 0;        // PTHREAD_MUTEX_ROBUST
  std::uint64_t mutexes_prio_inherit = 0;  // PTHREAD_PRIO_INHERIT
  std::uint64_t mutexes_prio_protect = 0;  // PTHREAD_PRIO_PROTECT
  std::uint64_t mutexes_pshared = 0;       // PTHREAD_PROCESS_SHARED
  std::uint64_t adopted_rwlocks = 0;   // pass-through ones included
  std::uint64_t init_rwlocks = 0;
  std::uint64_t destroyed_rwlocks = 0;
  // Every rwlock adoption or init by outcome; the three add up to
  // adopted_rwlocks + init_rwlocks.
  std::uint64_t rwlocks_reader_pref = 0;  // built as C-RW-RP
  std::uint64_t rwlocks_writer_pref = 0;  // built as C-RW-WP
  std::uint64_t rwlocks_passthrough = 0;  // pshared: left to glibc
  std::uint64_t live_nodes = 0;        // distinct addresses ever seen
};

class PreloadRegistry {
 public:
  // Leaked singleton: preloaded programs operate locks from atexit
  // handlers and static destructors; the registry must outlive them.
  static PreloadRegistry& instance();

  // The handle for `addr`, adopting (the shim's shield<MCS>) when the
  // address is unknown or tombstoned; nullptr for a pass-through mutex.
  // `addr` must point at a glibc-initialized (or zeroed)
  // pthread_mutex_t: its kind is read at adoption. Exactly-once under
  // arbitrary concurrency. Allocation failure during adoption aborts (a
  // lock operation has no error path that could express it).
  rl_mutex_t* mutex_for(const void* addr);

  // nullptr when the address was never adopted (or is tombstoned, or
  // passed through).
  rl_mutex_t* find_mutex(const void* addr);

  // Eager registration for an intercepted pthread_mutex_init: creates
  // (or revives) the handle, nullptr for a pass-through mutex. A live
  // handle at the same address is destroyed and replaced —
  // re-initializing an in-use mutex is UB the caller owns; honoring the
  // re-init keeps us faithful.
  rl_mutex_t* init_mutex(const void* addr);

  // Tombstones the handle; 0, or EBUSY when the address is unknown
  // (destroy of a never-used static initializer is a no-op: 0).
  int destroy_mutex(const void* addr);

  // The same for pthread_rwlock_t addresses, except that rwlock_for
  // and init_rwlock return nullptr for a pass-through (pshared) lock.
  // `addr` must point at a glibc-initialized pthread_rwlock_t: its kind
  // and pshared flag are read at adoption.
  rl_rwlock_t* rwlock_for(const void* addr);
  rl_rwlock_t* init_rwlock(const void* addr);
  int destroy_rwlock(const void* addr);

  PreloadRegistryStats stats() const noexcept;

 private:
  PreloadRegistry();
  ~PreloadRegistry() = delete;
  PreloadRegistry(const PreloadRegistry&) = delete;
  PreloadRegistry& operator=(const PreloadRegistry&) = delete;

  struct Impl;
  Impl* impl_;
};

}  // namespace resilock::interpose
