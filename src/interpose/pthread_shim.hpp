// C-style pthread_mutex-compatible shim: the lock libresilock_preload.so
// runs behind every adopted pthread_mutex_t and pthread_rwlock_t.
//
// The paper's §7 compares the in-protocol remedies against API-level
// error reporting (PTHREAD_MUTEX_ERRORCHECK returns EPERM on an unlock
// by a non-owner; Golang panics). This shim provides exactly that
// contract in the pthread shapes, the way the paper's authors built
// shield_arr.h into glibc's one mutex: bookkeeping in front of one
// protocol. A mutex is the resilient MCS lock behind the ownership
// shield (shield/shield.hpp), `shield<MCS>` in lockdep reports, traces
// and lockstat; it is built directly, with no algorithm registry and
// no virtual call. The paper's other algorithms stay reachable
// in-process through the registry (core/lock_registry.hpp) and
// TransparentMutex.
//
//   rl_mutex_t m;
//   rl_mutex_init(&m, nullptr, 1);  // or "MCS"; resilient nonzero
//   rl_mutex_lock(&m);              // 0 on success
//   rl_mutex_unlock(&m);            // 0, or EPERM on unbalanced unlock
//   rl_mutex_destroy(&m);
#pragma once

#include <ctime>

namespace resilock::interpose {

struct rl_mutex_t {
  void* impl;  // owned; opaque to C callers
};

// Returns 0 on success, EINVAL for a null mutex or any configuration
// other than the shim's one: `algorithm` NULL or "MCS", `resilient`
// nonzero. (The arguments keep the LiTL-style signature of earlier
// callers, which passed a registry name and a flavor.)
int rl_mutex_init(rl_mutex_t* m, const char* algorithm, int resilient);

// Returns 0. Blocks until the lock is held.
int rl_mutex_lock(rl_mutex_t* m);

// Returns 0 if the lock was taken, EBUSY otherwise — including when
// the caller already holds it, as glibc and POSIX define for a default
// or errorcheck mutex ("locked, including by the current thread"). The
// refusal adds no depth and records no misuse event.
int rl_mutex_trylock(rl_mutex_t* m);

// The trylock of glibc's recursive mutex kind: the owner's trylock is
// absorbed as the shield's reentrant relock (a depth bump its extra
// unlock balances), so it returns 0. EBUSY when another thread holds it.
int rl_mutex_trylock_recursive(rl_mutex_t* m);

// pthread_mutex_timedlock shape: blocks until the lock is acquired or
// the CLOCK_REALTIME absolute deadline passes. Returns 0 on
// acquisition, ETIMEDOUT when the deadline expired with the lock still
// held elsewhere, EINVAL for a null/malformed abstime. The timed wait
// runs outside the queue protocol (park::TimedGate over the trylock
// path — a queue slot cannot be abandoned mid-wait), so a timeout adds
// no lockdep order edges, same contract as a failed trylock.
int rl_mutex_timedlock(rl_mutex_t* m, const timespec* abstime);

// Returns 0 on a balanced unlock, EPERM when the shield intercepted an
// unbalanced, double or non-owner unlock (errorcheck semantics).
int rl_mutex_unlock(rl_mutex_t* m);

// Returns 0; EBUSY if the mutex pointer is null or already destroyed.
int rl_mutex_destroy(rl_mutex_t* m);

// ---------------------------------------------------------------------
// pthread_rwlock-shaped shim over the C-RW family (core/rw/crw.hpp).
//
// pthread_rwlock_unlock is ONE entry point for both modes; the C-RW
// protocols have two (runlock/wunlock). The mode-aware shield
// (RwShield, shield/rw_shield.hpp) is what makes the single-unlock
// contract implementable: the per-thread held record notes
// whether the caller holds the lock in read or write mode, and the
// unlock routes to the matching side — or reports EPERM when the
// caller holds nothing (errorcheck semantics). The writer side is the
// paper's resilient C-PTKT-TKT cohort lock.
// ---------------------------------------------------------------------

struct rl_rwlock_t {
  void* impl;  // owned; opaque to C callers
};

// `preference` selects the C-RW variant: "rp"/"reader" (also NULL:
// glibc's default rwlock kind is reader preference), "wp"/"writer",
// "np"/"neutral". The base is always the resilient flavor (W-side
// ticket remedy; the R side is protected by the shield, which is the
// repo's answer to §4's open problem). Returns 0, or EINVAL for an
// unknown preference.
int rl_rwlock_init(rl_rwlock_t* rw, const char* preference);

// Return 0. Block until granted.
int rl_rwlock_rdlock(rl_rwlock_t* rw);
int rl_rwlock_wrlock(rl_rwlock_t* rw);

// Return 0 if granted, EBUSY if the acquisition would have blocked
// (pthread_rwlock_tryrdlock/trywrlock semantics). As in glibc, a
// trylock by the caller's own write hold, and a trywrlock by its own
// read hold, are refused EBUSY with no depth and no misuse event; a
// tryrdlock by its own read hold is granted. Trylocks add no
// lockdep order edges — an acquisition that cannot block cannot
// contribute to a deadlock cycle — but a granted trylock still enters
// the caller's held set, so the mode-aware unlock routing and misuse
// interception see it exactly like a blocking acquisition.
int rl_rwlock_tryrdlock(rl_rwlock_t* rw);
int rl_rwlock_trywrlock(rl_rwlock_t* rw);

// pthread_rwlock_timedrdlock/timedwrlock shapes; same semantics as
// rl_mutex_timedlock (0 / ETIMEDOUT / EINVAL, no lockdep edges on
// timeout). Both modes wait on one gate per rwlock; a wake is a
// broadcast and each waiter re-tries its own mode.
int rl_rwlock_timedrdlock(rl_rwlock_t* rw, const timespec* abstime);
int rl_rwlock_timedwrlock(rl_rwlock_t* rw, const timespec* abstime);

// Returns 0 on a balanced unlock of either mode, EPERM when the shield
// intercepted a misuse (unbalanced read unlock, mode mismatch,
// non-owner write unlock).
int rl_rwlock_unlock(rl_rwlock_t* rw);

// Returns 0; EBUSY if the pointer is null or already destroyed.
int rl_rwlock_destroy(rl_rwlock_t* rw);

}  // namespace resilock::interpose
