// C-style pthread_mutex-compatible shim.
//
// The paper's §7 compares the in-protocol remedies against API-level
// error reporting (PTHREAD_MUTEX_ERRORCHECK returns EPERM on an unlock
// by a non-owner; Golang panics). This shim provides exactly that
// contract over any resilock algorithm, completing the LiTL analogy: C
// code written against the pthread shapes links against these functions
// and gets both the chosen algorithm and errorcheck semantics.
//
//   rl_mutex_t m;
//   rl_mutex_init(&m, "MCS", 1);   // algorithm + resilient flag
//   rl_mutex_lock(&m);             // 0 on success
//   rl_mutex_unlock(&m);           // 0, or EPERM on unbalanced unlock
//   rl_mutex_destroy(&m);
//
// NULL algorithm selects the environment default (RESILOCK_ALGO), as
// LiTL does.
#pragma once

#include <cstdint>
#include <ctime>
#include <string>
#include <string_view>

namespace resilock::interpose {

struct rl_mutex_t {
  void* impl;  // owned; opaque to C callers
};

// True unless RESILOCK_SHIELD=0: interposed mutexes are wrapped in the
// generic ownership shield (src/shield/), so misuse is intercepted
// before the selected protocol sees it — protection "for free" even for
// algorithms with no bespoke resilient variant.
bool shield_interposition_enabled();

// The registry name an interposed mutex should instantiate for `base`:
// upgrades to "shield<base>" when shield interposition is on, the name
// is not already a shield composite, and the composite is registered.
// The C shim applies this to EVERY rl_mutex_init (explicit algorithm
// names included — C callers are the "interposed program" the shield
// protects for free); TransparentMutex applies it only to its
// environment-selected default, since its explicit constructor is the
// in-process C++ API where callers name an exact registry entry.
std::string interposed_lock_name(std::string_view base);

// Returns 0 on success, EINVAL for an unknown algorithm name. The
// mutex is routed through the ownership shield (even for an explicitly
// named algorithm; `resilient` selects the BASE flavor behind it)
// unless RESILOCK_SHIELD=0 — set that to study an algorithm's bare
// misuse behavior through this API.
int rl_mutex_init(rl_mutex_t* m, const char* algorithm, int resilient);

// Returns 0. Blocks until the lock is held.
int rl_mutex_lock(rl_mutex_t* m);

// Returns 0 if the lock was taken, EBUSY otherwise.
int rl_mutex_trylock(rl_mutex_t* m);

// pthread_mutex_timedlock shape: blocks until the lock is acquired or
// the CLOCK_REALTIME absolute deadline passes. Returns 0 on
// acquisition, ETIMEDOUT when the deadline expired with the lock still
// held elsewhere, EINVAL for a null/malformed abstime. The timed wait
// runs outside the queue protocol (park::TimedGate over the trylock
// path — a queue slot cannot be abandoned mid-wait), so a timeout adds
// no lockdep order edges, same contract as a failed trylock. An
// algorithm whose trylock is emulated by blocking (supports_trylock()
// false — CLH) degrades to a plain blocking lock, documented behavior.
int rl_mutex_timedlock(rl_mutex_t* m, const timespec* abstime);

// Returns 0 on a balanced unlock, EPERM when the algorithm detected an
// unbalanced unlock (errorcheck semantics; only resilient algorithms
// detect — originals return 0 and corrupt, faithfully).
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
// caller holds nothing (errorcheck semantics). With RESILOCK_SHIELD=0
// the bare protocol is exposed; unlock then demultiplexes on the
// wrapper's own write-owner note and misuse corrupts faithfully, as
// the paper's §4 analysis describes.
// ---------------------------------------------------------------------

struct rl_rwlock_t {
  void* impl;  // owned; opaque to C callers
};

// `preference` selects the C-RW variant: "rp"/"reader" (also NULL:
// glibc's default rwlock kind is reader preference), "wp"/"writer",
// "np"/"neutral". `resilient` selects the base flavor (W-side ticket
// remedy; the R side is protected by the shield, which is the repo's
// answer to §4's open problem). Returns 0, or EINVAL for an unknown
// preference.
int rl_rwlock_init(rl_rwlock_t* rw, const char* preference, int resilient);

// Return 0. Block until granted.
int rl_rwlock_rdlock(rl_rwlock_t* rw);
int rl_rwlock_wrlock(rl_rwlock_t* rw);

// Return 0 if granted, EBUSY if the acquisition would have blocked
// (pthread_rwlock_tryrdlock/trywrlock semantics). Trylocks add no
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
