// libresilock_preload.so — LD_PRELOAD interposition over glibc pthread
// locks (the paper's evaluation harness shape: LiTL-style transparent
// replacement on unmodified binaries, §6).
//
//   LD_PRELOAD=$PWD/libresilock_preload.so ./your_app
//
// Every pthread_mutex_* / pthread_rwlock_* call in the process routes
// through the rl_* shim (interpose/pthread_shim.hpp), so the whole
// resilock stack — shield interception, lockdep, response rules,
// parking, telemetry, lockstat SIGUSR2 dumps — applies to a binary
// compiled with no resilock headers. The lock is not selectable: every
// adopted mutex is the shim's shield<MCS> (the resilient MCS lock
// behind the ownership shield), every adopted rwlock a shielded
// resilient C-RW lock. The environment knobs select what the layers
// around it do (RESILOCK_POLICY, RESILOCK_TRACE_FILE,
// RESILOCK_LOCKSTAT, RESILOCK_PARK, RESILOCK_DISABLE_CHECK, ...).
//
// Three mechanisms make this safe (each documented at its site):
//   1. Address adoption — PreloadRegistry maps pthread_mutex_t*
//      addresses to rl handles, lazily and exactly-once, which is what
//      makes PTHREAD_MUTEX_INITIALIZER locks (no init call to
//      intercept) work.
//   2. Reentrancy guard — resilock's own internal mutex and rwlock
//      usage forwards to the real glibc symbols (interpose/reentry.hpp);
//      without this, adopting lockdep's graph mutex would recurse into
//      lockdep.
//   3. Native condition variables — glibc's cond_wait would manipulate
//      the passed mutex's internals, which an adopted mutex no longer
//      uses, so every pthread_cond_* entry point runs park::CondWord
//      (park/cond_word.hpp) in the app's own pthread_cond_t bytes: a
//      futex sequence word, the clock recorded at init, and a
//      {waiters, wakes} token word. All-zero bytes are an idle condvar,
//      so PTHREAD_COND_INITIALIZER statics need no adoption. It does so
//      on every thread, reentered and pinned ones included, so a
//      condvar has one implementation whichever thread touches it (a
//      static destructor broadcasting from a thread pinned at exit
//      still wakes workers asleep in it). Only the mutex a wait
//      releases and re-acquires follows the thread's routing: the rl
//      handle on app threads, so a wait on a mutex the caller does not
//      hold gets the shield's EPERM (and its misuse event) without
//      waiting or acquiring anything; glibc's on reentered or pinned
//      ones, matching their own lock calls.
//
// The rwlock kind IS honoured: adoption reads it from the lock's own
// bytes (after glibc's pthread_rwlock_init, or from a static
// initializer) and builds C-RW-RP for glibc's reader-preference kinds,
// C-RW-WP for PREFER_WRITER_NONRECURSIVE_NP. A PTHREAD_PROCESS_SHARED
// rwlock passes through to glibc unadopted, so processes sharing it
// still exclude each other. A mutex that is PTHREAD_PROCESS_SHARED,
// robust, or priority-inheritance / priority-protect passes through the
// same way: other processes, a dead owner's EOWNERDEAD and priority
// boosts are glibc's to honour, and the stats file counts these by
// reason. Of an adopted mutex's type, only the recursive kind is read
// (from the lock's own bytes, at each trylock): its owner's trylock is
// absorbed as a relock and returns 0, where every other kind gets
// glibc's EBUSY. Otherwise mutex attributes are ignored, as in LiTL (a
// recursive-attr relock surfaces as the shield's reentrant-relock
// event), and fork() without exec() is unsupported (a harness that
// forks its app exec()s it). The cond clock
// attribute IS honoured; a CLOCK_REALTIME deadline is re-based onto
// CLOCK_MONOTONIC once, at the call, so a wall-clock step during the
// wait does not move it. Cond waits stay cancellation points. A
// PTHREAD_PROCESS_SHARED condvar stays per-process (private futex ops),
// as before.
//
// The clock-based entry points (pthread_mutex_clocklock,
// pthread_rwlock_clock{rd,wr}lock, pthread_cond_clockwait; glibc 2.30+)
// ARE interposed — leaving them to glibc would lock the raw object at
// an address whose other users go through the adopted handle, silently
// breaking mutual exclusion. The lock variants translate the caller's
// clock into the CLOCK_REALTIME deadline the rl timed APIs take.

#include <dlfcn.h>
#include <pthread.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

#include "interpose/preload_registry.hpp"
#include "interpose/pthread_shim.hpp"
#include "interpose/reentry.hpp"
#include "observe/callsite.hpp"
#include "park/cond_word.hpp"
#include "platform/chrono_to_timespec.hpp"
#include "platform/env.hpp"

namespace ri = resilock::interpose;
namespace park = resilock::park;
namespace platform = resilock::platform;

namespace {

// ---------------------------------------------------------------------
// Real glibc symbols, resolved once with dlsym(RTLD_NEXT). Resolution
// is eager (library constructor) so no lock operation ever runs the
// dynamic linker; must_sym aborts on a missing symbol because a lock
// API has no error path that could express "the libc underneath us is
// gone".
// ---------------------------------------------------------------------

template <typename Fn>
Fn* must_sym(const char* name) {
  void* p = dlsym(RTLD_NEXT, name);
  if (p == nullptr) {
    std::fprintf(stderr, "resilock_preload: dlsym(%s) failed: %s\n", name,
                 dlerror());
    std::abort();
  }
  return reinterpret_cast<Fn*>(p);
}

// For symbols newer than the baseline (the glibc 2.30 clock variants):
// nullptr when the libc underneath lacks them, with the callers
// falling back to a realtime translation of the timed entry points.
template <typename Fn>
Fn* opt_sym(const char* name) {
  return reinterpret_cast<Fn*>(dlsym(RTLD_NEXT, name));
}

struct RealPthread {
  int (*mutex_init)(pthread_mutex_t*, const pthread_mutexattr_t*);
  int (*mutex_lock)(pthread_mutex_t*);
  int (*mutex_trylock)(pthread_mutex_t*);
  int (*mutex_timedlock)(pthread_mutex_t*, const timespec*);
  int (*mutex_unlock)(pthread_mutex_t*);
  int (*mutex_destroy)(pthread_mutex_t*);

  int (*rwlock_init)(pthread_rwlock_t*, const pthread_rwlockattr_t*);
  int (*rwlock_rdlock)(pthread_rwlock_t*);
  int (*rwlock_wrlock)(pthread_rwlock_t*);
  int (*rwlock_tryrdlock)(pthread_rwlock_t*);
  int (*rwlock_trywrlock)(pthread_rwlock_t*);
  int (*rwlock_timedrdlock)(pthread_rwlock_t*, const timespec*);
  int (*rwlock_timedwrlock)(pthread_rwlock_t*, const timespec*);
  int (*rwlock_unlock)(pthread_rwlock_t*);
  int (*rwlock_destroy)(pthread_rwlock_t*);

  // glibc 2.30+ clock variants; nullptr on older libcs (opt_sym).
  int (*mutex_clocklock)(pthread_mutex_t*, clockid_t, const timespec*);
  int (*rwlock_clockrdlock)(pthread_rwlock_t*, clockid_t,
                            const timespec*);
  int (*rwlock_clockwrlock)(pthread_rwlock_t*, clockid_t,
                            const timespec*);
};

RealPthread& real() {
  static RealPthread r = [] {
    RealPthread t;
    t.mutex_init = must_sym<int(pthread_mutex_t*,
                                const pthread_mutexattr_t*)>(
        "pthread_mutex_init");
    t.mutex_lock = must_sym<int(pthread_mutex_t*)>("pthread_mutex_lock");
    t.mutex_trylock =
        must_sym<int(pthread_mutex_t*)>("pthread_mutex_trylock");
    t.mutex_timedlock = must_sym<int(pthread_mutex_t*, const timespec*)>(
        "pthread_mutex_timedlock");
    t.mutex_unlock =
        must_sym<int(pthread_mutex_t*)>("pthread_mutex_unlock");
    t.mutex_destroy =
        must_sym<int(pthread_mutex_t*)>("pthread_mutex_destroy");
    t.rwlock_init = must_sym<int(pthread_rwlock_t*,
                                 const pthread_rwlockattr_t*)>(
        "pthread_rwlock_init");
    t.rwlock_rdlock =
        must_sym<int(pthread_rwlock_t*)>("pthread_rwlock_rdlock");
    t.rwlock_wrlock =
        must_sym<int(pthread_rwlock_t*)>("pthread_rwlock_wrlock");
    t.rwlock_tryrdlock =
        must_sym<int(pthread_rwlock_t*)>("pthread_rwlock_tryrdlock");
    t.rwlock_trywrlock =
        must_sym<int(pthread_rwlock_t*)>("pthread_rwlock_trywrlock");
    t.rwlock_timedrdlock =
        must_sym<int(pthread_rwlock_t*, const timespec*)>(
            "pthread_rwlock_timedrdlock");
    t.rwlock_timedwrlock =
        must_sym<int(pthread_rwlock_t*, const timespec*)>(
            "pthread_rwlock_timedwrlock");
    t.rwlock_unlock =
        must_sym<int(pthread_rwlock_t*)>("pthread_rwlock_unlock");
    t.rwlock_destroy =
        must_sym<int(pthread_rwlock_t*)>("pthread_rwlock_destroy");
    t.mutex_clocklock =
        opt_sym<int(pthread_mutex_t*, clockid_t, const timespec*)>(
            "pthread_mutex_clocklock");
    t.rwlock_clockrdlock =
        opt_sym<int(pthread_rwlock_t*, clockid_t, const timespec*)>(
            "pthread_rwlock_clockrdlock");
    t.rwlock_clockwrlock =
        opt_sym<int(pthread_rwlock_t*, clockid_t, const timespec*)>(
            "pthread_rwlock_clockwrlock");
    return t;
  }();
  return r;
}

ri::PreloadRegistry& reg() { return ri::PreloadRegistry::instance(); }

// ---------------------------------------------------------------------
// Clock-variant deadline translation. The rl timed APIs speak
// CLOCK_REALTIME absolutes (the pthread_*_timedlock contract), so a
// CLOCK_MONOTONIC deadline is re-based through a paired now() sample of
// both clocks. An already-expired deadline stays expired after
// translation (the rl gate still tries once, matching glibc's
// grab-if-free-even-when-late behavior). EINVAL mirrors glibc: bad
// tv_nsec or a clock other than REALTIME/MONOTONIC.
// ---------------------------------------------------------------------

int clock_deadline_to_realtime(clockid_t clockid, const timespec* abstime,
                               timespec* out) {
  if (abstime == nullptr || abstime->tv_nsec < 0 ||
      abstime->tv_nsec >= 1000000000L) {
    return EINVAL;
  }
  if (clockid == CLOCK_REALTIME) {
    *out = *abstime;
    return 0;
  }
  if (clockid != CLOCK_MONOTONIC) return EINVAL;
  timespec mono, wall;
  clock_gettime(CLOCK_MONOTONIC, &mono);
  clock_gettime(CLOCK_REALTIME, &wall);
  out->tv_sec = wall.tv_sec + (abstime->tv_sec - mono.tv_sec);
  out->tv_nsec = wall.tv_nsec + (abstime->tv_nsec - mono.tv_nsec);
  if (out->tv_nsec >= 1000000000L) {
    out->tv_nsec -= 1000000000L;
    ++out->tv_sec;
  } else if (out->tv_nsec < 0) {
    out->tv_nsec += 1000000000L;
    --out->tv_sec;
  }
  return 0;
}

// glibc's clock variants, or their realtime translation on a libc
// older than 2.30: what a reentered thread, or any thread operating a
// pass-through rwlock, runs.
int real_rwlock_clockrdlock(pthread_rwlock_t* rw, clockid_t clockid,
                            const timespec* abstime) {
  if (real().rwlock_clockrdlock != nullptr) {
    return real().rwlock_clockrdlock(rw, clockid, abstime);
  }
  timespec wall;
  const int rc = clock_deadline_to_realtime(clockid, abstime, &wall);
  return rc != 0 ? rc : real().rwlock_timedrdlock(rw, &wall);
}

int real_rwlock_clockwrlock(pthread_rwlock_t* rw, clockid_t clockid,
                            const timespec* abstime) {
  if (real().rwlock_clockwrlock != nullptr) {
    return real().rwlock_clockwrlock(rw, clockid, abstime);
  }
  timespec wall;
  const int rc = clock_deadline_to_realtime(clockid, abstime, &wall);
  return rc != 0 ? rc : real().rwlock_timedwrlock(rw, &wall);
}

// glibc's clock variant, or its realtime translation on a libc older
// than 2.30: what a reentered thread, or any thread operating a
// pass-through mutex, runs.
int real_mutex_clocklock(pthread_mutex_t* m, clockid_t clockid,
                         const timespec* abstime) {
  if (real().mutex_clocklock != nullptr) {
    return real().mutex_clocklock(m, clockid, abstime);
  }
  timespec wall;
  const int rc = clock_deadline_to_realtime(clockid, abstime, &wall);
  return rc != 0 ? rc : real().mutex_timedlock(m, &wall);
}

// glibc keeps a mutex's type in the lock's own bytes, written by
// pthread_mutex_init or a static initializer, and never changes it. The
// low two bits are the kind (glibc's internal PTHREAD_MUTEX_KIND_MASK_NP,
// nptl/pthreadP.h); the bits above are protocol flags, which the
// registry reads to pass a mutex through.
bool recursive_kind(const pthread_mutex_t* m) {
  constexpr int kKindMask = 3;
  return (m->__data.__kind & kKindMask) == PTHREAD_MUTEX_RECURSIVE_NP;
}

// ---------------------------------------------------------------------
// Native condvars (mechanism 3): the app's pthread_cond_t bytes ARE the
// park::CondWord, on every thread.
// ---------------------------------------------------------------------

static_assert(sizeof(park::CondWord) <= sizeof(pthread_cond_t));
static_assert(alignof(park::CondWord) <= alignof(pthread_cond_t));

park::CondWord& cond_word(pthread_cond_t* c) {
  return *reinterpret_cast<park::CondWord*>(c);
}

// The CLOCK_MONOTONIC deadline a timed wait parks against. EINVAL, as
// in glibc, for a bad tv_nsec or a clock other than REALTIME/MONOTONIC.
int cond_deadline(clockid_t clockid, const timespec* abstime,
                  std::uint64_t* out) {
  if (abstime == nullptr || !platform::timespec_valid(*abstime)) {
    return EINVAL;
  }
  if (clockid == CLOCK_MONOTONIC) {
    *out = platform::ns_from_timespec(*abstime);
  } else if (clockid == CLOCK_REALTIME) {
    *out = platform::monotonic_deadline_from_realtime(*abstime);
  } else {
    return EINVAL;
  }
  return 0;
}

// A wait that releases and re-acquires glibc's own mutex, returning
// the re-acquire's error (a robust mutex's EOWNERDEAD) as glibc does.
int cond_wait_glibc(pthread_cond_t* c, pthread_mutex_t* m,
                    std::uint64_t deadline_mono_ns) {
  return park::cond_wait(
      cond_word(c), [m] { return real().mutex_unlock(m); },
      [m] { return real().mutex_lock(m); }, deadline_mono_ns);
}

// A wait whose mutex is routed the way the thread's own lock calls
// are. An app thread goes through the adopted handle, adopting on first
// sight: a wait on a mutex the caller does not hold is the shield's
// unbalanced or non-owner unlock, returned as EPERM before any wait. A
// reentered or pinned thread, or a pass-through mutex, locks glibc's
// mutex, so the wait releases and re-acquires that one. `site` is the
// app's return address.
int cond_wait_routed(pthread_cond_t* c, pthread_mutex_t* m,
                     std::uint64_t deadline_mono_ns, const void* site) {
  if (ri::preload_reentered()) return cond_wait_glibc(c, m, deadline_mono_ns);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope scope(site);
  ri::rl_mutex_t* h = reg().mutex_for(m);
  if (h == nullptr) return cond_wait_glibc(c, m, deadline_mono_ns);
  return park::cond_wait(
      cond_word(c), [h] { return ri::rl_mutex_unlock(h); },
      [h] { ri::rl_mutex_lock(h); }, deadline_mono_ns);
}

}  // namespace

// ---------------------------------------------------------------------
// The interposed entry points. Shape shared by the mutex and rwlock
// ones:
//
//   if (reentered) forward to glibc     — resilock machinery on stack
//   guard + site-override scopes        — internals forward; lockstat
//                                         attributes to the app frame
//   route through registry + rl_* shim
//
// A lock the registry passes through (no handle: a pshared rwlock; a
// pshared, robust or priority mutex) goes to glibc from the last step,
// on every thread.
//
// The guard must open BEFORE the registry call: adoption itself runs
// resilock machinery. The pthread_cond_* ones never forward (mechanism
// 3); a wait routes only its mutex (cond_wait_routed).
// ---------------------------------------------------------------------

extern "C" {

int pthread_mutex_init(pthread_mutex_t* m, const pthread_mutexattr_t* a) {
  if (ri::preload_reentered()) return real().mutex_init(m, a);
  ri::PreloadReentryScope guard;
  // Keep the underlying memory a valid REAL mutex too: exit-path code
  // running after the preload pins its thread (trace atexit) may route
  // this address to glibc, which must then find initialized state. An
  // init glibc rejects (EINVAL attr) must not leave a live adopted
  // handle behind a failure the app was told about.
  const int rc = real().mutex_init(m, a);
  if (rc != 0) return rc;
  reg().init_mutex(m);
  return 0;
}

int pthread_mutex_lock(pthread_mutex_t* m) {
  if (ri::preload_reentered()) return real().mutex_lock(m);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_mutex_t* h = reg().mutex_for(m);
  return h != nullptr ? ri::rl_mutex_lock(h) : real().mutex_lock(m);
}

int pthread_mutex_trylock(pthread_mutex_t* m) {
  if (ri::preload_reentered()) return real().mutex_trylock(m);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_mutex_t* h = reg().mutex_for(m);
  if (h == nullptr) return real().mutex_trylock(m);
  return recursive_kind(m) ? ri::rl_mutex_trylock_recursive(h)
                           : ri::rl_mutex_trylock(h);
}

int pthread_mutex_timedlock(pthread_mutex_t* m, const timespec* abstime) {
  if (ri::preload_reentered()) return real().mutex_timedlock(m, abstime);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_mutex_t* h = reg().mutex_for(m);
  return h != nullptr ? ri::rl_mutex_timedlock(h, abstime)
                      : real().mutex_timedlock(m, abstime);
}

int pthread_mutex_clocklock(pthread_mutex_t* m, clockid_t clockid,
                            const timespec* abstime) {
  if (ri::preload_reentered()) {
    return real_mutex_clocklock(m, clockid, abstime);
  }
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_mutex_t* h = reg().mutex_for(m);
  if (h == nullptr) return real_mutex_clocklock(m, clockid, abstime);
  timespec wall;
  const int rc = clock_deadline_to_realtime(clockid, abstime, &wall);
  return rc != 0 ? rc : ri::rl_mutex_timedlock(h, &wall);
}

int pthread_mutex_unlock(pthread_mutex_t* m) {
  if (ri::preload_reentered()) return real().mutex_unlock(m);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  // Unlock of a never-seen address still adopts: the shield then
  // reports it as a non-owner unlock (errorcheck EPERM) instead of
  // letting glibc corrupt — that IS the misuse class under test.
  ri::rl_mutex_t* h = reg().mutex_for(m);
  return h != nullptr ? ri::rl_mutex_unlock(h) : real().mutex_unlock(m);
}

int pthread_mutex_destroy(pthread_mutex_t* m) {
  if (ri::preload_reentered()) return real().mutex_destroy(m);
  ri::PreloadReentryScope guard;
  // A pass-through mutex is glibc's, so glibc's answer is the one.
  const bool adopted = reg().find_mutex(m) != nullptr;
  const int rc = reg().destroy_mutex(m);
  const int glibc_rc = real().mutex_destroy(m);
  return adopted ? rc : glibc_rc;
}

int pthread_rwlock_init(pthread_rwlock_t* rw,
                        const pthread_rwlockattr_t* a) {
  if (ri::preload_reentered()) return real().rwlock_init(rw, a);
  ri::PreloadReentryScope guard;
  const int rc = real().rwlock_init(rw, a);
  if (rc != 0) return rc;
  reg().init_rwlock(rw);
  return 0;
}

int pthread_rwlock_rdlock(pthread_rwlock_t* rw) {
  if (ri::preload_reentered()) return real().rwlock_rdlock(rw);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  return h != nullptr ? ri::rl_rwlock_rdlock(h) : real().rwlock_rdlock(rw);
}

int pthread_rwlock_wrlock(pthread_rwlock_t* rw) {
  if (ri::preload_reentered()) return real().rwlock_wrlock(rw);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  return h != nullptr ? ri::rl_rwlock_wrlock(h) : real().rwlock_wrlock(rw);
}

int pthread_rwlock_tryrdlock(pthread_rwlock_t* rw) {
  if (ri::preload_reentered()) return real().rwlock_tryrdlock(rw);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  return h != nullptr ? ri::rl_rwlock_tryrdlock(h)
                      : real().rwlock_tryrdlock(rw);
}

int pthread_rwlock_trywrlock(pthread_rwlock_t* rw) {
  if (ri::preload_reentered()) return real().rwlock_trywrlock(rw);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  return h != nullptr ? ri::rl_rwlock_trywrlock(h)
                      : real().rwlock_trywrlock(rw);
}

int pthread_rwlock_timedrdlock(pthread_rwlock_t* rw,
                               const timespec* abstime) {
  if (ri::preload_reentered()) {
    return real().rwlock_timedrdlock(rw, abstime);
  }
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  return h != nullptr ? ri::rl_rwlock_timedrdlock(h, abstime)
                      : real().rwlock_timedrdlock(rw, abstime);
}

int pthread_rwlock_timedwrlock(pthread_rwlock_t* rw,
                               const timespec* abstime) {
  if (ri::preload_reentered()) {
    return real().rwlock_timedwrlock(rw, abstime);
  }
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  return h != nullptr ? ri::rl_rwlock_timedwrlock(h, abstime)
                      : real().rwlock_timedwrlock(rw, abstime);
}

int pthread_rwlock_clockrdlock(pthread_rwlock_t* rw, clockid_t clockid,
                               const timespec* abstime) {
  if (ri::preload_reentered()) {
    return real_rwlock_clockrdlock(rw, clockid, abstime);
  }
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  if (h == nullptr) return real_rwlock_clockrdlock(rw, clockid, abstime);
  timespec wall;
  const int rc = clock_deadline_to_realtime(clockid, abstime, &wall);
  return rc != 0 ? rc : ri::rl_rwlock_timedrdlock(h, &wall);
}

int pthread_rwlock_clockwrlock(pthread_rwlock_t* rw, clockid_t clockid,
                               const timespec* abstime) {
  if (ri::preload_reentered()) {
    return real_rwlock_clockwrlock(rw, clockid, abstime);
  }
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  if (h == nullptr) return real_rwlock_clockwrlock(rw, clockid, abstime);
  timespec wall;
  const int rc = clock_deadline_to_realtime(clockid, abstime, &wall);
  return rc != 0 ? rc : ri::rl_rwlock_timedwrlock(h, &wall);
}

int pthread_rwlock_unlock(pthread_rwlock_t* rw) {
  if (ri::preload_reentered()) return real().rwlock_unlock(rw);
  ri::PreloadReentryScope guard;
  resilock::observe::InterposedSiteScope site(RESILOCK_RETURN_ADDRESS());
  ri::rl_rwlock_t* h = reg().rwlock_for(rw);
  return h != nullptr ? ri::rl_rwlock_unlock(h) : real().rwlock_unlock(rw);
}

int pthread_rwlock_destroy(pthread_rwlock_t* rw) {
  if (ri::preload_reentered()) return real().rwlock_destroy(rw);
  ri::PreloadReentryScope guard;
  // An adopted lock's own bytes are still a valid idle glibc rwlock, so
  // glibc's destroy answers for adopted and pass-through locks alike.
  reg().destroy_rwlock(rw);
  return real().rwlock_destroy(rw);
}

int pthread_cond_init(pthread_cond_t* c, const pthread_condattr_t* a) {
  clockid_t clock = CLOCK_REALTIME;
  if (a != nullptr) pthread_condattr_getclock(a, &clock);
  std::memset(c, 0, sizeof(*c));
  cond_word(c).clock = static_cast<std::uint32_t>(clock);
  return 0;
}

int pthread_cond_wait(pthread_cond_t* c, pthread_mutex_t* m) {
  return cond_wait_routed(c, m, platform::kNsInfinite,
                          RESILOCK_RETURN_ADDRESS());
}

int pthread_cond_timedwait(pthread_cond_t* c, pthread_mutex_t* m,
                           const timespec* abstime) {
  std::uint64_t deadline;
  const int rc = cond_deadline(static_cast<clockid_t>(cond_word(c).clock),
                               abstime, &deadline);
  return rc != 0 ? rc
                 : cond_wait_routed(c, m, deadline, RESILOCK_RETURN_ADDRESS());
}

int pthread_cond_clockwait(pthread_cond_t* c, pthread_mutex_t* m,
                           clockid_t clockid, const timespec* abstime) {
  std::uint64_t deadline;
  const int rc = cond_deadline(clockid, abstime, &deadline);
  return rc != 0 ? rc
                 : cond_wait_routed(c, m, deadline, RESILOCK_RETURN_ADDRESS());
}

// Signal, broadcast and destroy run no resilock machinery (atomics and
// a futex syscall), so every thread takes the same path.
int pthread_cond_signal(pthread_cond_t* c) {
  park::cond_signal(cond_word(c));
  return 0;
}

int pthread_cond_broadcast(pthread_cond_t* c) {
  park::cond_broadcast(cond_word(c));
  return 0;
}

int pthread_cond_destroy(pthread_cond_t* c) {
  park::cond_quiesce(cond_word(c));
  return 0;
}

}  // extern "C"

namespace {

__attribute__((constructor)) void preload_ctor() {
  // Resolve every real symbol before the first interposed call — no
  // lock operation should ever enter the dynamic linker.
  ri::PreloadReentryScope guard;
  (void)real();
}

__attribute__((destructor)) void preload_dtor() {
  // Library destructors run after atexit handlers; anything later on
  // this thread (other .so destructors) must bypass adoption.
  ri::preload_pin_thread();
  if (const char* path =
          resilock::platform::env_raw("RESILOCK_PRELOAD_STATS_FILE")) {
    std::FILE* f = std::fopen(path, "w");
    if (f != nullptr) {
      const ri::PreloadRegistryStats s =
          ri::PreloadRegistry::instance().stats();
      std::fprintf(
          f,
          "{\"adopted_mutexes\":%llu,\"init_mutexes\":%llu,"
          "\"destroyed_mutexes\":%llu,\"mutexes_robust\":%llu,"
          "\"mutexes_prio_inherit\":%llu,\"mutexes_prio_protect\":%llu,"
          "\"mutexes_pshared\":%llu,\"adopted_rwlocks\":%llu,"
          "\"init_rwlocks\":%llu,\"destroyed_rwlocks\":%llu,"
          "\"rwlocks_reader_pref\":%llu,\"rwlocks_writer_pref\":%llu,"
          "\"rwlocks_passthrough\":%llu,\"live_nodes\":%llu}\n",
          static_cast<unsigned long long>(s.adopted_mutexes),
          static_cast<unsigned long long>(s.init_mutexes),
          static_cast<unsigned long long>(s.destroyed_mutexes),
          static_cast<unsigned long long>(s.mutexes_robust),
          static_cast<unsigned long long>(s.mutexes_prio_inherit),
          static_cast<unsigned long long>(s.mutexes_prio_protect),
          static_cast<unsigned long long>(s.mutexes_pshared),
          static_cast<unsigned long long>(s.adopted_rwlocks),
          static_cast<unsigned long long>(s.init_rwlocks),
          static_cast<unsigned long long>(s.destroyed_rwlocks),
          static_cast<unsigned long long>(s.rwlocks_reader_pref),
          static_cast<unsigned long long>(s.rwlocks_writer_pref),
          static_cast<unsigned long long>(s.rwlocks_passthrough),
          static_cast<unsigned long long>(s.live_nodes));
      std::fclose(f);
    }
  }
}

}  // namespace
