// A condition variable in 16 bytes of caller-owned memory: the
// protocol libresilock_preload.so runs inside an application's own
// pthread_cond_t, kept here so it can be tested in-process.
//
// State (all-zero is a valid idle condvar, so a PTHREAD_COND_INITIALIZER
// static needs no init call):
//
//   seq    32-bit futex word. Every signal or broadcast that issues a
//          wake bumps it, so a waiter that read it before releasing its
//          mutex cannot sleep through that wake (futex_wait compares).
//   clock  the clockid_t a timed wait's abstime is read on; 0 is
//          CLOCK_REALTIME, the POSIX default.
//   state  {waiters:32 | wakes:32} — registered waiters, and wake
//          tokens issued to them but not yet consumed. wakes <= waiters.
//
//   wait:      s = seq; waiters+1; release the mutex (an error returns
//              right away: nothing waited, nothing re-acquired); sleep
//              while seq == s, up to the deadline; depart (waiters-1,
//              and wakes-1 if any token is outstanding); re-acquire.
//   signal:    CAS wakes+1 only while waiters > wakes, then seq+1 and
//              wake one. With no unsignalled waiter it is one load and
//              no syscall.
//   broadcast: wakes = waiters, seq+1, wake all.
//
// The tokens keep a signal from re-waking: without them every signal
// while any waiter is registered bumps seq and enters the kernel, even
// when the waiter it would wake is already runnable and has not run.
// Departure drops a token whoever it was meant for. A waiter that times
// out, or returns on a seq bump meant for another, leaves one behind;
// if departures did not consume them, wakes would climb to waiters and
// every later signal would be a no-op while waiters sleep. A token that
// a departure takes away from a sleeper is not a lost wake: its issuing
// signal bumped seq and woke one kernel sleeper, or found none asleep,
// in which case every waiter registered before it sees the new seq and
// returns.
//
// A wait registers before it releases the mutex, so a signaller that
// changes the predicate under that mutex always counts it.
//
// The sleep is a cancellation point, as pthread_cond_wait's is. A
// deferred pthread_cancel signals only a thread inside a libc
// cancellation point, so a raw futex wait would sleep through it; the
// sleep runs with asynchronous cancellation enabled instead, which is
// what glibc's own blocking cancellation points did around their
// syscall. A cancel that acts there unwinds through cond_wait, which
// departs, hands on any wake it may have taken (a cancelled waiter
// consumes no signal), and re-acquires the mutex before the caller's
// cleanup handlers run. Only the native futex backend does this: the
// portable fallback sleeps holding a stripe mutex an async cancel would
// leave locked.
#pragma once

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <type_traits>

#include "park/futex.hpp"
#include "platform/chrono_to_timespec.hpp"
#include "platform/spin.hpp"

#if RESILOCK_HAVE_FUTEX
#include <pthread.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace resilock::park {

struct CondWord {
  std::atomic<std::uint32_t> seq{0};
  std::uint32_t clock = 0;
  std::atomic<std::uint64_t> state{0};  // waiters << 32 | wakes
};

namespace cond_detail {

inline constexpr std::uint64_t kOneWaiter = std::uint64_t{1} << 32;
inline constexpr std::uint64_t kWakesMask = kOneWaiter - 1;

inline std::uint64_t waiters(std::uint64_t s) { return s >> 32; }
inline std::uint64_t wakes(std::uint64_t s) { return s & kWakesMask; }

inline void depart(CondWord& cw) {
  std::uint64_t s = cw.state.load(std::memory_order_relaxed);
  std::uint64_t next;
  do {
    next = s - kOneWaiter - (wakes(s) != 0 ? 1 : 0);
  } while (!cw.state.compare_exchange_weak(s, next, std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
}

// One sleep on seq with asynchronous cancellation enabled. Out of line
// and with no destructors of its own, so a cancel landing on any of its
// instructions unwinds straight into the caller's cleanup.
[[gnu::noinline]] inline WaitResult sleep_cancellable(
    CondWord& cw, std::uint32_t s, std::uint64_t deadline_mono_ns) {
#if RESILOCK_HAVE_FUTEX
  int type;
  pthread_setcanceltype(PTHREAD_CANCEL_ASYNCHRONOUS, &type);
#endif
  const WaitResult r = deadline_mono_ns == platform::kNsInfinite
                           ? futex_wait(&cw.seq, s)
                           : futex_wait_until(&cw.seq, s, deadline_mono_ns);
#if RESILOCK_HAVE_FUTEX
  pthread_setcanceltype(type, &type);
#endif
  return r;
}

}  // namespace cond_detail

inline void cond_signal(CondWord& cw) {
  std::uint64_t s = cw.state.load(std::memory_order_seq_cst);
  do {
    if (cond_detail::waiters(s) <= cond_detail::wakes(s)) return;
  } while (!cw.state.compare_exchange_weak(s, s + 1, std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
  cw.seq.fetch_add(1, std::memory_order_release);
  futex_wake_one(&cw.seq);
}

inline void cond_broadcast(CondWord& cw) {
  std::uint64_t s = cw.state.load(std::memory_order_seq_cst);
  std::uint64_t all;
  do {
    all = cond_detail::waiters(s);
    if (all <= cond_detail::wakes(s)) return;
  } while (!cw.state.compare_exchange_weak(s, (all << 32) | all,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed));
  cw.seq.fetch_add(1, std::memory_order_release);
  futex_wake_all(&cw.seq);
}

// Waits on `cw`. `release()` drops the caller's mutex and returns 0 or
// an error code; `reacquire()` takes it back, and may return an error
// code of its own (a robust mutex's EOWNERDEAD). Returns 0 on a wake
// (spurious wakes included, as POSIX allows), ETIMEDOUT once the
// absolute CLOCK_MONOTONIC deadline passes (kNsInfinite: no deadline),
// reacquire()'s nonzero code over either, or release()'s error without
// waiting or re-acquiring.
template <typename Release, typename Reacquire>
int cond_wait(CondWord& cw, Release&& release, Reacquire&& reacquire,
              std::uint64_t deadline_mono_ns = platform::kNsInfinite) {
  const std::uint32_t s = cw.seq.load(std::memory_order_acquire);
  cw.state.fetch_add(cond_detail::kOneWaiter, std::memory_order_seq_cst);
  const int released = release();
  if (released != 0) {
    cond_detail::depart(cw);
    return released;
  }
  // Runs only when a cancellation unwinds out of the sleep.
  struct CancelExit {
    CondWord& cw;
    Reacquire& reacquire;
    bool armed = true;
    ~CancelExit() {
      if (!armed) return;
#if defined(__SANITIZE_ADDRESS__)
      // The cancel abandoned the sleep's frames below this one with
      // their redzones still poisoned, and ASan's own no-return hook on
      // the way out trips over them unless a later frame happens to
      // overwrite them: clear the page below.
      const auto fp = reinterpret_cast<std::uintptr_t>(
          __builtin_frame_address(0));
      __asan_unpoison_memory_region(reinterpret_cast<void*>(fp - 4096),
                                    4096 + 64);
#endif
      cond_detail::depart(cw);
      cond_signal(cw);
      reacquire();
    }
  } cancel_exit{cw, reacquire};
  int rc = 0;
  while (cw.seq.load(std::memory_order_acquire) == s) {
    if (cond_detail::sleep_cancellable(cw, s, deadline_mono_ns) ==
        WaitResult::kTimedOut) {
      rc = ETIMEDOUT;
      break;
    }
  }
  cancel_exit.armed = false;
  cond_detail::depart(cw);
  if constexpr (std::is_void_v<decltype(reacquire())>) {
    reacquire();
    return rc;
  } else {
    const int relocked = reacquire();
    return relocked != 0 ? relocked : rc;
  }
}

// pthread_cond_destroy: returns once every registered waiter has
// departed, so the caller may free the memory. A woken waiter still
// touches `state` on its way out; a waiter that is still blocked makes
// the destroy undefined behaviour, and this spins until it leaves.
inline void cond_quiesce(const CondWord& cw) {
  platform::SpinWait w;
  while (cond_detail::waiters(cw.state.load(std::memory_order_acquire)) != 0) {
    w.pause();
  }
}

}  // namespace resilock::park
