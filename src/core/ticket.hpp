// Ticket lock. Paper §3.2; protocol from Mellor-Crummey & Scott 1991 §2.
//
// FIFO: a thread takes a ticket by atomically incrementing nextTicket and
// spins until nowServing equals its ticket; release() increments
// nowServing.
//
// Unbalanced-unlock behavior (original): an extra increment of nowServing
// admits the successor while the holder is still inside — one misuse lets
// at most 2 threads in simultaneously, N misuses at most N+1. Worse,
// nowServing can move past nextTicket, after which issued tickets are
// skipped forever: in almost all cases all other threads starve (§3.2).
// The misbehaving thread itself does not starve unless it re-acquires.
//
// Resilient fix (paper Figure 3): introduce a PID field (this is the one
// lock where the paper accepts a new field). It is set after acquisition;
// release() refuses to bump nowServing unless the caller's PID matches.
//
// Parking (src/park/): nowServing is 64-bit and per-waiter values are
// dense integers, so waiters cannot futex on it directly (futex words
// are 32-bit) nor on a private flag (there is no per-waiter node).
// Instead the lock carries a 32-bit park epoch: a waiter that loses
// the bounded spin registers in parked_, re-checks nowServing, and
// futex_waits on the epoch. Every release that sees registered
// parkers bumps the epoch and broadcast-wakes; woken waiters re-check
// their ticket and re-park. The thundering herd is bounded by the
// parked population and FIFO is preserved — tickets, not wake order,
// decide who enters. A seq_cst fence pairs the waiter's register/
// re-check with the releaser's publish/check (Dekker), so a parker
// can never slip between the releaser's store and its wake decision.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/resilience.hpp"
#include "core/verify_access.hpp"
#include "park/parking_lot.hpp"
#include "platform/spin.hpp"
#include "runtime/timer.hpp"
#include "platform/thread_registry.hpp"

namespace resilock {

template <Resilience R>
class BasicTicketLock {
  static constexpr std::uint32_t kNoOwner = 0;

 public:
  BasicTicketLock() = default;
  BasicTicketLock(const BasicTicketLock&) = delete;
  BasicTicketLock& operator=(const BasicTicketLock&) = delete;

  void acquire() {
    const std::uint64_t my_ticket =
        next_ticket_.fetch_add(1, std::memory_order_relaxed);
    wait_for_turn(my_ticket);
    if constexpr (R == kResilient) {
      // Relaxed is enough: the owning thread reads it back in program
      // order; other threads only ever need to see a value != their pid.
      owner_.store(platform::self_pid() + 1, std::memory_order_relaxed);
    }
  }

  // Succeeds only when the lock is free and no ticket is pending.
  bool try_acquire() {
    std::uint64_t serving = now_serving_.load(std::memory_order_acquire);
    std::uint64_t expected = serving;
    if (!next_ticket_.compare_exchange_strong(expected, serving + 1,
                                              std::memory_order_acquire,
                                              std::memory_order_relaxed)) {
      return false;
    }
    if constexpr (R == kResilient) {
      owner_.store(platform::self_pid() + 1, std::memory_order_relaxed);
    }
    return true;
  }

  bool release() {
    if constexpr (R == kResilient) {
      // The extra load the paper charges to the fix (§6: the modified
      // release has a load where the original had only a store). The
      // pid is claimed before the load (see TasLock::release).
      if (misuse_checks_enabled()) {
        const std::uint32_t me = platform::self_pid() + 1;
        if (owner_.load(std::memory_order_relaxed) != me) return false;
      }
      owner_.store(kNoOwner, std::memory_order_relaxed);
    }
    now_serving_.store(now_serving_.load(std::memory_order_relaxed) + 1,
                       std::memory_order_release);
    maybe_wake_parked();
    return true;
  }

  // Shield rescue hook: a bogus extra serving bump was absorbed, but
  // parked waiters may still be sleeping on the old epoch. Bump and
  // broadcast so they re-check their tickets.
  void misuse_wake() noexcept {
    park::ParkStats::instance().misuse_wakes.fetch_add(
        1, std::memory_order_relaxed);
    wake_all_parked();
  }

  std::uint32_t parked_waiters() const noexcept {
    return parked_.load(std::memory_order_acquire);
  }

  // Cohort detection property (Dice et al. 2012, required of the local
  // lock in a cohort lock, §3.8.4): are other threads waiting right now?
  bool has_waiters() const {
    return next_ticket_.load(std::memory_order_relaxed) >
           now_serving_.load(std::memory_order_relaxed) + 1;
  }

  // Ownership query used by the cohort combinator's resilient release
  // path; the original flavor cannot check and reports true.
  bool owned_by_caller() const {
    if constexpr (R == kResilient) {
      const std::uint32_t me = platform::self_pid() + 1;
      return owner_.load(std::memory_order_relaxed) == me;
    } else {
      return true;
    }
  }

  static constexpr Resilience resilience() { return R; }

 private:
  friend struct VerifyAccess;

  void wait_for_turn(std::uint64_t my_ticket) {
    platform::SpinWait w;
    const std::uint32_t budget = park::park_spins();
    for (std::uint32_t i = 0; i < budget; ++i) {
      if (now_serving_.load(std::memory_order_acquire) == my_ticket)
        return;
      w.pause();
    }
    if (!park::parking_enabled()) {
      while (now_serving_.load(std::memory_order_acquire) != my_ticket)
        w.pause();
      return;
    }
    park::ParkStats& g = park::ParkStats::instance();
    park::ThreadParkTally& tally = park::ThreadParkTally::mine();
    for (;;) {
      // Order matters: epoch sample BEFORE the serving re-check, so a
      // release that lands after the re-check has already bumped past
      // our sampled epoch and the futex_wait refuses to sleep.
      const std::uint32_t e =
          park_epoch_.load(std::memory_order_acquire);
      parked_.fetch_add(1, std::memory_order_seq_cst);
      if (now_serving_.load(std::memory_order_seq_cst) == my_ticket) {
        parked_.fetch_sub(1, std::memory_order_release);
        return;
      }
      const std::uint64_t t0 = runtime::now_ns();
      g.currently_parked.fetch_add(1, std::memory_order_relaxed);
      const park::WaitResult r =
          park::futex_wait(&park_epoch_, e, nullptr);
      g.currently_parked.fetch_sub(1, std::memory_order_relaxed);
      parked_.fetch_sub(1, std::memory_order_release);
      if (r != park::WaitResult::kValueChanged) {
        tally.parks += 1;
        tally.park_ns += runtime::now_ns() - t0;
        g.parks.fetch_add(1, std::memory_order_relaxed);
      }
      if (now_serving_.load(std::memory_order_acquire) == my_ticket) {
        if (r != park::WaitResult::kValueChanged) {
          tally.wakes += 1;
          g.wakes.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      g.wakes_spurious.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Releaser half of the Dekker pairing with wait_for_turn. Cheap when
  // parking is cold: one relaxed flag load, one acquire load.
  void maybe_wake_parked() noexcept {
    if (!park::parking_enabled() &&
        parked_.load(std::memory_order_acquire) == 0) {
      return;
    }
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (parked_.load(std::memory_order_relaxed) == 0) return;
    wake_all_parked();
  }

  void wake_all_parked() noexcept {
    park_epoch_.fetch_add(1, std::memory_order_release);
    park::futex_wake_all(&park_epoch_);
  }

  struct Empty {};
  alignas(64) std::atomic<std::uint64_t> next_ticket_{0};
  alignas(64) std::atomic<std::uint64_t> now_serving_{0};
  // Parking epoch + registered-parker count (see file comment). Own
  // line so parker churn does not bounce the ticket counters.
  alignas(64) std::atomic<std::uint32_t> park_epoch_{0};
  std::atomic<std::uint32_t> parked_{0};
  // Present only in the resilient flavor: the PID field of Figure 3.
  [[no_unique_address]] std::conditional_t<R == kResilient,
                                           std::atomic<std::uint32_t>, Empty>
      owner_{};
};

using TicketLock = BasicTicketLock<kOriginal>;
using TicketLockResilient = BasicTicketLock<kResilient>;

}  // namespace resilock
